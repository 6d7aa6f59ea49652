"""Training loop: files, determinism, resume, ablation plumbing."""
import concurrent.futures
import csv
import json
import multiprocessing
import os

import numpy as np
import pytest

from dataclasses import replace
from types import SimpleNamespace

from refalign.config import RunConfig, W_SWEEP_GRID
from refalign.data import CorpusConfig, generate_corpus, sample_batch
from refalign.encoders import EncoderConfig
from refalign.evaluation import score_split
from refalign.model import model_for_corpus, read_checkpoint, save_checkpoint
from refalign.tensor import Adam, NumericsError, ScheduleConfig
import refalign.train
from refalign.train import (METRIC_COLUMNS, REPORT_KEYS, ablate, format_ablation_table,
                            masked_eval, train, train_step, write_ablation_report)

_CC = CorpusConfig(n_train_identities=12, n_test_identities=6,
                   pairs_per_identity=2, n_slots=3, values_per_slot=5,
                   background_dims=4, seed=2)


def _cfg(tmp_path, **kw):
    base = dict(corpus=_CC,
                encoder=EncoderConfig(d=16, n_heads=4),
                epochs=3, warmup_epochs=1, batch_identities=4, batch_pairs=2,
                eval_every=0, run_id="t", out_dir=str(tmp_path / "runs"))
    base.update(kw)
    return RunConfig(**base)


def test_train_writes_metrics_and_checkpoint(tmp_path):
    cfg = _cfg(tmp_path).with_variant("Full")
    res = train(cfg)
    assert res.steps == 3 * 3
    step, meta, arrays = read_checkpoint(res.checkpoint_path)
    assert step == 9
    # the config records the seed and run_id once
    assert set(meta) == {"config", "metrics"}
    assert meta["config"]["seed"] == 0 and meta["config"]["run_id"] == cfg.run_id
    assert meta["config"]["epochs"] == 3
    assert "reference.bank" in arrays and "adam.t" in arrays

    rows = [json.loads(line) for line in open(res.metrics_jsonl)]
    assert [set(r) for r in rows] == [set(METRIC_COLUMNS)] * 4
    # the checkpoint carries the run's rows, which a resume starts from
    assert meta["metrics"] == rows
    # refinement doubles the (t2i, i2t) row pair
    assert sorted((r["direction"], r["refined"]) for r in rows) == \
        [("i2t", False), ("i2t", True), ("t2i", False), ("t2i", True)]
    assert res.final_metrics == rows

    with open(res.metrics_csv, newline="") as f:
        table = list(csv.DictReader(f))
    assert len(table) == 4
    assert tuple(table[0]) == METRIC_COLUMNS


def test_eval_cadence(tmp_path, monkeypatch):
    saved = []
    write = refalign.train.save_checkpoint

    def counted(path, params, step, *rest):
        saved.append(step)
        write(path, params, step, *rest)

    monkeypatch.setattr(refalign.train, "save_checkpoint", counted)
    res = train(_cfg(tmp_path, epochs=4, eval_every=2, run_id="cad"))
    rows = [json.loads(line) for line in open(res.metrics_jsonl)]
    # epochs 2 and 4, two directions each, unrefined only
    assert [r["step"] for r in rows] == [6, 6, 12, 12]
    assert all(not r["refined"] for r in rows)
    # the checkpoint follows each eval; at eval_every=0 it is written once
    assert saved == [6, 12]
    saved.clear()
    train(_cfg(tmp_path, run_id="once"))
    assert saved == [9]


def test_training_is_bit_deterministic(tmp_path):
    cfg = _cfg(tmp_path, run_id="det").with_variant("Full")
    first = train(cfg)
    files = [first.checkpoint_path, first.metrics_jsonl, first.metrics_csv]
    blobs = [open(path, "rb").read() for path in files]
    # a fresh run into the same out_dir replaces the first run's files,
    # never appends to them
    train(cfg)
    assert [open(path, "rb").read() for path in files] == blobs


def _interrupt(cfg, monkeypatch, step):
    """Run cfg until train_step raises at step; -> its checkpoint path,
    which holds the last eval before that step."""
    step_once = refalign.train.train_step

    def failing(model, optimizer, batch, cfg, schedule, at):
        if at == step:
            raise RuntimeError("interrupted")
        return step_once(model, optimizer, batch, cfg, schedule, at)

    with monkeypatch.context() as patch:
        patch.setattr(refalign.train, "train_step", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            train(cfg)
    return os.path.join(cfg.out_dir, f"{cfg.run_id}.ckpt")


def test_stop_and_resume_matches_straight_run(tmp_path, monkeypatch):
    straight = _cfg(tmp_path, run_id="straight", eval_every=1).with_variant("C")
    broken = _cfg(tmp_path, run_id="resumed", eval_every=1,
                  out_dir=str(tmp_path / "part")).with_variant("C")
    full = train(straight)
    # 3 steps per epoch: fail the first step of epoch 2
    part = _interrupt(broken, monkeypatch, step=4)
    assert read_checkpoint(part)[0] == 3
    resumed = train(broken, resume_from=part)
    assert resumed.steps == full.steps
    _, _, want = read_checkpoint(full.checkpoint_path)
    _, _, got = read_checkpoint(resumed.checkpoint_path)
    for name in want:
        np.testing.assert_array_equal(want[name], got[name])
    # the resume starts from the interrupted part's rows (epoch 1)
    rows = [json.loads(line) for line in open(resumed.metrics_jsonl)]
    assert [r["step"] for r in rows] == [3, 3, 6, 6, 9, 9]
    assert [dict(json.loads(line), run_id=resumed.config.run_id)
            for line in open(full.metrics_jsonl)] == rows
    with open(resumed.metrics_csv, newline="") as f:
        assert [int(r["step"]) for r in csv.DictReader(f)] == [3, 3, 6, 6, 9, 9]


def test_resume_validation(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, run_id="guard", eval_every=1).with_variant("C")
    part = _interrupt(cfg, monkeypatch, step=4)
    with pytest.raises(ValueError, match="seed"):
        train(cfg.with_seed(1), resume_from=part)
    with pytest.raises(ValueError, match="'peak_lr'"):
        train(replace(cfg, peak_lr=2e-3), resume_from=part)
    with pytest.raises(ValueError, match="'epochs'"):
        train(replace(cfg, epochs=4), resume_from=part)
    with pytest.raises(ValueError, match="'corpus.p_drop'"):
        train(replace(cfg, corpus=replace(cfg.corpus, p_drop=0.5)),
              resume_from=part)
    # where the run writes is not part of what it computes
    moved = train(replace(cfg, run_id="moved", out_dir=str(tmp_path / "moved")),
                  resume_from=part)
    assert moved.steps == 3 * 3

    corpus = generate_corpus(cfg.corpus)
    model = model_for_corpus(cfg.encoder, corpus, cfg.seed)
    odd = str(tmp_path / "odd.ckpt")
    save_checkpoint(odd, model.named_parameters(), step=4,
                    meta={"run_seed": 0}, optimizer=Adam(model.parameters()))
    with pytest.raises(ValueError, match="boundary"):
        train(cfg, resume_from=odd)


@pytest.mark.parametrize("adam_t, match", [
    # train() steps Adam once per step, so a count off the step is not this run's
    (2.0, r"^resume: .*bad\.ckpt is at step 3 but its Adam state is at step 2$"),
    # a checkpoint saved without an optimizer names the first missing state
    (None, r"^Adam: state adam\.m\.0 is missing$")], ids=["off-step", "no-optimizer"])
def test_resume_refuses_adam_state_not_of_its_run(tmp_path, monkeypatch, adam_t, match):
    cfg = _cfg(tmp_path, run_id="adam", eval_every=1).with_variant("C")
    part = _interrupt(cfg, monkeypatch, step=4)
    step, meta, arrays = read_checkpoint(part)
    if adam_t is None:
        arrays = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    else:
        arrays["adam.t"] = np.asarray(adam_t)
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(bad, {k: SimpleNamespace(data=v) for k, v in arrays.items()}, step, meta)
    with pytest.raises(ValueError, match=match):
        train(cfg, resume_from=bad)


def _run_files(res):
    return [open(path, "rb").read()
            for path in (res.checkpoint_path, res.metrics_jsonl, res.metrics_csv)]


def test_resume_refuses_a_finished_run(tmp_path):
    res = train(_cfg(tmp_path, run_id="done", eval_every=1).with_variant("C"))
    before = _run_files(res)
    with pytest.raises(ValueError, match=r"done-C\.ckpt is at step 9, .* finished"):
        train(res.config, resume_from=res.checkpoint_path)
    assert _run_files(res) == before


def test_resume_drops_a_torn_last_row(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, run_id="torn", eval_every=1).with_variant("C")
    straight = train(cfg)
    want = _run_files(straight)
    # a rerun is interrupted in the middle of the first row of its step-6 eval
    part = _interrupt(cfg, monkeypatch, step=7)
    with open(straight.metrics_jsonl, "ab") as f:
        f.write(want[1].splitlines(keepends=True)[4][:40])
    train(cfg, resume_from=part)
    assert _run_files(straight) == want


def test_resume_ignores_a_torn_row_before_the_last(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, run_id="mid", eval_every=1).with_variant("C")
    straight = train(cfg)
    want = _run_files(straight)
    part = _interrupt(cfg, monkeypatch, step=7)
    lines = open(straight.metrics_jsonl, "rb").readlines()
    lines[1] = lines[1][:40] + b"\n"
    with open(straight.metrics_jsonl, "wb") as f:
        f.writelines(lines)
    # the resume never reads the metric files; it rewrites them from the
    # checkpoint's rows
    train(cfg, resume_from=part)
    assert _run_files(straight) == want


def test_resume_rewrites_deleted_metric_files(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, run_id="lost", eval_every=1).with_variant("C")
    straight = train(cfg)
    want = _run_files(straight)
    part = _interrupt(cfg, monkeypatch, step=7)
    os.remove(straight.metrics_jsonl)
    os.remove(straight.metrics_csv)
    train(cfg, resume_from=part)
    assert _run_files(straight) == want


def test_resume_refuses_a_checkpoint_without_metrics(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, run_id="bare", eval_every=1).with_variant("C")
    part = _interrupt(cfg, monkeypatch, step=7)
    step, meta, arrays = read_checkpoint(part)
    params = {name: SimpleNamespace(data=arr) for name, arr in arrays.items()}
    row = meta["metrics"][0]
    out = tmp_path / "runs"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # no rows; rows that are not a list; a row that is not an object; a
    # row short of a column; a row with an extra one
    for metrics in (None, {"0": row}, [row, "row"],
                    [{k: v for k, v in row.items() if k != "R@1"}], [{**row, "R@50": 1.0}]):
        bad = {"config": meta["config"]}
        error = "records no metrics"
        if metrics is not None:
            bad["metrics"] = metrics
            error = "records malformed metric rows"
        save_checkpoint(str(tmp_path / "bad.ckpt"), params, step, bad)
        with pytest.raises(ValueError, match=rf"^resume: checkpoint .*bad\.ckpt {error}"):
            train(cfg, resume_from=str(tmp_path / "bad.ckpt"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_train_rejects_foreign_corpus(tmp_path):
    other = generate_corpus(CorpusConfig(n_train_identities=12,
                                         n_test_identities=6,
                                         pairs_per_identity=2, seed=9))
    with pytest.raises(ValueError, match="corpus does not match"):
        train(_cfg(tmp_path), corpus=other)


def test_baseline_never_touches_the_bank(tmp_path):
    cfg = _cfg(tmp_path, run_id="bank")
    res = train(cfg.with_variant("Baseline"))
    fresh = model_for_corpus(cfg.encoder, res.corpus, cfg.seed)
    np.testing.assert_array_equal(res.model.bank.ref.data,
                                  fresh.bank.ref.data)
    moved = train(cfg.with_variant("C"), corpus=res.corpus)
    assert moved.model.bank.ref.data.tobytes() != fresh.bank.ref.data.tobytes()


def test_masked_eval_contract(tmp_path):
    corpus = generate_corpus(_CC)
    cfg = _cfg(tmp_path)
    model = model_for_corpus(cfg.encoder, corpus, seed=0)
    out = masked_eval(model, corpus, split="train", ratio=0.5, seed=0)
    assert set(out) == {"accuracy", "perplexity", "positions"}
    assert 0.0 <= out["accuracy"] <= 1.0
    assert out["perplexity"] > 1.0
    assert out["positions"] > 0
    again = masked_eval(model, corpus, split="train", ratio=0.5, seed=0)
    assert out == again
    with pytest.raises(ValueError, match="'dev'"):
        masked_eval(model, corpus, split="dev")

    empty_tests = generate_corpus(CorpusConfig(
        n_train_identities=2, n_test_identities=1, pairs_per_identity=1,
        n_slots=3, values_per_slot=5, background_dims=4, p_drop=1.0))
    blind = model_for_corpus(EncoderConfig(
        d=16, n_heads=4),
        empty_tests, seed=0)
    with pytest.raises(ValueError, match="no maskable"):
        masked_eval(blind, empty_tests, split="train")
    blind_cfg = replace(cfg, corpus=empty_tests.config, encoder=blind.cfg,
                        batch_identities=2, batch_pairs=1).with_variant("C")
    batch = sample_batch(empty_tests, 2, 1, seed=0)
    schedule = ScheduleConfig(1e-3, 1, 3, 1)
    with pytest.raises(ValueError, match="maskable"):
        train_step(blind, Adam(blind.parameters()), batch, blind_cfg, schedule, step=1)


def test_rerank_at_zero_weight_is_the_plain_score(tmp_path):
    # the ablation scores every w = 0 row from the plain score it already
    # holds; on a trained model's own features the two agree exactly
    res = train(_cfg(tmp_path, run_id="w0").with_variant("C"))
    bank = res.model.bank.matrix()
    for direction in ("t2i", "i2t"):
        plain = score_split(*res.features, bank, direction, use_refine=False)
        zero = score_split(*res.features, bank, direction, use_refine=True, w=0.0)
        assert zero.metrics == plain.metrics
        np.testing.assert_array_equal(zero.rankings, plain.rankings)


def _in_process_rows(cfg, plan, seeds, log) -> dict:
    """The rows _run_plan's pool assembles, {(variant, w): per-seed rows},
    from _plan_job run here, one job after another, where the spies can
    see it."""
    corpus = generate_corpus(cfg.corpus)
    rows = {}
    for seed in seeds:
        for variant, weights in plan.items():
            scores, lines = refalign.train._plan_job(
                cfg.with_seed(seed).with_variant(variant), corpus, weights)
            for w, metrics in scores.items():
                rows.setdefault((variant, w), []).append(metrics)
            for line in lines:
                log(line)
    return rows


def _epochs_by_run(lines) -> dict:
    """run_id prefix -> the epochs its lines log, in log order; each run's
    lines must form one contiguous block."""
    by_run = {}
    for i, line in enumerate(lines):
        run, epoch = line.split("]")[0], int(line.split(" epoch ")[1].split("/")[0])
        assert run not in by_run or lines[i - 1].startswith(run + "]"), lines
        by_run.setdefault(run, []).append(epoch)
    return by_run


def test_ablation_report_structure(tmp_path, monkeypatch):
    # spawned workers are out of the spies' reach, so the calls are counted
    # on _plan_job run in-process, and the pool's rows must then equal its
    encodes, scorings = [], []
    real_encode = refalign.train.encode_split
    real_score = refalign.train.score_split
    monkeypatch.setattr(refalign.train, "encode_split",
                        lambda *a: encodes.append(a[2]) or real_encode(*a))
    monkeypatch.setattr(refalign.train, "score_split",
                        lambda *a: scorings.append(a[4:]) or real_score(*a))
    cfg = _cfg(tmp_path, run_id="abl")
    w = cfg.loss.refine_weight
    serial_lines = []
    rows = _in_process_rows(cfg, {"Baseline": (), "A": (w,), "C": (w, *W_SWEEP_GRID)},
                            (0,), serial_lines.append)
    # Baseline, A and C each encoded once, by train()'s final eval
    assert encodes == ["test"] * 3
    # their final evals score t2i and i2t plainly (6); the plain rows reuse
    # that t2i score, so only B, Full (w = 0.5) and the sweep's other
    # nonzero weights are scored again (the sweep's 0.5 is Full's)
    assert len(scorings) == 12
    assert [w for _, refined, w in scorings if refined] == [0.5, 0.5, 0.1, 0.3, 0.7, 0.9]

    lines = []
    report = ablate(cfg, seeds=(0,), log=lines.append)
    # each job's lines arrive together, in epoch order, when it finishes
    assert sorted(lines) == sorted(serial_lines)
    assert _epochs_by_run(lines) == \
        {f"[abl-s0-{v}": list(range(1, cfg.epochs + 1)) for v in ("Baseline", "A", "C")}
    # B reranks A's model and Full C's at the trained w; sweep g is C at g
    source = {"Baseline": ("Baseline", 0.0), "A": ("A", 0.0), "B": ("A", w),
              "C": ("C", 0.0), "Full": ("C", w)}
    assert [v["variant"] for v in report["variants"]] == list(source)
    assert [v["per_seed"] for v in report["variants"]] == [rows[k] for k in source.values()]
    assert [s["w"] for s in report["sweep"]] == list(W_SWEEP_GRID)
    assert [s["per_seed"] for s in report["sweep"]] == [rows["C", g] for g in W_SWEEP_GRID]

    assert report["seeds"] == [0]
    assert report["runs_aggregated"] == 1 * (5 + len(W_SWEEP_GRID))
    for entry in report["variants"] + report["sweep"]:
        assert set(entry["mean"]) == {"R@1", "R@5", "R@10", "mAP", "AP@N"}
        assert len(entry["per_seed"]) == 1
        assert entry["mean"] == entry["per_seed"][0]           # single seed
        assert all(s == 0.0 for s in entry["std"].values())

    # at w=0 the sweep re-scores C's model without moving anything
    c = next(v for v in report["variants"] if v["variant"] == "C")
    w0 = next(s for s in report["sweep"] if s["w"] == 0.0)
    assert w0["per_seed"][0] == c["per_seed"][0]
    # Full reranks C's model at the trained weight, which the grid holds
    full = next(v for v in report["variants"] if v["variant"] == "Full")
    w5 = next(s for s in report["sweep"] if s["w"] == w)
    assert w5["per_seed"][0] == full["per_seed"][0]

    json_path, csv_path = write_ablation_report(report, str(tmp_path / "rep"))
    assert json.load(open(json_path)) == json.loads(json.dumps(report))
    with open(csv_path, newline="") as f:
        table_rows = list(csv.reader(f))
    assert len(table_rows) == 1 + 5 + len(W_SWEEP_GRID)

    table = format_ablation_table(report)
    assert "Baseline" in table and "Full" in table and "0.9" in table

    # a plan of C alone trains and encodes C once more and scores the same
    # grid: its final eval twice, then the five nonzero weights
    sweep_plan = {"C": W_SWEEP_GRID}
    sweep_rows = _in_process_rows(cfg, sweep_plan, (0,), lambda line: None)
    assert len(encodes) == 3 + 1
    assert len(scorings) == 12 + 7
    assert [sweep_rows["C", g] for g in W_SWEEP_GRID] == [rows["C", g] for g in W_SWEEP_GRID]
    # over two seeds the pool keeps seed order, whichever job ends first
    for key, metrics in _in_process_rows(cfg, sweep_plan, (1,), lambda line: None).items():
        sweep_rows[key] += metrics
    lines = []
    pool_rows = refalign.train._run_plan(cfg, (0, 1), None, sweep_plan, lines.append)
    assert [pool_rows["C", g] for g in W_SWEEP_GRID] == [sweep_rows["C", g] for g in W_SWEEP_GRID]
    assert _epochs_by_run(lines) == {f"[abl-s{s}-C": list(range(1, cfg.epochs + 1))
                                     for s in (0, 1)}
    assert multiprocessing.active_children() == []


def test_ablation_report_is_replaced_atomically(tmp_path, monkeypatch):
    entry = {"mean": dict.fromkeys(REPORT_KEYS, 1.0), "std": dict.fromkeys(REPORT_KEYS, 0.0)}
    report = {"seeds": [0], "variants": [{"variant": "C", **entry}],
              "sweep": [{"w": 0.5, **entry}]}
    out = tmp_path / "rep"
    write_ablation_report(report, str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["ablation.csv", "ablation.json"]
    assert before["ablation.csv"].count(b"\r\n") == 3

    real_replace = os.replace
    calls = []

    def fail_at(n):
        def replace(src, dst):
            calls.append(dst)
            if len(calls) >= n:
                raise OSError("disk full")
            real_replace(src, dst)
        return replace

    # every replace fails; then only the second, after ablation.json has
    # been replaced, which must be put back
    for n in (1, 2):
        calls.clear()
        monkeypatch.setattr(os, "replace", fail_at(n))
        with pytest.raises(OSError, match=r"ablation\.json and .*ablation\.csv left as "
                                          r"they were: OSError: disk full"):
            write_ablation_report({**report, "seeds": [1]}, str(out))
        assert len(calls) == n
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # a pair with no earlier files is left with none
    fresh = tmp_path / "fresh"
    calls.clear()
    with pytest.raises(OSError, match="disk full"):
        write_ablation_report(report, str(fresh))
    assert list(fresh.iterdir()) == []


def test_train_names_the_step_and_epoch_of_a_numerics_error(tmp_path, monkeypatch):
    step_once = refalign.train.train_step

    def failing(model, optimizer, batch, cfg, schedule, step):
        if step == 5:
            raise NumericsError("log: non-finite result")
        return step_once(model, optimizer, batch, cfg, schedule, step)

    monkeypatch.setattr(refalign.train, "train_step", failing)
    with pytest.raises(RuntimeError,
                       match=r"training aborted at step 5 \(epoch 2\): log: non-finite"):
        train(_cfg(tmp_path))


def test_ablation_job_failure_raises_with_its_run_id(tmp_path):
    # an out_dir that is a regular file fails train() inside the worker
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    cfg = _cfg(tmp_path, run_id="boom", out_dir=str(blocker))
    with pytest.raises(RuntimeError, match=r"ablation job boom-s0-\w+ failed"):
        refalign.train._run_plan(cfg, (0,), None, {"C": W_SWEEP_GRID}, None)
    with pytest.raises(RuntimeError, match=r"ablation job boom-s\d-\w+ failed"):
        ablate(cfg, seeds=(0, 1))
    assert multiprocessing.active_children() == []


def test_plan_job_runs_on_one_blas_thread(tmp_path, monkeypatch):
    # a job trains and scores on the one BLAS thread set at import; a
    # spawned worker re-imports refalign, so it sets the same count
    threads = refalign._openblas_threads()
    if threads is None:
        pytest.skip("NumPy's BLAS is not an OpenBLAS with a thread setter")
    get_threads = threads[0]
    seen = []
    row = {"direction": "t2i", "refined": False, **dict.fromkeys(REPORT_KEYS, 1.0)}

    def spy_train(cfg, corpus, log):
        seen.append(("train", get_threads()))
        log(f"[{cfg.run_id}] spied")
        if cfg.seed == 1:
            raise ValueError("spy")
        return SimpleNamespace(final_metrics=[row], features=(),
                               model=SimpleNamespace(bank=SimpleNamespace(matrix=lambda: None)))

    def spy_score(*args):
        seen.append(("score", get_threads()))
        return SimpleNamespace(metrics=dict.fromkeys(REPORT_KEYS, 2.0))

    monkeypatch.setattr(refalign.train, "train", spy_train)
    monkeypatch.setattr(refalign.train, "score_split", spy_score)
    cfg = _cfg(tmp_path, run_id="one")
    assert refalign.train._plan_job(cfg, None, (0.0, 0.5)) == (
        {0.0: dict.fromkeys(REPORT_KEYS, 1.0), 0.5: dict.fromkeys(REPORT_KEYS, 2.0)},
        ["[one] spied"])
    assert seen == [("train", 1), ("score", 1)] and get_threads() == 1
    with pytest.raises(ValueError, match="spy"):
        refalign.train._plan_job(cfg.with_seed(1), None, ())
    assert seen[2:] == [("train", 1)] and get_threads() == 1


def test_ablation_refuses_bad_inputs_before_training(tmp_path, monkeypatch):
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *a, **kw: pools.append(a))
    cfg = _cfg(tmp_path, run_id="bad")
    other = generate_corpus(replace(_CC, seed=3))
    for kw, match in ((dict(seeds=(0, 0)), "distinct"),
                      (dict(seeds=()), "non-empty"),
                      (dict(corpus=other), "does not match")):
        with pytest.raises(ValueError, match=match):
            ablate(cfg, **{"seeds": (0,), **kw})
    assert pools == []


class _RecordingAdam(Adam):
    def step(self, grads, lr):
        self.grads = grads
        super().step(grads, lr)


def test_every_parameter_gets_a_gradient(tmp_path):
    # a tensor whose gradient is bitwise zero on a full variant-C step is
    # dead weight the model cannot learn
    cfg = _cfg(tmp_path).with_variant("C")
    corpus = generate_corpus(cfg.corpus)
    model = model_for_corpus(cfg.encoder, corpus, cfg.seed)
    params = model.named_parameters()
    opt = _RecordingAdam(list(params.values()))
    schedule = ScheduleConfig(cfg.peak_lr, cfg.warmup_epochs, cfg.epochs,
                              cfg.steps_per_epoch)
    batch = sample_batch(corpus, cfg.batch_identities, cfg.batch_pairs, seed=1)
    train_step(model, opt, batch, cfg, schedule, step=1)
    dead = [name for name, p in params.items() if not np.any(opt.grads[p])]
    assert dead == []
