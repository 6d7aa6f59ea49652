import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import refalign
import refalign.cli
import refalign.train
from refalign.cli import main
from refalign.config import RunConfig, read_config, write_config
from refalign.data import CorpusConfig, generate_corpus, load_corpus, save_corpus
from refalign.encoders import EncoderConfig
from refalign.model import model_for_corpus, read_checkpoint, save_checkpoint
from refalign.tensor import Adam

_CC = CorpusConfig(n_train_identities=10, n_test_identities=4,
                   pairs_per_identity=2, n_slots=3, values_per_slot=5,
                   background_dims=4, seed=4)


def _ini(tmp_path, **kw):
    base = dict(corpus=_CC,
                encoder=EncoderConfig(d=16, n_heads=4),
                epochs=3, warmup_epochs=1, batch_identities=5, batch_pairs=2,
                eval_every=0, run_id="cli", out_dir=str(tmp_path / "runs"))
    base.update(kw)
    path = str(tmp_path / "run.ini")
    write_config(RunConfig(**base), path)
    return path


def test_generate_corpus_command(tmp_path, capsys):
    out = str(tmp_path / "corpus.bin")
    code = main(["generate-corpus", "--out", out,
                 "--n-train-identities", "8", "--n-test-identities", "3",
                 "--pairs-per-identity", "2", "--seed", "5"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    corpus = load_corpus(out)
    assert corpus.config.n_train_identities == 8
    assert corpus.config.seed == 5
    assert len(corpus.test_pairs) == 6


def test_train_command_and_flag_precedence(tmp_path, capsys):
    ini = _ini(tmp_path)
    code = main(["train", "--config", ini, "--variant", "C",
                 "--epochs", "4", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    ckpt = next(line.split(":", 1)[1].strip() for line in out.splitlines()
                if line.startswith("checkpoint:"))
    step, meta, _ = read_checkpoint(ckpt)
    assert meta["config"]["epochs"] == 4          # flag beat the file
    assert meta["config"]["variant"] == "C"
    assert step == 4 * 2
    metric_lines = [json.loads(line) for line in out.splitlines()
                    if line.startswith("{")]
    assert len(metric_lines) == 2                 # t2i / i2t, no refinement
    assert {row["direction"] for row in metric_lines} == {"t2i", "i2t"}


def test_train_with_corpus_file(tmp_path, capsys):
    cpath = str(tmp_path / "c.bin")
    save_corpus(generate_corpus(_CC), cpath)
    code = main(["train", "--config", _ini(tmp_path, run_id="fromfile"),
                 "--corpus-file", cpath, "--quiet"])
    assert code == 0
    assert "fromfile.ckpt" in capsys.readouterr().out


def test_interrupted_train_resumes_from_its_last_eval(tmp_path, monkeypatch):
    ini = _ini(tmp_path, run_id="cut", eval_every=1)
    argv = ["train", "--config", ini, "--variant", "C", "--quiet"]
    runs = tmp_path / "runs"
    names = ("cut.ckpt", "cut.metrics.jsonl", "cut.metrics.csv")
    assert main(argv) == 0
    straight = [(runs / name).read_bytes() for name in names]

    # 2 steps per epoch: fail the first step of epoch 3
    step_once = refalign.train.train_step

    def failing(model, optimizer, batch, cfg, schedule, step):
        if step == 5:
            raise RuntimeError("interrupted")
        return step_once(model, optimizer, batch, cfg, schedule, step)

    with monkeypatch.context() as patch:
        patch.setattr(refalign.train, "train_step", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            main(argv)
    assert read_checkpoint(str(runs / "cut.ckpt"))[0] == 4
    assert main(argv + ["--resume", str(runs / "cut.ckpt")]) == 0
    assert [(runs / name).read_bytes() for name in names] == straight
    # the run is now finished: a further resume is refused and writes nothing
    with pytest.raises(ValueError, match="cut.ckpt is at step 6, .* finished"):
        main(argv + ["--resume", str(runs / "cut.ckpt")])
    assert [(runs / name).read_bytes() for name in names] == straight


def test_resume_drops_the_rows_of_an_eval_without_its_checkpoint(tmp_path, monkeypatch):
    ini = _ini(tmp_path, run_id="gap", eval_every=1)
    argv = ["train", "--config", ini, "--variant", "C", "--quiet"]
    runs = tmp_path / "runs"
    names = ("gap.ckpt", "gap.metrics.jsonl", "gap.metrics.csv")
    assert main(argv) == 0
    straight = [(runs / name).read_bytes() for name in names]

    # the step-4 eval writes its rows, then the run stops before its checkpoint
    save_once = refalign.train.save_checkpoint

    def failing(path, params, step, *rest):
        if step == 4:
            raise RuntimeError("interrupted")
        return save_once(path, params, step, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(refalign.train, "save_checkpoint", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            main(argv)
    assert read_checkpoint(str(runs / "gap.ckpt"))[0] == 2
    steps = [json.loads(line)["step"] for line in
             (runs / "gap.metrics.jsonl").read_text().splitlines()]
    assert steps[-1] == 4
    assert main(argv + ["--resume", str(runs / "gap.ckpt")]) == 0
    assert [(runs / name).read_bytes() for name in names] == straight


def test_eval_command(tmp_path, capsys):
    ini = _ini(tmp_path, run_id="evalme")
    main(["train", "--config", ini, "--variant", "C", "--quiet"])
    ckpt = str(tmp_path / "runs" / "evalme.ckpt")

    assert main(["eval", "--checkpoint", ckpt, "--direction", "t2i"]) == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert row["direction"] == "t2i" and row["refined"] is False
    assert 0.0 <= row["R@1"] <= 100.0

    assert main(["eval", "--checkpoint", ckpt, "--direction", "both",
                 "--refine", "--w", "0.3", "--ap-n", "4"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 2
    assert all(l["refined"] and l["w"] == 0.3 and "AP@4" in l for l in lines)


@pytest.mark.parametrize("missing", ["config"])
def test_eval_names_a_missing_meta_field(tmp_path, missing):
    cfg = RunConfig(corpus=_CC, encoder=EncoderConfig(d=16, n_heads=4),
                    warmup_epochs=1, batch_identities=5)
    model = model_for_corpus(cfg.encoder, generate_corpus(_CC), seed=0)
    meta = {"config": dataclasses.asdict(cfg), "metrics": []}
    del meta[missing]
    ckpt = str(tmp_path / "bare.ckpt")
    save_checkpoint(ckpt, model.named_parameters(), step=0, meta=meta)
    with pytest.raises(ValueError, match=f"records no {missing}$"):
        main(["eval", "--checkpoint", ckpt])


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_eval_refuses_a_checkpoint_with_ablation_booleans(tmp_path, command):
    # checkpoints written before `variant` record the row as four booleans;
    # eval and a resume refuse them with the same text
    ini = _ini(tmp_path)
    cfg = read_config(ini)
    model = model_for_corpus(cfg.encoder, generate_corpus(_CC), seed=0)
    config = dataclasses.asdict(cfg)
    del config["variant"]
    config.update(use_guidance=True, use_global_fusion=True,
                  use_local_reconstruction=True, use_refinement=False)
    ckpt = str(tmp_path / "old.ckpt")
    save_checkpoint(ckpt, model.named_parameters(), step=0,
                    meta={"run_seed": 0, "config": config, "metrics": []},
                    optimizer=Adam(model.parameters()))
    argv = {"eval": ["eval", "--checkpoint", ckpt],
            "resume": ["train", "--config", ini, "--resume", ckpt, "--quiet"]}[command]
    with pytest.raises(ValueError, match=r"^config \[run\]: unknown fields \[.*'use_global_fusion'"
                                         r".*\], missing fields \['variant'\]$"):
        main(argv)
    assert not (tmp_path / "runs").exists()


def test_eval_and_resume_accept_a_meta_with_run_seed_and_run_id(tmp_path, monkeypatch, capsys):
    # checkpoints written before the meta kept only config and metrics
    # also hold run_seed and run_id; both are ignored
    ini = _ini(tmp_path, run_id="old", eval_every=1)
    argv = ["train", "--config", ini, "--variant", "C", "--quiet"]
    runs = tmp_path / "runs"
    ckpt = str(runs / "old.ckpt")
    names = ("old.ckpt", "old.metrics.jsonl", "old.metrics.csv")

    def add_old_keys():
        step, meta, arrays = read_checkpoint(ckpt)
        assert set(meta) == {"config", "metrics"}
        save_checkpoint(ckpt, {name: SimpleNamespace(data=arr) for name, arr in arrays.items()},
                        step, {"run_seed": 0, "run_id": "old", **meta})

    assert main(argv) == 0
    straight = [(runs / name).read_bytes() for name in names]
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--refine"]) == 0
    scores = capsys.readouterr().out
    add_old_keys()
    assert main(["eval", "--checkpoint", ckpt, "--refine"]) == 0
    assert capsys.readouterr().out == scores

    # 2 steps per epoch: fail the first step of epoch 3, then resume from
    # the step-4 checkpoint given the old keys
    step_once = refalign.train.train_step

    def failing(model, optimizer, batch, cfg, schedule, step):
        if step == 5:
            raise RuntimeError("interrupted")
        return step_once(model, optimizer, batch, cfg, schedule, step)

    with monkeypatch.context() as patch:
        patch.setattr(refalign.train, "train_step", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            main(argv)
    add_old_keys()
    assert main(argv + ["--resume", ckpt]) == 0
    assert [(runs / name).read_bytes() for name in names] == straight


def test_eval_w_needs_refine(tmp_path, capsys):
    # --w is the reranking weight; without --refine it would score plain
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--w", "0.3"])
    assert exc.value.code == 2
    assert "--w sets the reranking weight, so it needs --refine" in capsys.readouterr().err


def test_ablate_command(tmp_path, capsys):
    code = main(["ablate", "--config", _ini(tmp_path, run_id="abl"),
                 "--seeds", "0", "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Baseline" in out and "Full" in out
    assert (tmp_path / "runs" / "ablation.json").exists()
    assert (tmp_path / "runs" / "ablation.csv").exists()
    assert multiprocessing.active_children() == []


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_fingerprint_command(capsys, monkeypatch):
    monkeypatch.setattr(refalign.cli, "FINGERPRINT_STEPS", 2)
    assert main(["fingerprint"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in first] == [
        "Baseline", "A", "C", "test", "t2i", "t2i", "t2i", "i2t"]
    assert main(["fingerprint"]) == 0
    assert capsys.readouterr().out.splitlines() == first

    # one ulp on one parameter of the second run started, variant A's
    built = []

    def nudged(*args):
        model = model_for_corpus(*args)
        built.append(model)
        if len(built) == 2:
            p = model.parameters()[0].data
            p.flat[0] = np.nextafter(p.flat[0], np.inf)
        return model

    monkeypatch.setattr(refalign.train, "model_for_corpus", nudged)
    assert main(["fingerprint"]) == 0
    changed = capsys.readouterr().out.splitlines()
    assert [a == b for a, b in zip(first, changed)] == [True, False] + [True] * 6


def test_fingerprint_ignores_the_blas_thread_setting():
    # importing refalign sets one BLAS thread whatever the environment
    # asks, so the full fingerprint is the same under any setting
    if refalign._openblas_threads() is None:
        pytest.skip("NumPy's BLAS is not an OpenBLAS with a thread setter")
    src = str(Path(refalign.__file__).resolve().parent.parent)
    outs = [subprocess.run([sys.executable, "-m", "refalign.cli", "fingerprint"],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                                "PYTHONPATH": src}).stdout.splitlines()
            for threads in ("1", "2")]
    assert len(outs[0]) == 8 and outs[0] == outs[1]


def test_parser_rejections(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["train", "--config", "a.ini", "--full-scale"])
    with pytest.raises(SystemExit):
        main(["train", "--variant", "Z"])
    with pytest.raises(SystemExit, match="--seeds: expected comma-separated int"):
        main(["ablate", "--config", _ini(tmp_path), "--seeds", "x,y"])
    # ablate's report holds the w sweep, so there is no command for it alone
    with pytest.raises(SystemExit) as exc:
        main(["sweep-w", "--seeds", "0"])
    assert exc.value.code == 2 and "invalid choice: 'sweep-w'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_bad_config_key_propagates(tmp_path):
    ini = _ini(tmp_path)
    text = open(ini).read().replace("epochs =", "epochz =")
    bad = str(tmp_path / "bad.ini")
    open(bad, "w").write(text)
    with pytest.raises(KeyError):
        main(["train", "--config", bad, "--quiet"])
