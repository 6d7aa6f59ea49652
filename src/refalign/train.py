"""Training orchestration, ablation matrix, and metric emission.

Every run is a pure function of (config, seed): batch composition, mask
placement, and initialization all derive from the run seed and the
global step, so reruns and checkpoint resumes retrace the same
trajectory bit for bit.  Ablation jobs run on spawned workers, one per
usable CPU, each on one BLAS thread and its share of the CPUs' threads.
"""
from __future__ import annotations

import csv
import io
import json
import os
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import (RunConfig, VARIANT_ORDER, W_SWEEP_GRID, config_as_dict,
                     config_from_dict)
from .data import (Corpus, PairBatch, STREAM_MASK, derive_rng, generate_corpus,
                   sample_batch)
from .evaluation import ENCODE_CHUNK, encode_split, score_split, share_cpus, usable_cpus
from .losses import align_loss, fuse_loss, guide_loss, rec_loss, total_loss
from .model import RetrievalModel, load_checkpoint, model_for_corpus, save_checkpoint
from .reference import mask_tokens
from .tensor import Adam, NumericsError, ScheduleConfig, lr_at

REPORT_KEYS = ("R@1", "R@5", "R@10", "mAP", "AP@N")
METRIC_COLUMNS = ("run_id", "seed", "step", *REPORT_KEYS, "direction", "refined")

# keeps (seed, step) -> batch seed injective for any plausible run length
_SEED_STRIDE = 10_000_019


@dataclass
class TrainResult:
    config: RunConfig
    model: RetrievalModel
    corpus: Corpus
    steps: int
    checkpoint_path: str
    metrics_jsonl: str
    metrics_csv: str
    final_metrics: list[dict] = field(default_factory=list)
    features: tuple | None = None   # the last eval's test (text, image, labels)


def _report_columns(metrics: dict[str, float]) -> dict[str, float]:
    """One scoring's metrics under the report columns; AP@<n> becomes AP@N."""
    ap_key = next(k for k in metrics if k.startswith("AP@"))
    return {k: metrics[ap_key if k == "AP@N" else k] for k in REPORT_KEYS}


def _csv_text(header, rows) -> str:
    """A header row and rows as CSV text, in csv.writer's default dialect."""
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(header)
    writer.writerows(rows)
    return table.getvalue()


def _write_texts(texts: dict[str, str]) -> None:
    """Replace every {path: text} file, all or none.  Each text goes to
    `<path>.tmp` before the first os.replace; if a write or a replace
    fails, each path already replaced gets its previous bytes back (or is
    removed if it had none), every temp file is removed, and the error
    names every path."""
    replaced: dict[str, bytes | None] = {}
    try:
        for path, text in texts.items():
            Path(f"{path}.tmp").write_bytes(text.encode())
        for path in texts:
            previous = Path(path).read_bytes() if os.path.exists(path) else None
            os.replace(f"{path}.tmp", path)
            replaced[path] = previous
    except BaseException as e:
        for path, previous in replaced.items():
            if previous is None:
                os.remove(path)
            else:
                Path(path).write_bytes(previous)
        for path in texts:
            with suppress(FileNotFoundError):
                os.remove(f"{path}.tmp")
        if not isinstance(e, Exception):
            raise
        raise OSError(f"{' and '.join(texts)} left as they were: "
                      f"{type(e).__name__}: {e}") from e


def _reconstruct_masked(model: RetrievalModel, token_seqs, labels,
                        ratio: float, rngs):
    """Mask each caption with its own rng, encode the masked batch, and
    reconstruct every masked position from the token states plus the
    caption's identity reference.

    -> (per-position vocabulary probabilities, target token ids), or
    None when no caption had a maskable token (a caption with every slot
    left out is legal).
    """
    masked = [mask_tokens(seq, ratio, rng) for seq, rng in zip(token_seqs, rngs)]
    if all(m.positions.size == 0 for m in masked):
        return None
    _, token_states, key_mask = model.text_encoder.encode_batch(
        [m.tokens for m in masked])
    refs = model.bank.rows_for(labels)
    rows = np.concatenate([np.full(m.positions.size, i, dtype=np.intp)
                           for i, m in enumerate(masked)])
    cols = np.concatenate([m.positions for m in masked])
    targets = np.concatenate([m.targets for m in masked])
    return model.reconstructor(token_states, refs, rows, cols, key_mask=key_mask), targets


def train_step(model: RetrievalModel, optimizer: Adam, batch: PairBatch,
               cfg: RunConfig, schedule: ScheduleConfig, step: int) -> float:
    """One optimization step; returns the scalar total loss."""
    text, image = model.encode_pairs(batch)
    fuse = guide = rec = None
    align = align_loss(text, image, batch.labels, cfg.loss)
    if cfg.guided:
        reps = T.concat_rows([text, image])
        rep_labels = np.concatenate([batch.labels, batch.labels])
        fuse = fuse_loss(model.bank, reps, rep_labels, cfg.loss)
        guide = guide_loss(reps, model.bank, rep_labels, cfg.loss)
    if cfg.reconstructs:
        rngs = [derive_rng(cfg.seed, STREAM_MASK, step, i)
                for i in range(len(batch.token_seqs))]
        recon = _reconstruct_masked(model, batch.token_seqs, batch.labels,
                                    cfg.mask_ratio, rngs)
        if recon is None:
            raise ValueError(f"step {step}: no caption in the batch has a maskable token")
        rec = rec_loss(*recon)
    total = total_loss(align, fuse, rec, guide, cfg.loss)
    grads = T.backward(total, wrt=optimizer.params)
    optimizer.step(grads, lr_at(step, schedule))
    return total.item()


def _evaluate(model: RetrievalModel, features, cfg: RunConfig, step: int) -> list[dict]:
    rows = []
    refine_states = (False, True) if cfg.reranks else (False,)
    for refined in refine_states:
        for direction in ("t2i", "i2t"):
            result = score_split(*features, model.bank.matrix(),
                                 direction, refined, cfg.loss.refine_weight)
            row = {"run_id": cfg.run_id, "seed": cfg.seed, "step": step,
                   **_report_columns(result.metrics),
                   "direction": direction, "refined": refined}
            rows.append(row)
    return rows


def _flatten(tree: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _check_resume_config(meta: dict, cfg: RunConfig) -> None:
    """A resume must continue the checkpoint's own run: its config loads
    through config_from_dict, and every field but run_id and out_dir has
    to match."""
    if "config" not in meta:
        raise ValueError("resume: checkpoint records no config")
    saved = _flatten(config_as_dict(config_from_dict(meta["config"])))
    for key, value in _flatten(config_as_dict(cfg)).items():
        if key not in ("run_id", "out_dir") and saved[key] != value:
            raise ValueError(f"resume: config field {key!r} is {saved[key]!r} "
                             f"in the checkpoint but {value!r} in this run")


def start_run(cfg: RunConfig, corpus: Corpus):
    """The untrained model, its named parameters, a fresh Adam over them
    and the LR schedule, as train() starts cfg's run.
    -> (model, params, optimizer, schedule)."""
    model = model_for_corpus(cfg.encoder, corpus, cfg.seed)
    params = model.named_parameters()
    optimizer = Adam(list(params.values()))
    schedule = ScheduleConfig(cfg.peak_lr, cfg.warmup_epochs, cfg.epochs,
                              cfg.steps_per_epoch)
    return model, params, optimizer, schedule


def run_steps(model: RetrievalModel, optimizer: Adam, corpus: Corpus, cfg: RunConfig,
              schedule: ScheduleConfig, first: int, last: int):
    """Steps first..last of cfg's run, as train() takes them; yields each
    step's loss.  Step s trains on the batch sampled with seed
    cfg.seed * _SEED_STRIDE + s."""
    for step in range(first, last + 1):
        batch = sample_batch(corpus, cfg.batch_identities, cfg.batch_pairs,
                             seed=cfg.seed * _SEED_STRIDE + step)
        try:
            loss = train_step(model, optimizer, batch, cfg, schedule, step)
        except NumericsError as e:
            raise RuntimeError(f"training aborted at step {step} (epoch "
                               f"{(step - 1) // cfg.steps_per_epoch + 1}): {e}") from e
        yield loss


def train(cfg: RunConfig, corpus: Corpus | None = None,
          resume_from: str | None = None, log=None) -> TrainResult:
    """Run the configured protocol end to end.

    The checkpoint is written after the last epoch and after every
    earlier eval epoch, and its meta holds every metric row of the run so
    far.  After each eval both metric files are rewritten whole from those
    rows, before the checkpoint.  resume_from restarts mid-schedule from
    such an earlier checkpoint; both runs must share the config, run_id
    and out_dir aside, and a finished run's checkpoint is refused.  A
    resume starts from the checkpoint's rows and never reads the metric
    files.
    """
    if corpus is None:
        corpus = generate_corpus(cfg.corpus)
    elif corpus.config != cfg.corpus:
        raise ValueError("corpus does not match cfg.corpus; epoch accounting "
                         "and batch sampling key off the config")
    model, params, optimizer, schedule = start_run(cfg, corpus)
    ckpt_path = os.path.join(cfg.out_dir, f"{cfg.run_id}.ckpt")
    jsonl_path = os.path.join(cfg.out_dir, f"{cfg.run_id}.metrics.jsonl")
    csv_path = os.path.join(cfg.out_dir, f"{cfg.run_id}.metrics.csv")

    step = 0
    rows: list[dict] = []
    if resume_from is not None:
        step, meta = load_checkpoint(resume_from, params, optimizer)
        if step % cfg.steps_per_epoch != 0:
            raise ValueError(f"resume: step {step} is not an epoch boundary")
        _check_resume_config(meta, cfg)
        if optimizer.t != step:
            raise ValueError(f"resume: {resume_from} is at step {step} but its "
                             f"Adam state is at step {optimizer.t}")
        if step == cfg.epochs * cfg.steps_per_epoch:
            raise ValueError(f"resume: {resume_from} is at step {step}, the end of "
                             f"the schedule; the run is finished")
        if "metrics" not in meta:
            raise ValueError(f"resume: checkpoint {resume_from} records no metrics")
        rows = meta["metrics"]
        if not (isinstance(rows, list) and all(
                isinstance(r, dict) and r.keys() == set(METRIC_COLUMNS) for r in rows)):
            raise ValueError(f"resume: checkpoint {resume_from} records malformed "
                             f"metric rows; each must hold exactly {list(METRIC_COLUMNS)}")
    os.makedirs(cfg.out_dir, exist_ok=True)

    # "metrics" is the rows list itself, so each checkpoint holds every row so far
    meta = {"config": config_as_dict(cfg), "metrics": rows}
    final_rows: list[dict] = []
    features = None
    for epoch in range(step // cfg.steps_per_epoch + 1, cfg.epochs + 1):
        epoch_loss = 0.0
        for loss in run_steps(model, optimizer, corpus, cfg, schedule,
                              step + 1, step + cfg.steps_per_epoch):
            epoch_loss += loss
        step += cfg.steps_per_epoch
        due = cfg.eval_every and epoch % cfg.eval_every == 0
        if due or epoch == cfg.epochs:
            features = encode_split(model, corpus, "test")
            final_rows = _evaluate(model, features, cfg, step)
            rows += final_rows
            _write_texts({
                jsonl_path: "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                csv_path: _csv_text(METRIC_COLUMNS,
                                    [[r[k] for k in METRIC_COLUMNS] for r in rows])})
            if epoch < cfg.epochs:
                save_checkpoint(ckpt_path, params, step, meta, optimizer)
        if log is not None:
            log(f"[{cfg.run_id}] epoch {epoch}/{cfg.epochs} "
                f"loss {epoch_loss / cfg.steps_per_epoch:.4f}"
                + (f" R@1 {final_rows[0]['R@1']:.2f}" if (due or epoch == cfg.epochs) else ""))

    save_checkpoint(ckpt_path, params, step, meta, optimizer)
    return TrainResult(config=cfg, model=model, corpus=corpus, steps=step,
                       checkpoint_path=ckpt_path, metrics_jsonl=jsonl_path,
                       metrics_csv=csv_path, final_metrics=final_rows,
                       features=features)


# ------------------------------------------------------- masked-token evals

def masked_eval(model: RetrievalModel, corpus: Corpus, split: str = "train",
                ratio: float = 0.15, seed: int = 0) -> dict:
    """Deterministic masked-token accuracy and perplexity over a split.

    Uses each pair's own identity reference, so the split must be one the
    bank covers (train, unless the bank was built wider).
    """
    pairs = corpus.split_pairs(split)
    total_nll = 0.0
    hits = 0
    count = 0
    # fixed chunks in split order, unlike encode_split's equal-length
    # groups: acceptance criterion 8 gates this accuracy and perplexity,
    # and regrouping would move them in the last bits
    for lo in range(0, len(pairs), ENCODE_CHUNK):
        rows = range(lo, min(lo + ENCODE_CHUNK, len(pairs)))
        recon = _reconstruct_masked(
            model, pairs.token_seqs(rows), pairs.identity[lo:lo + ENCODE_CHUNK],
            ratio, [derive_rng(seed, STREAM_MASK, r) for r in rows])
        if recon is None:
            continue
        probs, targets = recon[0].data, recon[1]
        picked = probs[np.arange(targets.size), targets]
        total_nll += float(-np.log(picked + 1e-300).sum())
        hits += int((probs.argmax(axis=1) == targets).sum())
        count += targets.size
    if count == 0:
        raise ValueError("masked_eval: no maskable tokens in the split")
    return {"accuracy": hits / count,
            "perplexity": float(np.exp(total_nll / count)),
            "positions": count}


# ---------------------------------------------------------------- ablation

def _entry(rows: list[dict]) -> dict:
    """One report row: mean and std over seeds, and the per-seed rows."""
    return {"mean": {k: float(np.mean([r[k] for r in rows])) for k in REPORT_KEYS},
            "std": {k: float(np.std([r[k] for r in rows])) for k in REPORT_KEYS},
            "per_seed": rows}


def _plan_job(cfg: RunConfig, corpus: Corpus, weights) -> tuple[dict, list[str]]:
    """One (seed, variant) job of _run_plan, as a pool worker runs it:
    train the variant, then score text-to-image from the features its
    final eval encoded, once per reranking weight w.  w = 0.0 is the
    plain score (reranking at w = 0 moves nothing), which the final eval
    already holds.  -> ({w: report row}, progress lines)."""
    lines: list[str] = []
    result = train(cfg, corpus, log=lines.append)
    plain = next(r for r in result.final_metrics
                 if r["direction"] == "t2i" and not r["refined"])
    scores = {0.0: _report_columns(plain)}
    for w in weights:
        if w not in scores:
            scores[w] = _report_columns(score_split(
                *result.features, result.model.bank.matrix(), "t2i", True, w).metrics)
    return scores, lines


def _run_plan(base: RunConfig, seeds, corpus: Corpus | None, plan: dict, log) -> dict:
    """Per seed, train each variant of plan, {variant: reranking weights},
    once and score it at w = 0.0 and at each of its weights
    -> {(variant, w): per-seed report rows, in seed order}.  Repeated or
    no seeds and a corpus that does not match base.corpus are refused
    before any worker starts.

    Each (seed, variant) job runs _plan_job in a spawned worker process,
    with up to one worker per usable CPU, and each worker's thread pools
    get its share of the CPUs (share_cpus); the longest jobs go first.  A
    job's log lines, in epoch order, are logged when the job finishes.
    A failed job raises here, naming its run_id, and cancels the jobs
    not yet started.  Spawn re-imports the caller's main module, so a
    script that gets here must guard its entry point with
    `if __name__ == "__main__":`."""
    seeds = [int(s) for s in seeds]
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError(f"ablation: seeds {seeds} must be distinct and non-empty")
    if corpus is None:
        corpus = generate_corpus(base.corpus)
    elif corpus.config != base.corpus:
        raise ValueError("ablation: corpus does not match base.corpus; epoch "
                         "accounting and batch sampling key off the config")
    # imported here: the pool's modules add ~2 MB to every process that
    # imports this one, and only the ablation uses them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    jobs = [(k, base.with_seed(seed).with_variant(variant), ws)
            for k, seed in enumerate(seeds) for variant, ws in plan.items()]
    # longest first (reconstruction, then guidance), so no long job starts last
    jobs.sort(key=lambda job: (not job[1].reconstructs, not job[1].guided))
    rows: dict = {}
    workers = min(len(jobs), usable_cpus())
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                               initializer=share_cpus, initargs=(workers,))
    try:
        futures = {pool.submit(_plan_job, cfg, corpus, ws): (k, cfg) for k, cfg, ws in jobs}
        for future in as_completed(futures):
            k, cfg = futures[future]
            try:
                scores, lines = future.result()
            except Exception as e:
                raise RuntimeError(f"ablation job {cfg.run_id} failed: "
                                   f"{type(e).__name__}: {e}") from e
            for w, row in scores.items():
                rows.setdefault((cfg.variant, w), [None] * len(seeds))[k] = row
            if log is not None:
                for line in lines:
                    log(line)
    finally:
        pool.shutdown(cancel_futures=True)
    return rows


def ablate(base: RunConfig, seeds=(0, 1, 2), corpus: Corpus | None = None,
           log=None) -> dict:
    """The component ablation plus the fusion-weight sweep.

    Per seed, three trainings: Baseline, A (guidance + fusion), and C
    (guidance + fusion + reconstruction).  B reranks A's model through
    the bank at the trained weight w, and Full reranks C's: B is (A, w)
    and Full (C, w) of _run_plan's rows.  The sweep re-scores C's model
    across W_SWEEP_GRID, (C, g) for each g.  Scores are text-to-image on
    the test split.  Each model is encoded once, by train()'s final eval,
    and each distinct weight is scored once from its features.

    The trainings run on up to one spawned worker process per usable
    CPU, and each training's log arrives when it finishes (see
    _run_plan).  Spawn re-imports the main module, so a
    script that calls this must guard its entry point with
    `if __name__ == "__main__":`.
    """
    w = base.loss.refine_weight
    rows = _run_plan(base, seeds, corpus,
                     {"Baseline": (), "A": (w,), "C": (w, *W_SWEEP_GRID)}, log)
    source = {"B": ("A", w), "Full": ("C", w)}
    return {
        "seeds": [int(s) for s in seeds],
        "runs_aggregated": len(seeds) * (len(VARIANT_ORDER) + len(W_SWEEP_GRID)),
        "variants": [{"variant": v, **_entry(rows[source.get(v, (v, 0.0))])}
                     for v in VARIANT_ORDER],
        "sweep": [{"w": g, **_entry(rows["C", g])} for g in W_SWEEP_GRID],
    }


def write_ablation_report(report: dict, out_dir: str) -> tuple[str, str]:
    """ablation.json and ablation.csv, both or neither through _write_texts,
    so a write that fails leaves the previous pair in place."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "ablation.json")
    csv_path = os.path.join(out_dir, "ablation.csv")
    header = (["row", "setting"] + [f"{k} mean" for k in REPORT_KEYS]
              + [f"{k} std" for k in REPORT_KEYS])
    table = [[row, entry[key]] + [entry["mean"][k] for k in REPORT_KEYS]
             + [entry["std"][k] for k in REPORT_KEYS]
             for row, key, entries in (("variant", "variant", report["variants"]),
                                       ("sweep", "w", report["sweep"]))
             for entry in entries]
    _write_texts({json_path: json.dumps(report, indent=2, sort_keys=True),
                  csv_path: _csv_text(header, table)})
    return json_path, csv_path


def format_ablation_table(report: dict) -> str:
    """mean±std per column: the variant table, then the w sweep."""
    def table(label: str, key: str, entries) -> list[str]:
        lines = [f"{label:<10}" + "".join(f"{k:>16}" for k in REPORT_KEYS)]
        for entry in entries:
            cells = [f"{entry['mean'][k]:.2f}±{entry['std'][k]:.2f}" for k in REPORT_KEYS]
            lines.append(f"{entry[key]:<10}" + "".join(f"{c:>16}" for c in cells))
        return lines

    return "\n".join(table("row", "variant", report["variants"]) + [""]
                     + table("w", "w", report["sweep"]))
