"""Training orchestration, ablation matrix, and metric emission.

Every run is a pure function of (config, seed): batch composition, mask
placement, and initialization all derive from the run seed and the
global step, so reruns and checkpoint resumes retrace the same
trajectory bit for bit.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .config import RunConfig, VARIANT_ORDER, W_SWEEP_GRID, config_as_dict
from .data import Corpus, PairBatch, STREAM_MASK, derive_rng, generate_corpus, sample_batch
from .evaluation import RetrievalResult, run_retrieval
from .losses import align_loss, fuse_loss, guide_loss, rec_loss, total_loss
from .model import RetrievalModel, load_checkpoint, model_for_corpus, save_checkpoint
from .reference import mask_tokens
from .tensor import Adam, NumericsError, ScheduleConfig, lr_at

METRIC_COLUMNS = ("run_id", "seed", "step", "R@1", "R@5", "R@10", "mAP",
                  "AP@N", "direction", "refined")

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


def _metric_row(cfg: RunConfig, step: int, direction: str, refined: bool,
                result: RetrievalResult) -> dict:
    ap_key = next(k for k in result.metrics if k.startswith("AP@"))
    return {
        "run_id": cfg.run_id,
        "seed": cfg.seed,
        "step": step,
        "R@1": result.metrics["R@1"],
        "R@5": result.metrics["R@5"],
        "R@10": result.metrics["R@10"],
        "mAP": result.metrics["mAP"],
        "AP@N": result.metrics[ap_key],
        "direction": direction,
        "refined": refined,
    }


def _append_metrics(row: dict, jsonl_path: str, csv_path: str) -> None:
    with open(jsonl_path, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    fresh = not os.path.exists(csv_path)
    with open(csv_path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=METRIC_COLUMNS)
        if fresh:
            writer.writeheader()
        writer.writerow(row)


def _reconstruction_term(model: RetrievalModel, batch: PairBatch,
                         cfg: RunConfig, step: int):
    masked = [mask_tokens(seq, cfg.mask_ratio,
                          derive_rng(cfg.seed, STREAM_MASK, step, i))
              for i, seq in enumerate(batch.token_seqs)]
    _, token_states, key_mask = model.text_encoder.encode_batch(
        [m.tokens for m in masked])
    refs = model.bank.rows_for(batch.labels)
    rows = np.concatenate([np.full(m.positions.size, i, dtype=np.intp)
                           for i, m in enumerate(masked)])
    cols = np.concatenate([m.positions for m in masked])
    targets = np.concatenate([m.targets for m in masked])
    out = model.reconstructor(token_states, refs, rows, cols, key_mask=key_mask)
    return rec_loss(out.probs, targets)


def train_step(model: RetrievalModel, optimizer: Adam, batch: PairBatch,
               cfg: RunConfig, schedule: ScheduleConfig, step: int) -> float:
    """One optimization step; returns the scalar total loss."""
    enc = model.encode_pairs(batch)
    fuse = guide = rec = None
    align = align_loss(enc.text_global, enc.image_global, enc.labels, cfg.loss)
    if cfg.use_guidance or cfg.use_global_fusion:
        reps = T.concat_rows([enc.text_global, enc.image_global])
        rep_labels = np.concatenate([enc.labels, enc.labels])
        if cfg.use_global_fusion:
            fuse = fuse_loss(model.bank, reps, rep_labels, cfg.loss)
        if cfg.use_guidance:
            guide = guide_loss(reps, model.bank, rep_labels, cfg.loss)
    if cfg.use_local_reconstruction:
        rec = _reconstruction_term(model, batch, cfg, step)
    total = total_loss(align, fuse, rec, guide, cfg.loss)
    grads = T.backward(total, wrt=optimizer.params)
    optimizer.step(grads, lr_at(step, schedule))
    return total.item()


def _evaluate(model: RetrievalModel, corpus: Corpus, cfg: RunConfig,
              step: int, jsonl_path: str, csv_path: str) -> list[dict]:
    rows = []
    refine_states = (False, True) if cfg.use_refinement else (False,)
    for refined in refine_states:
        for direction in ("t2i", "i2t"):
            result = run_retrieval(model, corpus, "test", direction,
                                   use_refine=refined, w=cfg.loss.refine_weight)
            row = _metric_row(cfg, step, direction, refined, result)
            _append_metrics(row, jsonl_path, csv_path)
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
    """A resume must continue the checkpoint's own run: every config
    field but run_id and out_dir has to match."""
    if "config" not in meta:
        raise ValueError("resume: checkpoint records no config")
    saved = _flatten(meta["config"])
    # through JSON, as the checkpoint stored it, so tuples compare as lists
    live = _flatten(json.loads(json.dumps(config_as_dict(cfg))))
    for key in [*live, *(k for k in saved if k not in live)]:
        if key in ("run_id", "out_dir"):
            continue
        if saved.get(key) != live.get(key):
            raise ValueError(f"resume: config field {key!r} is {saved.get(key)!r} "
                             f"in the checkpoint but {live.get(key)!r} in this run")


def train(cfg: RunConfig, corpus: Corpus | None = None,
          resume_from: str | None = None,
          stop_after_epochs: int | None = None,
          log=None) -> TrainResult:
    """Run the configured protocol end to end.

    resume_from restarts mid-schedule from a checkpoint written by
    stop_after_epochs; both runs must share the config, run_id and
    out_dir aside.
    """
    if corpus is None:
        corpus = generate_corpus(cfg.corpus)
    elif corpus.config != cfg.corpus:
        raise ValueError("corpus does not match cfg.corpus; epoch accounting "
                         "and batch sampling key off the config")
    model = model_for_corpus(cfg.encoder, corpus, cfg.seed)
    params = model.named_parameters()
    optimizer = Adam(list(params.values()))
    schedule = ScheduleConfig(cfg.peak_lr, cfg.warmup_epochs, cfg.epochs,
                              cfg.steps_per_epoch)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ckpt_path = os.path.join(cfg.out_dir, f"{cfg.run_id}.ckpt")
    jsonl_path = os.path.join(cfg.out_dir, f"{cfg.run_id}.metrics.jsonl")
    csv_path = os.path.join(cfg.out_dir, f"{cfg.run_id}.metrics.csv")

    start_epoch = 0
    step = 0
    if resume_from is not None:
        step, meta = load_checkpoint(resume_from, params, optimizer)
        if step % cfg.steps_per_epoch != 0:
            raise ValueError(f"resume: step {step} is not an epoch boundary")
        if meta.get("run_seed") != cfg.seed:
            raise ValueError(f"resume: checkpoint seed {meta.get('run_seed')} "
                             f"!= config seed {cfg.seed}")
        _check_resume_config(meta, cfg)
        start_epoch = step // cfg.steps_per_epoch

    last_epoch = cfg.epochs if stop_after_epochs is None \
        else min(cfg.epochs, stop_after_epochs)
    final_rows: list[dict] = []
    for epoch in range(start_epoch + 1, last_epoch + 1):
        epoch_loss = 0.0
        for _ in range(cfg.steps_per_epoch):
            step += 1
            batch = sample_batch(corpus, cfg.batch_identities, cfg.batch_pairs,
                                 seed=cfg.seed * _SEED_STRIDE + step)
            try:
                epoch_loss += train_step(model, optimizer, batch, cfg, schedule, step)
            except NumericsError as e:
                raise RuntimeError(f"training aborted at step {step} "
                                   f"(epoch {epoch}): {e}") from e
        due = cfg.eval_every and epoch % cfg.eval_every == 0
        if due or epoch == last_epoch:
            final_rows = _evaluate(model, corpus, cfg, step, jsonl_path, csv_path)
        if log is not None:
            log(f"[{cfg.run_id}] epoch {epoch}/{cfg.epochs} "
                f"loss {epoch_loss / cfg.steps_per_epoch:.4f}"
                + (f" R@1 {final_rows[0]['R@1']:.2f}" if (due or epoch == last_epoch) else ""))

    meta = {"run_seed": cfg.seed, "run_id": cfg.run_id,
            "config": config_as_dict(cfg)}
    save_checkpoint(ckpt_path, params, step, meta, optimizer)
    return TrainResult(config=cfg, model=model, corpus=corpus, steps=step,
                       checkpoint_path=ckpt_path, metrics_jsonl=jsonl_path,
                       metrics_csv=csv_path, final_metrics=final_rows)


# ------------------------------------------------------- masked-token evals

def masked_eval(model: RetrievalModel, corpus: Corpus, split: str = "train",
                ratio: float = 0.15, seed: int = 0, chunk: int = 64) -> dict:
    """Deterministic masked-token accuracy and perplexity over a split.

    Uses each pair's own identity reference, so the split must be one the
    bank covers (train, unless the bank was built wider).
    """
    pairs = corpus.train_pairs if split == "train" else corpus.test_pairs
    if not pairs:
        raise ValueError(f"masked_eval: split {split!r} is empty")
    total_nll = 0.0
    hits = 0
    count = 0
    for lo in range(0, len(pairs), chunk):
        part = pairs[lo:lo + chunk]
        masked = [mask_tokens(p.tokens, ratio, derive_rng(seed, STREAM_MASK, lo + i))
                  for i, p in enumerate(part)]
        if all(m.positions.size == 0 for m in masked):
            continue                      # fully dropped captions are legal
        _, token_states, key_mask = model.text_encoder.encode_batch(
            [m.tokens for m in masked])
        labels = np.asarray([p.identity_id for p in part])
        refs = model.bank.rows_for(labels)
        rows = np.concatenate([np.full(m.positions.size, i, dtype=np.intp)
                               for i, m in enumerate(masked)])
        cols = np.concatenate([m.positions for m in masked])
        targets = np.concatenate([m.targets for m in masked])
        out = model.reconstructor(token_states, refs, rows, cols, key_mask=key_mask)
        probs = out.probs.data
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

def _aggregate(rows_by_seed: list[dict]) -> dict:
    keys = ("R@1", "R@5", "R@10", "mAP", "AP@N")
    mean = {k: float(np.mean([r[k] for r in rows_by_seed])) for k in keys}
    std = {k: float(np.std([r[k] for r in rows_by_seed])) for k in keys}
    return {"mean": mean, "std": std}


def _eval_row(model: RetrievalModel, corpus: Corpus, refined: bool, w: float) -> dict:
    result = run_retrieval(model, corpus, "test", "t2i",
                           use_refine=refined, w=w)
    ap_key = next(k for k in result.metrics if k.startswith("AP@"))
    return {"R@1": result.metrics["R@1"], "R@5": result.metrics["R@5"],
            "R@10": result.metrics["R@10"], "mAP": result.metrics["mAP"],
            "AP@N": result.metrics[ap_key]}


def ablate(base: RunConfig, seeds=(0, 1, 2), corpus: Corpus | None = None,
           w_grid=W_SWEEP_GRID, log=None) -> dict:
    """The component ablation plus the fusion-weight sweep.

    Per seed, three trainings: Baseline, A (guidance + fusion), and C
    (guidance + fusion + reconstruction).  B reranks A's model through
    the bank; Full reranks C's.  The sweep re-scores C's model across
    w_grid.  Scores are text-to-image on the test split.
    """
    if corpus is None:
        corpus = generate_corpus(base.corpus)
    w = base.loss.refine_weight
    variant_rows: dict[str, list[dict]] = {v: [] for v in VARIANT_ORDER}
    sweep_rows: dict[float, list[dict]] = {float(g): [] for g in w_grid}
    for seed in seeds:
        cfg_s = base.with_seed(int(seed))
        trained = {name: train(cfg_s.with_variant(name), corpus, log=log)
                   for name in ("Baseline", "A", "C")}
        variant_rows["Baseline"].append(_eval_row(trained["Baseline"].model, corpus, False, w))
        variant_rows["A"].append(_eval_row(trained["A"].model, corpus, False, w))
        variant_rows["B"].append(_eval_row(trained["A"].model, corpus, True, w))
        variant_rows["C"].append(_eval_row(trained["C"].model, corpus, False, w))
        variant_rows["Full"].append(_eval_row(trained["C"].model, corpus, True, w))
        for g in w_grid:
            sweep_rows[float(g)].append(_eval_row(trained["C"].model, corpus, True, float(g)))
    report = {
        "seeds": [int(s) for s in seeds],
        "runs_aggregated": len(seeds) * (len(VARIANT_ORDER) + len(w_grid)),
        "variants": [{"variant": v, **_aggregate(variant_rows[v]),
                      "per_seed": variant_rows[v]} for v in VARIANT_ORDER],
        "sweep": [{"w": g, **_aggregate(sweep_rows[float(g)]),
                   "per_seed": sweep_rows[float(g)]} for g in w_grid],
    }
    return report


def write_ablation_report(report: dict, out_dir: str, name: str = "ablation") -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"{name}.json")
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(json_path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    keys = ("R@1", "R@5", "R@10", "mAP", "AP@N")
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["row", "setting"] + [f"{k} mean" for k in keys]
                        + [f"{k} std" for k in keys])
        for entry in report["variants"]:
            writer.writerow(["variant", entry["variant"]]
                            + [entry["mean"][k] for k in keys]
                            + [entry["std"][k] for k in keys])
        for entry in report["sweep"]:
            writer.writerow(["sweep", entry["w"]]
                            + [entry["mean"][k] for k in keys]
                            + [entry["std"][k] for k in keys])
    return json_path, csv_path


def format_ablation_table(report: dict) -> str:
    keys = ("R@1", "R@5", "R@10", "mAP", "AP@N")
    lines = [f"{'row':<10}" + "".join(f"{k:>16}" for k in keys)]
    for entry in report["variants"]:
        cells = [f"{entry['mean'][k]:.2f}±{entry['std'][k]:.2f}" for k in keys]
        lines.append(f"{entry['variant']:<10}" + "".join(f"{c:>16}" for c in cells))
    lines.append("")
    lines.append(f"{'w':<10}" + "".join(f"{k:>16}" for k in keys))
    for entry in report["sweep"]:
        cells = [f"{entry['mean'][k]:.2f}±{entry['std'][k]:.2f}" for k in keys]
        lines.append(f"{entry['w']:<10}" + "".join(f"{c:>16}" for c in cells))
    return "\n".join(lines)


def sweep_w(base: RunConfig, seeds=(0, 1, 2), corpus: Corpus | None = None,
            w_grid=W_SWEEP_GRID, log=None) -> dict:
    """Train the full model per seed, then re-score across the w grid."""
    if corpus is None:
        corpus = generate_corpus(base.corpus)
    rows: dict[float, list[dict]] = {float(g): [] for g in w_grid}
    for seed in seeds:
        cfg_s = base.with_seed(int(seed)).with_variant("C")
        result = train(cfg_s, corpus, log=log)
        for g in w_grid:
            rows[float(g)].append(_eval_row(result.model, corpus, True, float(g)))
    return {
        "seeds": [int(s) for s in seeds],
        "sweep": [{"w": g, **_aggregate(rows[float(g)]), "per_seed": rows[float(g)]}
                  for g in w_grid],
    }
