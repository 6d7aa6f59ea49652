"""The three closed-loop workloads: one caller, which sends the next call
only after the last one returned.

Each workload derives its corpus seed and run seed from the workload seed,
sets up (timed, several rounds), then runs operations until the time is up.
An operation returns an `Op`; `check` inspects it outside the timed region.
A failed operation is an exception, a non-finite loss or a failed check.
"""
from __future__ import annotations

import math
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from refalign import config as rconfig
from refalign import data as rdata
from refalign import evaluation as revaluation
from refalign import model as rmodel
from refalign import refinement as rrefinement
from refalign import tensor as rtensor
from refalign import train as rtrain

import oracles

BATCH_STRIDE = 1_000_003      # (run seed, step) -> batch seed
RERANK_W = 0.5


def derive_seeds(seed: int) -> tuple[int, int]:
    """Workload seed -> (corpus seed, run seed)."""
    corpus_seed, run_seed = np.random.SeedSequence([int(seed), 41]).generate_state(2)
    return int(corpus_seed), int(run_seed)


@dataclass
class Op:
    seconds: float          # the call the user waits for
    busy: float             # the whole iteration, for throughput
    items: int              # training pairs or ranked queries
    value: object = None    # what the check needs
    span: tuple[float, float] = (0.0, 0.0)   # set by the caller around op()


def _variant_c(corpus_seed: int, run_seed: int, out_dir: str, **corpus_changes):
    base = rconfig.trend_protocol_config(out_dir=out_dir)
    corpus = replace(base.corpus, seed=corpus_seed, **corpus_changes)
    return replace(base, corpus=corpus).with_variant("C").with_seed(run_seed)


def _corpus_round_trip(cfg: rconfig.RunConfig, scratch: str) -> rdata.Corpus:
    path = os.path.join(scratch, "corpus.bin")
    rdata.save_corpus(rdata.generate_corpus(cfg.corpus), path)
    return rdata.load_corpus(path)


def _param_counts(model) -> tuple[int, int]:
    params = model.named_parameters()
    return len(params), sum(p.data.size for p in params.values())


class Workload:
    name = ""
    why = ""
    exposes = ""            # the ROADMAP item this workload is meant to show
    calibrate_with = "step"     # calibration kernel like the operation's work
    min_ops = 1
    repeat = 1              # consecutive ops that do the same work

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.corpus_seed, self.run_seed = derive_seeds(seed)
        self.scratch = scratch
        self.param_counts: list[tuple[int, int]] = []

    def setup(self) -> None:
        """One set-up round; the last round's products are used."""

    def prepare(self) -> None:
        """Untimed work after set-up, e.g. what the output checks need."""

    def begin(self) -> None:
        """Fresh state for one measured phase."""

    def exhausted(self, i: int) -> bool:
        return False

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, i: int, op: Op) -> str | None:
        return None

    def phase_checks(self) -> list[tuple[str, bool]]:
        return []

    def report(self) -> list[str]:
        return []


class TrainWorkload(Workload):
    name = "train"
    why = ("repeated variant C train_step calls on the trend config: autodiff, both encoders, "
           "all four losses, the reconstruction head and Adam; no evaluation")
    exposes = "ROADMAP items 2 (dead cross-attention) and 4 (fused kernels, lean graph)"
    min_ops = 40
    warmup_steps = 3

    def setup(self) -> None:
        self.cfg = _variant_c(self.corpus_seed, self.run_seed, self.scratch)
        self.corpus = _corpus_round_trip(self.cfg, self.scratch)
        self.state = self._build()
        self.param_counts.append(_param_counts(self.state[0]))
        self.schedule = rtensor.ScheduleConfig(self.cfg.peak_lr, self.cfg.warmup_epochs,
                                               self.cfg.epochs, self.cfg.steps_per_epoch)

    def _build(self):
        model = rmodel.model_for_corpus(self.cfg.encoder, self.corpus, self.cfg.seed)
        return model, rtensor.Adam(model.parameters())

    def begin(self) -> None:
        warm = self._build()
        for step in range(1, self.warmup_steps + 1):
            self._step(warm, step)
        self.losses: list[float] = []

    def exhausted(self, i: int) -> bool:
        return i >= self.schedule.total_steps

    def _step(self, state, step: int) -> tuple[float, float]:
        batch = rdata.sample_batch(self.corpus, self.cfg.batch_identities, self.cfg.batch_pairs,
                                   seed=self.run_seed * BATCH_STRIDE + step)
        start = time.perf_counter()
        loss = rtrain.train_step(state[0], state[1], batch, self.cfg, self.schedule, step)
        return loss, time.perf_counter() - start

    def op(self, i: int) -> Op:
        start = time.perf_counter()
        loss, seconds = self._step(self.state, i + 1)
        busy = time.perf_counter() - start
        self.losses.append(loss)
        return Op(seconds, busy, self.cfg.batch_identities * self.cfg.batch_pairs, loss)

    def check(self, i: int, op: Op) -> str | None:
        return None if math.isfinite(op.value) else f"step {i + 1}: non-finite loss {op.value}"

    def phase_checks(self) -> list[tuple[str, bool]]:
        window = max(1, min(50, len(self.losses) // 4))
        self.first = float(np.mean(self.losses[:window]))
        self.last = float(np.mean(self.losses[-window:]))
        return [(f"train: mean loss of the last {window} steps below the first {window}",
                 self.last < self.first)]

    def report(self) -> list[str]:
        return [f"train: final loss {self.losses[-1]!r} after {len(self.losses)} steps; "
                f"window means first {self.first!r} last {self.last!r}"]


class RetrieveWorkload(Workload):
    name = "retrieve"
    why = ("run_retrieval over a 4000-item test split, t2i and i2t, plain and reranked at "
           "w=0.5: forward encoding, argsort, mAP and AP@N loops and the bank rerank")
    exposes = "ROADMAP item 3 (encode once, sort once)"
    min_ops = 2
    calibrate_with = "sort"
    modes = (("t2i", False), ("t2i", True), ("i2t", False), ("i2t", True))
    setup_steps = 25
    oracle_queries = 64

    def setup(self) -> None:
        cfg = _variant_c(self.corpus_seed, self.run_seed, self.scratch, n_test_identities=500)
        self.corpus = _corpus_round_trip(cfg, self.scratch)
        model = rmodel.model_for_corpus(cfg.encoder, self.corpus, cfg.seed)
        params = model.named_parameters()
        optimizer = rtensor.Adam(list(params.values()))
        schedule = rtensor.ScheduleConfig(cfg.peak_lr, cfg.warmup_epochs, cfg.epochs,
                                          cfg.steps_per_epoch)
        for step in range(1, self.setup_steps + 1):
            batch = rdata.sample_batch(self.corpus, cfg.batch_identities, cfg.batch_pairs,
                                       seed=self.run_seed * BATCH_STRIDE + step)
            rtrain.train_step(model, optimizer, batch, cfg, schedule, step)
        path = os.path.join(self.scratch, "model.ckpt")
        rmodel.save_checkpoint(path, params, self.setup_steps, {"run_seed": cfg.seed}, optimizer)
        self.model = rmodel.model_for_corpus(cfg.encoder, self.corpus, cfg.seed)
        rmodel.load_checkpoint(path, self.model.named_parameters())
        self.param_counts.append(_param_counts(self.model))

    def prepare(self) -> None:
        self.text, self.image, self.labels = revaluation.encode_split(self.model, self.corpus, "test")
        rng = np.random.default_rng([self.seed, 43])
        self.sample = np.sort(rng.choice(self.labels.size, size=self.oracle_queries, replace=False))
        self.rows: dict[tuple, dict] = {}

    def op(self, i: int) -> Op:
        direction, refine = self.modes[i // self.repeat % len(self.modes)]
        start = time.perf_counter()
        result = revaluation.run_retrieval(self.model, self.corpus, "test", direction,
                                           use_refine=refine, w=RERANK_W)
        seconds = time.perf_counter() - start
        # keep only what the check reads, so it adds little to peak memory
        ap_n = int(next(k for k in result.metrics if k.startswith("AP@"))[3:])
        kept = (direction, refine, result.metrics, result.rankings[:, :max(10, ap_n)].copy(),
                result.rankings[self.sample])
        return Op(seconds, seconds, self.labels.size, kept)

    def check(self, i: int, op: Op) -> str | None:
        direction, refine, metrics, top, rows = op.value
        queries, gallery = (self.text, self.image) if direction == "t2i" else (self.image, self.text)
        # rows of the full matrices, exactly as run_retrieval computed them
        scores = rrefinement.cosine_scores(queries, gallery)[self.sample]
        if refine:
            bank = self.model.bank.matrix()
            ref = rrefinement.reference_similarity(queries, gallery, bank)[self.sample]
            scores = rrefinement.fuse_scores(scores, ref, RERANK_W)
        bad = oracles.check_retrieval(revaluation, self.labels, metrics, top, self.sample,
                                      scores, rows)
        bad += [f"{k} = {v} outside its range" for k, v in metrics.items()
                if not 0.0 <= v <= (1.0 if k == "mAP" else 100.0)]
        self.rows[(direction, refine)] = metrics
        return "; ".join(bad) or None

    def report(self) -> list[str]:
        return [f"retrieve: {d} {'reranked' if r else 'plain'} "
                + " ".join(f"{k} {v!r}" for k, v in m.items())
                for (d, r), m in sorted(self.rows.items())]


class AblateWorkload(Workload):
    name = "ablate"
    why = ("one ablate() per op on the trend protocol, 2 epochs, one seed, full w grid: "
           "three trainings plus 17 run_retrieval calls on one 800-item split")
    exposes = ("ROADMAP item 3 (encode-once caching, process pool); item 4 shows less "
               "here since Baseline and A skip the reconstruction head")
    epochs = 2
    calibrate_with = "sort"     # three quarters of an op is run_retrieval
    _loss = re.compile(r"loss (\S+)")

    def setup(self) -> None:
        self.cfg = replace(_variant_c(self.corpus_seed, self.run_seed, self.scratch),
                           epochs=self.epochs, warmup_epochs=1, run_id="trend")
        self.corpus = _corpus_round_trip(self.cfg, self.scratch)
        model = rmodel.model_for_corpus(self.cfg.encoder, self.corpus, self.cfg.seed)
        self.param_counts.append(_param_counts(model))

    def op(self, i: int) -> Op:
        out_dir = tempfile.mkdtemp(prefix="ablate-", dir=self.scratch)
        lines: list[str] = []
        try:
            start = time.perf_counter()
            report = rtrain.ablate(replace(self.cfg, out_dir=out_dir), seeds=(self.run_seed,),
                                   corpus=self.corpus, log=lines.append)
            seconds = time.perf_counter() - start
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        # the report's rows plus train()'s final t2i and i2t evals of its 3 models
        scored = report["runs_aggregated"] + 6
        return Op(seconds, seconds, scored * len(self.corpus.test_pairs), (report, lines))

    def check(self, i: int, op: Op) -> str | None:
        report, lines = op.value
        bad = []
        variants = [v["variant"] for v in report["variants"]]
        if variants != list(rconfig.VARIANT_ORDER):
            bad.append(f"variants {variants}")
        grid = [s["w"] for s in report["sweep"]]
        if grid != list(rconfig.W_SWEEP_GRID):
            bad.append(f"w grid {grid}")
        for entry in report["variants"] + report["sweep"]:
            for row in [entry["mean"]] + entry["per_seed"]:
                bad += [f"{k} = {row[k]} outside [0, 100]" for k in ("R@1", "R@5", "R@10")
                        if not 0.0 <= row[k] <= 100.0]
                if not 0.0 <= row["mAP"] <= 1.0:
                    bad.append(f"mAP = {row['mAP']} outside [0, 1]")
        by_run: dict[str, list[float]] = {}
        for line in lines:
            by_run.setdefault(line.split("]")[0], []).append(float(self._loss.search(line).group(1)))
        if len(by_run) != 3:
            bad.append(f"{len(by_run)} trainings logged, want 3")
        for run, losses in by_run.items():
            if not all(math.isfinite(x) for x in losses):
                bad.append(f"{run}]: non-finite loss {losses}")
            elif not losses[-1] < losses[0]:
                bad.append(f"{run}]: last epoch loss {losses[-1]} not below first {losses[0]}")
        self.last = (report, by_run)
        return "; ".join(bad) or None

    def report(self) -> list[str]:
        report, by_run = self.last
        out = [f"ablate: {run}] epoch losses {losses}" for run, losses in by_run.items()]
        out.append("ablate: R@1 " + " ".join(f"{v['variant']} {v['mean']['R@1']!r}"
                                              for v in report["variants"]))
        out.append("ablate: R@1 by w " + " ".join(f"{s['w']} {s['mean']['R@1']!r}"
                                                   for s in report["sweep"]))
        return out


WORKLOADS = {w.name: w for w in (TrainWorkload, RetrieveWorkload, AblateWorkload)}
