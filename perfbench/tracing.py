"""Span tracing around refalign's public functions, from outside the package.

`Tracer.install()` swaps each function or method listed in TRACED for a
wrapper that records a span (name, start, end, parent, tag) in memory, and
`uninstall()` puts the originals back.  A function that other refalign
modules imported by name is replaced in every module that holds it, so
calls made inside the package are traced too.  The wrappers cost a few
microseconds per call; the traced run reports that cost as
`trace_overhead`.

Spans nest strictly (one caller, one thread), so a span's self time is its
duration minus the durations of its direct children.  The measured
workload operation is the root span `op`; set-up rounds run under the root
`setup`.  Per-operation metrics and the layer table count only spans under
`op` roots.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span "<module>.<attribute>"; methods as Class.method
TRACED = (
    ("tensor", "backward"),
    ("tensor", "Adam.step"),
    ("encoders", "TextEncoder.encode_batch"),
    ("encoders", "ImageEncoder.encode_batch"),
    ("losses", "align_loss"),
    ("losses", "fuse_loss"),
    ("losses", "guide_loss"),
    ("losses", "rec_loss"),
    ("losses", "total_loss"),
    ("reference", "mask_tokens"),
    ("reference", "LocalReconstructor.__call__"),
    ("data", "generate_corpus"),
    ("data", "sample_batch"),
    ("data", "save_corpus"),
    ("data", "load_corpus"),
    ("model", "RetrievalModel.encode_pairs"),
    ("model", "model_for_corpus"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("evaluation", "encode_split"),
    ("evaluation", "ranking"),
    ("evaluation", "rank_at_k"),
    ("evaluation", "mean_average_precision"),
    ("evaluation", "ap_at_n"),
    ("evaluation", "run_retrieval"),
    ("refinement", "cosine_scores"),
    ("refinement", "reference_similarity"),
    ("refinement", "refined_scores"),
    ("train", "train_step"),
    ("train", "train"),
    ("train", "ablate"),
)

# per-layer metric -> (unit, spans, how): "self"/"total" are time summed
# over `op`-rooted spans per operation; "call" is total time per call of
# the span wherever it ran (set-up included)
TIMED = {
    "tensor.backward_ms": ("ms", ("tensor.backward",), "self"),
    "tensor.adam_ms": ("ms", ("tensor.Adam.step",), "self"),
    "encoders.text_ms": ("ms", ("encoders.TextEncoder.encode_batch",), "self"),
    "encoders.image_ms": ("ms", ("encoders.ImageEncoder.encode_batch",), "self"),
    "losses.align_ms": ("ms", ("losses.align_loss",), "self"),
    "losses.bank_ms": ("ms", ("losses.fuse_loss", "losses.guide_loss"), "self"),
    "losses.rec_ms": ("ms", ("losses.rec_loss",), "self"),
    "reference.mask_ms": ("ms", ("reference.mask_tokens",), "self"),
    "reference.recon_ms": ("ms", ("reference.LocalReconstructor.__call__",), "self"),
    "data.batch_ms": ("ms", ("data.sample_batch",), "self"),
    "data.generate_s": ("s", ("data.generate_corpus",), "call"),
    "data.save_s": ("s", ("data.save_corpus",), "call"),
    "data.load_s": ("s", ("data.load_corpus",), "call"),
    "model.encode_pairs_ms": ("ms", ("model.RetrievalModel.encode_pairs",), "self"),
    "model.ckpt_write_s": ("s", ("model.save_checkpoint",), "call"),
    "model.ckpt_read_s": ("s", ("model.load_checkpoint",), "call"),
    "evaluation.encode_s": ("s", ("evaluation.encode_split",), "total"),
    "evaluation.rank_s": ("s", ("evaluation.ranking",), "self"),
    "evaluation.map_s": ("s", ("evaluation.mean_average_precision",), "self"),
    "evaluation.apn_s": ("s", ("evaluation.ap_at_n",), "self"),
    "refinement.cosine_s": ("s", ("refinement.cosine_scores",), "self"),
    "refinement.refsim_s": ("s", ("refinement.reference_similarity",), "self"),
    "train.fit_s": ("s", ("train.train",), "total"),
}

# counts that must repeat exactly between runs on one seed
COUNTS = ("tensor.graph_nodes", "tensor.live_grad_ratio",
          "evaluation.encode_calls", "evaluation.rank_calls",
          "model.param_tensors", "model.param_scalars")

# every per-layer metric of a traced run with its unit
UNITS = {name: unit for name, (unit, _, _) in TIMED.items()}
UNITS.update({"tensor.graph_nodes": "count", "tensor.live_grad_ratio": "ratio",
              "evaluation.encode_calls": "count", "evaluation.rank_calls": "count",
              "model.param_tensors": "count", "model.param_scalars": "count",
              "model.ckpt_bytes": "bytes", "data.corpus_bytes": "bytes",
              "refinement.rerank_overhead": "ratio", "train.eval_share": "share",
              "trace_overhead": "ratio"})
_COUNTED_CALLS = ("evaluation.encode_split", "evaluation.ranking")


def graph_nodes(loss) -> int:
    """Nodes reachable from `loss` through parents that need a gradient,
    the set refalign.tensor.backward walks.  Reads Tensor._parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tags: list[str | None] = []
        self.roots: list[int] = []          # root span index of each span
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # per-op counters, keyed by op root span index
        self.op_counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.file_bytes: dict[str, int] = {}

    # ------------------------------------------------------------ spans

    def open(self, name: str, tag: str | None = None) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else idx)
        self.tags.append(tag)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span around the block; nothing while inactive."""
        idx = self.open(name) if self.active else None
        try:
            yield
        finally:
            if idx is not None:
                self.close(idx)

    def _in_op(self) -> int | None:
        if self._stack and self.names[self._stack[0]] == "op":
            return self._stack[0]
        return None

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = sys.modules[f"refalign.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "refalign":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        pre = _PRE.get(name)
        post = _POST.get(name)
        tag = _TAG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            op = tracer._in_op()
            if pre is not None and op is not None:
                pre(tracer.op_counts[op], args)
            idx = tracer.open(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(tracer, op, args, result)
            return result

        return traced

    # ----------------------------------------------------------- reports

    def durations(self) -> np.ndarray:
        return (np.asarray(self.ends) - np.asarray(self.starts)) / 1e9

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        out = dur.copy()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[idx]
        return out

    def op_roots(self) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == "op" and self.parents[i] < 0]

    def layer_metrics(self) -> dict[str, float]:
        """Every TIMED metric, the per-op counts and the rerank overhead."""
        dur = self.durations()
        own = self.self_times()
        ops = self.op_roots()
        n_ops = max(1, len(ops))
        op_set = set(ops)
        in_op = np.asarray([r in op_set for r in self.roots], dtype=bool)
        names = np.asarray(self.names, dtype=object)
        out: dict[str, float] = {}
        for metric, (unit, spans, how) in TIMED.items():
            scale = 1e3 if unit == "ms" else 1.0
            hit = np.isin(names, spans)
            if how == "call":
                calls = int(hit.sum())
                out[metric] = float(dur[hit].sum()) / calls * scale if calls else 0.0
            else:
                src = own if how == "self" else dur
                out[metric] = float(src[hit & in_op].sum()) / n_ops * scale
        total: dict[str, int] = {}
        for counts in self.op_totals().values():
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        out["tensor.graph_nodes"] = (total.get("graph_nodes", 0) / total["backward_calls"]
                                     if total.get("backward_calls") else 0.0)
        out["tensor.live_grad_ratio"] = (total.get("live_grads", 0) / total["grads"]
                                         if total.get("grads") else 0.0)
        out["evaluation.encode_calls"] = total.get("evaluation.encode_split", 0) / n_ops
        out["evaluation.rank_calls"] = total.get("evaluation.ranking", 0) / n_ops
        out["model.ckpt_bytes"] = float(self.file_bytes.get("checkpoint", 0))
        out["data.corpus_bytes"] = float(self.file_bytes.get("corpus", 0))
        runs = names == "evaluation.run_retrieval"
        tags = np.asarray(self.tags, dtype=object)
        plain = dur[runs & (tags == "plain")]
        refined = dur[runs & (tags == "refined")]
        out["refinement.rerank_overhead"] = (float(np.median(refined)) / float(np.median(plain)) - 1.0
                                             if plain.size and refined.size else 0.0)
        op_time = float(dur[ops].sum()) if ops else 0.0
        out["train.eval_share"] = float(dur[runs & in_op].sum()) / op_time if op_time else 0.0
        return out

    def op_totals(self) -> dict[int, dict[str, int]]:
        """Counters of every traced op, in order: graph nodes and gradients
        seen by backward, and calls of encode_split and ranking."""
        per_op = {op: dict(self.op_counts[op]) for op in self.op_roots()}
        for name, root in zip(self.names, self.roots):
            if root in per_op and name in _COUNTED_CALLS:
                per_op[root][name] = per_op[root].get(name, 0) + 1
        return per_op

    def layer_table(self) -> list[dict]:
        """Self time, calls and share of op wall time per layer (module)
        and per traced function, sorted by self time."""
        own = self.self_times()
        ops = self.op_roots()
        op_set = set(ops)
        op_time = float(self.durations()[ops].sum()) if ops else 0.0
        rows: dict[str, list] = {}
        for idx, (name, root) in enumerate(zip(self.names, self.roots)):
            if root not in op_set:
                continue
            for key in ((name.split(".")[0], name) if name != "op" else ("(unattributed)",)):
                row = rows.setdefault(key, [0.0, 0])
                row[0] += float(own[idx])
                row[1] += 1
        table = [{"layer": key, "self_s": row[0], "calls": row[1],
                  "share": row[0] / op_time if op_time else 0.0}
                 for key, row in rows.items()]
        return sorted(table, key=lambda r: -r["self_s"])

    def dump(self) -> dict:
        t0 = min(self.starts) if self.starts else 0
        return {"fields": ["name", "start_ns", "end_ns", "parent", "tag"],
                "spans": [[n, s - t0, e - t0, p, g] for n, s, e, p, g in
                          zip(self.names, self.starts, self.ends, self.parents, self.tags)]}


def _count_graph(counts, args) -> None:
    counts["graph_nodes"] += graph_nodes(args[0])
    counts["backward_calls"] += 1


def _count_grads(tracer: Tracer, op, args, grads) -> None:
    if op is None:
        return
    counts = tracer.op_counts[op]
    counts["grads"] += len(grads)
    counts["live_grads"] += sum(1 for g in grads.values() if np.any(g))


def _file_size(kind: str, path_arg: int):
    def post(tracer: Tracer, op, args, result) -> None:
        tracer.file_bytes[kind] = os.path.getsize(args[path_arg])
    return post


def _retrieval_mode(args, kwargs) -> str:
    refine = kwargs.get("use_refine", args[4] if len(args) > 4 else False)
    return "refined" if refine else "plain"


_PRE = {"tensor.backward": _count_graph}
_POST = {"tensor.backward": _count_grads,
         "data.save_corpus": _file_size("corpus", 1),
         "model.save_checkpoint": _file_size("checkpoint", 0)}
_TAG = {"evaluation.run_retrieval": _retrieval_mode}

