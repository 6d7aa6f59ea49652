"""refalign benchmark: one closed-loop workload per call, from outside the package.

    python3 perfbench/run.py --workload {train,retrieve,ablate} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports refalign from `src/` there and
fails without printing a result when that is missing.  BLAS threads are
capped at the number of usable cores.  The workload seed gives the corpus
seed and the run seed, so one seed always gives the same inputs.

`--trace 0` sets up SETUP_ROUNDS times, runs operations for S seconds and
prints the end-to-end metrics.  Every workload reports the same names:

    op_ms.p50    median time of one operation: a train_step call (train,
                 step_ms), a run_retrieval call (retrieve, retrieval_s) or
                 an ablate() call (ablate, ablate_s)
    op_ms.tail   p99, or the highest percentile with ten samples beyond
                 it, never below p50 (step_ms.p99 on train)
    items_per_s  training pairs (train) or ranked queries (retrieve and
                 ablate) per second of operation time
    setup_s      median time of one set-up round
    peak_rss_mb  peak resident memory of the process

The times are calibrated against a fixed kernel timed around them, which
cancels the host's own drift in speed (calibration.py); the wall times are
printed beside them and kept in the result file.

`--trace 1` runs S seconds in which every second operation runs with each
layer's public functions wrapped (tracing.py), and prints the per-layer
metrics, the layer table and `trace_overhead`, the traced operations'
time over the untraced ones' minus one.  The per-op counts must repeat
exactly between traced runs on one seed; the first traced run of a seed
stores them under .perfbench_out/counts and later ones compare.

The last line of stdout is one JSON object: correct, attempted, failed
(workload operations plus run-level checks) and metrics.  The error rate
is failed / attempted.  Full results, the environment record and the span
dump go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

SETUP_ROUNDS = 3
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    # must run before NumPy loads, so this module imports NumPy lazily
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "refalign").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> dict:
    import ctypes
    import numpy as np
    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "blas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = int(fn())
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np
    return {"git_commit": _git_commit(), "source_digest": _source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": NPROC, "workload_seed": seed}


def _quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(values, q)) if values else 0.0


def tail_quantile(n: int) -> float:
    """p99, or the highest percentile with ten samples beyond it, >= p50."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n)) if n else 0.5


class Phase:
    def __init__(self):
        self.ops = []             # (op, traced) of every operation that passed
        self.failures: list[str] = []
        self.checks: list[tuple[str, bool]] = []
        self.attempted = 0

    def timed(self, traced: bool = False):
        return [op for op, t in self.ops if t == traced]


def measure(wl, seconds: float, tracer, alternate: bool, cal=None) -> Phase:
    """Closed loop: run operations until `seconds` have passed and at least
    `min_ops` ran.  With `alternate`, every second operation is traced, so
    drift in machine load falls on both sides alike.  Checks and
    calibration samples run between operations, untimed and untraced."""
    phase = Phase()
    wl.begin()
    min_ops = wl.min_ops * (2 if alternate else 1)
    start = time.perf_counter()
    i = 0
    while (i < min_ops or time.perf_counter() - start < seconds) and not wl.exhausted(i):
        if cal is not None:
            cal.sample(force=False)
        traced = alternate and i % 2 == 1
        phase.attempted += 1
        tracer.active = traced
        try:
            with tracer.root("op"):
                began = time.perf_counter()
                op = wl.op(i)
                op.span = (began, time.perf_counter())
        except Exception as exc:   # a failed operation is counted, not fatal
            tracer.active = False
            if not phase.failures:
                traceback.print_exc(file=sys.stderr)
            phase.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            tracer.active = False
            reason = wl.check(i, op)
            op.value = None       # results can be large; the check has them
            if reason:
                phase.failures.append(f"op {i}: {reason}")
            else:
                phase.ops.append((op, traced))
        i += 1
    if cal is not None:
        cal.sample()
    phase.checks = wl.phase_checks()
    return phase


def end_to_end(ops, setup_rounds, op_cal, setup_cal) -> tuple[dict, dict]:
    """(calibrated, wall) end-to-end metrics; see calibration.py."""
    out = []
    for calibrated in (True, False):
        op_scale = [op_cal.scale(*op.span) if calibrated else 1.0 for op in ops]
        set_scale = [setup_cal.scale(a, b) if calibrated else 1.0 for a, b in setup_rounds]
        times = [op.seconds * 1e3 * k for op, k in zip(ops, op_scale)]
        busy = sum(op.busy * k for op, k in zip(ops, op_scale))
        out.append({
            "op_ms.p50": _quantile(times, 0.5),
            "op_ms.tail": _quantile(times, tail_quantile(len(times))),
            "items_per_s": sum(op.items for op in ops) / busy if busy else 0.0,
            "setup_s": statistics.median((b - a) * k for (a, b), k in zip(setup_rounds, set_scale)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    return out[0], out[1]


def issue_names(wl, metrics: dict, n_ops: int) -> dict[str, float]:
    """The end-to-end metrics under the names the workload's users know."""
    if wl.name == "train":
        q = tail_quantile(n_ops)
        return {"step_ms.p50": metrics["op_ms.p50"],
                f"step_ms.p{100 * q:g}": metrics["op_ms.tail"],
                "pairs_per_s": metrics["items_per_s"]}
    key = "retrieval_s.p50" if wl.name == "retrieve" else "ablate_s"
    return {key: metrics["op_ms.p50"] / 1e3, "queries_per_s": metrics["items_per_s"]}


UNITS = {"op_ms.p50": "ms", "op_ms.tail": "ms", "items_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB", "step_ms": "ms", "retrieval_s": "s", "ablate_s": "s",
         "pairs_per_s": "1/s", "queries_per_s": "1/s"}


def compare_counts(wl, counts: dict, digest: str) -> list[tuple[str, bool]]:
    """Store the first traced run's counts for this seed and source; later
    runs must match them exactly."""
    path = OUT / "counts" / f"{wl.name}-seed{wl.seed}-{digest}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    diff = {k: (before.get(k), v) for k, v in counts.items() if before.get(k) != v}
    for key, (old, new) in diff.items():
        print(f"COUNT MISMATCH {wl.name} seed {wl.seed}: {key} was {old!r}, now {new!r}",
              file=sys.stderr)
    return [(f"counts repeat the stored run {path.name}", not diff)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "retrieve", "ablate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "refalign" / "__init__.py").is_file():
        print(f"perfbench: no refalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import refalign
    if Path(refalign.__file__).resolve().parent != ROOT / "src" / "refalign":
        print(f"perfbench: refalign imported from {refalign.__file__}, not src/", file=sys.stderr)
        return 2
    import calibration
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, WORKLOADS[args.workload](args.seed, scratch), tracing, calibration)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, wl, tracing, calibration) -> int:
    env = environment(args.seed)
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    setup_cal = calibration.Calibration("step")
    setup_rounds = []
    for _ in range(SETUP_ROUNDS):
        setup_cal.sample()
        start = time.perf_counter()
        with tracer.root("setup"):
            wl.setup()
        setup_rounds.append((start, time.perf_counter()))
    setup_cal.sample()
    tracer.active = False
    wl.prepare()
    checks = [("parameter counts repeat across set-up rounds", len(set(wl.param_counts)) == 1)]

    wl.repeat = 2 if args.trace else 1
    op_cal = None if args.trace else calibration.Calibration(wl.calibrate_with)
    phase = measure(wl, args.seconds, tracer, alternate=bool(args.trace), cal=op_cal)
    wall = {}
    if args.trace:
        tracer.uninstall()
        per_op = {tuple(sorted(c.items())) for c in tracer.op_totals().values()}
        checks.append(("per-op counts repeat across traced operations", len(per_op) <= 1))
        metrics = tracer.layer_metrics()
        metrics["model.param_tensors"], metrics["model.param_scalars"] = map(float, wl.param_counts[-1])
        plain, traced = phase.timed(False), phase.timed(True)
        n = min(len(plain), len(traced))
        base = sum(op.busy for op in plain[:n])
        metrics["trace_overhead"] = sum(op.busy for op in traced[:n]) / base - 1.0 if base else 0.0
        checks += compare_counts(wl, {k: metrics[k] for k in tracing.COUNTS}, env["source_digest"])
        units = tracing.UNITS
        table = tracer.layer_table()
    else:
        metrics, wall = end_to_end(phase.timed(), setup_rounds, op_cal, setup_cal)
        units = {k: UNITS[k] for k in metrics}
        table = []

    checks += phase.checks
    failures = phase.failures + [label for label, ok in checks if not ok]
    attempted = phase.attempted + len(checks)
    failed = len(failures)
    n_ops = len(phase.ops)

    print(f"perfbench: workload {wl.name} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds:g}, {n_ops} operations")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"why: {wl.why}")
    print(f"exposes: {wl.exposes}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}"
              + (f" (wall {wall[name]!r})" if name in wall and name != "peak_rss_mb" else ""))
    aliases = {} if args.trace else issue_names(wl, metrics, n_ops)
    for name, value in aliases.items():
        print(f"  {name} = {value!r} {UNITS[name.split('.p')[0]]}")
    if op_cal is not None:
        print(f"calibration: {wl.calibrate_with} kernel median "
              f"{statistics.median(op_cal.seconds) * 1e3!r} ms over {len(op_cal.seconds)} samples, "
              f"nominal {op_cal.nominal * 1e3!r} ms; set-up step kernel median "
              f"{statistics.median(setup_cal.seconds) * 1e3!r} ms")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted!r}")
    for label, ok in checks:
        print(f"check: {'ok  ' if ok else 'FAIL'} {label}")
    for failure in failures[:10]:
        print(f"failure: {failure}")
    if phase.ops:
        for line in wl.report():
            print(line)
    if table:
        print(f"{'layer':<44}{'self_s':>12}{'calls':>9}{'share':>9}")
        for row in table:
            print(f"{row['layer']:<44}{row['self_s']:>12.4f}{row['calls']:>9}{row['share']:>9.4f}")

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "why": wl.why, "exposes": wl.exposes, "env": env,
              "seconds": args.seconds, "wall_metrics": wall,
              "setup_rounds_s": [b - a for a, b in setup_rounds],
              "calibration": {"setup": setup_cal.seconds, "ops": op_cal.seconds if op_cal else []},
              "ops": n_ops, "metrics": metrics, "units": units,
              "issue_names": aliases, "checks": checks, "failures": failures,
              "report": wl.report() if phase.ops else [],
              "layer_table": table}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
