"""Every function the benchmark traces, and every refalign name its
workloads and oracles use, exists in refalign, so deleting or renaming
one fails here instead of in a `perfbench/run.py` run."""
import ast
import importlib
import importlib.util
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_exists():
    missing = []
    for module_name, attr in _traced():
        module = importlib.import_module(f"refalign.{module_name}")
        if "." in attr:
            # the tracer swaps a method in its class's own __dict__
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def _used_names(path: Path, modules: dict[str, str]) -> set[str]:
    """`<module>.<name>` for every `<alias>.<name>` in path whose alias is
    a key of modules, {alias: refalign module}."""
    tree = ast.parse(path.read_text())
    return {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_every_name_the_workloads_and_oracles_use_exists():
    workloads = _PERFBENCH / "workloads.py"
    # `from refalign import config as rconfig` -> {"rconfig": "config"}
    aliases = {alias.asname: alias.name for node in ast.walk(ast.parse(workloads.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module == "refalign"
               for alias in node.names if alias.asname}
    assert {"rconfig", "revaluation", "rrefinement", "rtensor", "rtrain"} <= set(aliases)
    used = (_used_names(workloads, aliases)
            # the oracles take refalign.evaluation as their `evaluation` argument
            | _used_names(_PERFBENCH / "oracles.py", {"evaluation": "evaluation"}))
    assert {"refinement.fuse_scores", "tensor.ScheduleConfig", "config.trend_protocol_config",
            "config.VARIANT_ORDER", "config.W_SWEEP_GRID", "evaluation.ap_at_n"} <= used
    missing = sorted(name for name in used
                     if not hasattr(importlib.import_module(f"refalign.{name.split('.')[0]}"),
                                    name.split(".")[1]))
    assert missing == []
