"""Every function the benchmark traces exists in refalign, so deleting or
renaming one fails here instead of in `perfbench/run.py --trace 1`."""
import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
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
