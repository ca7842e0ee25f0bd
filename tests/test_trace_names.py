"""Every function the benchmark tracer patches must exist, so that deleting
or renaming one fails here instead of crashing a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("_traced_names", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _name, _measure
               in tracing._PROGRAM + tracing._KERNELS
               if not callable(getattr(module, attr, None))]
    assert tracing._PROGRAM and tracing._KERNELS
    assert missing == []
