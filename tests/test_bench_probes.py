"""The benchmark's tracer probes library functions by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, _layer, _counter in tracing.PROBES:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
