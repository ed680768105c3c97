"""The benchmark's tracer probes library functions by name."""

import importlib

from conftest import bench_module


def test_every_traced_function_exists():
    for module, name, _layer, _counter in bench_module("tracing").PROBES:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
