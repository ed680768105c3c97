"""Count calls of sconekit's functions through the interpreter's profiler.

A name is "module.function" or "module.Class.method" under sconekit, resolved
to its code object before counting starts: a renamed function raises instead
of counting 0.  Every call of that code counts, wherever it comes from; unlike
a wrapper, the profiler adds no frame per nested call.
"""

import importlib
import inspect
import sys
from contextlib import contextmanager
from functools import reduce


def code_of(name):
    """The code object of sconekit's function name, unwrapped from its decorators."""
    module, *path = name.split(".")
    return inspect.unwrap(reduce(getattr, path, importlib.import_module(f"sconekit.{module}"))).__code__


@contextmanager
def counting(*names):
    """Yield a dict from each name to its calls so far in the block; the previous profiler is restored after it."""
    codes = {code_of(name): name for name in names}
    if len(codes) < len(names):
        raise ValueError(f"two of {names} name the same function")
    calls = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)
