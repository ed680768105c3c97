"""A context's environment as it was built before values were made in place.

A frozen reference for the differential test in test_nbe.py.  Each entry
is evaluated in its prefix, and every later entry, declared or defined,
weakens the earlier values by one with nbe.restrict, so building the
environment restricts quadratically often.  Do not change it to follow
the kernel.
"""

from __future__ import annotations

from itertools import zip_longest

from sconekit.nbe import Val, VarNe, VNe, eval_term, restrict
from sconekit.syntax import Context


def reflect_context(ctx: Context) -> tuple[Val, ...]:
    env: tuple[Val, ...] = ()
    for entry, value in zip_longest(ctx.entries, ctx.values):
        env = tuple(restrict(w, lambda i: i + 1) for w in env)
        v = VNe(eval_term(env, entry), VarNe(0)) if value is None else eval_term(env, value)
        env = (v,) + env
    return env
