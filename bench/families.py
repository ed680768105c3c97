"""The scaling families and their closed-form verdicts.

Each family is one operation on inputs that grow with n.  It runs at a
size n and at 2n (dup(k) at k and k + 1, since each level doubles the
term).  The expected result of every case is written down here by
formula, not computed by the library, and checked without recursion:
comparing two 400-deep normal forms with == would exceed the default
recursion limit.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

from sconekit import canonicity, nbe, typecheck
from sconekit.syntax import App, Bool, Context, ElimBool, FalseTm, Lam, Pi, TrueTm, Var

# family -> (metric of its time at 2n, size n, size 2n)
FAMILIES = {
    "dup_check": ("dup_check_ms", 7, 8),
    "binder_check": ("binder_check_ms", 30, 60),
    "binder_norm": ("binder_norm_ms", 200, 400),
    "ctx_norm": ("ctx_norm_ms", 200, 400),
    "nary_canon": ("nary_canon_ms", 100, 200),
}


@dataclass(frozen=True)
class Case:
    family: str
    size: int
    run: Callable[[], object]
    verdict: Callable[[object], bool]

    @property
    def large(self) -> bool:
        return self.size == FAMILIES[self.family][2]


def label(family: str, size: int) -> str:
    return f"{family}:{size}"


def growth(work: dict[str, int]) -> dict[str, float]:
    """log2 of the work count at 2n over the count at n, per family.

    For dup the two sizes are one level apart, so this is the ratio per level.
    """
    return {
        f"growth.{family}": math.log2(work[label(family, n2)] / work[label(family, n)])
        for family, (_, n, n2) in FAMILIES.items()
    }


def times_ms(latencies: dict[str, list[float]]) -> dict[str, float]:
    """Median time at 2n per family, from latencies in seconds by label."""
    return {
        metric: statistics.median(latencies[label(family, n2)]) * 1e3
        for family, (metric, _, n2) in FAMILIES.items()
    }


def dup(k: int):
    """k nested (fun x => elim x at _ => Bool | x | x) redexes around true."""
    t = TrueTm()
    for _ in range(k):
        t = App(Lam(ElimBool(Bool(), Var(0), Var(0), Var(0))), t)
    return t


def projection(n: int):
    """fun x1 ... xn => x1, at Bool -> ... -> Bool (n arrows)."""
    t, ty = Var(n - 1), Bool()
    for _ in range(n):
        t, ty = Lam(t), Pi(Bool(), ty)
    return t, ty


def nary(n: int):
    """(fun x1 ... xn => x1) true false ... false."""
    t, _ = projection(n)
    for arg in [TrueTm()] + [FalseTm()] * (n - 1):
        t = App(t, arg)
    return t


def is_projection_nf(nf, n: int) -> bool:
    """nf is n LamNf around NeAtBool(VarNe(n - 1))."""
    for _ in range(n):
        if not isinstance(nf, nbe.LamNf):
            return False
        nf = nf.body
    return nf == nbe.NeAtBool(nbe.VarNe(n - 1))


def make_case(family: str, size: int) -> Case:
    empty = Context()
    accepted = lambda result: result is None  # check returns None or raises  # noqa: E731
    if family == "dup_check":
        t = dup(size)
        return Case(family, size, lambda: typecheck.check(empty, t, Bool()), accepted)
    if family == "binder_check":
        t, ty = projection(size)
        return Case(family, size, lambda: typecheck.check(empty, t, ty), accepted)
    if family == "binder_norm":
        t, ty = projection(size)
        return Case(family, size, lambda: nbe.norm(empty, ty, t), lambda nf: is_projection_nf(nf, size))
    if family == "ctx_norm":
        ctx, var = Context((Bool(),) * size), nbe.NeAtBool(nbe.VarNe(size - 1))
        return Case(family, size, lambda: nbe.norm(ctx, Bool(), Var(size - 1)), lambda nf: nf == var)
    if family == "nary_canon":
        t = nary(size)
        return Case(family, size, lambda: canonicity.canon(t), lambda w: w is canonicity.BoolWitness.IS_TRUE)
    raise ValueError(f"unknown family {family}")


def all_cases() -> list[Case]:
    return [make_case(f, size) for f, (_, n, n2) in FAMILIES.items() for size in (n, n2)]
