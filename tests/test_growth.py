"""Linear growth of the decision procedures, gated without a wall clock.

Each row of GROWTH names an entry point, a term family and a size n.  The
row builds its input at n and at 2n outside the measurement, then compares
the tracemalloc peak of one call at each size: a procedure whose memory
grows linearly stays within BOUND of doubling.  An environment copied at
every binder keeps a quadratic number of cells alive and reads about 3.3x.
Where memory cannot tell, a gate counts calls instead.
"""

import tracemalloc

import pytest

from sconekit import canonicity, nbe, parametricity, typecheck
from sconekit.syntax import App, Bool, Context, FalseTm, Lam, Pi, TrueTm, Var
from test_nbe import _count_calls
from test_parametricity import church, pi_chain

BOUND = 2.3


def projection(n):
    """fun x1 ... xn => x1, at Bool -> ... -> Bool (n arrows)."""
    t, ty = Var(n - 1), Bool()
    for _ in range(n):
        t, ty = Lam(t), Pi(Bool(), ty)
    return t, ty


def nary(n):
    """(fun x1 ... xn => x1) true false ... false."""
    t, _ = projection(n)
    for arg in [TrueTm()] + [FalseTm()] * (n - 1):
        t = App(t, arg)
    return t


def norm_projection(n):
    t, ty = projection(n)
    return lambda: nbe.norm(Context(), ty, t)


def check_projection(n):
    t, ty = projection(n)
    return lambda: typecheck.check(Context(), t, ty)


def canon_nary(n):
    t = nary(n)
    return lambda: canonicity.canon(t)


def param_church(n):
    t, _ = church(n)
    return lambda: parametricity.param_term(t)


# (entry point, family, n): one call at n against one at 2n
GROWTH = [
    ("nbe.norm", norm_projection, 200),
    ("typecheck.check", check_projection, 200),
    ("canonicity.canon", canon_nary, 100),
    ("parametricity.param_term", param_church, 200),
]


def peak_bytes(call):
    """The tracemalloc peak of one call, counting only what the call allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(("entry", "family", "n"), GROWTH, ids=[f"{e}:{f.__name__}:{n}" for e, f, n in GROWTH])
def test_peak_memory_grows_linearly(entry, family, n):
    small, large = family(n), family(2 * n)
    ratio = peak_bytes(large) / peak_bytes(small)
    assert ratio <= BOUND, f"{entry} at {n} -> {2 * n}: peak grew {ratio:.2f}x"


def test_param_family_work_grows_linearly(monkeypatch):
    """(B1 : U0) -> El B1 -> ... -> El Bn: no translated codomain is walked again.

    The tracemalloc peak cannot show this, as it grows about 2x per
    doubling with the re-walks too; so the gate counts syntax walks and
    the translation's own calls.
    """
    calls = _count_calls(monkeypatch, ("syntax._map_vars", "parametricity._param_term", "parametricity._param_family"))
    work = []
    for n in (10, 20):
        calls.update(dict.fromkeys(calls, 0))
        parametricity.param_family(pi_chain(n)[1])
        work.append(sum(calls.values()))
    assert work[1] <= 2.2 * work[0], work
