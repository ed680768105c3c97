"""Linear growth of the decision procedures, gated without a wall clock.

Each row of GROWTH and WORK names an entry point, a term family and a size
n; the family builds its call at n and at 2n outside the measurement.
GROWTH compares the tracemalloc peak of one call at each size: a procedure
whose memory grows linearly stays within BOUND of doubling.  An environment
copied at every binder keeps a quadratic number of cells alive and reads
about 3.3x.  Where memory cannot tell, WORK counts the calls of named
functions through the profiler (counting.py) and allows WORK_BOUND.
"""

import sys
import tracemalloc

import pytest

from conftest import bench_module
from counting import counting
from sconekit import canonicity, nbe, oracle, parametricity, surface, typecheck
from sconekit.nbe import NeAtBool, VarNe
from sconekit.syntax import App, Bool, Context, ElimBool, FalseTm, Lam, Pi, TrueTm, Var, term_size
from test_parametricity import church, pi_chain
from test_typecheck import _eta_spine

families = bench_module("families")

BOUND = 2.3
WORK_BOUND = 2.2


def norm_projection(n):
    t, ty = families.projection(n)

    def call():
        nf = nbe.norm(Context(), ty, t)
        for _ in range(n):
            nf = nf.body
        assert nf == NeAtBool(VarNe(n - 1))
    return call


def check_projection(n):
    t, ty = families.projection(n)
    return lambda: typecheck.check(Context(), t, ty)


def canon_nary(n):
    t = families.nary(n)
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


def norm_context(n):
    """x1 : Bool, ..., xn : Bool |- x1: the context is reflected once, with no restriction."""
    ctx = Context((Bool(),) * n)

    def call():
        assert nbe.norm(ctx, Bool(), Var(n - 1)) == NeAtBool(VarNe(n - 1))
    return call


def oracle_eta_spine(n):
    """x true ... true at Bool: the head's type is reconstructed once, not once per argument."""
    ty, t = Bool(), Var(0)
    for _ in range(n):
        ty, t = Pi(Bool(), ty), App(t, TrueTm())

    def call():
        assert oracle.oracle_norm(Context((ty,)), Bool(), t) == t
    return call


def pretty_arrows(n):
    """Bool -> ... -> Bool: deciding each arrow walks no codomain again."""
    ty = Bool()
    for _ in range(n):
        ty = Pi(Bool(), ty)

    def call():
        assert surface.pretty(ty) == "Bool -> " * n + "Bool"
    return call


def check_dup(n):
    """No let-bound argument of dup(n) is evaluated, since no type reads one."""
    t = families.dup(n)
    return lambda: typecheck.check(Context(), t, Bool())


def check_eta_spine(n):
    """Each argument is checked against its domain and instantiates the codomain as a value."""
    t, ty = _eta_spine(n)
    return lambda: typecheck.check(Context(), t, ty)


def check_applied_let(n):
    """(fun f => f (... (f true))) (elim true at _ => Bool -> Bool | fun x => N(x) | fun x => x), with n
    f's and N(x) n negations of x: a let-bound argument is evaluated only when a type reads it."""
    neg, body = Var(0), TrueTm()
    for _ in range(n):
        neg, body = ElimBool(Bool(), FalseTm(), TrueTm(), neg), App(Var(0), body)
    t = App(Lam(body), ElimBool(Pi(Bool(), Bool()), Lam(neg), Lam(Var(0)), TrueTm()))
    return lambda: typecheck.check(Context(), t, Bool())


def param_pi_chain(n):
    """(B1 : U0) -> El B1 -> ... -> El Bn: no translated codomain is walked again."""
    ty = pi_chain(n)[1]
    return lambda: parametricity.param_family(ty)


_NBE = ("nbe.eval_term", "models.eval_term", "nbe.quote", "nbe.quote_type")

# (entry point, family, n, counted functions, functions that must not run): one call at n against one at 2n
WORK = [
    ("nbe.norm", norm_context, 200, ("nbe.eval_term",), ("nbe.restrict",)),
    ("nbe.norm", norm_projection, 200, _NBE, ("nbe.restrict",)),
    ("typecheck.check", check_projection, 200, _NBE, ("nbe.restrict",)),
    ("oracle.oracle_norm", oracle_eta_spine, 100, ("oracle.oracle_infer",), ()),
    ("surface.pretty", pretty_arrows, 200, ("surface._pp", "syntax._any_var"), ()),
    ("typecheck.check", check_dup, 10, ("nbe.eval_term", "models.eval_term", "nbe.quote_type"), ()),
    ("typecheck.check", check_eta_spine, 100, ("models.eval_term", "nbe.quote_type", "syntax.map_vars", "syntax._any_var"), ()),
    ("typecheck.check", check_applied_let, 50, ("models.eval_term",), ()),
    ("parametricity.param_family", param_pi_chain, 10, ("syntax.map_vars", "parametricity._param_term", "parametricity._param_family"), ()),
]


def assert_work_grows_linearly(entry, family, n, counted, idle):
    work = []
    for size in (n, 2 * n):
        call = family(size)
        with counting(*counted, *idle) as calls:
            call()
        assert not any(calls[name] for name in idle), f"{entry} at {size}: {calls}"
        work.append(sum(calls[name] for name in counted))
    assert 0 < work[0] and work[1] <= WORK_BOUND * work[0], f"{entry} at {n} -> {2 * n}: work {work}"


@pytest.mark.parametrize(("entry", "family", "n", "counted", "idle"), WORK, ids=[f"{e}:{f.__name__}:{n}" for e, f, n, *_ in WORK])
def test_work_grows_linearly(entry, family, n, counted, idle):
    assert_work_grows_linearly(entry, family, n, counted, idle)


def test_a_row_that_counts_nothing_fails():
    with pytest.raises(AssertionError, match=r"work \[0, 0\]"):
        assert_work_grows_linearly("typecheck.check", check_projection, 10, ("oracle.oracle_infer",), ())


def test_counting_counts_each_call_wherever_it_comes_from():
    t = App(Lam(Var(0)), ElimBool(Bool(), TrueTm(), FalseTm(), Var(0)))
    with counting("syntax._size", "syntax.term_size", "syntax.Context.lookup") as calls:
        assert term_size(t) == 8
        Context((Bool(),)).lookup(0)
    assert calls == {"syntax._size": 8, "syntax.term_size": 1, "syntax.Context.lookup": 1}


def test_counting_an_unknown_function_raises():
    with pytest.raises(AttributeError), counting("syntax._size", "syntax._no_such_walk"):
        pass


def test_counting_restores_the_previous_profiler():
    previous, outer = sys.getprofile(), lambda frame, event, arg: None
    sys.setprofile(outer)
    try:
        with pytest.raises(ZeroDivisionError), counting("syntax._size"):
            1 / 0
        assert sys.getprofile() is outer
    finally:
        sys.setprofile(previous)
