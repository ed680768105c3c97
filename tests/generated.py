"""The seeded generated items the tests check, each drawn once per session.

Test modules check the same seeds by different routes, so each item is
generated once here and shared; the items are immutable.  The library's
generators keep no such cache.
"""

from functools import cache

from sconekit import oracle
from sconekit.syntax import Bool, Context


@cache
def term(seed):
    """(ctx, ty, t) drawn from GenBudget(seed=seed); t is None where gen_term gives up."""
    budget = oracle.GenBudget(seed=seed)
    ctx = oracle.gen_context(budget)
    ty = oracle.gen_type(budget, ctx)
    try:
        t = oracle.gen_term(budget, ctx, ty)
    except oracle.NoInhabitantError:
        t = None
    return ctx, ty, t


@cache
def closed_bool(seed):
    """A closed Bool term drawn from GenBudget(seed=seed)."""
    return oracle.gen_term(oracle.GenBudget(seed=seed), Context(), Bool())


@cache
def normal_form(seed):
    """(ctx, ty, nf) drawn from GenBudget(max_term_size=5, seed=seed), with ty a
    normal type term; None where normalizing the type or gen_nf gives up."""
    budget = oracle.GenBudget(max_term_size=5, seed=seed)
    ctx = oracle.gen_context(budget)
    try:
        ty = oracle.oracle_norm_type(ctx, oracle.gen_type(budget, ctx))
        return ctx, ty, oracle.gen_nf(budget, ctx, ty)
    except oracle.OracleError:
        return None
