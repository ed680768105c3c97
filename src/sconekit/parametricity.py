"""Syntactic unary parametricity for the universe fragment.

Works over the fragment built from variables, lambda, application,
codes, lifting and the type formers Pi, U, El and Lift.  Booleans are
outside the fragment and raise UnsupportedFragmentError.

The translation doubles the context: each variable a : A gains a
companion a* : A*(a) one index below it.  param_family(A) produces the
predicate body A*(-) with the subject at Var 0; param_term(t) produces
the witness t* with every Var i re-pointed into the doubled context.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import typecheck
from .syntax import (
    App,
    Bool,
    Code,
    Context,
    El,
    ElimBool,
    FalseTm,
    Lam,
    Lift,
    LiftTm,
    Pi,
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    _map_vars,
    shift,
    subst_with,
)


class ParametricityError(Exception):
    pass


class UnsupportedFragmentError(ParametricityError):
    """The input uses booleans, which have no relational interpretation here."""


def shadow(t: Term, binders: int = 0) -> Term:
    """Re-point t into the doubled context, ignoring the companions.

    The innermost `binders` variables are local and untouched; every
    other Var i lands on the original (non-companion) copy at index
    binders + 2*(i - binders) + 1.
    """

    def go(depth: int, ix: int) -> Term:
        k = binders + depth
        if ix < k:
            return Var(ix)
        return Var(k + 2 * (ix - k) + 1)

    return _map_vars(t, 0, go)


def _check_fragment(t: Term) -> None:
    if isinstance(t, (Bool, TrueTm, FalseTm, ElimBool)):
        raise UnsupportedFragmentError(
            "booleans have no witness translation in this fragment"
        )


def param_term(t: Term) -> Term:
    """The witness t*, well-scoped in the doubled context."""
    _check_fragment(t)
    match t:
        case Var(ix):
            return Var(2 * ix)
        case Lam(b):
            return Lam(Lam(param_term(b)))
        case App(f, a):
            return App(App(param_term(f), shadow(a)), param_term(a))
        case Code(a):
            return Lam(Code(param_family(a)))
        case LiftTm(x):
            return LiftTm(param_term(x))
        case UnliftTm(x):
            return UnliftTm(param_term(x))
        case Pi(_, _) | U(_) | El(_) | Lift(_):
            raise ParametricityError(
                "type former in term position; translate it with param_family"
            )
    raise ParametricityError(f"unknown term {t!r}")


def param_family(ty: Term) -> Term:
    """The predicate body A*(-): well-scoped in the doubled context
    extended by one subject variable at Var 0."""
    _check_fragment(ty)
    match ty:
        case U(level):
            return Pi(El(Var(0)), U(level))
        case El(c):
            return El(App(shift(param_term(c), 1), Var(0)))
        case Lift(a):
            return Lift(subst_with(param_family(a), (UnliftTm(Var(0)),), 1))
        case Pi(dom, cod):
            dom_base = shift(shadow(dom), 1)
            dom_pred = subst_with(param_family(dom), (Var(0),), 2)
            cod_pred = subst_with(
                param_family(cod),
                (App(Var(2), Var(1)), Var(0), Var(1)),
                3,
            )
            return Pi(dom_base, Pi(dom_pred, cod_pred))
    raise ParametricityError(f"{ty} is not a type in the fragment")


@dataclass(frozen=True)
class ParamResult:
    subject: Term
    subject_type: Term
    witness: Term
    witness_type: Term


def translate(
    t: Term, ty: Term, max_level: int = typecheck.DEFAULT_MAX_LEVEL
) -> ParamResult:
    """Translate a closed term t : ty in the fragment and certify the result.

    The witness is re-typechecked against the translated type before
    being returned.
    """
    ctx = Context()
    typecheck.check(ctx, t, ty, max_level)
    witness = param_term(t)
    witness_type = subst_with(param_family(ty), (t,), 0)
    typecheck.check(ctx, witness, witness_type, max_level)
    return ParamResult(t, ty, witness, witness_type)
