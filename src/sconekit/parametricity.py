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

from . import typecheck
from .models import show
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
    depth_guarded,
    node,
    rename_with,
    shift,
    subst_with,
)


class ParametricityError(Exception):
    pass


class UnsupportedFragmentError(ParametricityError):
    """The input uses booleans, which have no relational interpretation here."""


@depth_guarded
def shadow(t: Term) -> Term:
    """Re-point t into the doubled context, ignoring the companions: every
    free Var i lands on the original (non-companion) copy at index 2*i + 1."""
    return rename_with(t, lambda i: 2 * i + 1)


def _check_fragment(t: Term) -> None:
    if isinstance(t, (Bool, TrueTm, FalseTm, ElimBool)):
        raise UnsupportedFragmentError(
            "booleans have no witness translation in this fragment"
        )


@depth_guarded
def param_term(t: Term) -> Term:
    """The witness t*, well-scoped in the doubled context."""
    return _param_term(t)


@depth_guarded
def param_family(ty: Term) -> Term:
    """The predicate body A*(-): well-scoped in the doubled context
    extended by one subject variable at Var 0."""
    return _param_family(ty)


def _param_term(t: Term) -> Term:
    _check_fragment(t)
    match t:
        case Var(ix):
            return Var(2 * ix)
        case Lam(b):
            return Lam(Lam(_param_term(b)))
        case App(f, a):
            return App(App(_param_term(f), shadow(a)), _param_term(a))
        case Code(a):
            return Lam(Code(_param_family(a)))
        case LiftTm(x):
            return LiftTm(_param_term(x))
        case UnliftTm(x):
            return UnliftTm(_param_term(x))
        case Pi(_, _) | U(_) | El(_) | Lift(_):
            raise ParametricityError(
                "type former in term position; translate it with param_family"
            )
    raise ParametricityError(f"unknown term {show(t)}")


def _param_family(ty: Term) -> Term:
    _check_fragment(ty)
    match ty:
        case U(level):
            return Pi(El(Var(0)), U(level))
        case El(c):
            return El(App(shift(_param_term(c), 1), Var(0)))
        case Lift(a):
            return Lift(subst_with(_param_family(a), (UnliftTm(Var(0)),), 1))
        case Pi(dom, cod):
            dom_base = shift(shadow(dom), 1)
            dom_pred = subst_with(_param_family(dom), (Var(0),), 2)
            cod_pred = subst_with(
                _param_family(cod),
                (App(Var(2), Var(1)), Var(0), Var(1)),
                3,
            )
            return Pi(dom_base, Pi(dom_pred, cod_pred))
    raise ParametricityError(f"{show(ty)} is not a type in the fragment")


@node
class ParamResult:
    subject: Term
    subject_type: Term
    witness: Term
    witness_type: Term


def translate(t: Term, ty: Term) -> ParamResult:
    """Translate a closed term t : ty in the fragment and certify the result.

    The witness is re-typechecked against the translated type before
    being returned.
    """
    ctx = Context()
    typecheck.check(ctx, t, ty)
    witness = param_term(t)
    witness_type = subst_with(param_family(ty), (t,), 0)
    typecheck.check(ctx, witness, witness_type)
    return ParamResult(t, ty, witness, witness_type)
