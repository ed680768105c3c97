"""The parametricity translation as it was before it read binders by levels.

A frozen reference for the differential tests in test_parametricity.py.
It builds each translated node and then re-points it: shadow is a
renaming, every argument of an application gets its own shadow, and
param_family substitutes into its recursive results at every Pi and
Lift.  So a Church numeral's witness is a tree of quadratic size, and a
chain of n Pi-types costs quadratic work.  Do not change it to follow
the library.
"""

from __future__ import annotations

from sconekit.models import show
from sconekit.parametricity import ParametricityError, UnsupportedFragmentError
from sconekit.syntax import (
    App,
    Bool,
    Code,
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
    rename_with,
    shift,
    subst_with,
)


def _subst_tail(t: Term, terms: tuple[Term, ...], tail_shift: int) -> Term:
    """subst_with's former tail_shift option: Var i past terms becomes Var(i - len(terms) + tail_shift)."""
    n = len(terms)
    return subst_with(rename_with(t, lambda i: i if i < n else i + tail_shift), terms)


def shadow(t: Term) -> Term:
    return rename_with(t, lambda i: 2 * i + 1)


def _check_fragment(t: Term) -> None:
    if isinstance(t, (Bool, TrueTm, FalseTm, ElimBool)):
        raise UnsupportedFragmentError(
            "booleans have no witness translation in this fragment"
        )


def param_term(t: Term) -> Term:
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
    raise ParametricityError(f"unknown term {show(t)}")


def param_family(ty: Term) -> Term:
    _check_fragment(ty)
    match ty:
        case U(level):
            return Pi(El(Var(0)), U(level))
        case El(c):
            return El(App(shift(param_term(c), 1), Var(0)))
        case Lift(a):
            return Lift(_subst_tail(param_family(a), (UnliftTm(Var(0)),), 1))
        case Pi(dom, cod):
            dom_base = shift(shadow(dom), 1)
            dom_pred = _subst_tail(param_family(dom), (Var(0),), 2)
            cod_pred = _subst_tail(
                param_family(cod),
                (App(Var(2), Var(1)), Var(0), Var(1)),
                3,
            )
            return Pi(dom_base, Pi(dom_pred, cod_pred))
    raise ParametricityError(f"{show(ty)} is not a type in the fragment")


def witness_type(t: Term, ty: Term) -> Term:
    """translate's witness type for the closed t : ty."""
    return subst_with(param_family(ty), (t,))
