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

from typing import Callable

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
)


class ParametricityError(Exception):
    pass


class UnsupportedFragmentError(ParametricityError):
    """The input uses booleans, which have no relational interpretation here."""


def _index(env: tuple | None, ix: int, depth: int) -> int:
    """Var ix's original as an index at output depth, level l as depth-1-l like nbe.quote; env chains
    (level, outer) cells, and ambient Var i's original, doubled index 2i+1, sits at nbe's level -1-(2i+1)."""
    while ix and env is not None:
        env, ix = env[1], ix - 1
    return depth - 1 - (-2 * ix - 2 if env is None else env[0])


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
    return _param_term(t, None, 0)


@depth_guarded
def param_family(ty: Term) -> Term:
    """The predicate body A*(-): well-scoped in the doubled context
    extended by one subject variable at Var 0."""
    return _param_family(ty, None, 1, lambda depth: Var(depth - 1))


def _param_term(t: Term, env: tuple | None, depth: int, sh: Term | None = None) -> Term:
    """t* at depth; sh is shadow(t) there if the caller built it, and its parts are shared."""
    _check_fragment(t)
    match t:
        case Var(ix):
            return Var(_index(env, ix, depth) - 1)  # the companion, one level above
        case Lam(b):
            return Lam(Lam(_param_term(b, (depth, env), depth + 2)))
        case App(f, a):
            fn = _param_term(f, env, depth, None if sh is None else sh.fn)
            arg = rename_with(a, lambda i: _index(env, i, depth)) if sh is None else sh.arg
            return App(App(fn, arg), _param_term(a, env, depth, arg))
        case Code(a):
            return Lam(Code(_param_family(a, env, depth + 1, lambda d: Var(d - 1 - depth))))
        case LiftTm(x) | UnliftTm(x):
            return t.__class__(_param_term(x, env, depth, None if sh is None else sh.tm))
        case Pi(_, _) | U(_) | El(_) | Lift(_):
            raise ParametricityError(
                "type former in term position; translate it with param_family"
            )
    raise ParametricityError(f"unknown term {show(t)}")


def _param_family(ty: Term, env: tuple | None, depth: int, subject: Callable[[int], Term]) -> Term:
    """A*(subject) at depth; subject(d) is the subject read at depth d."""
    _check_fragment(ty)
    match ty:
        case U(level):
            return Pi(El(subject(depth)), U(level))
        case El(c):
            return El(App(_param_term(c, env, depth), subject(depth)))
        case Lift(a):
            return Lift(_param_family(a, env, depth, lambda d: UnliftTm(subject(d))))
        case Pi(dom, cod):
            dom_base = rename_with(dom, lambda i: _index(env, i, depth))
            dom_pred = _param_family(dom, env, depth + 1, lambda d: Var(d - 1 - depth))
            cod_pred = _param_family(cod, (depth, env), depth + 2, lambda d: App(subject(d), Var(d - 1 - depth)))
            return Pi(dom_base, Pi(dom_pred, cod_pred))
    raise ParametricityError(f"{show(ty)} is not a type in the fragment")


@node
class ParamResult:
    subject: Term
    subject_type: Term
    witness: Term
    witness_type: Term


@depth_guarded
def translate(t: Term, ty: Term) -> ParamResult:
    """Translate a closed term t : ty in the fragment and certify the result.

    The witness is re-typechecked against the translated type before
    being returned.
    """
    ctx = Context()
    typecheck.check(ctx, t, ty)
    witness = param_term(t)
    witness_type = _param_family(ty, None, 0, lambda depth: t)
    typecheck.check(ctx, witness, witness_type)
    return ParamResult(t, ty, witness, witness_type)
