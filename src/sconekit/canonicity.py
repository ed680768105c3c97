"""Canonicity by glued evaluation.

Closed terms are interpreted as pairs of a closed syntactic term and a
semantic witness.  At Bool the witness records which canonical form the
term is convertible to; at Pi it is a meta-function on glued values; at
a universe it is a glued type, itself a witness-assigning predicate.

The evaluator is an instance of the displayed-model signature from
models.py, specialised so that its first projection is the syntactic closing
substitution.  That projection is built lazily: `canon` reads only the
witnesses, so deciding a term never substitutes into it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable

from . import typecheck
from .models import DisplayedModel
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
    subst_with,
)


class CanonicityError(Exception):
    pass


class BoolWitness(enum.Enum):
    IS_TRUE = "true"
    IS_FALSE = "false"


class GluedValue:
    """A closed term together with its semantic witness.

    GluedValue(term, sem) holds a given term.  glued_eval instead records
    the environment and the open term, and the closing substitution is
    computed on the first read of .term and kept; canon reads only .sem.
    """

    __slots__ = ("_term", "_env", "_open", "sem")

    def __init__(self, term: Term, sem: Any) -> None:
        self._term = term
        self._env: tuple[GluedValue, ...] = ()
        self._open: Term | None = None
        self.sem = sem

    @classmethod
    def deferred(cls, env: tuple[GluedValue, ...], t: Term, sem: Any) -> GluedValue:
        """The glued value whose term is _close(env, t), computed on demand."""
        gv = cls(None, sem)
        gv._env, gv._open = env, t
        return gv

    @property
    def term(self) -> Term:
        if self._open is not None:
            self._term = _close(self._env, self._open)
            self._env, self._open = (), None
        return self._term

    def __repr__(self) -> str:
        return f"GluedValue(term={self.term!r}, sem={self.sem!r})"


@dataclass(frozen=True)
class CBool:
    pass


@dataclass(frozen=True)
class CU:
    level: int


@dataclass(frozen=True, eq=False)
class CPi:
    dom: Any
    cod: Callable[[GluedValue], Any]


@dataclass(frozen=True, eq=False)
class CLift:
    inner: Any


def _close(env: tuple[GluedValue, ...], t: Term) -> Term:
    """First projection: substitute the environment's closed terms into t.

    env[0] is the innermost binding (Var 0).
    """
    return subst_with(t, tuple(gv.term for gv in env))


def glued_eval_type(env: tuple[GluedValue, ...], ty: Term) -> Any:
    match ty:
        case Bool():
            return CBool()
        case U(level):
            return CU(level)
        case Pi(dom, cod):
            return CPi(
                glued_eval_type(env, dom),
                lambda gv: glued_eval_type((gv,) + env, cod),
            )
        case El(c):
            sem = glued_eval(env, c).sem
            if not isinstance(sem, (CBool, CU, CPi, CLift)):
                raise CanonicityError(f"code of {ty} did not evaluate to a glued type")
            return sem
        case Lift(a):
            return CLift(glued_eval_type(env, a))
    raise CanonicityError(f"{ty} is not a type")


def glued_eval(env: tuple[GluedValue, ...], t: Term) -> GluedValue:
    """Evaluate a well-typed term over an environment of glued values.

    The witness component is computed structurally.  The term component
    is the closing substitution applied to t, built only when .term is
    read.
    """
    match t:
        case Var(ix):
            return env[ix]
        case TrueTm():
            sem = BoolWitness.IS_TRUE
        case FalseTm():
            sem = BoolWitness.IS_FALSE
        case Lam(b):
            sem = lambda gv: glued_eval((gv,) + env, b)
        case App(f, a):
            sem = glued_eval(env, f).sem(glued_eval(env, a)).sem
        case ElimBool(_, tcase, fcase, scrut):
            gs = glued_eval(env, scrut)
            if gs.sem is BoolWitness.IS_TRUE:
                sem = glued_eval(env, tcase).sem
            elif gs.sem is BoolWitness.IS_FALSE:
                sem = glued_eval(env, fcase).sem
            else:
                raise CanonicityError("boolean scrutinee carried no witness")
        case Code(a):
            sem = glued_eval_type(env, a)
        case LiftTm(x):
            sem = glued_eval(env, x)
        case UnliftTm(x):
            inner = glued_eval(env, x).sem
            if not isinstance(inner, GluedValue):
                raise CanonicityError("unlift of a term carrying no lifted witness")
            sem = inner.sem
        case _:
            raise CanonicityError(f"{t!r} is not interpretable as a term")
    return GluedValue.deferred(env, t, sem)


def canon(t: Term, max_level: int = typecheck.DEFAULT_MAX_LEVEL) -> BoolWitness:
    """For a closed boolean term, decide which canonical form it equals."""
    typecheck.check(Context(), t, Bool(), max_level)
    witness = glued_eval((), t).sem
    if not isinstance(witness, BoolWitness):
        raise CanonicityError(f"non-boolean witness {witness!r}")
    return witness


class GluingDisplayedModel(DisplayedModel):
    """The displayed structure underlying glued evaluation, on the
    Bool/Pi fragment: witnesses over the standard interpretations."""

    def bool_d(self):
        return CBool()

    def true_d(self):
        return BoolWitness.IS_TRUE

    def false_d(self):
        return BoolWitness.IS_FALSE

    def pi_d(self, dom_d, cod_d):
        return CPi(dom_d, lambda gv: cod_d(gv.term, gv.sem))

    def lam_d(self, body_d):
        return lambda gv: body_d(gv.term, gv.sem)

    def app_d(self, fn_d, arg, arg_d):
        return fn_d(GluedValue(arg, arg_d))

    def elim_bool_d(self, motive_d, tcase_d, fcase_d, scrut, scrut_d):
        if scrut_d is BoolWitness.IS_TRUE:
            return tcase_d
        if scrut_d is BoolWitness.IS_FALSE:
            return fcase_d
        raise CanonicityError("boolean scrutinee carried no witness")
