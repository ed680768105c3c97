"""Canonicity by glued evaluation.

Closed terms are interpreted as pairs of a syntactic term and a semantic
witness.  At Bool the witness records which canonical form the term is
convertible to; at Pi it is a meta-function on glued values; at a
universe it is a glued type.  Gluing is along the global-section functor
into Set, so a glued type's witness is a standard-model type (models.SBool,
SU, SPi, SLift) whose parts are glued values.

Glued evaluation is the model GLUED, run by the generic evaluator of
models.py.  That evaluator is higher-order: binders are meta-functions,
and there are no contexts.  Sconing turns it into a first-order model:
the first projection of a glued value is a function of the binder depth
at which it is read, and a binder is read back by applying its body to a
fresh variable.  A fresh variable carries NO_WITNESS, which the
eliminators pass on.  Witnesses are computed eagerly and first
projections only when read, so `canon` never builds a term.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from . import typecheck
from .models import Model, SBool, SLift, SPi, SU, eval_term, show
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
)


class CanonicityError(Exception):
    pass


class BoolWitness(enum.Enum):
    IS_TRUE = "true"
    IS_FALSE = "false"


# the witness of a variable bound while a first projection is read
NO_WITNESS = None


class GluedValue:
    """A term together with its semantic witness.

    `term` is a closed term, read the same under any number of binders, or
    a function from the binder depth to the term read there.  `read(depth)`
    gives the term under `depth` binders, and `.term` the term at depth 0.
    """

    __slots__ = ("read", "sem")

    def __init__(self, term: Term | Callable[[int], Term], sem: Any) -> None:
        self.read = term if callable(term) else (lambda depth: term)
        self.sem = sem

    @property
    def term(self) -> Term:
        return self.read(0)

    def __repr__(self) -> str:
        return f"GluedValue(term={self.term!r}, sem={self.sem!r})"


def _fresh(level: int) -> GluedValue:
    """The variable bound at binder depth `level`, for reading a body back."""
    return GluedValue(lambda d: Var(d - level - 1), NO_WITNESS)


class GluedModel(Model):
    """Sconing as a model: first projections read at a binder depth, paired
    with witnesses over the closed terms."""

    singleton = "GLUED"

    def pi(self, dom, cod):
        return GluedValue(lambda d: Pi(dom.read(d), cod(_fresh(d)).read(d + 1)), SPi(dom, cod))

    def lam(self, body):
        return GluedValue(lambda d: Lam(body(_fresh(d)).read(d + 1)), body)

    def app(self, fn, arg):
        if fn.sem is NO_WITNESS:
            sem = NO_WITNESS
        elif callable(fn.sem):
            sem = fn.sem(arg).sem
        else:
            raise CanonicityError("applied term carried no function witness")
        return GluedValue(lambda d: App(fn.read(d), arg.read(d)), sem)

    def bool_(self):
        return _BOOL

    def true(self):
        return _TRUE

    def false(self):
        return _FALSE

    def elim_bool(self, motive, tcase, fcase, scrut):
        sem = scrut.sem
        if sem is BoolWitness.IS_TRUE:
            sem = tcase.sem
        elif sem is BoolWitness.IS_FALSE:
            sem = fcase.sem
        elif sem is not NO_WITNESS:
            raise CanonicityError("boolean scrutinee carried no witness")

        def read(d: int) -> Term:
            m = motive(_fresh(d)).read(d + 1)
            return ElimBool(m, tcase.read(d), fcase.read(d), scrut.read(d))

        return GluedValue(read, sem)

    def u(self, level):
        return GluedValue(U(level), SU(level))

    def el(self, code):
        if code.sem is not NO_WITNESS and not isinstance(code.sem, (SBool, SU, SPi, SLift)):
            raise CanonicityError("code did not evaluate to a glued type")
        return GluedValue(lambda d: El(code.read(d)), code.sem)

    def code(self, ty):
        return GluedValue(lambda d: Code(ty.read(d)), ty.sem)

    def lift(self, ty):
        return GluedValue(lambda d: Lift(ty.read(d)), SLift(ty))

    def lift_tm(self, tm):
        return GluedValue(lambda d: LiftTm(tm.read(d)), tm)

    def unlift_tm(self, tm):
        sem = tm.sem
        if isinstance(sem, GluedValue):
            sem = sem.sem
        elif sem is not NO_WITNESS:
            raise CanonicityError("unlift of a term carrying no lifted witness")
        return GluedValue(lambda d: UnliftTm(tm.read(d)), sem)


_BOOL = GluedValue(Bool(), SBool())
_TRUE = GluedValue(TrueTm(), BoolWitness.IS_TRUE)
_FALSE = GluedValue(FalseTm(), BoolWitness.IS_FALSE)
GLUED = GluedModel()


@depth_guarded
def glued_eval_type(env: tuple[GluedValue, ...], ty: Term) -> GluedValue:
    """Evaluate a type; env is ordered outermost first, as in models."""
    return eval_term(GLUED, env, ty)


@depth_guarded
def glued_eval(env: tuple[GluedValue, ...], t: Term) -> GluedValue:
    """Evaluate a term; env is ordered outermost first, as in models."""
    return eval_term(GLUED, env, t)


@depth_guarded
def canon(t: Term) -> BoolWitness:
    """For a closed boolean term, decide which canonical form it equals."""
    typecheck.check(Context(), t, Bool())
    witness = glued_eval((), t).sem
    if not isinstance(witness, BoolWitness):
        raise CanonicityError(f"non-boolean witness {show(witness)}")
    return witness
