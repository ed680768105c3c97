"""Models of the theory as higher-order signatures, and the one evaluator.

A Model packages one carrier operation per former, with binders taken as
meta-level functions.  eval_term interprets syntax, terms and types alike,
into any model; each binder becomes a Clo, and environments are ordered
outermost first.  StandardModel interprets types as small enumerable sets,
which makes the semantic equations samplable in tests.  Glued evaluation
is the model canonicity.GLUED, and normalization by evaluation the model
nbe.NBE.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from .syntax import (
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
    ScopeError,
    Substitution,
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    node,
)


class ModelError(Exception):
    pass


class Model(ABC):
    """Operations of the theory with binders as meta-functions."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    @abstractmethod
    def pi(self, dom: Any, cod: Callable[[Any], Any]) -> Any: ...

    @abstractmethod
    def lam(self, body: Callable[[Any], Any]) -> Any: ...

    @abstractmethod
    def app(self, fn: Any, arg: Any) -> Any: ...

    @abstractmethod
    def bool_(self) -> Any: ...

    @abstractmethod
    def true(self) -> Any: ...

    @abstractmethod
    def false(self) -> Any: ...

    @abstractmethod
    def elim_bool(
        self, motive: Callable[[Any], Any], tcase: Any, fcase: Any, scrut: Any
    ) -> Any: ...

    @abstractmethod
    def u(self, level: int) -> Any: ...

    @abstractmethod
    def el(self, code: Any) -> Any: ...

    @abstractmethod
    def code(self, ty: Any) -> Any: ...

    @abstractmethod
    def lift(self, ty: Any) -> Any: ...

    @abstractmethod
    def lift_tm(self, tm: Any) -> Any: ...

    @abstractmethod
    def unlift_tm(self, tm: Any) -> Any: ...


@node
class Clo:
    """A binder's body under its captured environment, awaiting the binder's value."""

    model: Model
    env: tuple
    body: Term

    def __call__(self, a: Any) -> Any:
        return eval_term(self.model, self.env + (a,), self.body)


def eval_term(model: Model, env: tuple, t: Term) -> Any:
    """Interpret t, a term or a type, in model; env is ordered outermost first."""
    match t:
        case Var(ix):
            if not 0 <= ix < len(env):
                raise ScopeError(f"variable {ix} out of range in environment of length {len(env)}")
            return env[len(env) - 1 - ix]
        case App(f, a):
            return model.app(eval_term(model, env, f), eval_term(model, env, a))
        case Lam(b):
            return model.lam(Clo(model, env, b))
        case Pi(dom, cod):
            return model.pi(eval_term(model, env, dom), Clo(model, env, cod))
        case Bool():
            return model.bool_()
        case TrueTm():
            return model.true()
        case FalseTm():
            return model.false()
        case ElimBool(m, t1, t2, s):
            return model.elim_bool(
                Clo(model, env, m),
                eval_term(model, env, t1),
                eval_term(model, env, t2),
                eval_term(model, env, s),
            )
        case U(level):
            return model.u(level)
        case El(c):
            return model.el(eval_term(model, env, c))
        case Code(a):
            return model.code(eval_term(model, env, a))
        case Lift(a):
            return model.lift(eval_term(model, env, a))
        case LiftTm(x):
            return model.lift_tm(eval_term(model, env, x))
        case UnliftTm(x):
            return model.unlift_tm(eval_term(model, env, x))
    raise ModelError(f"{t!r} is not interpretable")


def eval_type(model: Model, env: tuple, ty: Term) -> Any:
    """eval_term: syntax has one sort, and the type checker tells types from terms."""
    return eval_term(model, env, ty)


def eval_substitution(model: Model, env: tuple, s: Substitution) -> tuple:
    """Interpret a substitution as an environment for its target context.

    s.terms[i] substitutes Var i (innermost first); environments are
    ordered outermost first, so the tuple is reversed.
    """
    return tuple(eval_term(model, env, t) for t in reversed(s.terms))


def eval_context(model: Model, entries: Sequence[Term]) -> list[tuple]:
    """All environments of a closed context, by enumerating each entry's set."""
    envs: list[tuple] = [()]
    for entry in entries:
        envs = [
            env + (v,)
            for env in envs
            for v in elements(eval_type(model, env, entry))  # type: ignore[arg-type]
        ]
    return envs


# ---------------------------------------------------------------------------
# The standard (set-valued) model


@node
class SBool:
    pass


@node
class SU:
    level: int


@node(eq=False)
class SPi:
    dom: Any
    cod: Callable[[Any], Any]


@node(eq=False)
class SLift:
    inner: Any


class _TableFn:
    """A finite function matching arguments up to semantic equality."""

    def __init__(self, dom_ty: Any, pairs: Sequence[tuple[Any, Any]]):
        self.dom_ty = dom_ty
        self.pairs = list(pairs)

    def __call__(self, x: Any) -> Any:
        for a, r in self.pairs:
            if values_equal(self.dom_ty, a, x):
                return r
        raise ModelError("argument outside the tabulated domain")


class StandardModel(Model):
    """Types are sets: Bool is the two-element set, Pi is the full function
    space, U holds type descriptors, Lift and El are identities."""

    def pi(self, dom, cod):
        return SPi(dom, cod)

    def lam(self, body):
        return body

    def app(self, fn, arg):
        return fn(arg)

    def bool_(self):
        return SBool()

    def true(self):
        return True

    def false(self):
        return False

    def elim_bool(self, motive, tcase, fcase, scrut):
        return tcase if scrut else fcase

    def u(self, level):
        return SU(level)

    def el(self, code):
        return code

    def code(self, ty):
        return ty

    def lift(self, ty):
        return SLift(ty)

    def lift_tm(self, tm):
        return tm

    def unlift_tm(self, tm):
        return tm


STANDARD = StandardModel()

_ENUM_CAP = 64


def elements(sty: Any) -> list[Any]:
    """Enumerate (a sample of) the inhabitants of a standard-model type."""
    if isinstance(sty, SBool):
        return [True, False]
    if isinstance(sty, SLift):
        return elements(sty.inner)
    if isinstance(sty, SU):
        codes: list[Any] = [SBool(), SPi(SBool(), lambda _: SBool()), SLift(SBool())]
        if sty.level > 0:
            codes.append(SU(sty.level - 1))
        return codes
    if isinstance(sty, SPi):
        dom_elems = elements(sty.dom)
        tables = itertools.product(*(elements(sty.cod(a)) for a in dom_elems))
        return [
            _TableFn(sty.dom, list(zip(dom_elems, results)))
            for results in itertools.islice(tables, _ENUM_CAP)
        ]
    raise ModelError(f"cannot enumerate {sty!r}")


def types_equal(t1: Any, t2: Any) -> bool:
    """Extensional equality of standard-model types, sampled on elements."""
    if isinstance(t1, SBool) and isinstance(t2, SBool):
        return True
    if isinstance(t1, SU) and isinstance(t2, SU):
        return t1.level == t2.level
    if isinstance(t1, SLift) and isinstance(t2, SLift):
        return types_equal(t1.inner, t2.inner)
    if isinstance(t1, SPi) and isinstance(t2, SPi):
        if not types_equal(t1.dom, t2.dom):
            return False
        return all(types_equal(t1.cod(a), t2.cod(a)) for a in elements(t1.dom))
    return False


def values_equal(sty: Any, v1: Any, v2: Any) -> bool:
    """Extensional equality of two elements of a standard-model type."""
    if isinstance(sty, SBool):
        return v1 == v2
    if isinstance(sty, SLift):
        return values_equal(sty.inner, v1, v2)
    if isinstance(sty, SU):
        return types_equal(v1, v2)
    if isinstance(sty, SPi):
        return all(
            values_equal(sty.cod(a), v1(a), v2(a)) for a in elements(sty.dom)
        )
    raise ModelError(f"cannot compare elements of {sty!r}")
