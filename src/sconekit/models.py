"""Models of the theory as higher-order signatures, and the one evaluator.

A Model packages one carrier operation per former, with binders taken as
meta-level functions.  eval_term interprets syntax, terms and types alike,
into any model; each binder becomes a Clo over an Env, a persistent chain
of cells with the innermost value first, so opening a binder is O(1); a
definition's cell holds a Lazy until a Var first reads it.  Callers may
pass an environment as a tuple ordered outermost first, which is converted
once.  Only this module reads an Env's cells; other modules build one with
env_of or Env.extend and read it by len, iteration and reversed.
StandardModel interprets types as small enumerable sets, which makes the
semantic equations samplable in tests.  Glued evaluation is the model
canonicity.GLUED, and normalization by evaluation the model nbe.NBE.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, Sequence

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


SHOWN = 300  # the most characters of a term or value that an error message shows


def show(x: object, view: Callable[[Any], Any] | None = None) -> str:
    """repr(x), cut after SHOWN characters and ended with '…'.

    Nodes are read in __match_args__ order, tuples and environments item by
    item, and only atoms go through repr; so a shared value costs only the
    text shown.  view, if given, maps each value before it is read, so a
    caller can show x as another value built one node at a time.
    """
    out, size, todo = [], 0, [(x,)]  # text to write, or a value boxed in a 1-tuple
    while todo and size <= SHOWN:
        item = todo.pop()
        if isinstance(item, tuple):
            (x,) = item
            if view is not None:
                x = view(x)
            if isinstance(x, tuple):
                item, end, fields = "(", ",)" if len(x) == 1 else ")", [("", v) for v in x]
            elif isinstance(x, Env):
                item, end, fields = "Env(", ")", [("", v) for v in x]
            elif hasattr(x, "__match_args__"):
                item, end, fields = f"{type(x).__qualname__}(", ")", [(f"{n}=", getattr(x, n)) for n in x.__match_args__]
            else:
                item, end, fields = repr(x), "", []
            todo.append(end)
            for i, (label, v) in reversed(list(enumerate(fields))):
                todo += [(v,), (", " if i else "") + label]
        out.append(item)
        size += len(item)
    return "".join(out)[:SHOWN] + ("…" if size > SHOWN else "")


class Model(ABC):
    """Operations of the theory with binders as meta-functions."""

    # the name of the one instance its module binds, which a pickle refers to
    singleton: str

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __reduce__(self) -> str:
        return self.singleton

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


class Env:
    """An environment: a persistent chain of cells, each holding one value
    (head) and the environment outside it (tail); Var 0 is the head.

    Extending one is O(1) and shares the cells it extends; Var ix and len
    walk the cells.  len, iteration (outermost first, as in the tuple form)
    and reversed work as on a tuple.
    """

    __slots__ = ("head", "tail")

    def __init__(self, head: Any, tail: Env) -> None:
        self.head, self.tail = head, tail

    def extend(self, value: Any) -> Env:
        return Env(value, self)

    def __len__(self) -> int:
        return sum(1 for _ in reversed(self))

    def __reversed__(self) -> Iterator[Any]:
        env = self
        while env is not _EMPTY:
            yield env.head
            env = env.tail

    def __iter__(self) -> Iterator[Any]:
        return reversed(list(reversed(self)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Env:
            return NotImplemented
        return tuple(reversed(self)) == tuple(reversed(other))

    def __hash__(self) -> int:
        return hash(tuple(reversed(self)))

    def __reduce__(self) -> tuple:
        return env_of, (tuple(self),)

    def __repr__(self) -> str:
        return f"Env({', '.join(map(repr, self))})"


_EMPTY = object.__new__(Env)


def env_of(values: Iterable[Any]) -> Env:
    """The environment of values, ordered outermost first; an Env is returned as it is."""
    if values.__class__ is Env:
        return values  # type: ignore[return-value]
    env = _EMPTY
    for v in values:
        env = Env(v, env)
    return env


@node
class Clo:
    """A binder's body under its captured environment, awaiting the binder's value."""

    model: Model
    env: Env
    body: Term

    def __call__(self, a: Any) -> Any:
        return eval_term(self.model, Env(a, self.env), self.body)


class Lazy:
    """A definition: term under env, which eval_term evaluates into its cell when a Var first reads it."""

    __slots__ = __match_args__ = ("env", "term")

    def __init__(self, env: Env, term: Term) -> None:
        self.env, self.term = env, term


def eval_term(model: Model, env: Iterable[Any], t: Term) -> Any:
    """Interpret t, a term or a type, in model.

    env is an Env, or a sequence of values ordered outermost first, which
    is converted once; the recursion passes the Env on.  Formers are tested
    by identity, the most frequent on the benchmark's workloads first.
    """
    if env.__class__ is not Env:
        env = env_of(env)
    cls = t.__class__
    if cls is Bool:
        return model.bool_()
    if cls is Pi:
        return model.pi(eval_term(model, env, t.dom), Clo(model, env, t.cod))
    if cls is Lam:
        return model.lam(Clo(model, env, t.body))
    if cls is Var:
        ix, cell = t.ix, env
        while ix > 0 and cell is not _EMPTY:
            cell, ix = cell.tail, ix - 1
        if ix or cell is _EMPTY:
            raise ScopeError(f"variable {t.ix} out of range in environment of length {len(env)}")
        if cell.head.__class__ is Lazy:
            cell.head = eval_term(model, cell.head.env, cell.head.term)
        return cell.head
    if cls is App:
        return model.app(eval_term(model, env, t.fn), eval_term(model, env, t.arg))
    if cls is U:
        return model.u(t.level)
    if cls is FalseTm:
        return model.false()
    if cls is TrueTm:
        return model.true()
    if cls is Lift:
        return model.lift(eval_term(model, env, t.ty))
    if cls is El:
        return model.el(eval_term(model, env, t.code))
    if cls is ElimBool:
        return model.elim_bool(
            Clo(model, env, t.motive),
            eval_term(model, env, t.tcase),
            eval_term(model, env, t.fcase),
            eval_term(model, env, t.scrut),
        )
    if cls is Code:
        return model.code(eval_term(model, env, t.ty))
    if cls is LiftTm:
        return model.lift_tm(eval_term(model, env, t.tm))
    if cls is UnliftTm:
        return model.unlift_tm(eval_term(model, env, t.tm))
    raise ModelError(f"{show(t)} is not interpretable")


eval_type = eval_term  # syntax has one sort, and the type checker tells types from terms


def eval_substitution(model: Model, env: Iterable[Any], s: Substitution) -> tuple:
    """Interpret a substitution as an environment for its target context.

    s.terms[i] substitutes Var i (innermost first); environments are
    ordered outermost first, so the tuple is reversed.
    """
    env = env_of(env)
    return tuple(eval_term(model, env, t) for t in reversed(s.terms))


def eval_context(model: Model, entries: Sequence[Term]) -> list[tuple]:
    """All environments of a closed context, by enumerating each entry's set."""
    envs: list[tuple] = [()]
    for entry in entries:
        envs = [
            env + (v,)
            for env in envs
            for v in elements(eval_term(model, env, entry))  # type: ignore[arg-type]
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


@node
class SPi:
    dom: Any
    cod: Callable[[Any], Any]


@node
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

    singleton = "STANDARD"

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
    raise ModelError(f"cannot enumerate {show(sty)}")


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
    raise ModelError(f"cannot compare elements of {show(sty)}")
