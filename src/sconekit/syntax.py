"""Raw de Bruijn syntax, contexts, renamings and substitutions.

Terms and types share a single sort; the typechecker (see typecheck.py)
separates them.  All structures are immutable.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass
from functools import cache, wraps
from typing import Callable, Sequence


class ScopeError(Exception):
    """A variable index escapes its context."""


class DepthError(RecursionError):
    """A term is nested too deeply for the recursion limit.

    The public entry points of typecheck, norm, norm_type, embed, canon,
    surface.pretty and the oracle's reduce, oracle_norm, oracle_norm_type
    and oracle_conv raise it instead of a bare RecursionError;
    sys.setrecursionlimit raises the limit.
    """

    def __init__(self, message: str = "term nested too deeply for the recursion limit") -> None:
        super().__init__(message)


def depth_guarded(entry: Callable) -> Callable:
    """entry, raising DepthError in place of any RecursionError it meets."""

    @wraps(entry)
    def guarded(*args, **kwargs):
        try:
            return entry(*args, **kwargs)
        except RecursionError:
            raise DepthError from None

    return guarded


# ---------------------------------------------------------------------------
# Node classes


class _Node:
    """The base of every node class: instances are frozen."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state):
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)


def node(cls=None, /, *, eq=True):
    """Make cls a frozen, slotted node class, like @dataclass(frozen=True, slots=True).

    The fields are the annotations, inherited ones first, and a class
    attribute is a default.  The class is rebuilt with __slots__ on _Node,
    and __init__, __repr__ and, unless eq is False, __eq__ and __hash__ over
    the field tuple are bound to it by one exec of code compiled once per
    field layout.  Then dataclass(init=False, repr=False, eq=False) only
    registers the fields, so dataclasses.fields and replace work.
    """
    if cls is None:
        return lambda cls: _make_node(cls, eq)
    return _make_node(cls, eq)


def _make_node(cls, eq):
    own = tuple(cls.__dict__.get("__annotations__", ()))
    params = [(f.name, f.type, f.default) for f in getattr(cls, "__dataclass_fields__", {}).values()]
    params += [(n, cls.__annotations__[n], cls.__dict__.get(n, MISSING)) for n in own]
    if cls.__doc__ is None:  # dataclass would call inspect.signature to write this one
        sig = ", ".join(f"{n}: {t!r}" + ("" if d is MISSING else f" = {d!r}") for n, t, d in params)
        cls.__doc__ = f"{cls.__name__}({sig})"
    dataclass(init=False, repr=False, eq=False)(cls)
    names = tuple(n for n, _, _ in params)
    ns = {k: v for k, v in cls.__dict__.items() if k not in own + ("__dict__", "__weakref__")}
    ns.update(__slots__=own, __match_args__=names, __qualname__=cls.__qualname__)
    new = type(cls.__name__, cls.__bases__ if cls.__bases__ != (object,) else (_Node,), ns)
    defaults = {n: d for n, _, d in params if d is not MISSING}
    env = {f"_set_{n}": getattr(new, n).__set__ for n in names}
    env.update((f"_default_{n}", d) for n, d in defaults.items())
    exec(_node_code(names, tuple(defaults), eq), env)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name in env:
            env[name].__qualname__ = f"{new.__qualname__}.{name}"
            setattr(new, name, env[name])
    return new


@cache
def _node_code(names, defaulted, eq):
    """The methods of a node class with these fields; the class's env binds _set_*/_default_*."""
    self_t = "(" + "".join(f"self.{n}," for n in names) + ")"
    other_t = "(" + "".join(f"other.{n}," for n in names) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    src = f'def __repr__(self):\n return f"{{self.__class__.__qualname__}}({shown})"\n'
    if names:  # a class without fields keeps object.__init__
        args = ", ".join(f"{n}=_default_{n}" if n in defaulted else n for n in names)
        body = "".join(f" _set_{n}(self, {n})\n" for n in names)
        src += f"def __init__(self, {args}):\n{body}"
    if eq:
        src += (
            f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
            f"  return {self_t} == {other_t}\n return NotImplemented\n"
            f"def __hash__(self):\n return hash({self_t})\n"
        )
    return compile(src, "<node>", "exec")


# ---------------------------------------------------------------------------
# Terms


@node
class Term:
    pass


@node
class Var(Term):
    ix: int


@node
class Lam(Term):
    body: Term  # binds 1


@node
class App(Term):
    fn: Term
    arg: Term


@node
class Pi(Term):
    dom: Term
    cod: Term  # binds 1


@node
class Bool(Term):
    pass


@node
class TrueTm(Term):
    pass


@node
class FalseTm(Term):
    pass


@node
class ElimBool(Term):
    motive: Term  # binds 1, a type over Bool
    tcase: Term
    fcase: Term
    scrut: Term


@node
class U(Term):
    level: int


@node
class El(Term):
    code: Term


@node
class Code(Term):
    ty: Term


@node
class Lift(Term):
    ty: Term


@node
class LiftTm(Term):
    tm: Term


@node
class UnliftTm(Term):
    tm: Term


def term_size(t: Term) -> int:
    match t:
        case Var(_) | Bool() | TrueTm() | FalseTm() | U(_):
            return 1
        case Lam(b):
            return 1 + term_size(b)
        case App(f, a):
            return 1 + term_size(f) + term_size(a)
        case Pi(d, c):
            return 1 + term_size(d) + term_size(c)
        case ElimBool(m, t1, t2, s):
            return 1 + term_size(m) + term_size(t1) + term_size(t2) + term_size(s)
        case El(c) | Code(c) | Lift(c) | LiftTm(c) | UnliftTm(c):
            return 1 + term_size(c)
    raise TypeError(f"unknown term {t!r}")


def is_closed(t: Term, depth: int = 0) -> bool:
    """Whether t, under depth binders, has no free variable."""
    match t:
        case Var(ix):
            return ix < depth
        case Lam(b):
            return is_closed(b, depth + 1)
        case App(f, a):
            return is_closed(f, depth) and is_closed(a, depth)
        case Pi(d, c):
            return is_closed(d, depth) and is_closed(c, depth + 1)
        case ElimBool(m, t1, t2, s):
            return is_closed(m, depth + 1) and is_closed(t1, depth) and is_closed(t2, depth) and is_closed(s, depth)
        case El(c) | Code(c) | Lift(c) | LiftTm(c) | UnliftTm(c):
            return is_closed(c, depth)
    return True


# ---------------------------------------------------------------------------
# Variable traversal, renaming, substitution


def _map_vars(t: Term, depth: int, on_var: Callable[[int, int], Term]) -> Term:
    """Rebuild t, replacing each Var node via on_var(depth, ix)."""
    match t:
        case Var(ix):
            return on_var(depth, ix)
        case Lam(b):
            return Lam(_map_vars(b, depth + 1, on_var))
        case App(f, a):
            return App(_map_vars(f, depth, on_var), _map_vars(a, depth, on_var))
        case Pi(d, c):
            return Pi(_map_vars(d, depth, on_var), _map_vars(c, depth + 1, on_var))
        case Bool() | TrueTm() | FalseTm() | U(_):
            return t
        case ElimBool(m, t1, t2, s):
            return ElimBool(
                _map_vars(m, depth + 1, on_var),
                _map_vars(t1, depth, on_var),
                _map_vars(t2, depth, on_var),
                _map_vars(s, depth, on_var),
            )
        case El(c):
            return El(_map_vars(c, depth, on_var))
        case Code(c):
            return Code(_map_vars(c, depth, on_var))
        case Lift(c):
            return Lift(_map_vars(c, depth, on_var))
        case LiftTm(c):
            return LiftTm(_map_vars(c, depth, on_var))
        case UnliftTm(c):
            return UnliftTm(_map_vars(c, depth, on_var))
    raise TypeError(f"unknown term {t!r}")


def rename_with(t: Term, on_ix: Callable[[int], int]) -> Term:
    """Apply on_ix to every free variable index of t."""

    def go(depth: int, ix: int) -> Term:
        if ix < depth:
            return Var(ix)
        return Var(on_ix(ix - depth) + depth)

    return _map_vars(t, 0, go)


def shift(t: Term, amount: int) -> Term:
    """Weaken all free variables of t by amount."""
    if amount == 0:
        return t
    return rename_with(t, lambda i: i + amount)


def subst_with(t: Term, terms: Sequence[Term], tail_shift: int = 0) -> Term:
    """Simultaneous substitution.

    Free Var i with i < len(terms) becomes terms[i]; any remaining free
    Var i becomes Var(i - len(terms) + tail_shift).
    """

    def go(depth: int, ix: int) -> Term:
        if ix < depth:
            return Var(ix)
        j = ix - depth
        if j < len(terms):
            return shift(terms[j], depth)
        return Var(j - len(terms) + tail_shift + depth)

    return _map_vars(t, 0, go)


def subst1(t: Term, a: Term) -> Term:
    """Instantiate the innermost bound variable of t (Var 0) with a."""
    return subst_with(t, (a,), 0)


# ---------------------------------------------------------------------------
# Contexts


@node
class Context:
    """A telescope of types; entries[-1] is the most recent binder.

    values[i] is entry i's definition, a term in the context before it, or
    None; so is every entry past the end of values, which extend never pads.
    """

    entries: tuple[Term, ...] = ()
    values: tuple[Term | None, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def extend(self, ty: Term) -> "Context":
        return Context(self.entries + (ty,), self.values)

    def define(self, ty: Term, value: Term) -> "Context":
        """Extend by a variable of type ty defined as value."""
        pad = (None,) * (len(self.entries) - len(self.values))
        return Context(self.entries + (ty,), self.values + pad + (value,))

    def lookup(self, ix: int) -> Term:
        """Type of Var ix, weakened to be well-formed in this context."""
        n = len(self.entries)
        if not 0 <= ix < n:
            raise ScopeError(f"variable {ix} out of range in context of length {n}")
        return shift(self.entries[n - 1 - ix], ix + 1)


EMPTY = Context()


# ---------------------------------------------------------------------------
# Renamings and substitutions as typed context morphisms


@node
class Renaming:
    """A variable-for-variable morphism; mapping[i] is the source index of Var i.

    rename(r, t) takes t well-scoped in r.target to a term well-scoped in
    r.source.
    """

    source: Context
    target: Context
    mapping: tuple[int, ...]

    @staticmethod
    def identity(ctx: Context) -> "Renaming":
        return Renaming(ctx, ctx, tuple(range(len(ctx))))

    @staticmethod
    def weakening(ctx: Context, ty: Term) -> "Renaming":
        """From ctx into ctx.ty, forgetting the new entry."""
        return Renaming(ctx.extend(ty), ctx, tuple(i + 1 for i in range(len(ctx))))

    def compose(self, other: "Renaming") -> "Renaming":
        """Composite c with rename(c, t) == rename(self, rename(other, t))."""
        if self.target is not other.source and self.target != other.source:
            raise ValueError("renamings do not compose: context mismatch")
        return Renaming(
            self.source, other.target, tuple(self.mapping[i] for i in other.mapping)
        )

    def validate(self) -> None:
        """Check index ranges and pointwise type compatibility."""
        if len(self.mapping) != len(self.target):
            raise ValueError("renaming arity mismatch")
        for i, j in enumerate(self.mapping):
            if not 0 <= j < len(self.source):
                raise ScopeError(f"renamed index {j} out of range")
            if self.source.lookup(j) != rename(self, self.target.lookup(i)):
                raise ValueError(f"renaming is not type-preserving at target variable {i}")


def rename(r: Renaming, t: Term) -> Term:
    def on_ix(i: int) -> int:
        if i >= len(r.mapping):
            raise ScopeError(f"variable {i} not in renaming target")
        return r.mapping[i]

    return rename_with(t, on_ix)


@node
class Substitution:
    """A term-per-entry morphism; terms[i] substitutes Var i.

    subst(s, t) takes t well-scoped in s.target to a term well-scoped in
    s.source.
    """

    source: Context
    target: Context
    terms: tuple[Term, ...]

    @staticmethod
    def identity(ctx: Context) -> "Substitution":
        return Substitution(ctx, ctx, tuple(Var(i) for i in range(len(ctx))))

    @staticmethod
    def closing(terms: Sequence[Term], target: Context) -> "Substitution":
        """A substitution from the empty context, closing every variable."""
        return Substitution(EMPTY, target, tuple(terms))

    def compose(self, other: "Substitution") -> "Substitution":
        """Composite c with subst(c, t) == subst(other, subst(self, t))."""
        if self.source != other.target:
            raise ValueError("substitutions do not compose: context mismatch")
        return Substitution(
            other.source, self.target, tuple(subst(other, t) for t in self.terms)
        )


def subst(s: Substitution, t: Term) -> Term:
    def go(depth: int, ix: int) -> Term:
        if ix < depth:
            return Var(ix)
        j = ix - depth
        if j >= len(s.terms):
            raise ScopeError(f"variable {j} not in substitution target")
        return shift(s.terms[j], depth)

    return _map_vars(t, 0, go)
