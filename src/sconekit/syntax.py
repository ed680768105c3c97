"""Raw de Bruijn syntax, contexts, renamings and substitutions.

Terms and types share a single sort; the typechecker (see typecheck.py)
separates them.  All structures are immutable.
"""

from __future__ import annotations

from functools import cache, wraps
from itertools import zip_longest
from typing import Callable, Iterator, Sequence


class ScopeError(Exception):
    """A variable index escapes its context."""


class DepthError(RecursionError):
    """A term is nested too deeply for the recursion limit.

    The public entry points of typecheck, norm, norm_type, embed, canon,
    surface.pretty, term_size, is_closed, mentions, shift, subst1, subst, rename
    and the oracle's reduce, oracle_norm, oracle_norm_type, oracle_conv and
    generators (gen_type, gen_term, gen_nf, gen_closing_substitution and
    gen_renaming), and every node's ==, hash and repr, raise it instead of a
    bare RecursionError; sys.setrecursionlimit raises the limit.
    """

    def __init__(self) -> None:
        super().__init__("term nested too deeply for the recursion limit")


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
    _node_fields = ()  # (name, annotation, default or _NO_DEFAULT), inherited fields first

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        try:
            shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        except RecursionError:
            raise DepthError from None
        return f"{self.__class__.__qualname__}({shown})"

    def __getstate__(self):
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state):
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)


_NO_DEFAULT = object()


class _DataclassView:
    """A node class's __dataclass_fields__ or __dataclass_params__, made on first read.

    The first read of either runs dataclass() on a stand-in class that has
    only the node class's fields, and stores the stand-in's two attributes
    on the node class in place of both views.
    """

    __slots__ = ("cls", "name")

    def __init__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, obj, owner=None):
        from dataclasses import dataclass

        cls = self.cls
        ns = {n: d for n, _, d in cls._node_fields if d is not _NO_DEFAULT}
        ns.update(
            __annotations__={n: t for n, t, _ in cls._node_fields},
            __module__=cls.__module__,
            __qualname__=cls.__qualname__,
            __doc__=cls.__name__,  # without one, dataclass would call inspect.signature to write it
        )
        stand_in = dataclass(init=False, repr=False, eq=False)(type(cls.__name__, (), ns))
        cls.__dataclass_fields__ = stand_in.__dataclass_fields__
        cls.__dataclass_params__ = stand_in.__dataclass_params__
        return cls.__dict__[self.name]


def node(cls):
    """Make cls a frozen, slotted node class, like @dataclass(frozen=True, slots=True).

    The fields are the annotations, inherited ones first, and a class
    attribute is a default.  The class is rebuilt with __slots__ on _Node,
    and __init__, and __eq__ and __hash__ over the field tuple, are bound to
    it by one exec of code compiled once per field layout; __repr__ is
    _Node's, read through __match_args__.  All three raise DepthError on a
    node nested too deeply for the recursion limit.  The class's
    __dataclass_fields__ and __dataclass_params__ are built on first read,
    so dataclasses.fields, is_dataclass, replace and asdict work, and
    defining a node class does not import dataclasses.
    """
    own = tuple(cls.__dict__.get("__annotations__", ()))
    params = getattr(cls, "_node_fields", ())
    params += tuple((n, cls.__annotations__[n], cls.__dict__.get(n, _NO_DEFAULT)) for n in own)
    if cls.__doc__ is None:  # the text dataclass would give it
        sig = ", ".join(f"{n}: {t!r}" + ("" if d is _NO_DEFAULT else f" = {d!r}") for n, t, d in params)
        cls.__doc__ = f"{cls.__name__}({sig})"
    names = tuple(n for n, _, _ in params)
    ns = {k: v for k, v in cls.__dict__.items() if k not in own + ("__dict__", "__weakref__")}
    ns.update(__slots__=own, __match_args__=names, __qualname__=cls.__qualname__, _node_fields=params)
    new = type(cls.__name__, cls.__bases__ if cls.__bases__ != (object,) else (_Node,), ns)
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(new, name, _DataclassView(new, name))
    defaults = {n: d for n, _, d in params if d is not _NO_DEFAULT}
    env = {f"_set_{n}": getattr(new, n).__set__ for n in names}
    env["DepthError"] = DepthError
    env.update((f"_default_{n}", d) for n, d in defaults.items())
    exec(_node_code(names, tuple(defaults)), env)
    for name in ("__init__", "__eq__", "__hash__"):
        if name in env:
            env[name].__qualname__ = f"{new.__qualname__}.{name}"
            setattr(new, name, env[name])
    return new


@cache
def _node_code(names, defaulted):
    """The methods of a node class with these fields; the class's env binds _set_*/_default_* and DepthError."""
    self_t = "(" + "".join(f"self.{n}," for n in names) + ")"
    other_t = "(" + "".join(f"other.{n}," for n in names) + ")"
    src = ""
    if names:  # a class without fields keeps object.__init__
        args = ", ".join(f"{n}=_default_{n}" if n in defaulted else n for n in names)
        body = "".join(f" _set_{n}(self, {n})\n" for n in names)
        src += f"def __init__(self, {args}):\n{body}"
    src += (
        f"def __eq__(self, other):\n if other.__class__ is not self.__class__:\n  return NotImplemented\n"
        f" try:\n  return {self_t} == {other_t}\n except RecursionError:\n  raise DepthError from None\n"
        f"def __hash__(self):\n try:\n  return hash({self_t})\n except RecursionError:\n  raise DepthError from None\n"
    )
    return compile(src, "<node>", "exec")


# ---------------------------------------------------------------------------
# Terms


@node
class Term:
    """A term or type.

    _children lists a node class's node-valued fields in __match_args__
    order, each with the number of variables it binds; a class that has
    any has no other field.  None marks a variable class.  Every
    structural walk (term_size, is_closed, renaming, substitution, nbe's
    embedding) reads it, for terms and for nbe's normal forms alike.
    """

    _children = ()


@node
class Var(Term):
    ix: int
    _children = None


@node
class Lam(Term):
    body: Term
    _children = (("body", 1),)


@node
class App(Term):
    fn: Term
    arg: Term
    _children = (("fn", 0), ("arg", 0))


@node
class Pi(Term):
    dom: Term
    cod: Term
    _children = (("dom", 0), ("cod", 1))


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
    motive: Term  # a type over Bool
    tcase: Term
    fcase: Term
    scrut: Term
    _children = (("motive", 1), ("tcase", 0), ("fcase", 0), ("scrut", 0))


@node
class U(Term):
    level: int


@node
class El(Term):
    code: Term
    _children = (("code", 0),)


@node
class Code(Term):
    ty: Term
    _children = (("ty", 0),)


@node
class Lift(Term):
    ty: Term
    _children = (("ty", 0),)


@node
class LiftTm(Term):
    tm: Term
    _children = (("tm", 0),)


@node
class UnliftTm(Term):
    tm: Term
    _children = (("tm", 0),)


# ---------------------------------------------------------------------------
# Structural walks over _children: plain loops, so each level of nesting
# costs one frame


@depth_guarded
def term_size(t: Term) -> int:
    """The number of nodes of t."""
    return _size(t)


def _size(t: Term) -> int:
    n = 1
    for name, _ in t._children or ():
        n += _size(getattr(t, name))
    return n


def _any_var(t: Term, depth: int, test: Callable[[int, int], bool]) -> bool:
    """Whether test(depth, ix) holds of some variable Var ix of t under depth binders."""
    children = t._children
    if children is None:
        return test(depth, t.ix)
    for name, binds in children:
        if _any_var(getattr(t, name), depth + binds, test):
            return True
    return False


@depth_guarded
def is_closed(t: Term) -> bool:
    """Whether t has no free variable."""
    return not _any_var(t, 0, lambda depth, ix: ix >= depth)


@depth_guarded
def mentions(t: Term, ix: int) -> bool:
    """Whether the free variable Var ix occurs in t."""
    return _any_var(t, 0, lambda depth, i: i == ix + depth)


def map_vars(t: Term, depth: int, on_var: Callable[[int, Term], Term], on_node: Callable | None = None) -> Term:
    """Rebuild t, replacing each free variable node v under depth binders by on_var(depth, v).

    on_node, if given, maps each other node, bound variables too, to what
    builds its image from its children's images, or from its fields if it
    has none; else a node is rebuilt in its own class, and one without
    children kept.
    """
    make = t.__class__ if on_node is None else on_node(t)  # first, so that on_node may reject t
    children = t._children
    if children is None:
        if t.ix >= depth:
            return on_var(depth, t)
    elif children:
        args = []
        for name, binds in children:
            args.append(map_vars(getattr(t, name), depth + binds, on_var, on_node))
        return make(*args)
    return t if on_node is None else make(*[getattr(t, name) for name in t.__match_args__])  # a leaf or a bound variable


def rename_with(t: Term, on_ix: Callable[[int], int]) -> Term:
    """Apply on_ix to every free variable index of t, a term or a normal form."""

    def go(depth: int, v: Term) -> Term:
        return v.__class__(on_ix(v.ix - depth) + depth)

    return map_vars(t, 0, go)


@depth_guarded
def shift(t: Term, amount: int) -> Term:
    """Weaken all free variables of t by amount."""
    if amount == 0:
        return t
    return rename_with(t, lambda i: i + amount)


def subst_with(t: Term, terms: Sequence[Term]) -> Term:
    """Simultaneous substitution.

    Free Var i with i < len(terms) becomes terms[i]; any remaining free
    Var i becomes Var(i - len(terms)).
    """

    def go(depth: int, v: Var) -> Term:
        j = v.ix - depth
        if j < len(terms):
            return shift(terms[j], depth)
        return Var(j - len(terms) + depth)

    return map_vars(t, 0, go)


@depth_guarded
def subst1(t: Term, a: Term) -> Term:
    """Instantiate the innermost bound variable of t (Var 0) with a."""
    return subst_with(t, (a,))


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

    def bindings(self) -> Iterator[tuple[Term, Term | None]]:
        """Each entry with its definition or None, outermost first; more definitions than entries raise ScopeError."""
        if len(self.values) > len(self.entries):
            raise ScopeError(f"context of {len(self.entries)} entries has {len(self.values)} definitions")
        return zip_longest(self.entries, self.values)

    def unfold(self, *terms: Term) -> tuple:
        """(ctx, *terms) with each defined variable replaced by its definition, itself unfolded.

        ctx keeps every entry, unfolded, so each index keeps its meaning; subst
        substitutes, so a variable out of range raises ScopeError.
        """
        if not self.values:
            return (self, *terms)
        done, images = Context(), ()  # the unfolded prefix; what its variables stand for, innermost first
        for j, (entry, value) in enumerate(self.bindings()):
            s = Substitution(done, Context(self.entries[:j], self.values[:j]), images)
            entry = subst(s, entry)
            if value is None:
                done, image = done.extend(entry), Var(0)
            else:
                value = subst(s, value)
                done, image = done.define(entry, value), shift(value, 1)
            images = (image, *(shift(t, 1) for t in images))
        s = Substitution(done, self, images)
        return (done, *(subst(s, t) for t in terms))


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


@depth_guarded
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
    def closing(terms: Sequence[Term], target: Context) -> "Substitution":
        """A substitution from the empty context, closing every variable."""
        return Substitution(Context(), target, tuple(terms))

    def compose(self, other: "Substitution") -> "Substitution":
        """Composite c with subst(c, t) == subst(other, subst(self, t))."""
        if self.source != other.target:
            raise ValueError("substitutions do not compose: context mismatch")
        return Substitution(
            other.source, self.target, tuple(subst(other, t) for t in self.terms)
        )


@depth_guarded
def subst(s: Substitution, t: Term) -> Term:
    def go(depth: int, v: Var) -> Term:
        j = v.ix - depth
        if j >= len(s.terms):
            raise ScopeError(f"variable {j} not in substitution target")
        return shift(s.terms[j], depth)

    return map_vars(t, 0, go)
