"""Raw de Bruijn syntax, contexts, renamings and substitutions.

Terms and types share a single sort; the typechecker (see typecheck.py)
separates them.  All structures are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence


class ScopeError(Exception):
    """A variable index escapes its context."""


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True, slots=True)
class Term:
    pass


@dataclass(frozen=True, slots=True)
class Var(Term):
    ix: int


@dataclass(frozen=True, slots=True)
class Lam(Term):
    body: Term  # binds 1


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Pi(Term):
    dom: Term
    cod: Term  # binds 1


@dataclass(frozen=True, slots=True)
class Bool(Term):
    pass


@dataclass(frozen=True, slots=True)
class TrueTm(Term):
    pass


@dataclass(frozen=True, slots=True)
class FalseTm(Term):
    pass


@dataclass(frozen=True, slots=True)
class ElimBool(Term):
    motive: Term  # binds 1, a type over Bool
    tcase: Term
    fcase: Term
    scrut: Term


@dataclass(frozen=True, slots=True)
class U(Term):
    level: int


@dataclass(frozen=True, slots=True)
class El(Term):
    code: Term


@dataclass(frozen=True, slots=True)
class Code(Term):
    ty: Term


@dataclass(frozen=True, slots=True)
class Lift(Term):
    ty: Term


@dataclass(frozen=True, slots=True)
class LiftTm(Term):
    tm: Term


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
