"""Bidirectional typechecking: head redexes are checked as lets, conversion by normal forms.

Each public call carries a scope through the recursion: the caller's
context at its root, and one linked node for each binder and definition
it opens, at O(1) each.  The NbE environment of a scope, at levels, is
built only when a type that mentions a variable is normalized, and then
only for the nodes not yet reflected.
"""

from __future__ import annotations

from typing import Iterable

from . import nbe
from .models import show
from .syntax import (
    App,
    Bool,
    Code,
    Context,
    DepthError,
    El,
    ElimBool,
    FalseTm,
    Lam,
    Lift,
    LiftTm,
    Pi,
    ScopeError,
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    depth_guarded,
    is_closed,
    shift,
    subst1,
    subst_with,
)

DEFAULT_MAX_LEVEL = 2  # the universes are U0 and U1


class TypeCheckError(Exception):
    pass


class TypeMismatchError(TypeCheckError):
    pass


class NotInferableError(TypeCheckError):
    pass


class LevelError(TypeCheckError):
    pass


class _Scope:
    """The caller's context ctx (the root, whose outer is None), or one
    binder or definition the checker opened over the scope outer: its type
    ty and its value, a term or None, both in outer's context.

    The entry at depth j sits at level j, so quote reads it back at the
    scope's depth as it reads its own binders.  Extending is O(1).  The
    environment is built only when a type with a free variable is
    normalized, and then only for the nodes not yet reflected; a closed
    type reads none.
    """

    __slots__ = ("ctx", "outer", "ty", "value", "depth", "env")

    def __init__(self, ctx: Context | None, outer: _Scope | None = None, ty: Term | None = None, value: Term | None = None) -> None:
        self.ctx, self.outer, self.ty, self.value, self.env = ctx, outer, ty, value, None
        self.depth = len(ctx) if outer is None else outer.depth + 1

    def extend(self, ty: Term, value: Term | None = None) -> _Scope:
        return _Scope(None, self, ty, value)

    def lookup(self, ix: int) -> Term:
        """Type of Var ix, weakened to be well-formed in this scope."""
        if not 0 <= ix < self.depth:
            raise ScopeError(f"variable {ix} out of range in context of length {self.depth}")
        scope, i = self, ix
        while i and scope.outer is not None:
            scope, i = scope.outer, i - 1
        ty = scope.ty if scope.outer is not None else scope.ctx.entries[scope.depth - 1 - i]
        return shift(ty, ix + 1)

    def reflect(self) -> Iterable[nbe.Val]:
        """The whole scope's environment; a loop, as k let-bound arguments chain k scopes."""
        stale, scope = [], self
        while scope is not None and scope.env is None:
            stale.append(scope)
            scope = scope.outer
        env = () if scope is None else scope.env
        for scope in reversed(stale):
            if scope.outer is None:
                env = nbe.reflect_context(scope.ctx, base=0)
            elif scope.value is None:
                env = env.extend(nbe.VNe(nbe.eval_term(env, scope.ty), scope.depth - 1))
            else:
                env = env.extend(nbe.eval_term(env, scope.value))
            scope.env = env
        return env

    def norm(self, ty: Term) -> nbe.Nf:
        env = self.env if self.env is not None or is_closed(ty) else self.reflect()
        return nbe.quote_type(nbe.eval_term(() if env is None else env, ty), self.depth)


def _infer_as(scope: _Scope, t: Term, former: type, message: str) -> nbe.Nf:
    """The normal form of t's type, which former must build; else message, {} filled with that type."""
    if isinstance(nf := scope.norm(_infer(scope, t)), former):
        return nf
    raise TypeMismatchError(message.format(nbe.show_nf(nf)))


def _wf_type(scope: _Scope, ty: Term) -> int:
    match ty:
        case Bool():
            return 0
        case Pi(dom, cod):
            i = _wf_type(scope, dom)
            j = _wf_type(scope.extend(dom), cod)
            return max(i, j)
        case U(level):
            if not 0 <= level < DEFAULT_MAX_LEVEL:
                raise LevelError(f"universe level {level} exceeds maximum {DEFAULT_MAX_LEVEL - 1}")
            return level + 1
        case El(code):
            return _infer_as(scope, code, nbe.UNf, "El expects a universe code, got a term of type {}").level
        case Lift(inner):
            i = _wf_type(scope, inner) + 1
            if i > DEFAULT_MAX_LEVEL:
                raise LevelError(f"lifted type exceeds maximum level {DEFAULT_MAX_LEVEL}")
            return i
    raise TypeMismatchError(f"{show(ty)} is not a type")


@depth_guarded
def wf_type(ctx: Context, ty: Term) -> int:
    """Check that ty is a well-formed type in ctx; return its universe level."""
    return _wf_type(_Scope(ctx), ty)


@depth_guarded
def check_context(ctx: Context) -> None:
    scope = _Scope(Context())
    for entry in ctx.entries:
        _wf_type(scope, entry)
        scope = scope.extend(entry)


def _bind_head(scope: _Scope, t: Term) -> tuple[_Scope, Term, list[Term]] | None:
    """Bind the beta-redexes at the head of an application spine as a let.

    (fun x1 ... xk => b) a1 ... ak c... becomes b c... in ctx, x1 := a1, ...,
    xk := ak; returns that scope, b c... and [a1, ..., ak], or None if the
    head is no lambda.  Each argument must be inferable; it is inferred once,
    in ctx and in order, and never copied into the body.
    """
    spine, head = [], t
    while isinstance(head, App):
        spine.append(head.arg)
        head = head.fn
    if not isinstance(head, Lam):
        return None
    inner, args = scope, []
    while spine and isinstance(head, Lam):
        arg, head, i = spine.pop(), head.body, len(args)
        inner = inner.extend(shift(_infer(scope, arg), i), shift(arg, i))
        args.append(arg)
    for arg in reversed(spine):
        head = App(head, shift(arg, len(args)))
    return inner, head, args


def _infer(scope: _Scope, t: Term) -> Term:
    cls = t.__class__
    if cls is Var:
        return scope.lookup(t.ix)
    if cls is TrueTm or cls is FalseTm:
        return Bool()
    match t:
        case App(fn, arg):
            if (bound := _bind_head(scope, t)) is not None:
                inner, body, args = bound
                return subst_with(_infer(inner, body), args[::-1])
            fty = _infer_as(scope, fn, nbe.PiNf, "{} is not a Π-type")
            _check(scope, arg, fty.dom)
            return subst1(nbe.embed(fty.cod), arg)
        case ElimBool(motive, tcase, fcase, scrut):
            _check(scope, scrut, nbe.BoolNf())
            _wf_type(scope.extend(Bool()), motive)
            _check(scope, tcase, scope.norm(subst1(motive, TrueTm())))
            _check(scope, fcase, scope.norm(subst1(motive, FalseTm())))
            return subst1(motive, scrut)
        case Code(ty):
            i = _wf_type(scope, ty)
            if i >= DEFAULT_MAX_LEVEL:
                raise LevelError(f"no universe holds a code for a level-{i} type")
            return U(i)
        case LiftTm(tm):
            lifted = Lift(_infer(scope, tm))
            _wf_type(scope, lifted)  # a LevelError past DEFAULT_MAX_LEVEL
            return lifted
        case UnliftTm(tm):
            return nbe.embed(_infer_as(scope, tm, nbe.LiftNf, "unlift expects a lifted term, got type {}").ty)
        case Lam(_):
            raise NotInferableError("unannotated lambda in inference position")
        case Pi(_, _) | Bool() | U(_) | El(_) | Lift(_):
            raise NotInferableError("type former used in term inference position")
    raise TypeCheckError(f"unknown term {show(t)}")


@depth_guarded
def infer(ctx: Context, t: Term) -> Term:
    """Synthesize a type for t; the result is well-formed in ctx."""
    return _infer(_Scope(ctx), t)


@depth_guarded
def check(ctx: Context, t: Term, ty: Term) -> None:
    """Check t against the type ty, up to conversion.

    ty is validated with wf_type and normalized once; the recursion then
    works on the normal form.
    """
    scope = _Scope(ctx)
    _wf_type(scope, ty)
    _check(scope, t, scope.norm(ty))


def _check(scope: _Scope, t: Term, expected: nbe.Nf) -> None:
    """Check t against expected, the normal form of a well-formed type.

    The domain, codomain and lifted type of a normal type are normal, so
    nothing is normalized again on the way down.
    """
    cls = t.__class__
    if cls is Lam and expected.__class__ is nbe.PiNf:
        return _check(scope.extend(nbe.embed(expected.dom)), t.body, expected.cod)
    if cls is LiftTm and expected.__class__ is nbe.LiftNf:
        return _check(scope, t.tm, expected.ty)
    if cls is App and (bound := _bind_head(scope, t)) is not None:
        inner, body, args = bound
        return _check(inner, body, shift(expected, len(args)))
    actual = scope.norm(_infer(scope, t))
    if actual != expected:
        raise TypeMismatchError(f"expected type {nbe.show_nf(expected)}, got {nbe.show_nf(actual)}")


@depth_guarded
def conv_types(ctx: Context, a: Term, b: Term) -> bool:
    """Decide definitional equality of two well-formed types."""
    scope = _Scope(ctx)
    _wf_type(scope, a)
    _wf_type(scope, b)
    return scope.norm(a) == scope.norm(b)


@depth_guarded
def conv(ctx: Context, ty: Term, a: Term, b: Term) -> bool:
    """Decide conversion of a and b at type ty via normal-form equality."""
    scope = _Scope(ctx)
    _wf_type(scope, ty)
    expected = scope.norm(ty)
    _check(scope, a, expected)
    _check(scope, b, expected)
    env, depth = scope.reflect(), scope.depth
    vty = nbe.eval_term(env, ty)
    return nbe.quote(vty, nbe.eval_term(env, a), depth) == nbe.quote(vty, nbe.eval_term(env, b), depth)


__all__ = [
    "DEFAULT_MAX_LEVEL",
    "TypeCheckError",
    "TypeMismatchError",
    "NotInferableError",
    "LevelError",
    "ScopeError",
    "DepthError",
    "wf_type",
    "check_context",
    "infer",
    "check",
    "conv",
    "conv_types",
]
