"""Bidirectional typechecking by values: head redexes are checked as lets, conversion by normal forms.

Each public call carries a scope of one node per entry, the caller's first;
only public infer reads syntax, by the thunk _infer returns beside a type.
"""

from __future__ import annotations

from typing import Callable

from . import nbe
from .models import Clo, Lazy, env_of, show
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
    ScopeError,
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    depth_guarded,
    shift,
    subst1,
    subst_with,
)

DEFAULT_MAX_LEVEL = 2  # the universes are U0 and U1
_BOOL = nbe.NBE.bool_()  # the value that every Bool evaluates to


class TypeCheckError(Exception):
    pass


class TypeMismatchError(TypeCheckError):
    pass


class NotInferableError(TypeCheckError):
    pass


class LevelError(TypeCheckError):
    pass


class _Scope:
    """One entry over the scope outer, or the empty root, whose outer is None.

    vty is the entry's type as a value; ty its syntax in outer (a term, or a
    thunk for a definition; None for a binder); env the NbE environment up to
    it at nbe.norm's levels, the caller's n at -n..-1; level the next level.
    """

    __slots__ = ("outer", "vty", "ty", "env", "depth", "level")

    def __init__(self, outer: _Scope | None, vty, ty, env, depth: int, level: int) -> None:
        self.outer, self.vty, self.ty, self.env, self.depth, self.level = outer, vty, ty, env, depth, level

    def extend(self, vty: nbe.Val, ty: Term | Callable[[], Term] | None = None, cell: nbe.Val | Lazy | None = None) -> _Scope:
        """An entry of type vty whose environment cell holds cell: a Lazy for a definition, a fresh neutral by default."""
        cell = nbe.VNe(vty, self.level) if cell is None else cell
        return _Scope(self, vty, ty, self.env.extend(cell), self.depth + 1, self.level + 1)

    def expect(self, vty: nbe.Val, former: type, message: str) -> nbe.Val:
        """vty, if former built it; else message, {} filled with vty's normal form."""
        if vty.__class__ is former:
            return vty
        raise TypeMismatchError(message.format(nbe.show_nf(nbe.quote_type(vty, self.level))))


_ROOT = _Scope(None, None, None, env_of(()), 0, 0)  # the empty context's scope


def _scope(ctx: Context) -> _Scope:
    """The scope of the caller's context, each entry's type evaluated in the entries before it."""
    scope = _Scope(None, None, None, env_of(()), 0, -len(ctx.entries)) if ctx.entries else _ROOT
    for entry, value in ctx.bindings():
        scope = scope.extend(nbe.eval_term(scope.env, entry), entry, None if value is None else Lazy(scope.env, value))
    return scope


def _wf_type(scope: _Scope, ty: Term) -> tuple[int, nbe.Val]:
    """The universe level and the value of ty, a well-formed type in scope."""
    cls = ty.__class__
    if cls is Pi:
        i, dom = _wf_type(scope, ty.dom)
        return max(i, _wf_type(scope.extend(dom), ty.cod)[0]), nbe.VPi(dom, Clo(nbe.NBE, scope.env, ty.cod))
    if cls is Bool:
        return 0, _BOOL
    match ty:
        case U(level):
            if not 0 <= level < DEFAULT_MAX_LEVEL:
                raise LevelError(f"universe level {level} exceeds maximum {DEFAULT_MAX_LEVEL - 1}")
            return level + 1, nbe.VU(level)
        case El(code):
            vty = scope.expect(_infer(scope, code)[0], nbe.VU, "El expects a universe code, got a term of type {}")
            return vty.level, nbe.eval_term(scope.env, ty)
        case Lift(inner):
            i, vinner = _wf_type(scope, inner)
            if i + 1 > DEFAULT_MAX_LEVEL:
                raise LevelError(f"lifted type exceeds maximum level {DEFAULT_MAX_LEVEL}")
            return i + 1, nbe.VLift(vinner)
    raise TypeMismatchError(f"{show(ty)} is not a type")


def _level(vty: nbe.Val, level: int) -> int:
    """The universe level of a type value, opening binders from level; a value that is no type raises IllTypedError."""
    cls = vty.__class__
    if cls is nbe.VPi:
        return max(_level(vty.dom, level), _level(vty.cod(nbe.VNe(vty.dom, level)), level + 1))
    if cls is nbe.VLift:
        return _level(vty.ty, level) + 1
    if cls is nbe.VU:
        return vty.level + 1
    return vty.code.vty.level if cls is nbe.VEl else 0 if cls is nbe.VBool else nbe.quote_type(vty, level)  # which raises


@depth_guarded
def wf_type(ctx: Context, ty: Term) -> int:
    """Check that ty is a well-formed type in ctx; return its universe level."""
    return _wf_type(_scope(ctx), ty)[0]


@depth_guarded
def check_context(ctx: Context) -> None:
    """Check that each entry is a well-formed type, and each definition has its entry's type, in the entries before it."""
    scope = _ROOT
    for entry, value in ctx.bindings():
        vty = _wf_type(scope, entry)[1]
        if value is not None:
            _check(scope, value, vty)
        scope = scope.extend(vty, entry, None if value is None else Lazy(scope.env, value))


def _bind_head(scope: _Scope, t: Term) -> tuple[_Scope, Term, list[Term]] | None:
    """Bind the beta-redexes at the head of an application spine as lets.

    (fun x1 ... xk => b) a1 ... ak c... is b c... in scope, x1 := a1, ...,
    xk := ak, each argument inferred once and bound as a Lazy cell; returns
    that scope, b c... and [a1, ..., ak], or None if no lambda heads it.
    """
    spine, head = [], t
    while head.__class__ is App:
        spine.append(head.arg)
        head = head.fn
    if head.__class__ is not Lam:
        return None
    inner, args = scope, []
    while spine and head.__class__ is Lam:
        arg, head, i = spine.pop(), head.body, len(args)
        vty, ty = _infer(scope, arg)
        inner = inner.extend(vty, lambda ty=ty, i=i: shift(ty(), i), Lazy(scope.env, arg))
        args.append(arg)
    for arg in reversed(spine):
        head = App(head, shift(arg, len(args)))
    return inner, head, args


def _infer(scope: _Scope, t: Term) -> tuple[nbe.Val, Callable[[], Term]]:
    """The value of t's type, and a thunk that builds that type as a term in scope."""
    cls = t.__class__
    if cls is Var:
        if not 0 <= t.ix < scope.depth:
            raise ScopeError(f"variable {t.ix} out of range in context of length {scope.depth}")
        node = scope
        for _ in range(t.ix):
            node = node.outer
        return node.vty, lambda: shift(node.ty if isinstance(node.ty, Term) else node.ty(), t.ix + 1)
    if cls is TrueTm or cls is FalseTm:
        return _BOOL, Bool
    match t:
        case App():
            spine, fn = [], t
            while fn.__class__ is App:
                spine.append(fn.arg)
                fn = fn.fn
            if fn.__class__ is Lam:
                inner, body, args = _bind_head(scope, t)
                vty, ty = _infer(inner, body)
                return vty, lambda: subst_with(ty(), args[::-1])
            vty = _infer(scope, fn)[0]
            for arg in reversed(spine):  # an argument instantiates the codomain only if it reads it
                fty = scope.expect(vty, nbe.VPi, "{} is not a Π-type")
                _check(scope, arg, fty.dom)
                vty = fty.cod(Lazy(scope.env, arg))
            return vty, lambda: subst1(nbe.embed(nbe.quote_type(fty, scope.level).cod), arg)
        case ElimBool(motive, tcase, fcase, scrut):
            _check(scope, scrut, _BOOL)
            _wf_type(scope.extend(_BOOL), motive)
            vmotive = Clo(nbe.NBE, scope.env, motive)
            _check(scope, tcase, vmotive(nbe.NBE.true()))
            _check(scope, fcase, vmotive(nbe.NBE.false()))
            return vmotive(Lazy(scope.env, scrut)), lambda: subst1(motive, scrut)
        case Code(ty):
            i = _wf_type(scope, ty)[0]
            if i >= DEFAULT_MAX_LEVEL:
                raise LevelError(f"no universe holds a code for a level-{i} type")
            return nbe.VU(i), lambda: U(i)
        case LiftTm(tm):
            vty, ty = _infer(scope, tm)
            if _level(vty, scope.level) + 1 > DEFAULT_MAX_LEVEL:
                raise LevelError(f"lifted type exceeds maximum level {DEFAULT_MAX_LEVEL}")
            return nbe.VLift(vty), lambda: Lift(ty())
        case UnliftTm(tm):
            vty = scope.expect(_infer(scope, tm)[0], nbe.VLift, "unlift expects a lifted term, got type {}").ty
            return vty, lambda: nbe.embed(nbe.quote_type(vty, scope.level))
        case Lam(_):
            raise NotInferableError("unannotated lambda in inference position")
        case Pi(_, _) | Bool() | U(_) | El(_) | Lift(_):
            raise NotInferableError("type former used in term inference position")
    raise TypeCheckError(f"unknown term {show(t)}")


@depth_guarded
def infer(ctx: Context, t: Term) -> Term:
    """Synthesize a type for t; the result is well-formed in ctx."""
    return _infer(_scope(ctx), t)[1]()


@depth_guarded
def check(ctx: Context, t: Term, ty: Term) -> None:
    """Check t against the type ty, up to conversion; ty is validated with wf_type and evaluated once."""
    scope = _scope(ctx)
    _check(scope, t, _wf_type(scope, ty)[1])


def _check(scope: _Scope, t: Term, expected: nbe.Val) -> None:
    """Check t against expected, the value of a well-formed type; compare normal forms where t is inferred."""
    cls = t.__class__
    if cls is Lam and expected.__class__ is nbe.VPi:
        fresh = nbe.VNe(expected.dom, scope.level)
        return _check(scope.extend(expected.dom, None, fresh), t.body, expected.cod(fresh))
    if cls is LiftTm and expected.__class__ is nbe.VLift:
        return _check(scope, t.tm, expected.ty)
    if cls is App and (bound := _bind_head(scope, t)) is not None:
        return _check(bound[0], bound[1], expected)
    if (actual := _infer(scope, t)[0]) is not expected:
        want, got = nbe.quote_type(expected, scope.level), nbe.quote_type(actual, scope.level)
        if want != got:
            raise TypeMismatchError(f"expected type {nbe.show_nf(want)}, got {nbe.show_nf(got)}")


@depth_guarded
def conv_types(ctx: Context, a: Term, b: Term) -> bool:
    """Decide definitional equality of two well-formed types."""
    scope = _scope(ctx)
    return nbe.quote_type(_wf_type(scope, a)[1]) == nbe.quote_type(_wf_type(scope, b)[1])


@depth_guarded
def conv(ctx: Context, ty: Term, a: Term, b: Term) -> bool:
    """Decide conversion of a and b at type ty via normal-form equality."""
    scope = _scope(ctx)
    vty = _wf_type(scope, ty)[1]
    _check(scope, a, vty)
    _check(scope, b, vty)
    return nbe.quote(vty, nbe.eval_term(scope.env, a)) == nbe.quote(vty, nbe.eval_term(scope.env, b))
