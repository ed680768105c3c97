"""Bidirectional typechecking: head redexes are checked as lets, conversion by normal forms."""

from __future__ import annotations

from .nbe import embed, norm, norm_type
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
    shift,
    subst1,
    subst_with,
)

DEFAULT_MAX_LEVEL = 2


class TypeCheckError(Exception):
    pass


class TypeMismatchError(TypeCheckError):
    pass


class NotInferableError(TypeCheckError):
    pass


class LevelError(TypeCheckError):
    pass


def _norm_ty(ctx: Context, ty: Term) -> Term:
    return embed(norm_type(ctx, ty))


def wf_type(ctx: Context, ty: Term, max_level: int = DEFAULT_MAX_LEVEL) -> int:
    """Check that ty is a well-formed type in ctx; return its universe level."""
    match ty:
        case Bool():
            return 0
        case Pi(dom, cod):
            i = wf_type(ctx, dom, max_level)
            j = wf_type(ctx.extend(dom), cod, max_level)
            return max(i, j)
        case U(level):
            if not 0 <= level < max_level:
                raise LevelError(f"universe level {level} exceeds maximum {max_level - 1}")
            return level + 1
        case El(code):
            cty = _norm_ty(ctx, infer(ctx, code, max_level))
            if isinstance(cty, U):
                return cty.level
            raise TypeMismatchError(f"El expects a universe code, got a term of type {cty}")
        case Lift(inner):
            i = wf_type(ctx, inner, max_level) + 1
            if i > max_level:
                raise LevelError(f"lifted type exceeds maximum level {max_level}")
            return i
    raise TypeMismatchError(f"{ty} is not a type")


def check_context(ctx: Context, max_level: int = DEFAULT_MAX_LEVEL) -> None:
    prefix = Context()
    for entry in ctx.entries:
        wf_type(prefix, entry, max_level)
        prefix = prefix.extend(entry)


def _bind_head(ctx: Context, t: Term, max_level: int) -> tuple[Context, Term, list[Term]] | None:
    """Bind the beta-redexes at the head of an application spine as a let.

    (fun x1 ... xk => b) a1 ... ak c... becomes b c... in ctx, x1 := a1, ...,
    xk := ak; returns that context, b c... and [a1, ..., ak], or None if the
    head is no lambda.  Each argument must be inferable; it is inferred once,
    in ctx and in order, and never copied into the body.
    """
    spine, head = [], t
    while isinstance(head, App):
        spine.append(head.arg)
        head = head.fn
    if not isinstance(head, Lam):
        return None
    inner, args = ctx, []
    while spine and isinstance(head, Lam):
        arg, head, i = spine.pop(), head.body, len(args)
        inner = inner.define(shift(infer(ctx, arg, max_level), i), shift(arg, i))
        args.append(arg)
    for arg in reversed(spine):
        head = App(head, shift(arg, len(args)))
    return inner, head, args


def infer(ctx: Context, t: Term, max_level: int = DEFAULT_MAX_LEVEL) -> Term:
    """Synthesize a type for t; the result is well-formed in ctx."""
    match t:
        case Var(ix):
            return ctx.lookup(ix)
        case TrueTm() | FalseTm():
            return Bool()
        case App(fn, arg):
            if (bound := _bind_head(ctx, t, max_level)) is not None:
                inner, body, args = bound
                return subst_with(infer(inner, body, max_level), args[::-1])
            fty = _norm_ty(ctx, infer(ctx, fn, max_level))
            if not isinstance(fty, Pi):
                raise TypeMismatchError(f"{fty} is not a Π-type")
            _check(ctx, arg, fty.dom, max_level)
            return subst1(fty.cod, arg)
        case ElimBool(motive, tcase, fcase, scrut):
            _check(ctx, scrut, Bool(), max_level)
            wf_type(ctx.extend(Bool()), motive, max_level)
            _check(ctx, tcase, _norm_ty(ctx, subst1(motive, TrueTm())), max_level)
            _check(ctx, fcase, _norm_ty(ctx, subst1(motive, FalseTm())), max_level)
            return subst1(motive, scrut)
        case Code(ty):
            i = wf_type(ctx, ty, max_level)
            if i >= max_level:
                raise LevelError(f"no universe holds a code for a level-{i} type")
            return U(i)
        case LiftTm(tm):
            lifted = Lift(infer(ctx, tm, max_level))
            wf_type(ctx, lifted, max_level)  # a LevelError past max_level
            return lifted
        case UnliftTm(tm):
            ity = _norm_ty(ctx, infer(ctx, tm, max_level))
            if isinstance(ity, Lift):
                return ity.ty
            raise TypeMismatchError(f"unlift expects a lifted term, got type {ity}")
        case Lam(_):
            raise NotInferableError("unannotated lambda in inference position")
        case Pi(_, _) | Bool() | U(_) | El(_) | Lift(_):
            raise NotInferableError("type former used in term inference position")
    raise TypeCheckError(f"unknown term {t!r}")


def check(ctx: Context, t: Term, ty: Term, max_level: int = DEFAULT_MAX_LEVEL) -> None:
    """Check t against the type ty, up to conversion.

    ty is validated with wf_type and normalized once; the recursion then
    works on the normal form.
    """
    try:
        wf_type(ctx, ty, max_level)
        _check(ctx, t, _norm_ty(ctx, ty), max_level)
    except RecursionError:
        raise DepthError from None


def _check(ctx: Context, t: Term, expected: Term, max_level: int) -> None:
    """Check t against expected, a well-formed type in normal form.

    The domain, codomain and lifted type of a normal type are normal, so
    nothing is normalized again on the way down.
    """
    match (t, expected):
        case (Lam(body), Pi(dom, cod)):
            _check(ctx.extend(dom), body, cod, max_level)
            return
        case (LiftTm(tm), Lift(inner)):
            _check(ctx, tm, inner, max_level)
            return
        case (App(_, _), _):
            if (bound := _bind_head(ctx, t, max_level)) is not None:
                inner, body, args = bound
                _check(inner, body, shift(expected, len(args)), max_level)
                return
    actual = _norm_ty(ctx, infer(ctx, t, max_level))
    if actual != expected:
        raise TypeMismatchError(f"expected type {expected}, got {actual}")


def conv_types(ctx: Context, a: Term, b: Term, max_level: int = DEFAULT_MAX_LEVEL) -> bool:
    """Decide definitional equality of two well-formed types."""
    wf_type(ctx, a, max_level)
    wf_type(ctx, b, max_level)
    return norm_type(ctx, a) == norm_type(ctx, b)


def conv(ctx: Context, ty: Term, a: Term, b: Term, max_level: int = DEFAULT_MAX_LEVEL) -> bool:
    """Decide conversion of a and b at type ty via normal-form equality."""
    try:
        check(ctx, a, ty, max_level)
        check(ctx, b, ty, max_level)
        return norm(ctx, ty, a) == norm(ctx, ty, b)
    except RecursionError:  # also comparing two deep normal forms
        raise DepthError from None


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
