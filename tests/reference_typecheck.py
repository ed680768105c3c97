"""The type checker as it was before head redexes became let-bindings.

A frozen reference for the differential test in test_typecheck.py.  It
contracts a head redex by inferring the argument and substituting it into
the body, so the body is re-checked with every copy of the argument.  It
raises the exception classes of sconekit.typecheck, so verdicts and error
classes compare directly.  Do not change it to follow the kernel.
"""

from __future__ import annotations

from sconekit.nbe import embed, norm_type
from sconekit.syntax import (
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
    subst1,
)
from sconekit.typecheck import (
    DEFAULT_MAX_LEVEL,
    LevelError,
    NotInferableError,
    TypeCheckError,
    TypeMismatchError,
)


def _norm_ty(ctx: Context, ty: Term) -> Term:
    return embed(norm_type(ctx, ty))


def wf_type(ctx: Context, ty: Term, max_level: int = DEFAULT_MAX_LEVEL) -> int:
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


def _contract_head(ctx: Context, t: Term, max_level: int) -> Term | None:
    match t:
        case App(Lam(body), arg):
            infer(ctx, arg, max_level)
            return subst1(body, arg)
        case App(fn, arg):
            fn2 = _contract_head(ctx, fn, max_level)
            return App(fn2, arg) if fn2 is not None else None
    return None


def infer(ctx: Context, t: Term, max_level: int = DEFAULT_MAX_LEVEL) -> Term:
    match t:
        case Var(ix):
            return ctx.lookup(ix)
        case TrueTm() | FalseTm():
            return Bool()
        case App(fn, arg):
            contracted = _contract_head(ctx, t, max_level)
            if contracted is not None:
                return infer(ctx, contracted, max_level)
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
            return Lift(infer(ctx, tm, max_level))
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
    wf_type(ctx, ty, max_level)
    _check(ctx, t, _norm_ty(ctx, ty), max_level)


def _check(ctx: Context, t: Term, expected: Term, max_level: int) -> None:
    match (t, expected):
        case (Lam(body), Pi(dom, cod)):
            _check(ctx.extend(dom), body, cod, max_level)
            return
        case (LiftTm(tm), Lift(inner)):
            _check(ctx, tm, inner, max_level)
            return
        case (App(_, _), _):
            contracted = _contract_head(ctx, t, max_level)
            if contracted is not None:
                _check(ctx, contracted, expected, max_level)
                return
    actual = _norm_ty(ctx, infer(ctx, t, max_level))
    if actual != expected:
        raise TypeMismatchError(f"expected type {expected}, got {actual}")
