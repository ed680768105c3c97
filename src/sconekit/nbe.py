"""Normalization by evaluation.

Semantic values are Kripke families over the category of renamings: values,
semantic types and closures restrict along renamings, which happens only
under binders (a context's environment is built in place).  Quoting produces
typed, eta-long beta-normal forms; a neutral is reflected as VNe.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable

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
    node,
)

IxMap = Callable[[int], int]


class IllTypedError(TypeError):
    """Evaluation or quotation met a value of the wrong shape.

    The input was not well typed in its context, or a context entry is not
    a type; norm, norm_type and check raise it on such input.
    """


# ---------------------------------------------------------------------------
# Neutral and normal forms


@node
class Ne:
    pass


@node
class Nf:
    pass


@node
class VarNe(Ne):
    ix: int


@node
class AppNe(Ne):
    fn: Ne
    arg: Nf


@node
class ElimBoolNe(Ne):
    motive: Nf  # binds 1
    tcase: Nf
    fcase: Nf
    scrut: Ne


@node
class UnliftNe(Ne):
    tm: Ne


@node
class LamNf(Nf):
    body: Nf  # binds 1


@node
class TrueNf(Nf):
    pass


@node
class FalseNf(Nf):
    pass


@node
class CodeNf(Nf):
    ty: Nf


@node
class LiftTmNf(Nf):
    tm: Nf


@node
class NeAtBool(Nf):
    ne: Ne


@node
class NeAtEl(Nf):
    ne: Ne


@node
class NeAtU(Nf):
    ne: Ne


# normal types
@node
class PiNf(Nf):
    dom: Nf
    cod: Nf  # binds 1


@node
class BoolNf(Nf):
    pass


@node
class UNf(Nf):
    level: int


@node
class ElNf(Nf):
    ne: Ne


@node
class LiftNf(Nf):
    ty: Nf


def embed_ne(ne: Ne) -> Term:
    match ne:
        case VarNe(ix):
            return Var(ix)
        case AppNe(f, a):
            return App(embed_ne(f), embed(a))
        case ElimBoolNe(m, t, f, s):
            return ElimBool(embed(m), embed(t), embed(f), embed_ne(s))
        case UnliftNe(t):
            return UnliftTm(embed_ne(t))
    raise IllTypedError(f"unknown neutral {ne!r}")


def embed(nf: Nf) -> Term:
    """Forget normality."""
    match nf:
        case LamNf(b):
            return Lam(embed(b))
        case TrueNf():
            return TrueTm()
        case FalseNf():
            return FalseTm()
        case CodeNf(t):
            return Code(embed(t))
        case LiftTmNf(t):
            return LiftTm(embed(t))
        case NeAtBool(ne) | NeAtEl(ne) | NeAtU(ne):
            return embed_ne(ne)
        case PiNf(d, c):
            return Pi(embed(d), embed(c))
        case BoolNf():
            return Bool()
        case UNf(level):
            return U(level)
        case ElNf(ne):
            return El(embed_ne(ne))
        case LiftNf(t):
            return Lift(embed(t))
    raise IllTypedError(f"unknown normal form {nf!r}")


def _lift_ix(f: IxMap) -> IxMap:
    return lambda i: 0 if i == 0 else f(i - 1) + 1


def rename_ne(ne: Ne, f: IxMap) -> Ne:
    match ne:
        case VarNe(ix):
            return VarNe(f(ix))
        case AppNe(fn, arg):
            return AppNe(rename_ne(fn, f), rename_nf(arg, f))
        case ElimBoolNe(m, t, fc, s):
            return ElimBoolNe(
                rename_nf(m, _lift_ix(f)),
                rename_nf(t, f),
                rename_nf(fc, f),
                rename_ne(s, f),
            )
        case UnliftNe(t):
            return UnliftNe(rename_ne(t, f))
    raise IllTypedError(f"unknown neutral {ne!r}")


def rename_nf(nf: Nf, f: IxMap) -> Nf:
    match nf:
        case LamNf(b):
            return LamNf(rename_nf(b, _lift_ix(f)))
        case TrueNf() | FalseNf() | BoolNf() | UNf(_):
            return nf
        case CodeNf(t):
            return CodeNf(rename_nf(t, f))
        case LiftTmNf(t):
            return LiftTmNf(rename_nf(t, f))
        case NeAtBool(ne):
            return NeAtBool(rename_ne(ne, f))
        case NeAtEl(ne):
            return NeAtEl(rename_ne(ne, f))
        case NeAtU(ne):
            return NeAtU(rename_ne(ne, f))
        case PiNf(d, c):
            return PiNf(rename_nf(d, f), rename_nf(c, _lift_ix(f)))
        case ElNf(ne):
            return ElNf(rename_ne(ne, f))
        case LiftNf(t):
            return LiftNf(rename_nf(t, f))
    raise IllTypedError(f"unknown normal form {nf!r}")


# ---------------------------------------------------------------------------
# Semantic domain


@node
class Val:
    pass


@node
class Clo:
    """A term under a captured environment, awaiting one more value."""

    env: tuple[Val, ...]
    body: Term

    def __call__(self, v: Val) -> Val:
        return eval_term((v,) + self.env, self.body)


@node
class VLam(Val):
    clo: Clo


@node
class VTrue(Val):
    pass


@node
class VFalse(Val):
    pass


@node
class VLiftVal(Val):
    inner: Val


@node
class VCode(Val):
    ty: Val


@node
class VNe(Val):
    """A neutral-backed value, carrying its semantic type for eta."""

    vty: Val
    ne: Ne


@node
class VPi(Val):
    dom: Val
    cod: Clo


@node
class VBool(Val):
    pass


@node
class VU(Val):
    level: int


@node
class VEl(Val):
    code: Val  # always neutral-backed


@node
class VLift(Val):
    ty: Val


_UP1: IxMap = lambda i: i + 1


def restrict(v: Val, f: IxMap) -> Val:
    """Restrict a value along a renaming of its ambient context."""
    match v:
        case VLam(clo):
            return VLam(restrict_clo(clo, f))
        case VTrue() | VFalse() | VBool() | VU(_):
            return v
        case VLiftVal(inner):
            return VLiftVal(restrict(inner, f))
        case VCode(ty):
            return VCode(restrict(ty, f))
        case VNe(vty, ne):
            return VNe(restrict(vty, f), rename_ne(ne, f))
        case VPi(dom, cod):
            return VPi(restrict(dom, f), restrict_clo(cod, f))
        case VEl(code):
            return VEl(restrict(code, f))
        case VLift(ty):
            return VLift(restrict(ty, f))
    raise IllTypedError(f"unknown value {v!r}")


def restrict_clo(clo: Clo, f: IxMap) -> Clo:
    return Clo(tuple(restrict(v, f) for v in clo.env), clo.body)


# ---------------------------------------------------------------------------
# Evaluation


def apply_val(fn: Val, arg: Val) -> Val:
    match fn:
        case VLam(clo):
            return clo(arg)
        case VNe(VPi(dom, cod), ne):
            return VNe(cod(arg), AppNe(ne, quote(dom, arg)))
    raise IllTypedError(f"cannot apply non-function value {fn!r}")


def eval_term(env: tuple[Val, ...], t: Term) -> Val:
    """One clause per former; Var looks up the environment."""
    match t:
        case Var(ix):
            if ix >= len(env):
                raise ScopeError(f"variable {ix} out of range in environment of length {len(env)}")
            return env[ix]
        case Lam(b):
            return VLam(Clo(env, b))
        case App(f, a):
            return apply_val(eval_term(env, f), eval_term(env, a))
        case Pi(d, c):
            return VPi(eval_term(env, d), Clo(env, c))
        case Bool():
            return VBool()
        case TrueTm():
            return VTrue()
        case FalseTm():
            return VFalse()
        case ElimBool(m, t1, t2, s):
            return _elim_bool(Clo(env, m), eval_term(env, t1), eval_term(env, t2), eval_term(env, s))
        case U(level):
            return VU(level)
        case El(c):
            cv = eval_term(env, c)
            if isinstance(cv, VCode):
                return cv.ty
            return VEl(cv)
        case Code(a):
            av = eval_term(env, a)
            if isinstance(av, VEl):
                return av.code
            return VCode(av)
        case Lift(a):
            return VLift(eval_term(env, a))
        case LiftTm(tm):
            return VLiftVal(eval_term(env, tm))
        case UnliftTm(tm):
            v = eval_term(env, tm)
            if isinstance(v, VLiftVal):
                return v.inner
            if isinstance(v, VNe) and isinstance(v.vty, VLift):
                return VNe(v.vty.ty, UnliftNe(v.ne))
            raise IllTypedError(f"cannot unlift {v!r}")
    raise IllTypedError(f"unknown term {t!r}")


def _elim_bool(motive: Clo, vt: Val, vf: Val, scrut: Val) -> Val:
    match scrut:
        case VTrue():
            return vt
        case VFalse():
            return vf
        case VNe(_, ne):
            motive_w = restrict_clo(motive, _UP1)
            motive_nf = quote_type(motive_w(VNe(VBool(), VarNe(0))))
            return VNe(
                motive(scrut),
                ElimBoolNe(
                    motive_nf,
                    quote(motive(VTrue()), vt),
                    quote(motive(VFalse()), vf),
                    ne,
                ),
            )
    raise IllTypedError(f"boolean eliminator applied to {scrut!r}")


# ---------------------------------------------------------------------------
# Quote


def quote(vty: Val, v: Val) -> Nf:
    """Reify a value as a typed eta-long normal form."""
    match vty:
        case VPi(dom, cod):
            dom_w = restrict(dom, _UP1)
            fresh = VNe(dom_w, VarNe(0))
            body = apply_val(restrict(v, _UP1), fresh)
            return LamNf(quote(restrict_clo(cod, _UP1)(fresh), body))
        case VBool():
            match v:
                case VTrue():
                    return TrueNf()
                case VFalse():
                    return FalseNf()
                case VNe(_, ne):
                    return NeAtBool(ne)
        case VU(_):
            match v:
                case VCode(ty):
                    return CodeNf(quote_type(ty))
                case VNe(_, ne):
                    return NeAtU(ne)
        case VEl(_):
            if isinstance(v, VNe):
                return NeAtEl(v.ne)
        case VLift(inner):
            match v:
                case VLiftVal(w):
                    return LiftTmNf(quote(inner, w))
                case VNe(_, ne):
                    return LiftTmNf(quote(inner, VNe(inner, UnliftNe(ne))))
    raise IllTypedError(f"cannot quote {v!r} at type {vty!r}")


def quote_type(vty: Val) -> Nf:
    match vty:
        case VPi(dom, cod):
            dom_w = restrict(dom, _UP1)
            fresh = VNe(dom_w, VarNe(0))
            return PiNf(quote_type(dom), quote_type(restrict_clo(cod, _UP1)(fresh)))
        case VBool():
            return BoolNf()
        case VU(level):
            return UNf(level)
        case VEl(code):
            if isinstance(code, VNe):
                return ElNf(code.ne)
        case VLift(inner):
            return LiftNf(quote_type(inner))
    raise IllTypedError(f"cannot quote type value {vty!r}")


# ---------------------------------------------------------------------------
# Normalization


def reflect_context(ctx: Context) -> tuple[Val, ...]:
    """The environment of ctx, every value built in the whole context.

    Entry j of n is evaluated in the values built before it: declared, it is
    VNe(A_j, var n-1-j), so its index counts later definitions; defined, its
    value.  Nothing is restricted here, only under binders.
    """
    env: tuple[Val, ...] = ()
    for entry, value in zip_longest(ctx.entries, ctx.values):
        var = VarNe(len(ctx) - len(env) - 1)
        v = VNe(eval_term(env, entry), var) if value is None else eval_term(env, value)
        env = (v,) + env
    return env


def norm(ctx: Context, ty: Term, t: Term) -> Nf:
    """Normalize a well-typed term: quote its value at its evaluated type."""
    try:
        env = reflect_context(ctx)
        return quote(eval_term(env, ty), eval_term(env, t))
    except RecursionError:
        raise DepthError from None


def norm_type(ctx: Context, ty: Term) -> Nf:
    try:
        return quote_type(eval_term(reflect_context(ctx), ty))
    except RecursionError:
        raise DepthError from None
