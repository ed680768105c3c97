"""Normalization by evaluation.

Semantic values are Kripke families over the category of renamings:
every value, semantic type and closure supports restriction along a
renaming of its ambient context.  Quoting produces typed, eta-long
beta-normal forms; unquoting reflects neutrals into the value domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
)

IxMap = Callable[[int], int]


# ---------------------------------------------------------------------------
# Neutral and normal forms


@dataclass(frozen=True)
class Ne:
    pass


@dataclass(frozen=True)
class Nf:
    pass


@dataclass(frozen=True)
class VarNe(Ne):
    ix: int


@dataclass(frozen=True)
class AppNe(Ne):
    fn: Ne
    arg: Nf


@dataclass(frozen=True)
class ElimBoolNe(Ne):
    motive: Nf  # binds 1
    tcase: Nf
    fcase: Nf
    scrut: Ne


@dataclass(frozen=True)
class UnliftNe(Ne):
    tm: Ne


@dataclass(frozen=True)
class LamNf(Nf):
    body: Nf  # binds 1


@dataclass(frozen=True)
class TrueNf(Nf):
    pass


@dataclass(frozen=True)
class FalseNf(Nf):
    pass


@dataclass(frozen=True)
class CodeNf(Nf):
    ty: Nf


@dataclass(frozen=True)
class LiftTmNf(Nf):
    tm: Nf


@dataclass(frozen=True)
class NeAtBool(Nf):
    ne: Ne


@dataclass(frozen=True)
class NeAtEl(Nf):
    ne: Ne


@dataclass(frozen=True)
class NeAtU(Nf):
    ne: Ne


# normal types
@dataclass(frozen=True)
class PiNf(Nf):
    dom: Nf
    cod: Nf  # binds 1


@dataclass(frozen=True)
class BoolNf(Nf):
    pass


@dataclass(frozen=True)
class UNf(Nf):
    level: int


@dataclass(frozen=True)
class ElNf(Nf):
    ne: Ne


@dataclass(frozen=True)
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
    raise TypeError(f"unknown neutral {ne!r}")


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
    raise TypeError(f"unknown normal form {nf!r}")


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
    raise TypeError(f"unknown neutral {ne!r}")


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
    raise TypeError(f"unknown normal form {nf!r}")


# ---------------------------------------------------------------------------
# Semantic domain


@dataclass(frozen=True)
class Val:
    pass


@dataclass(frozen=True)
class Clo:
    """A term under a captured environment, awaiting one more value."""

    env: tuple[Val, ...]
    body: Term

    def __call__(self, v: Val) -> Val:
        return eval_term((v,) + self.env, self.body)


@dataclass(frozen=True)
class VLam(Val):
    clo: Clo


@dataclass(frozen=True)
class VTrue(Val):
    pass


@dataclass(frozen=True)
class VFalse(Val):
    pass


@dataclass(frozen=True)
class VLiftVal(Val):
    inner: Val


@dataclass(frozen=True)
class VCode(Val):
    ty: Val


@dataclass(frozen=True)
class VNe(Val):
    """A neutral-backed value, carrying its semantic type for eta."""

    vty: Val
    ne: Ne


@dataclass(frozen=True)
class VPi(Val):
    dom: Val
    cod: Clo


@dataclass(frozen=True)
class VBool(Val):
    pass


@dataclass(frozen=True)
class VU(Val):
    level: int


@dataclass(frozen=True)
class VEl(Val):
    code: Val  # always neutral-backed


@dataclass(frozen=True)
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
    raise TypeError(f"unknown value {v!r}")


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
    raise TypeError(f"cannot apply non-function value {fn!r}")


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
            raise TypeError(f"cannot unlift {v!r}")
    raise TypeError(f"unknown term {t!r}")


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
    raise TypeError(f"boolean eliminator applied to {scrut!r}")


# ---------------------------------------------------------------------------
# Quote and unquote


def unquote(vty: Val, ne: Ne) -> Val:
    """Reflect a neutral into the value domain at the given semantic type.

    At Pi the resulting value applies by extending the neutral spine with
    the quoted argument; this is performed lazily by apply_val.
    """
    return VNe(vty, ne)


def quote(vty: Val, v: Val) -> Nf:
    """Reify a value as a typed eta-long normal form."""
    match vty:
        case VPi(dom, cod):
            dom_w = restrict(dom, _UP1)
            fresh = unquote(dom_w, VarNe(0))
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
    raise TypeError(f"cannot quote {v!r} at type {vty!r}")


def quote_type(vty: Val) -> Nf:
    match vty:
        case VPi(dom, cod):
            dom_w = restrict(dom, _UP1)
            fresh = unquote(dom_w, VarNe(0))
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
    raise TypeError(f"cannot quote type value {vty!r}")


# ---------------------------------------------------------------------------
# Normalization


def reflect_context(ctx: Context) -> tuple[Val, ...]:
    """The environment of reflected variables: Var i becomes unquote(A_i, var i)."""
    env: tuple[Val, ...] = ()
    for entry in ctx.entries:
        vty = eval_term(env, entry)
        env = (unquote(restrict(vty, _UP1), VarNe(0)),) + tuple(
            restrict(v, _UP1) for v in env
        )
    return env


def norm(ctx: Context, ty: Term, t: Term) -> Nf:
    """Normalize a well-typed term: quote its value at its evaluated type."""
    env = reflect_context(ctx)
    return quote(eval_term(env, ty), eval_term(env, t))


def norm_type(ctx: Context, ty: Term) -> Nf:
    return quote_type(eval_term(reflect_context(ctx), ty))
