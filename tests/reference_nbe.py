"""The index-based Kripke NbE as it was before neutrals moved to levels.

A frozen reference for the differential tests in test_nbe.py.  Its values
hold de Bruijn indices, so quoting under a binder and eliminating a stuck
boolean restrict the whole value along a weakening, and a context's
environment is built by weakening every earlier value once per later
entry.  It shares sconekit.nbe's normal forms (Nf, Ne and rename_ne), so
the two normalizers' results compare with ==.  Do not change it to follow
the kernel.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Callable

from sconekit.nbe import (
    AppNe,
    BoolNf,
    CodeNf,
    ElimBoolNe,
    ElNf,
    FalseNf,
    LamNf,
    LiftNf,
    LiftTmNf,
    NeAtBool,
    NeAtEl,
    NeAtU,
    Ne,
    Nf,
    PiNf,
    TrueNf,
    UNf,
    UnliftNe,
    VarNe,
    rename_ne,
)
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
    node,
)

IxMap = Callable[[int], int]


@node
class Val:
    pass


@node
class Clo:
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
    code: Val


@node
class VLift(Val):
    ty: Val


_UP1: IxMap = lambda i: i + 1


def restrict(v: Val, f: IxMap) -> Val:
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


def apply_val(fn: Val, arg: Val) -> Val:
    match fn:
        case VLam(clo):
            return clo(arg)
        case VNe(VPi(dom, cod), ne):
            return VNe(cod(arg), AppNe(ne, quote(dom, arg)))
    raise TypeError(f"cannot apply non-function value {fn!r}")


def eval_term(env: tuple[Val, ...], t: Term) -> Val:
    match t:
        case Var(ix):
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
            return cv.ty if isinstance(cv, VCode) else VEl(cv)
        case Code(a):
            av = eval_term(env, a)
            return av.code if isinstance(av, VEl) else VCode(av)
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
            motive_nf = quote_type(restrict_clo(motive, _UP1)(VNe(VBool(), VarNe(0))))
            return VNe(
                motive(scrut),
                ElimBoolNe(motive_nf, quote(motive(VTrue()), vt), quote(motive(VFalse()), vf), ne),
            )
    raise TypeError(f"boolean eliminator applied to {scrut!r}")


def quote(vty: Val, v: Val) -> Nf:
    match vty:
        case VPi(dom, cod):
            fresh = VNe(restrict(dom, _UP1), VarNe(0))
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
            fresh = VNe(restrict(dom, _UP1), VarNe(0))
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


def reflect_context(ctx: Context) -> tuple[Val, ...]:
    """Each entry is evaluated in its prefix; every later entry weakens the earlier values."""
    env: tuple[Val, ...] = ()
    for entry, value in zip_longest(ctx.entries, ctx.values):
        env = tuple(restrict(w, _UP1) for w in env)
        v = VNe(eval_term(env, entry), VarNe(0)) if value is None else eval_term(env, value)
        env = (v,) + env
    return env


def norm(ctx: Context, ty: Term, t: Term) -> Nf:
    env = reflect_context(ctx)
    return quote(eval_term(env, ty), eval_term(env, t))


def norm_type(ctx: Context, ty: Term) -> Nf:
    return quote_type(eval_term(reflect_context(ctx), ty))
