"""Normalization by evaluation: the model NBE, run by models.eval_term.

Values keep binders as models.Clo closures over models' environments,
which a binder extends in O(1); eval_term also takes a tuple ordered
outermost first.  Neutrals sit at de Bruijn levels: the ambient
context's variable of index i sits at level -1-i, and the binder that
quote opens at depth d at level d.  So a value keeps its meaning under
new binders and nothing is ever weakened.  A stuck value keeps its spine
unquoted; quote reads it back at its depth, level l as index depth-1-l,
and yields typed, eta-long beta-normal forms.
"""

from __future__ import annotations

from typing import Callable, Iterable

from . import models
from .models import Clo, Model, show
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
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    depth_guarded,
    map_vars,
    node,
    rename_with,
)

IxMap = Callable[[int], int]


class IllTypedError(TypeError):
    """Evaluation or quotation met a value of the wrong shape.

    The input was not well typed in its context, or a context entry is not
    a type; norm, norm_type and check raise it on such input.  The argument
    of a stuck application and the branches of a stuck eliminator are read
    only by quote: an ill-typed one raises there, or never if discarded.
    """


# ---------------------------------------------------------------------------
# Neutral and normal forms


# Each class's _children pairs its own fields with its term former's binder
# counts (see _FORMER below), so syntax.map_vars renames and embeds normal forms.


@node
class Ne:
    _children = ()


@node
class Nf:
    _children = ()


@node
class VarNe(Ne):
    ix: int


@node
class AppNe(Ne):
    fn: Ne
    arg: Nf


@node
class ElimBoolNe(Ne):
    motive: Nf
    tcase: Nf
    fcase: Nf
    scrut: Ne


@node
class UnliftNe(Ne):
    tm: Ne


@node
class LamNf(Nf):
    body: Nf


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
    cod: Nf


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


# What builds each normal form's embedding from its children's embeddings, or
# from its fields if it has none: its term former; a wrapper embeds as its neutral.
_neutral = lambda ne: ne  # noqa: E731
_FORMER = {VarNe: Var, AppNe: App, ElimBoolNe: ElimBool, UnliftNe: UnliftTm,
           LamNf: Lam, TrueNf: TrueTm, FalseNf: FalseTm, CodeNf: Code, LiftTmNf: LiftTm,
           PiNf: Pi, BoolNf: Bool, UNf: U, ElNf: El, LiftNf: Lift,
           NeAtBool: _neutral, NeAtEl: _neutral, NeAtU: _neutral}
for _cls, _former in _FORMER.items():  # the class's fields, with its former's binder counts; a neutral sits under none
    _cls._children = (("ne", 0),) if _former is _neutral else (
        _former._children and tuple(zip(_cls.__match_args__, [b for _, b in _former._children])))
del _cls, _former  # so that no module-level name is bound to a class twice


def _embedding(x: object) -> Callable:
    """x's entry in _FORMER; IllTypedError if x is no normal form."""
    if (build := _FORMER.get(x.__class__)) is None:
        raise IllTypedError(f"unknown normal form {show(x)}")
    return build


@depth_guarded
def embed(nf: Nf) -> Term:
    """Forget normality."""
    return map_vars(nf, 0, lambda depth, v: Var(v.ix), _embedding)


def show_nf(nf: Nf) -> str:
    """show(embed(nf)), embedding only the nodes that show reaches."""
    return show(nf, _embed_node)


def _embed_node(x: object) -> object:
    """The root of x's embedding over x's own children, or x if it is no normal form."""
    while (build := _FORMER.get(x.__class__)) is not None:
        x = build(*[getattr(x, name) for name in x.__match_args__])
    return x


rename_ne = rename_nf = rename_with


# ---------------------------------------------------------------------------
# Semantic domain


@node
class Val:
    pass


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
    """A stuck value: a semantic neutral (a level, or a frame around one) and its type, for eta."""

    vty: Val
    ne: SemNe


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


@node
class AppFrame:
    """The neutral ne applied to arg, a value of type dom."""

    ne: SemNe
    arg: Val
    dom: Val


@node
class ElimFrame:
    """The boolean eliminator with motive and branches, stuck on ne."""

    ne: SemNe
    motive: Clo
    tcase: Val
    fcase: Val


@node
class UnliftFrame:
    ne: SemNe


SemNe = int | AppFrame | ElimFrame | UnliftFrame


def restrict(v: Val, f: IxMap) -> Val:
    """Rename v's ambient-context variables along f, a map on their indices.

    Index i sits at level -1-i and moves to level -1-f(i); every int in a
    value but VU's level is a level.  Values need no weakening under
    binders, so the kernel never calls this.
    """

    def go(x):
        match x:
            case int():
                return -1 - f(-1 - x)
            case Clo(model, env, body):
                return Clo(model, models.env_of([go(v) for v in env]), body)
            case Term() | VU() | Model():
                return x
        return type(x)(*[go(getattr(x, name)) for name in x.__match_args__])

    return go(v)


# ---------------------------------------------------------------------------
# Evaluation


def apply_val(fn: Val, arg: Val) -> Val:
    cls = fn.__class__
    if cls is VLam:
        return fn.clo(arg)
    if cls is VNe and (vty := fn.vty).__class__ is VPi:
        return VNe(vty.cod(arg), AppFrame(fn.ne, arg, vty.dom))
    raise IllTypedError(f"cannot apply non-function value {show(fn)}")


def _elim_bool(motive: Clo, vt: Val, vf: Val, scrut: Val) -> Val:
    match scrut:
        case VTrue():
            return vt
        case VFalse():
            return vf
        case VNe(_, ne):
            return VNe(motive(scrut), ElimFrame(ne, motive, vt, vf))
    raise IllTypedError(f"boolean eliminator applied to {show(scrut)}")


_BOOL, _TRUE, _FALSE = VBool(), VTrue(), VFalse()


class NbeModel(Model):
    """The semantic domain as a model: a stuck eliminator becomes a neutral."""

    singleton = "NBE"

    pi = staticmethod(VPi)
    lam = staticmethod(VLam)
    app = staticmethod(apply_val)
    bool_ = staticmethod(lambda: _BOOL)  # each a value shared by every call
    true = staticmethod(lambda: _TRUE)
    false = staticmethod(lambda: _FALSE)
    elim_bool = staticmethod(_elim_bool)
    u = staticmethod(VU)
    lift = staticmethod(VLift)
    lift_tm = staticmethod(VLiftVal)

    def el(self, code):
        return code.ty if isinstance(code, VCode) else VEl(code)

    def code(self, ty):
        return ty.code if isinstance(ty, VEl) else VCode(ty)

    def unlift_tm(self, tm):
        if isinstance(tm, VLiftVal):
            return tm.inner
        if isinstance(tm, VNe) and isinstance(tm.vty, VLift):
            return VNe(tm.vty.ty, UnliftFrame(tm.ne))
        raise IllTypedError(f"cannot unlift {show(tm)}")


NBE = NbeModel()


def eval_term(env: Iterable[Val], t: Term) -> Val:
    """The value of t in env, an environment or a sequence of values ordered outermost first."""
    return models.eval_term(NBE, env, t)


# ---------------------------------------------------------------------------
# Quote: under depth binders, level l reads back as index depth-1-l


_NE_AT = {VBool: NeAtBool, VU: NeAtU, VEl: NeAtEl}  # what wraps a stuck value at each base type but Lift


def quote(vty: Val, v: Val, depth: int = 0) -> Nf:
    """Reify a value as a typed eta-long normal form under depth binders.

    A chain of Π-types is read in one loop, a fresh level per binder, and
    then its base type; one LamNf wraps the result per binder.
    """
    top = depth
    while vty.__class__ is VPi:
        fresh = VNe(vty.dom, depth)
        vty = vty.cod(fresh)
        v = v.clo(fresh) if v.__class__ is VLam else apply_val(v, fresh)
        depth += 1
    cls, vcls = vty.__class__, v.__class__
    if cls is VBool and vcls is VTrue:
        nf = TrueNf()
    elif cls is VBool and vcls is VFalse:
        nf = FalseNf()
    elif vcls is VNe and cls in _NE_AT:
        nf = _NE_AT[cls](quote_ne(v.ne, depth))
    elif cls is VLift:
        nf = LiftTmNf(quote(vty.ty, NBE.unlift_tm(v), depth))
    elif cls is VU and vcls is VCode:
        nf = CodeNf(quote_type(v.ty, depth))
    else:
        raise IllTypedError(f"cannot quote {show(v)} at type {show(vty)}")
    while depth > top:
        nf, depth = LamNf(nf), depth - 1
    return nf


def quote_type(vty: Val, depth: int = 0) -> Nf:
    cls = vty.__class__
    if cls is VPi:
        return PiNf(quote_type(vty.dom, depth), quote_type(vty.cod(VNe(vty.dom, depth)), depth + 1))
    if cls is VBool:
        return BoolNf()
    if cls is VU:
        return UNf(vty.level)
    if cls is VEl and vty.code.__class__ is VNe:
        return ElNf(quote_ne(vty.code.ne, depth))
    if cls is VLift:
        return LiftNf(quote_type(vty.ty, depth))
    raise IllTypedError(f"cannot quote type value {show(vty)}")


def quote_ne(ne: SemNe, depth: int) -> Ne:
    """Read a semantic neutral back, innermost frame first."""
    match ne:
        case int():
            return VarNe(depth - 1 - ne)
        case AppFrame(fn, arg, dom):
            return AppNe(quote_ne(fn, depth), quote(dom, arg, depth))
        case ElimFrame(scrut, motive, vt, vf):
            scrut_ne, motive_nf = quote_ne(scrut, depth), quote_type(motive(VNe(VBool(), depth)), depth + 1)
            tcase, fcase = quote(motive(VTrue()), vt, depth), quote(motive(VFalse()), vf, depth)
            return ElimBoolNe(motive_nf, tcase, fcase, scrut_ne)
        case UnliftFrame(t):
            return UnliftNe(quote_ne(t, depth))
    raise IllTypedError(f"unknown neutral {show(ne)}")


# ---------------------------------------------------------------------------
# Normalization


def reflect_context(ctx: Context) -> Iterable[Val]:
    """The environment of ctx, each entry evaluated in the values before it.

    Declared entry j of n is the neutral at level j-n (index n-1-j), as in
    the type checker.  The result supports len, iteration and reversed.
    """
    env = models.env_of(())
    for level, (entry, value) in enumerate(ctx.bindings(), -len(ctx)):
        env = env.extend(VNe(eval_term(env, entry), level) if value is None else eval_term(env, value))
    return env


@depth_guarded
def norm(ctx: Context, ty: Term, t: Term) -> Nf:
    """Normalize a well-typed term: quote its value at its evaluated type."""
    env = reflect_context(ctx)
    return quote(eval_term(env, ty), eval_term(env, t))


@depth_guarded
def norm_type(ctx: Context, ty: Term) -> Nf:
    return quote_type(eval_term(reflect_context(ctx), ty))
