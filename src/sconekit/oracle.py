"""Independent verification machinery.

A fuel-bounded, leftmost-outermost reduction evaluator with type-directed
eta-expansion, plus deterministic generators for well-typed terms and
normal forms.  Nothing here goes through the NbE normalizer; this module
is the second route of every cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, TypeVar

from . import nbe
from .models import show
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
    Renaming,
    ScopeError,
    Substitution,
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    depth_guarded,
    mentions,
    rename_with,
    shift,
    subst1,
    subst_with,
    term_size,
)
from .typecheck import DEFAULT_MAX_LEVEL

DEFAULT_FUEL = 10_000
_ATTEMPT_STEPS = 400  # the work budget of one generator attempt
T = TypeVar("T")


class OracleError(Exception):
    """The oracle cannot answer.  OracleError(message, *terms) fills each {}
    of message with a term's show only when the message is read: the
    generator raises and catches thousands of these per call."""

    def __str__(self) -> str:
        if len(self.args) < 2:
            return super().__str__()
        message, *terms = self.args
        return message.format(*map(show, terms))


class FuelExhaustedError(OracleError):
    pass


class NoInhabitantError(OracleError):
    """The generator found no term of the requested type within budget."""


# ---------------------------------------------------------------------------
# Reduction


@dataclass(frozen=True)
class ReductionStep:
    position: tuple[int, ...]  # path of child indices from the root
    rule: str


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    result: Term
    fuel_exhausted: bool


def root_step(t: Term) -> Optional[tuple[Term, str]]:
    """Contract a redex at the root, if any."""
    match t:
        case App(Lam(b), a):
            return subst1(b, a), "beta"
        case ElimBool(_, tc, _, TrueTm()):
            return tc, "elimBool-true"
        case ElimBool(_, _, fc, FalseTm()):
            return fc, "elimBool-false"
        case El(Code(a)):
            return a, "el-code"
        case Code(El(c)):
            return c, "code-el"
        case UnliftTm(LiftTm(x)):
            return x, "lift-roundtrip"
        case LiftTm(UnliftTm(x)):
            return x, "lift-roundtrip"
    return None


def _with_child(t: Term, name: str, child: Term) -> Term:
    """t with its field name replaced by child."""
    return t.__class__(*[child if field == name else getattr(t, field) for field in t.__match_args__])


def step(t: Term) -> Optional[tuple[Term, tuple[int, ...], str]]:
    """One leftmost-outermost contraction, with its position and rule name."""
    r = root_step(t)
    if r is not None:
        return r[0], (), r[1]
    for i, (name, _) in enumerate(t._children or ()):
        sub = step(getattr(t, name))
        if sub is not None:
            new_child, pos, rule = sub
            return _with_child(t, name, new_child), (i,) + pos, rule
    return None


@depth_guarded
def reduce(t: Term, fuel: int = DEFAULT_FUEL) -> ReductionTrace:
    """Reduce to beta-normal form, recording each contraction."""
    steps: list[ReductionStep] = []
    for _ in range(fuel):
        s = step(t)
        if s is None:
            return ReductionTrace(tuple(steps), t, False)
        t, pos, rule = s
        steps.append(ReductionStep(pos, rule))
    return ReductionTrace(tuple(steps), t, step(t) is not None)


def beta_normalize(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    trace = reduce(t, fuel)
    if trace.fuel_exhausted:
        raise FuelExhaustedError(f"no normal form within {fuel} steps")
    return trace.result


# the child of each former that whnf reduces when the root is no redex
_HEAD_FIELD = {
    App: "fn",
    ElimBool: "scrut",
    El: "code",
    Code: "ty",
    UnliftTm: "tm",
    LiftTm: "tm",
}


def whnf(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    """Weak head normal form, enough to expose Pi / Bool / U / Lift / El heads.

    fuel bounds the number of contractions, those under a head included.
    """
    return _whnf(t, fuel)[0]


def _whnf(t: Term, fuel: int) -> tuple[Term, int]:
    """Weak head normal form of t and the fuel left over."""
    while True:
        r = root_step(t)
        if r is not None:
            if fuel == 0:
                raise FuelExhaustedError("whnf ran out of fuel")
            t, fuel = r[0], fuel - 1
            continue
        name = _HEAD_FIELD.get(type(t))
        if name is None:
            return t, fuel
        head = getattr(t, name)
        head2, left = _whnf(head, fuel)
        if left == fuel:
            return t, fuel
        t, fuel = _with_child(t, name, head2), left


# ---------------------------------------------------------------------------
# Type reconstruction for well-typed input (no conversion checks, no NbE)


def oracle_infer(ctx: Context, t: Term) -> Term:
    match t:
        case Var(ix):
            return ctx.lookup(ix)
        case TrueTm() | FalseTm():
            return Bool()
        case App(Lam(b), a):
            oracle_infer(ctx, a)
            return oracle_infer(ctx, subst1(b, a))
        case App(f, a):
            fty = _whnf_as(oracle_infer(ctx, f), Pi, "application head has non-Pi type")
            return subst1(fty.cod, a)
        case ElimBool(m, _, _, s):
            return subst1(m, s)
        case LiftTm(x):
            return _within_universes(ctx, Lift(oracle_infer(ctx, x)))
        case UnliftTm(x):
            return _whnf_as(oracle_infer(ctx, x), Lift, "unlift of a term of non-Lift type").ty
        case Code(a):
            return _within_universes(ctx, U(oracle_level(ctx, a)))
    raise OracleError("cannot reconstruct a type for {}", t)


def _whnf_as(ty: Term, former: type, message: str) -> Term:
    """The weak head normal form of the type ty, which must be built by former."""
    ty = whnf(ty)
    if not isinstance(ty, former):
        raise OracleError(message + " {}", ty)
    return ty


def oracle_level(ctx: Context, ty: Term) -> int:
    """The universe level of the type ty, at most the checker's DEFAULT_MAX_LEVEL."""
    match whnf(ty):
        case Bool():
            return 0
        case Pi(d, c):
            return max(oracle_level(ctx, d), oracle_level(ctx.extend(d), c))
        case U(level):
            return _bounded(level + 1, ty)
        case El(c):
            return _whnf_as(oracle_infer(ctx, c), U, "El of a non-code of type").level
        case Lift(a):
            return _bounded(oracle_level(ctx, a) + 1, ty)
    raise OracleError("{} is not a type", ty)


def _bounded(level: int, ty: Term) -> int:
    """level, the level of the type ty, unless it exceeds the checker's bound."""
    if level > DEFAULT_MAX_LEVEL:
        raise OracleError(f"{{}} exceeds the maximum universe level {DEFAULT_MAX_LEVEL}", ty)
    return level


def _within_universes(ctx: Context, ty: Term) -> Term:
    """The reconstructed type ty, if its level is within the checker's bound."""
    oracle_level(ctx, ty)
    return ty


# ---------------------------------------------------------------------------
# Eta expansion (post-hoc, type-directed)


def _eta(ctx: Context, ty: Term, t: Term) -> Term:
    ty = whnf(ty)
    match ty:
        case Pi(dom, cod):
            body = t.body if isinstance(t, Lam) else App(shift(t, 1), Var(0))
            return Lam(_eta(ctx.extend(dom), cod, body))
        case Lift(inner):
            tm = t.tm if isinstance(t, LiftTm) else UnliftTm(t)
            return LiftTm(_eta(ctx, inner, tm))
        case Bool() if isinstance(t, (TrueTm, FalseTm)):
            return t
        case U(_) if isinstance(t, Code):
            # neutrals at a universe stay bare: Code(El c) contracts to c
            return Code(_eta_type(ctx, t.ty))
        case Bool() | U(_) | El(_):
            return _eta_neutral(ctx, t)
    raise OracleError("{} is not a type", ty)


def _eta_neutral(ctx: Context, t: Term) -> Term:
    """Eta-expand the arguments of a beta-normal neutral spine, whose
    head's type is reconstructed once and then instantiated per argument."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    match t:
        case Var():
            head = t
        case ElimBool(m, t1, t2, s):
            s2 = _eta_neutral(ctx, s)
            head = ElimBool(
                _eta_type(ctx.extend(Bool()), m),
                _eta(ctx, subst1(m, TrueTm()), t1),
                _eta(ctx, subst1(m, FalseTm()), t2),
                s2,
            )
        case UnliftTm(x):
            head = UnliftTm(_eta_neutral(ctx, x))
        case _:
            raise OracleError("{} is not neutral", t)
    ty = oracle_infer(ctx, t)  # a ScopeError for an unbound variable
    for a in reversed(args):
        pi = _whnf_as(ty, Pi, "application head has non-Pi type")
        head, ty = App(head, _eta(ctx, pi.dom, a)), subst1(pi.cod, a)
    return head


def _eta_type(ctx: Context, ty: Term) -> Term:
    """Eta-expand the neutrals inside a beta-normal type."""
    match ty:
        case Bool() | U(_):
            return ty
        case Pi(d, c):
            d2 = _eta_type(ctx, d)
            return Pi(d2, _eta_type(ctx.extend(d2), c))
        case El(c):
            return El(_eta_neutral(ctx, c))
        case Lift(a):
            return Lift(_eta_type(ctx, a))
    raise OracleError("{} is not a type", ty)


# ---------------------------------------------------------------------------
# Public oracle operations


@depth_guarded
def oracle_norm(ctx: Context, ty: Term, t: Term) -> Term:
    """Unfold ctx's definitions, beta-normalize, then eta-expand along ty.  Independent of the NbE path."""
    ctx, ty, t = ctx.unfold(ty, t)
    return _eta(ctx, ty, beta_normalize(t))


@depth_guarded
def oracle_norm_type(ctx: Context, ty: Term) -> Term:
    ctx, ty = ctx.unfold(ty)
    return _eta_type(ctx, beta_normalize(ty))


@depth_guarded
def oracle_conv(ctx: Context, ty: Term, a: Term, b: Term) -> bool:
    return oracle_norm(ctx, ty, a) == oracle_norm(ctx, ty, b)


# ---------------------------------------------------------------------------
# Deterministic generators


@dataclass(frozen=True)
class GenBudget:
    max_term_size: int = 9
    max_context_length: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.max_term_size, self.max_context_length) < 1:
            raise ValueError("all generator bounds must be >= 1")


# the codes of the formers that build a term of a type in weak head normal
# form, by the type's class, each repeated by its weight
_FORMER_OPTIONS = {
    Bool: ("true", "true", "false", "false"),
    Pi: ("lam",) * 6,
    U: ("code",) * 4,
    Lift: ("lift",) * 4,
}


class _Scope:
    """One context of a generator call, with the answers the search asks of it.

    A call's scopes form a tree from the context it was given, and extend
    is memoized, so equal contexts are one scope and a lookup hashes only
    the type asked about.  Nothing here draws from the generator's rng.
    """

    __slots__ = ("ctx", "tables", "_table", "_keys", "_children")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        # option_table's answer for each type asked about; _Gen.term reads it
        # here, so a step whose type was asked about before makes no call
        self.tables: dict[Term, tuple[Term, Term, tuple, tuple]] = {}
        self._table: Optional[tuple[tuple[Optional[Term], Optional[Term]], ...]] = None
        self._keys: dict[Term, Term] = {}
        self._children: dict[Term, _Scope] = {}

    def extend(self, dom: Term) -> _Scope:
        child = self._children.get(dom)
        if child is None:
            child = self._children[dom] = _Scope(self.ctx.extend(dom))
        return child

    def key(self, ty: Term) -> Term:
        """The normal form of the type ty, which types compare by."""
        key = self._keys.get(ty)
        if key is None:
            key = self._keys[ty] = oracle_norm_type(self.ctx, ty)
        return key

    def option_table(self, ty: Term) -> tuple[Term, Term, tuple, tuple]:
        """(whnf(ty), its key, and the ways to build a term of type ty below
        size 4 and from size 4 on), stored in tables.  A way is a code
        repeated by its weight: a variable's index, in index order, or the
        name of a former or wrapper."""
        ty_w = whnf(ty)
        key = self.key(ty_w)
        options: list = []
        for i, (_, k) in enumerate(self.var_table()):
            if k == key:
                options += (i, i)
        options += _FORMER_OPTIONS.get(ty_w.__class__, ())
        options += ("app", "unlift")
        small = tuple(options)
        table = self.tables[ty] = (ty_w, key, small, small + ("redex",) * 5 + ("elim",) * 3)
        return table

    def var_table(self) -> tuple[tuple[Optional[Term], Optional[Term]], ...]:
        """(whnf, key) of each variable's type, index order; None where it
        raised OracleError."""
        if self._table is None:
            rows = []
            for i in range(len(self.ctx)):
                ty = self.ctx.lookup(i)
                try:
                    ty_w = whnf(ty)
                except OracleError:
                    ty_w = None
                try:
                    key = self.key(ty)
                except OracleError:
                    key = None
                rows.append((ty_w, key))
            self._table = tuple(rows)
        return self._table

    def pi_vars(self) -> list[tuple[int, Pi]]:
        """(index, whnf of its type) of each variable of a Π type, index order."""
        return [(i, w) for i, (w, _) in enumerate(self.var_table()) if isinstance(w, Pi)]


def _draws(n: int) -> tuple[tuple[int, int], ...]:
    """(i, the bits Random._randbelow_with_getrandbits draws for an index
    below i + 1) for each swap of a shuffle of n items, in order."""
    return tuple((i, (i + 1).bit_length()) for i in range(n - 1, 0, -1))


_DRAWS = tuple(_draws(n) for n in range(32))


def _shuffle(getrandbits: Callable[[int], int], x: list) -> None:
    """Shuffle x in place as random.Random.shuffle does, for the Random
    whose getrandbits this is: each index is drawn the way
    Random._randbelow_with_getrandbits draws it, so the permutation and the
    rng's state after it are the same, without a Python call per index."""
    n = len(x)
    for i, k in _DRAWS[n] if n < len(_DRAWS) else _draws(n):
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


class _Gen:
    def __init__(self, budget: GenBudget):
        self.budget = budget
        self.rng = random.Random(budget.seed)
        self.steps = 0

    def _spend(self) -> None:
        """Per-attempt work budget; keeps backtracking from blowing up."""
        self.steps -= 1
        if self.steps <= 0:
            raise NoInhabitantError("generation work budget exhausted")

    # -- types ---------------------------------------------------------

    def type_(self, scope: _Scope, size: int, max_level: int = 1) -> Term:
        """A type of level at most max_level."""
        options = ["bool", "bool", "bool"]
        if size >= 3:
            options += ["pi", "pi"]
        if size >= 2:
            options.append("lift")
        if max_level >= 1:
            options.append("u")
        u_vars = [i for i, (_, k) in enumerate(scope.var_table()) if isinstance(k, U) and k.level <= max_level]
        if u_vars:
            options += ["el", "el"]
        match self.rng.choice(options):
            case "bool":
                return Bool()
            case "pi":
                dom = self.type_(scope, size // 2, max_level)
                cod = self.type_(scope.extend(dom), size // 2, max_level)
                return Pi(dom, cod)
            case "lift":
                if max_level < 1:
                    return Bool()
                return Lift(self.type_(scope, size - 1, max_level - 1))
            case "u":
                return U(self.rng.randrange(max_level))
            case "el":
                return El(Var(self.rng.choice(u_vars)))
        raise AssertionError

    def type_at(self, scope: _Scope, size: int, level: int) -> Term:
        """A type of exactly the given level: universes are not cumulative."""
        if level == 0:
            return self.type_(scope, size, 0)
        options = ["u", "lift"]
        if size >= 3:
            options += ["pi", "pi"]
        u_vars = [i for i, (_, k) in enumerate(scope.var_table()) if isinstance(k, U) and k.level == level]
        if u_vars:
            options += ["el", "el"]
        match self.rng.choice(options):
            case "u":
                return U(level - 1)
            case "lift":
                return Lift(self.type_at(scope, size - 1, level - 1))
            case "pi":
                dom = self.type_at(scope, size // 2, level)
                return Pi(dom, self.type_at(scope.extend(dom), size // 2, level))
            case "el":
                return El(Var(self.rng.choice(u_vars)))
        raise AssertionError

    def context(self) -> Context:
        scope = _Scope(Context())
        for _ in range(self.rng.randint(0, self.budget.max_context_length)):
            scope = scope.extend(self.type_(scope, 4))
        return scope.ctx

    # -- terms ---------------------------------------------------------

    def term(self, scope: _Scope, ty: Term, size: int, depth: int = 0) -> Term:
        self._spend()
        if depth > 12:
            raise NoInhabitantError("generation recursion too deep")
        table = scope.tables.get(ty)
        if table is None:
            table = scope.option_table(ty)
        ty_w, key, small, large = table
        options = list(small if size < 4 else large)
        _shuffle(self.rng.getrandbits, options)
        for option in options[:4]:
            self._spend()
            try:
                match option:
                    case int():
                        return Var(option)
                    case "true":
                        return TrueTm()
                    case "false":
                        return FalseTm()
                    case "lam":
                        return Lam(self.term(scope.extend(ty_w.dom), ty_w.cod, size - 1, depth + 1))
                    case "code":
                        return Code(self.type_at(scope, max(1, size - 1), ty_w.level))
                    case "lift":
                        return LiftTm(self.term(scope, ty_w.ty, size - 1, depth + 1))
                    case "app":
                        return self._app_of_var(scope, key, size, depth)
                    case "unlift":
                        return self._unlift_of_var(scope, key)
                    case "redex":
                        return self._redex(scope, ty_w, size, depth)
                    case "elim":
                        return self._elim_wrapper(scope, ty_w, size, depth)
            except (NoInhabitantError, OracleError):
                continue
        raise NoInhabitantError("no term of type {} found", ty_w)

    def _redex(self, scope: _Scope, ty: Term, size: int, depth: int) -> Term:
        dom = self.rng.choice([Bool(), Pi(Bool(), Bool())])
        arg = self.term(scope, dom, max(1, size // 3), depth + 1)
        # the checker types redexes only when the argument is inferable
        oracle_infer(scope.ctx, arg)
        body = self.term(scope.extend(dom), shift(ty, 1), max(1, size - term_size(arg) - 3), depth + 1)
        return App(Lam(body), arg)

    def _elim_wrapper(self, scope: _Scope, ty: Term, size: int, depth: int) -> Term:
        scrut = self.term(scope, Bool(), max(1, size // 3), depth + 1)
        tcase = self.term(scope, ty, max(1, size // 3), depth + 1)
        fcase = self.term(scope, ty, max(1, size // 3), depth + 1)
        return ElimBool(shift(ty, 1), tcase, fcase, scrut)

    def _app_of_var(self, scope: _Scope, key: Term, size: int, depth: int) -> Term:
        candidates = scope.pi_vars()
        _shuffle(self.rng.getrandbits, candidates)
        for i, vty in candidates:
            arg = self.term(scope, vty.dom, max(1, size // 2), depth + 1)
            try:
                if scope.key(subst1(vty.cod, arg)) == key:
                    return App(Var(i), arg)
            except OracleError:
                continue
        raise NoInhabitantError("no applicable variable")

    def _unlift_of_var(self, scope: _Scope, key: Term) -> Term:
        for i, (vty, _) in enumerate(scope.var_table()):
            try:
                if isinstance(vty, Lift) and scope.key(vty.ty) == key:
                    return UnliftTm(Var(i))
            except OracleError:
                continue
        raise NoInhabitantError("no liftable variable")

    # -- normal forms ----------------------------------------------------

    def nf_at(self, scope: _Scope, ty: Term, depth: int) -> nbe.Nf:
        """A well-typed normal form in scope's context at the (normal) type ty."""
        self._spend()
        match ty:
            case Pi(dom, cod):
                return nbe.LamNf(self.nf_at(scope.extend(dom), cod, depth - 1))
            case Bool():
                opts = ["true", "false"]
                if depth >= 1 and len(scope.ctx) > 0:
                    opts += ["ne", "ne"]
                match self.rng.choice(opts):
                    case "true":
                        return nbe.TrueNf()
                    case "false":
                        return nbe.FalseNf()
                    case "ne":
                        try:
                            return nbe.NeAtBool(self.ne(scope, ty, depth))
                        except NoInhabitantError:
                            return self.rng.choice([nbe.TrueNf(), nbe.FalseNf()])
            case U(level):
                body = self.nf_type(scope, level, depth - 1)
                if isinstance(body, nbe.ElNf):
                    return nbe.NeAtU(body.ne)
                return nbe.CodeNf(body)
            case Lift(inner):
                return nbe.LiftTmNf(self.nf_at(scope, inner, depth - 1))
            case El(_):
                return nbe.NeAtEl(self.ne(scope, ty, depth))
        raise NoInhabitantError("cannot generate a normal form at {}", ty)

    def nf_type(self, scope: _Scope, level: int, depth: int) -> nbe.Nf:
        """A normal type of exactly the given level: universes are not cumulative."""
        options = ["bool", "bool"] if level == 0 else []
        if depth >= 2:
            options.append("pi")
        if level >= 1:
            options.append("lift")
        el_cands = []
        for i, (_, k) in enumerate(scope.var_table()):
            if k is None:  # nf_type does not skip such a variable: raise its error again
                scope.key(scope.ctx.lookup(i))
            if isinstance(k, U) and k.level == level:
                el_cands.append(i)
        if el_cands:
            options.append("el")
        match self.rng.choice(options):
            case "bool":
                return nbe.BoolNf()
            case "pi":
                dom = self.nf_type(scope, level, depth - 1)
                cod = self.nf_type(scope.extend(nbe.embed(dom)), level, depth - 1)
                return nbe.PiNf(dom, cod)
            case "lift":
                return nbe.LiftNf(self.nf_type(scope, level - 1, depth - 1))
            case "el":
                return nbe.ElNf(nbe.VarNe(self.rng.choice(el_cands)))
        raise AssertionError

    def ne(self, scope: _Scope, target: Term, depth: int) -> nbe.Ne:
        """A neutral of (normal) type target, by spining out from a variable."""
        self._spend()
        table = scope.var_table()
        for _ in range(4):
            order = list(range(len(table)))
            _shuffle(self.rng.getrandbits, order)
            for i in order:
                key = table[i][1]
                if key is None:
                    continue
                try:
                    result = self._spine(scope, nbe.VarNe(i), key, target, depth)
                except (NoInhabitantError, OracleError):
                    continue
                if result is not None:
                    return result
        raise NoInhabitantError("no neutral of type {} found", target)

    def _spine(
        self, scope: _Scope, ne: nbe.Ne, ty: Term, target: Term, depth: int
    ) -> Optional[nbe.Ne]:
        for _ in range(6):
            self._spend()
            if ty == target and (not isinstance(ty, Pi) or self.rng.random() < 0.5):
                return ne
            if depth <= 0:
                return None
            match ty:
                case Pi(dom, cod):
                    arg = self.nf_at(scope, dom, depth - 1)
                    ne = nbe.AppNe(ne, arg)
                    ty = scope.key(subst1(cod, nbe.embed(arg)))
                case Lift(inner):
                    ne = nbe.UnliftNe(ne)
                    ty = inner
                case Bool() if target.__class__ is El and target.code.__class__ is Var:
                    # eliminate into the target, El (Var i), via a constant motive
                    motive = nbe.ElNf(nbe.VarNe(target.code.ix + 1))
                    tcase = self.nf_at(scope, target, depth - 1)
                    fcase = self.nf_at(scope, target, depth - 1)
                    return nbe.ElimBoolNe(motive, tcase, fcase, ne)
                case _:
                    return None
        return None


def _attempts(budget: GenBudget, draw: Callable[[_Gen], T]) -> T:
    """draw's first success in 40 attempts of one generator, each with a
    fresh work budget; the last give-up if all 40 give up."""
    gen = _Gen(budget)
    last: Optional[Exception] = None
    for _ in range(40):
        gen.steps = _ATTEMPT_STEPS
        try:
            return draw(gen)
        except NoInhabitantError as e:
            last = e
    raise NoInhabitantError(str(last))


@depth_guarded
def gen_term(budget: GenBudget, ctx: Context, ty: Term) -> Term:
    """Deterministic from budget.seed; the result typechecks at ty.  A ty
    that is no type in ctx, or above the checker's universes, raises
    OracleError."""
    oracle_level(ctx, ty)
    root = _Scope(ctx)
    return _attempts(budget, lambda gen: gen.term(root, ty, budget.max_term_size))


@depth_guarded
def gen_nf(budget: GenBudget, ctx: Context, ty: Term) -> nbe.Nf:
    """A well-typed normal form; ty must be a normal type term, and raises
    OracleError as in gen_term when it is no type.  Where no attempt can
    succeed for want of a neutral, gives up without searching."""
    oracle_level(ctx, ty)
    target = _unreachable_neutral(ctx, ty)
    if target is not None:
        raise NoInhabitantError("no neutral of type {} found", target)
    root = _Scope(ctx)
    return _attempts(budget, lambda gen: gen.nf_at(root, ty, budget.max_term_size))


def _unreachable_neutral(ctx: Context, ty: Term) -> Optional[Term]:
    """The El type that ends the Pi/Lift descent of the normal type ty, when
    _Gen.nf_at would give up on it in every attempt; None when it might not.

    nf_at descends ty to that El type T in the extended context, then needs a
    neutral of T: a spine out of a variable.  ne catches every failure
    inside, so if no variable's type reaches T, every attempt ends in ne's
    "no neutral of type T found", unless the descent alone spends the
    attempt's budget.
    """
    spent = 2  # the budget nf_at at T and ne spend before ne tries a variable
    while not isinstance(ty, El):
        match ty:
            case Pi(dom, cod):
                ctx, ty = ctx.extend(dom), cod
            case Lift(inner):
                ty = inner
            case _:
                return None
        spent += 1
    if spent >= _ATTEMPT_STEPS:
        return None
    for i in range(len(ctx)):
        try:
            key = oracle_norm_type(ctx, ctx.lookup(i))
        except OracleError:
            continue  # ne skips such a variable
        if _spine_reaches(ctx, key, ty):
            return None
    return ty


def _spine_reaches(ctx: Context, ty: Term, target: Term) -> bool:
    """Whether _Gen._spine might reach the type target from a head of the
    normal type ty.  A codomain that depends on the argument counts as
    reaching; eliminating a Bool into target needs a neutral of target already.
    """
    while ty != target:
        match ty:
            case Pi(_, cod):
                if mentions(cod, 0):
                    return True
                try:
                    ty = oracle_norm_type(ctx, shift(cod, -1))
                except OracleError:
                    return False
            case Lift(inner):
                ty = inner
            case _:
                return False
    return True


def gen_context(budget: GenBudget) -> Context:
    return _Gen(budget).context()


@depth_guarded
def gen_closing_substitution(budget: GenBudget, ctx: Context) -> Substitution:
    """A substitution from the empty context into ctx, one generated closed
    term per entry."""
    chosen: list[Term] = []  # outermost first
    for j, entry in enumerate(ctx.entries):
        closed_ty = subst_with(entry, tuple(reversed(chosen)))
        chosen.append(gen_term(replace(budget, seed=budget.seed * 131 + j), Context(), closed_ty))
    return Substitution(Context(), ctx, tuple(reversed(chosen)))


@depth_guarded
def gen_renaming(budget: GenBudget, ctx: Context) -> Renaming:
    """A type-preserving renaming into ctx: its source interleaves fresh
    closed entries among the entries of ctx."""
    rng = random.Random(budget.seed)
    junk_pool = (Bool(), Pi(Bool(), Bool()), U(0))
    source_entries: list[Term] = []
    pos: list[int] = []  # position of each ctx entry within the source
    for j, entry in enumerate(ctx.entries):
        while rng.random() < 0.4:
            source_entries.append(rng.choice(junk_pool))
        cur = len(source_entries)

        def to_source(i: int, j: int = j, cur: int = cur) -> int:
            if i >= j:
                raise ScopeError(f"context entry {j} mentions variable {i}, out of range in the {j} entries before it")
            return cur - 1 - pos[j - 1 - i]

        source_entries.append(rename_with(entry, to_source))
        pos.append(cur)
    while rng.random() < 0.4:
        source_entries.append(rng.choice(junk_pool))
    m = len(source_entries)
    n = len(ctx)
    mapping = tuple(m - 1 - pos[n - 1 - i] for i in range(n))
    r = Renaming(Context(tuple(source_entries)), ctx, mapping)
    r.validate()
    return r


@depth_guarded
def gen_type(budget: GenBudget, ctx: Context) -> Term:
    return _Gen(budget).type_(_Scope(ctx), budget.max_term_size)
