"""Independent verification machinery.

A fuel-bounded, leftmost-outermost reduction evaluator with type-directed
eta-expansion, plus deterministic generators for well-typed terms and
normal forms.  Nothing here goes through the NbE normalizer; this module
is the second route of every cross-check.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Optional

from . import nbe
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
    shift,
    subst1,
    term_size,
)

DEFAULT_FUEL = 10_000


def default_fuel() -> int:
    return int(os.environ.get("SCONEKIT_FUEL", DEFAULT_FUEL))


class OracleError(Exception):
    pass


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


_CHILD_FIELDS = {
    App: ("fn", "arg"),
    Lam: ("body",),
    Pi: ("dom", "cod"),
    ElimBool: ("motive", "tcase", "fcase", "scrut"),
    El: ("code",),
    Code: ("ty",),
    Lift: ("ty",),
    LiftTm: ("tm",),
    UnliftTm: ("tm",),
}


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


def step(t: Term) -> Optional[tuple[Term, tuple[int, ...], str]]:
    """One leftmost-outermost contraction, with its position and rule name."""
    r = root_step(t)
    if r is not None:
        return r[0], (), r[1]
    fields = _CHILD_FIELDS.get(type(t))
    if not fields:
        return None
    for i, name in enumerate(fields):
        sub = step(getattr(t, name))
        if sub is not None:
            new_child, pos, rule = sub
            replaced = {name: new_child}
            rebuilt = type(t)(**{f: replaced.get(f, getattr(t, f)) for f in fields})
            return rebuilt, (i,) + pos, rule
    return None


def reduce(t: Term, fuel: Optional[int] = None) -> ReductionTrace:
    """Reduce to beta-normal form, recording each contraction."""
    if fuel is None:
        fuel = default_fuel()
    steps: list[ReductionStep] = []
    for _ in range(fuel):
        s = step(t)
        if s is None:
            return ReductionTrace(tuple(steps), t, False)
        t, pos, rule = s
        steps.append(ReductionStep(pos, rule))
    if step(t) is None:
        return ReductionTrace(tuple(steps), t, False)
    return ReductionTrace(tuple(steps), t, True)


def beta_normalize(t: Term, fuel: Optional[int] = None) -> Term:
    trace = reduce(t, fuel)
    if trace.fuel_exhausted:
        raise FuelExhaustedError(
            f"no normal form within {fuel if fuel is not None else default_fuel()} steps"
        )
    return trace.result


def whnf(t: Term, fuel: Optional[int] = None) -> Term:
    """Weak head normal form, enough to expose Pi / Bool / U / Lift / El heads."""
    if fuel is None:
        fuel = default_fuel()
    for _ in range(fuel):
        r = root_step(t)
        if r is not None:
            t = r[0]
            continue
        match t:
            case App(f, a):
                f2 = whnf(f, fuel)
                if f2 == f:
                    return t
                t = App(f2, a)
            case ElimBool(m, t1, t2, s):
                s2 = whnf(s, fuel)
                if s2 == s:
                    return t
                t = ElimBool(m, t1, t2, s2)
            case El(c):
                c2 = whnf(c, fuel)
                if c2 == c:
                    return t
                t = El(c2)
            case Code(a):
                a2 = whnf(a, fuel)
                if a2 == a:
                    return t
                t = Code(a2)
            case UnliftTm(x):
                x2 = whnf(x, fuel)
                if x2 == x:
                    return t
                t = UnliftTm(x2)
            case LiftTm(x):
                x2 = whnf(x, fuel)
                if x2 == x:
                    return t
                t = LiftTm(x2)
            case _:
                return t
    raise FuelExhaustedError("whnf ran out of fuel")


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
            fty = whnf(oracle_infer(ctx, f))
            if not isinstance(fty, Pi):
                raise OracleError(f"application head has non-Pi type {fty}")
            return subst1(fty.cod, a)
        case ElimBool(m, _, _, s):
            return subst1(m, s)
        case LiftTm(x):
            return Lift(oracle_infer(ctx, x))
        case UnliftTm(x):
            ity = whnf(oracle_infer(ctx, x))
            if not isinstance(ity, Lift):
                raise OracleError(f"unlift of a term of non-Lift type {ity}")
            return ity.ty
        case Code(a):
            return U(oracle_level(ctx, a))
    raise OracleError(f"cannot reconstruct a type for {t!r}")


def oracle_level(ctx: Context, ty: Term) -> int:
    match whnf(ty):
        case Bool():
            return 0
        case Pi(d, c):
            return max(oracle_level(ctx, d), oracle_level(ctx.extend(d), c))
        case U(level):
            return level + 1
        case El(c):
            cty = whnf(oracle_infer(ctx, c))
            if isinstance(cty, U):
                return cty.level
            raise OracleError(f"El of a non-code of type {cty}")
        case Lift(a):
            return oracle_level(ctx, a) + 1
    raise OracleError(f"{ty} is not a type")


# ---------------------------------------------------------------------------
# Eta expansion (post-hoc, type-directed)


def _eta(ctx: Context, ty: Term, t: Term) -> Term:
    ty = whnf(ty)
    match ty:
        case Pi(dom, cod):
            body = t.body if isinstance(t, Lam) else App(shift(t, 1), Var(0))
            return Lam(_eta(ctx.extend(dom), cod, body))
        case Bool():
            if isinstance(t, (TrueTm, FalseTm)):
                return t
            return _eta_neutral(ctx, t)[0]
        case U(_):
            # neutrals at a universe stay bare: Code(El c) contracts to c
            if isinstance(t, Code):
                return Code(_eta_type(ctx, t.ty))
            return _eta_neutral(ctx, t)[0]
        case Lift(inner):
            if isinstance(t, LiftTm):
                return LiftTm(_eta(ctx, inner, t.tm))
            return LiftTm(_eta(ctx, inner, UnliftTm(t)))
        case El(_):
            return _eta_neutral(ctx, t)[0]
    raise OracleError(f"{ty} is not a type")


def _eta_neutral(ctx: Context, t: Term) -> tuple[Term, Term]:
    """Eta-expand the arguments of a neutral spine; return it with its type."""
    match t:
        case Var(ix):
            return t, ctx.lookup(ix)
        case App(f, a):
            f2, fty = _eta_neutral(ctx, f)
            fty = whnf(fty)
            if not isinstance(fty, Pi):
                raise OracleError(f"application head has non-Pi type {fty}")
            return App(f2, _eta(ctx, fty.dom, a)), subst1(fty.cod, a)
        case ElimBool(m, t1, t2, s):
            s2, _ = _eta_neutral(ctx, s)
            m2 = _eta_type(ctx.extend(Bool()), m)
            return (
                ElimBool(
                    m2,
                    _eta(ctx, subst1(m, TrueTm()), t1),
                    _eta(ctx, subst1(m, FalseTm()), t2),
                    s2,
                ),
                subst1(m, s),
            )
        case UnliftTm(x):
            x2, xty = _eta_neutral(ctx, x)
            xty = whnf(xty)
            if not isinstance(xty, Lift):
                raise OracleError(f"unlift of a term of non-Lift type {xty}")
            return UnliftTm(x2), xty.ty
    raise OracleError(f"{t!r} is not neutral")


def _eta_type(ctx: Context, ty: Term) -> Term:
    ty = whnf(ty)
    match ty:
        case Bool() | U(_):
            return ty
        case Pi(d, c):
            d2 = _eta_type(ctx, d)
            return Pi(d2, _eta_type(ctx.extend(d2), c))
        case El(c):
            return El(_eta_neutral(ctx, beta_normalize(c))[0])
        case Lift(a):
            return Lift(_eta_type(ctx, a))
    raise OracleError(f"{ty} is not a type")


# ---------------------------------------------------------------------------
# Public oracle operations


def oracle_norm(ctx: Context, ty: Term, t: Term, fuel: Optional[int] = None) -> Term:
    """Beta-normalize, then eta-expand along ty.  Independent of the NbE path."""
    return _eta(ctx, ty, beta_normalize(t, fuel))


def oracle_norm_type(ctx: Context, ty: Term, fuel: Optional[int] = None) -> Term:
    return _eta_type(ctx, beta_normalize(ty, fuel))


def oracle_conv(ctx: Context, ty: Term, a: Term, b: Term, fuel: Optional[int] = None) -> bool:
    return oracle_norm(ctx, ty, a, fuel) == oracle_norm(ctx, ty, b, fuel)


# ---------------------------------------------------------------------------
# Deterministic generators


@dataclass(frozen=True)
class GenBudget:
    max_term_size: int = 9
    max_context_length: int = 3
    universe_max: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.max_term_size, self.max_context_length, self.universe_max) < 1:
            raise ValueError("all generator bounds must be >= 1")


def _type_key(ctx: Context, ty: Term) -> Term:
    return oracle_norm_type(ctx, ty)


class _Gen:
    def __init__(self, budget: GenBudget):
        self.budget = budget
        self.rng = random.Random(budget.seed)
        self.steps = 0
        self._key_cache: dict = {}

    def _spend(self) -> None:
        """Per-attempt work budget; keeps backtracking from blowing up."""
        self.steps -= 1
        if self.steps <= 0:
            raise NoInhabitantError("generation work budget exhausted")

    def key(self, ctx: Context, ty: Term) -> Term:
        k = (ctx.entries, ty)
        hit = self._key_cache.get(k)
        if hit is None:
            hit = self._key_cache[k] = _type_key(ctx, ty)
        return hit

    # -- types ---------------------------------------------------------

    def type_(self, ctx: Context, size: int, max_level: Optional[int] = None) -> Term:
        if max_level is None:
            max_level = self.budget.universe_max
        options = ["bool", "bool", "bool"]
        if size >= 3:
            options += ["pi", "pi"]
        if size >= 2:
            options.append("lift")
        if max_level >= 1:
            options.append("u")
        u_vars = []
        for i in range(len(ctx)):
            try:
                if isinstance(self.key(ctx, ctx.lookup(i)), U):
                    u_vars.append(i)
            except OracleError:
                pass
        if u_vars:
            options += ["el", "el"]
        match self.rng.choice(options):
            case "bool":
                return Bool()
            case "pi":
                dom = self.type_(ctx, size // 2, max_level)
                cod = self.type_(ctx.extend(dom), size // 2, max_level)
                return Pi(dom, cod)
            case "lift":
                if max_level < 1:
                    return Bool()
                return Lift(self.type_(ctx, size - 1, max_level - 1))
            case "u":
                return U(self.rng.randrange(max_level))
            case "el":
                return El(Var(self.rng.choice(u_vars)))
        raise AssertionError

    def context(self, length: Optional[int] = None) -> Context:
        if length is None:
            length = self.rng.randint(0, self.budget.max_context_length)
        ctx = Context()
        for _ in range(length):
            ctx = ctx.extend(self.type_(ctx, 4))
        return ctx

    # -- terms ---------------------------------------------------------

    def term(self, ctx: Context, ty: Term, size: int, depth: int = 0) -> Term:
        self._spend()
        if depth > 12:
            raise NoInhabitantError("generation recursion too deep")
        ty_w = whnf(ty)
        key = self.key(ctx, ty_w)
        thunks = []

        def add(weight, fn):
            thunks.extend([fn] * weight)

        for i in range(len(ctx)):
            try:
                if self.key(ctx, ctx.lookup(i)) == key:
                    add(2, lambda i=i: Var(i))
            except OracleError:
                continue
        match ty_w:
            case Bool():
                add(2, lambda: TrueTm())
                add(2, lambda: FalseTm())
            case Pi(dom, cod):
                add(6, lambda: Lam(self.term(ctx.extend(dom), cod, size - 1, depth + 1)))
            case U(level):
                add(4, lambda: Code(self.type_(ctx, max(1, size - 1), level)))
            case Lift(inner):
                add(4, lambda: LiftTm(self.term(ctx, inner, size - 1, depth + 1)))
        # neutral-producing and redex-producing wrappers
        add(1, lambda: self._app_of_var(ctx, key, size, depth))
        add(1, lambda: self._unlift_of_var(ctx, key))
        if size >= 4:
            add(5, lambda: self._redex(ctx, ty_w, size, depth))
            add(3, lambda: self._elim_wrapper(ctx, ty_w, size, depth))
        self.rng.shuffle(thunks)
        for thunk in thunks[:4]:
            self._spend()
            try:
                return thunk()
            except (NoInhabitantError, OracleError):
                continue
        raise NoInhabitantError(f"no term of type {ty_w} found")

    def _redex(self, ctx: Context, ty: Term, size: int, depth: int) -> Term:
        dom = self.rng.choice([Bool(), Pi(Bool(), Bool())])
        arg = self.term(ctx, dom, max(1, size // 3), depth + 1)
        # the checker types redexes only when the argument is inferable
        oracle_infer(ctx, arg)
        body = self.term(ctx.extend(dom), shift(ty, 1), max(1, size - term_size(arg) - 3), depth + 1)
        return App(Lam(body), arg)

    def _elim_wrapper(self, ctx: Context, ty: Term, size: int, depth: int) -> Term:
        scrut = self.term(ctx, Bool(), max(1, size // 3), depth + 1)
        tcase = self.term(ctx, ty, max(1, size // 3), depth + 1)
        fcase = self.term(ctx, ty, max(1, size // 3), depth + 1)
        return ElimBool(shift(ty, 1), tcase, fcase, scrut)

    def _app_of_var(self, ctx: Context, key: Term, size: int, depth: int) -> Term:
        candidates = []
        for i in range(len(ctx)):
            try:
                vty = whnf(ctx.lookup(i))
            except OracleError:
                continue
            if isinstance(vty, Pi):
                candidates.append((i, vty))
        self.rng.shuffle(candidates)
        for i, vty in candidates:
            arg = self.term(ctx, vty.dom, max(1, size // 2), depth + 1)
            try:
                if self.key(ctx, subst1(vty.cod, arg)) == key:
                    return App(Var(i), arg)
            except OracleError:
                continue
        raise NoInhabitantError("no applicable variable")

    def _unlift_of_var(self, ctx: Context, key: Term) -> Term:
        for i in range(len(ctx)):
            try:
                vty = whnf(ctx.lookup(i))
                if isinstance(vty, Lift) and self.key(ctx, vty.ty) == key:
                    return UnliftTm(Var(i))
            except OracleError:
                continue
        raise NoInhabitantError("no liftable variable")

    # -- normal forms ----------------------------------------------------

    def nf(self, ctx: Context, ty: Term, depth: int) -> nbe.Nf:
        """A well-typed normal form at the (normal) type ty."""
        self._spend()
        match ty:
            case Pi(dom, cod):
                return nbe.LamNf(self.nf(ctx.extend(dom), cod, depth - 1))
            case Bool():
                opts = ["true", "false"]
                if depth >= 1 and len(ctx) > 0:
                    opts += ["ne", "ne"]
                match self.rng.choice(opts):
                    case "true":
                        return nbe.TrueNf()
                    case "false":
                        return nbe.FalseNf()
                    case "ne":
                        try:
                            return nbe.NeAtBool(self.ne(ctx, ty, depth))
                        except NoInhabitantError:
                            return self.rng.choice([nbe.TrueNf(), nbe.FalseNf()])
            case U(level):
                body = self.nf_type(ctx, level, depth - 1)
                if isinstance(body, nbe.ElNf):
                    return nbe.NeAtU(body.ne)
                return nbe.CodeNf(body)
            case Lift(inner):
                return nbe.LiftTmNf(self.nf(ctx, inner, depth - 1))
            case El(_):
                return nbe.NeAtEl(self.ne(ctx, ty, depth))
        raise NoInhabitantError(f"cannot generate a normal form at {ty}")

    def nf_type(self, ctx: Context, level: int, depth: int) -> nbe.Nf:
        options = ["bool", "bool"]
        if depth >= 2:
            options.append("pi")
        if level >= 1:
            options.append("lift")
        el_cands = [
            i
            for i in range(len(ctx))
            if isinstance(self.key(ctx, ctx.lookup(i)), U)
            and self.key(ctx, ctx.lookup(i)).level == level
        ]
        if el_cands:
            options.append("el")
        match self.rng.choice(options):
            case "bool":
                return nbe.BoolNf()
            case "pi":
                dom = self.nf_type(ctx, level, depth - 1)
                cod = self.nf_type(ctx.extend(nbe.embed(dom)), level, depth - 1)
                return nbe.PiNf(dom, cod)
            case "lift":
                return nbe.LiftNf(self.nf_type(ctx, level - 1, depth - 1))
            case "el":
                return nbe.ElNf(nbe.VarNe(self.rng.choice(el_cands)))
        raise AssertionError

    def ne(self, ctx: Context, target: Term, depth: int) -> nbe.Ne:
        """A neutral of (normal) type target, by spining out from a variable."""
        target_key = target
        self._spend()
        for _ in range(4):
            order = list(range(len(ctx)))
            self.rng.shuffle(order)
            for i in order:
                try:
                    result = self._spine(ctx, nbe.VarNe(i), self.key(ctx, ctx.lookup(i)), target_key, depth)
                except (NoInhabitantError, OracleError):
                    continue
                if result is not None:
                    return result
        raise NoInhabitantError(f"no neutral of type {target} found")

    def _spine(
        self, ctx: Context, ne: nbe.Ne, ty: Term, target: Term, depth: int
    ) -> Optional[nbe.Ne]:
        for _ in range(6):
            self._spend()
            if ty == target and (not isinstance(ty, Pi) or self.rng.random() < 0.5):
                return ne
            if depth <= 0:
                return None
            match ty:
                case Pi(dom, cod):
                    arg = self.nf(ctx, dom, depth - 1)
                    ne = nbe.AppNe(ne, arg)
                    ty = self.key(ctx, subst1(cod, nbe.embed(arg)))
                case Lift(inner):
                    ne = nbe.UnliftNe(ne)
                    ty = inner
                case Bool():
                    # eliminate into the target via a constant motive
                    motive = _nf_of_normal_type(shift(target, 1))
                    if motive is None:
                        return None
                    tcase = self.nf(ctx, target, depth - 1)
                    fcase = self.nf(ctx, target, depth - 1)
                    return nbe.ElimBoolNe(motive, tcase, fcase, ne)
                case _:
                    return None
        return None


def _nf_of_normal_type(ty: Term) -> Optional[nbe.Nf]:
    """Convert an unambiguous normal type term into an Nf; None if ambiguous."""
    match ty:
        case Bool():
            return nbe.BoolNf()
        case U(level):
            return nbe.UNf(level)
        case Pi(d, c):
            dn, cn = _nf_of_normal_type(d), _nf_of_normal_type(c)
            return nbe.PiNf(dn, cn) if dn is not None and cn is not None else None
        case Lift(a):
            an = _nf_of_normal_type(a)
            return nbe.LiftNf(an) if an is not None else None
        case El(Var(ix)):
            return nbe.ElNf(nbe.VarNe(ix))
    return None


def gen_term(budget: GenBudget, ctx: Context, ty: Term) -> Term:
    """Deterministic from budget.seed; the result typechecks at ty."""
    gen = _Gen(budget)
    last: Optional[Exception] = None
    for _ in range(40):
        gen.steps = 400
        try:
            return gen.term(ctx, ty, budget.max_term_size)
        except NoInhabitantError as e:
            last = e
    raise NoInhabitantError(str(last))


def gen_nf(budget: GenBudget, ctx: Context, ty: Term) -> nbe.Nf:
    """A well-typed normal form; ty must be a normal type term."""
    gen = _Gen(budget)
    last: Optional[Exception] = None
    for _ in range(40):
        gen.steps = 400
        try:
            return gen.nf(ctx, ty, budget.max_term_size)
        except NoInhabitantError as e:
            last = e
    raise NoInhabitantError(str(last))


def gen_context(budget: GenBudget) -> Context:
    return _Gen(budget).context()


def gen_closing_substitution(budget: GenBudget, ctx: Context) -> "Substitution":
    """A substitution from the empty context into ctx, one generated closed
    term per entry."""
    from .syntax import Substitution, subst_with

    chosen: list[Term] = []  # outermost first
    for j, entry in enumerate(ctx.entries):
        closed_ty = subst_with(entry, tuple(reversed(chosen)))
        t = gen_term(
            GenBudget(
                max_term_size=budget.max_term_size,
                max_context_length=budget.max_context_length,
                universe_max=budget.universe_max,
                seed=budget.seed * 131 + j,
            ),
            Context(),
            closed_ty,
        )
        chosen.append(t)
    return Substitution(Context(), ctx, tuple(reversed(chosen)))


def gen_renaming(budget: GenBudget, ctx: Context) -> "Renaming":
    """A type-preserving renaming into ctx: its source interleaves fresh
    closed entries among the entries of ctx."""
    from .syntax import Renaming, rename_with

    rng = random.Random(budget.seed)
    junk_pool = (Bool(), Pi(Bool(), Bool()), U(0))
    source_entries: list[Term] = []
    pos: list[int] = []  # position of each ctx entry within the source
    for j, entry in enumerate(ctx.entries):
        while rng.random() < 0.4:
            source_entries.append(rng.choice(junk_pool))
        cur = len(source_entries)
        source_entries.append(
            rename_with(entry, lambda i, j=j, cur=cur: cur - 1 - pos[j - 1 - i])
        )
        pos.append(cur)
    while rng.random() < 0.4:
        source_entries.append(rng.choice(junk_pool))
    m = len(source_entries)
    n = len(ctx)
    mapping = tuple(m - 1 - pos[n - 1 - i] for i in range(n))
    r = Renaming(Context(tuple(source_entries)), ctx, mapping)
    r.validate()
    return r


def gen_type(budget: GenBudget, ctx: Context) -> Term:
    return _Gen(budget).type_(ctx, budget.max_term_size)
