"""The reduction oracle and the deterministic generators."""

import hashlib
import random

import pytest

from sconekit.syntax import (
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
    TrueTm,
    U,
    UnliftTm,
    Var,
    term_size,
)
from sconekit import nbe, oracle, typecheck
from sconekit.models import show
from sconekit.oracle import (
    FuelExhaustedError,
    GenBudget,
    NoInhabitantError,
    OracleError,
    gen_nf,
    gen_renaming,
    gen_term,
    oracle_conv,
    oracle_norm,
    oracle_norm_type,
    reduce,
)

import generated
from counting import counting

NEG = Lam(ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))


def test_reduction_trace_records_rules():
    trace = reduce(App(NEG, TrueTm()))
    assert [s.rule for s in trace.steps] == ["beta", "elimBool-true"]
    assert trace.result == FalseTm()
    assert not trace.fuel_exhausted


def test_all_rules_fire():
    cases = {
        "beta": App(Lam(Var(0)), TrueTm()),
        "elimBool-true": ElimBool(Bool(), FalseTm(), TrueTm(), TrueTm()),
        "elimBool-false": ElimBool(Bool(), FalseTm(), TrueTm(), FalseTm()),
        "el-code": El(Code(Bool())),
        "code-el": Code(El(Var(0))),
        "lift-roundtrip": UnliftTm(LiftTm(TrueTm())),
    }
    for rule, t in cases.items():
        trace = reduce(t)
        assert trace.steps[0].rule == rule, rule


def test_positions_are_paths():
    t = Lam(App(Lam(Var(0)), TrueTm()))
    trace = reduce(t)
    assert trace.steps[0].position == (0,)  # under the outer binder


def test_fuel_exhaustion_is_loud():
    omega = App(Lam(App(Var(0), Var(0))), Lam(App(Var(0), Var(0))))
    trace = reduce(omega, fuel=50)
    assert trace.fuel_exhausted
    with pytest.raises(FuelExhaustedError):
        oracle.beta_normalize(omega, fuel=50)


def test_beta_normalize_answers_reduces_result_at_the_fuel_the_term_needs():
    """beta_normalize keeps no trace, but answers exactly where reduce does: at
    as many steps as reduce records, and not one fewer."""
    redexes = 0
    for seed in range(120):
        _, _, t = generated.term(seed)
        if t is None:
            continue
        trace = reduce(t)
        need = len(trace.steps)
        assert oracle.beta_normalize(t) == oracle.beta_normalize(t, fuel=need) == trace.result
        if need:
            with pytest.raises(FuelExhaustedError):
                oracle.beta_normalize(t, fuel=need - 1)
            redexes += 1
    assert redexes >= 20


def test_whnf_fuel_is_shared_with_nested_heads():
    # 20 nested elims over 100 identity redexes: 120 contractions in all
    t = TrueTm()
    for _ in range(100):
        t = App(Lam(Var(0)), t)
    for _ in range(20):
        t = ElimBool(Bool(), TrueTm(), FalseTm(), t)
    assert oracle.whnf(t, fuel=120) == TrueTm()
    with pytest.raises(FuelExhaustedError):
        oracle.whnf(t, fuel=119)


def test_oracle_norm_eta_expands():
    ctx = Context((Pi(Bool(), Bool()),))
    got = oracle_norm(ctx, Pi(Bool(), Bool()), Var(0))
    assert got == Lam(App(Var(1), Var(0)))


def test_unbound_variable_is_a_scope_error():
    with pytest.raises(ScopeError):
        oracle_norm(Context(), Bool(), Var(5))
    with pytest.raises(ScopeError):
        oracle_norm_type(Context((U(0),)), El(Var(1)))
    with pytest.raises(ScopeError):  # unfolding [x : Bool := true] lowers no variable
        oracle_norm(Context().define(Bool(), TrueTm()), Bool(), Var(1))


def test_oracle_conv():
    assert oracle_conv(Context(), Bool(), App(NEG, TrueTm()), FalseTm())
    assert not oracle_conv(Context(), Bool(), TrueTm(), FalseTm())


def test_norm_agrees_with_the_oracle_in_contexts_with_definitions():
    """NbE evaluates a definition and the oracle unfolds it; both answer alike."""
    ctx = Context().define(Bool(), TrueTm())
    assert typecheck.conv(ctx, Bool(), Var(0), TrueTm()) and oracle_conv(ctx, Bool(), Var(0), TrueTm())
    contexts = 0
    for seed in range(200):
        ctx = generated.term(seed)[0]
        small = GenBudget(seed=seed, max_term_size=6)
        try:
            ty = oracle.gen_type(small, ctx)
            ctx = ctx.define(ty, gen_term(small, ctx, ty))
            ctx = ctx.extend(oracle.gen_type(small, ctx))
            ty = oracle.gen_type(small, ctx)
            t = gen_term(small, ctx, ty)
        except NoInhabitantError:
            continue
        typecheck.check(ctx, t, ty)
        assert nbe.embed(nbe.norm(ctx, ty, t)) == oracle_norm(ctx, ty, t), (seed, ctx, ty, t)
        contexts += 1
    assert contexts >= 150


def _stuck_elims(n=3000):
    """elim (elim (... x) ...) ... in [x : Bool], n stuck elims deep."""
    t = Var(0)
    for _ in range(n):
        t = ElimBool(Bool(), TrueTm(), FalseTm(), t)
    return t


DEEP_CTX, DEEP = Context((Bool(),)), _stuck_elims()
DEEP_TYPE = El(ElimBool(U(0), Code(Bool()), Code(Bool()), DEEP))
PUBLIC_OPERATIONS = {
    "reduce": lambda: reduce(DEEP),
    "oracle_norm": lambda: oracle_norm(DEEP_CTX, Bool(), DEEP),
    "oracle_norm_type": lambda: oracle_norm_type(DEEP_CTX, DEEP_TYPE),
    "oracle_conv": lambda: oracle_conv(DEEP_CTX, Bool(), DEEP, TrueTm()),
}


@pytest.mark.parametrize("name", PUBLIC_OPERATIONS)
def test_deep_term_is_a_depth_error(name):
    with pytest.raises(DepthError, match="nested too deeply") as info:
        PUBLIC_OPERATIONS[name]()
    assert info.type is DepthError and info.value.__cause__ is None


def test_generated_terms_typecheck():
    produced = 0
    for seed in range(120):
        ctx, ty, t = generated.term(seed)
        typecheck.check_context(ctx)
        typecheck.wf_type(ctx, ty)
        if t is None:
            continue
        typecheck.check(ctx, t, ty)
        produced += 1
    assert produced >= 60


def test_generated_terms_respect_size_budget():
    for seed in range(200):
        assert term_size(generated.closed_bool(seed)) <= 9


def test_generator_is_deterministic():
    a = gen_term(GenBudget(seed=7), Context(), Bool())
    b = gen_term(GenBudget(seed=7), Context(), Bool())
    assert a == b


def _gen_outcome(budget, make):
    """(ctx, ty, output or give-up message) for one budget, as the gen workload draws it."""
    ctx = oracle.gen_context(budget)
    ty = oracle.gen_type(budget, ctx)
    try:
        if make is gen_nf:
            ty = oracle_norm_type(ctx, ty)
        out = make(budget, ctx, ty)
    except NoInhabitantError as e:
        out = "giveup:" + str(e)
    return ctx, ty, out


def test_generator_output_is_pinned():
    """Which contexts, types, terms and normal forms the seeds give is fixed:
    every seeded test and the frozen bench corpus rest on it."""
    h = hashlib.sha256()
    for s in range(100):
        nf_budget = GenBudget(max_term_size=5, max_context_length=3, seed=s)
        h.update(repr(_gen_outcome(GenBudget(seed=s), gen_term)).encode())
        h.update(repr(_gen_outcome(nf_budget, gen_nf)).encode())
    assert h.hexdigest() == "59e15a5ed287c93c15bea397f994d19c0486a6b85d0fffefa177a356e77489ac"


def test_generator_output_is_pinned_over_the_gen_workloads_seeds():
    """The rest of the gen workload's seeds, 100..399, are fixed the same way."""
    h = hashlib.sha256()
    for s in range(100, 400):
        nf_budget = GenBudget(max_term_size=5, max_context_length=3, seed=s)
        h.update(repr(_gen_outcome(GenBudget(seed=s), gen_term)).encode())
        h.update(repr(_gen_outcome(nf_budget, gen_nf)).encode())
    assert h.hexdigest() == "70c516b64601e6252c92a92bc0a0eb569fe10b4f2d77d4080d5acda383469b6e"


def test_shuffle_draws_as_the_rngs_own_shuffle():
    """The generators shuffle through getrandbits: the same permutation,
    and the rng left in the same state, as Random.shuffle."""
    for seed in range(200):
        for n in range(33):
            ours, theirs = random.Random(seed), random.Random(seed)
            xs, ys = list(range(n)), list(range(n))
            oracle._shuffle(ours.getrandbits, xs)
            theirs.shuffle(ys)
            assert xs == ys, (seed, n)
            assert ours.getstate() == theirs.getstate(), (seed, n)


@pytest.mark.parametrize("seed", [68, 369, 81])
def test_generator_looks_up_each_variable_once_per_context(seed):
    """The slowest gen seeds give up after a long search; each variable's
    type is weakened once per context, not once per search step."""
    budget = GenBudget(seed=seed)
    ctx = oracle.gen_context(budget)
    ty = oracle.gen_type(budget, ctx)
    with counting("syntax.Context.lookup") as calls, pytest.raises(NoInhabitantError):
        gen_term(budget, ctx, ty)
    assert 0 < calls["syntax.Context.lookup"] <= 1_000


@pytest.mark.parametrize("seed, term_calls", [(68, 6_638), (369, 6_100), (81, 4_344)])
def test_generator_finds_each_types_head_once_per_context(seed, term_calls):
    """The same slow searches take the same steps, and a step looks its type's
    head and options up in its context's scope: whnf and the option table's
    builder run once per context and type, not once per step."""
    budget = GenBudget(seed=seed)
    ctx = oracle.gen_context(budget)
    ty = oracle.gen_type(budget, ctx)
    counted = ("oracle._Gen.term", "oracle.whnf", "oracle._Scope.option_table")
    with counting(*counted) as calls, pytest.raises(NoInhabitantError):
        gen_term(budget, ctx, ty)
    assert calls["oracle._Gen.term"] == term_calls
    assert calls["oracle.whnf"] <= 100
    assert calls["oracle._Scope.option_table"] <= 100


@pytest.mark.parametrize("bounds", [{"max_term_size": 0}, {"max_context_length": 0}])
def test_a_generator_bound_below_one_is_a_value_error(bounds):
    with pytest.raises(ValueError, match="must be >= 1"):
        GenBudget(**bounds)


def test_a_pi_type_is_drawn_from_size_3_on():
    """type_at offers Π only from size 3: a domain and a codomain of size 1 each, and the Π."""

    def pis(size):
        draws = [oracle._Gen(GenBudget(seed=s)).type_at(oracle._Scope(Context()), size, 1) for s in range(100)]
        return sum(isinstance(ty, Pi) for ty in draws)

    assert pis(3) >= 1
    assert pis(2) == 0


def test_generator_calls_share_nothing():
    """A seed's outcomes are the same alone, run again, and between other
    seeds' calls: no generator state outlives a gen_* call."""

    def outcomes(seed):
        nf_budget = GenBudget(max_term_size=5, max_context_length=3, seed=seed)
        return _gen_outcome(GenBudget(seed=seed), gen_term), _gen_outcome(nf_budget, gen_nf)

    seeds = (68, 3, 81, 11)
    alone = {seed: outcomes(seed) for seed in seeds}
    assert outcomes(68) == alone[68]
    for seed in reversed(seeds):
        assert outcomes(seed) == alone[seed]
        assert outcomes(68) == alone[68]


def test_gen_nf_at_arrow_type_is_eta_long():
    nf = gen_nf(GenBudget(seed=1), Context(), Pi(Bool(), Bool()))
    assert isinstance(nf, nbe.LamNf)


def test_gen_nf_embeddings_typecheck():
    produced = 0
    for seed in range(120):
        item = generated.normal_form(seed)
        if item is None:
            continue
        ctx, ty, nf = item
        typecheck.check(ctx, nbe.embed(nf), ty)
        produced += 1
    assert produced >= 60


def test_gen_nf_at_a_universe_above_zero_is_well_typed():
    """A code at U1 is of a level-1 type: no universe holds Bool at U1."""
    for seed in range(200):
        budget = GenBudget(max_term_size=5, max_context_length=3, seed=seed)
        ctx = oracle.gen_context(budget)
        for ty in (U(1), Lift(U(0))):
            nf = gen_nf(budget, ctx, ty)
            typecheck.check(ctx, nbe.embed(nf), ty)
            assert nbe.norm(ctx, ty, nbe.embed(nf)) == nf


def test_gen_term_at_a_universe_above_zero_is_well_typed():
    """A code at U1 is of a level-1 type, in the empty context and in
    generated ones: no universe holds Bool at U1."""
    for seed in range(200):
        budget = GenBudget(max_term_size=5, max_context_length=3, seed=seed)
        for ctx in (Context(), oracle.gen_context(budget)):
            for ty in (U(1), Lift(U(0)), Pi(Bool(), U(1))):
                typecheck.check(ctx, gen_term(budget, ctx, ty), ty)


@pytest.mark.parametrize(
    "entries, ty",
    [
        ((U(0), Pi(U(0), El(Var(0)))), El(Var(1))),
        ((U(0), Lift(El(Var(0)))), El(Var(1))),
        ((U(0), Pi(Bool(), El(Var(1)))), El(Var(1))),
    ],
    ids=[
        "[A : U0, f : (B : U0) -> El B] |- El A",
        "[A : U0, x : Lift (El A)] |- El A",
        "[A : U0, g : Bool -> El A] |- El A",
    ],
)
def test_gen_nf_answers_where_a_variables_spine_reaches_the_target(entries, ty):
    ctx = Context(entries)
    nf = gen_nf(GenBudget(seed=0), ctx, ty)
    typecheck.check(ctx, nbe.embed(nf), ty)


@pytest.mark.parametrize(
    "entries, ty, message",
    [
        ((U(0), Bool()), El(Var(1)), "no neutral of type El(code=Var(ix=1)) found"),
        ((U(0),), Pi(U(0), El(Var(0))), "no neutral of type El(code=Var(ix=0)) found"),
        ((U(0), Bool()), Pi(Bool(), Lift(El(Var(2)))), "no neutral of type El(code=Var(ix=2)) found"),
    ],
    ids=[
        "[A : U0, b : Bool] |- El A",
        "[A : U0] |- (B : U0) -> El B",
        "[A : U0, b : Bool] |- Bool -> Lift (El A)",
    ],
)
def test_gen_nf_gives_up_without_searching_where_no_spine_reaches_the_target(entries, ty, message):
    with counting("oracle._Gen.ne") as calls, pytest.raises(NoInhabitantError) as info:
        gen_nf(GenBudget(seed=0), Context(entries), ty)
    assert str(info.value) == message
    assert calls["oracle._Gen.ne"] == 0


def test_gen_nf_gives_up_before_searching_only_where_the_search_gives_up():
    """Each budget gen_nf prunes gives up in all 40 attempts of the search, with the same message."""
    pruned = 0
    for seed in range(200):
        budget = GenBudget(max_term_size=3, seed=seed)
        ctx = oracle.gen_context(budget)
        ty = oracle_norm_type(ctx, oracle.gen_type(budget, ctx))
        target = oracle._unreachable_neutral(ctx, ty)
        if target is None:
            continue
        with pytest.raises(NoInhabitantError) as searched:
            oracle._attempts(budget, lambda gen: gen.nf_at(oracle._Scope(ctx), ty, budget.max_term_size))
        with pytest.raises(NoInhabitantError) as pruned_early:
            gen_nf(budget, ctx, ty)
        assert str(pruned_early.value) == str(searched.value) == f"no neutral of type {show(target)} found", seed
        pruned += 1
    assert pruned >= 10


@pytest.mark.parametrize(
    "entries, ty",
    [((), U(2)), ((), Lift(U(1))), ((), U(5)), ((Bool(),), El(Var(0)))],
    ids=["U2", "Lift U1", "U5", "[b : Bool] |- El b"],
)
@pytest.mark.parametrize("make", [gen_term, gen_nf])
def test_generators_refuse_what_is_no_type(entries, ty, make):
    """The kernel rejects each ty, so no output could typecheck at it."""
    ctx = Context(entries)
    with pytest.raises(typecheck.TypeCheckError):
        typecheck.wf_type(ctx, ty)
    with pytest.raises(OracleError) as info:
        make(GenBudget(), ctx, ty)
    assert info.type is OracleError


@pytest.mark.parametrize(
    "entries",
    [(El(Var(0)),), (Bool(), El(Var(5))), (Bool(), El(Var(1)))],
    ids=["El x0 first", "El x5 second", "El x1 second"],
)
def test_gen_renaming_of_an_ill_scoped_context_is_a_scope_error(entries):
    with pytest.raises(ScopeError, match="out of range"):
        gen_renaming(GenBudget(), Context(entries))


def test_uninhabited_type_fails():
    # El of a neutral code with nothing of that type in scope
    ctx = Context((U(0),))
    with pytest.raises(NoInhabitantError):
        gen_term(GenBudget(seed=0), ctx, El(Var(0)))


@pytest.mark.parametrize(
    "ty",
    [U(0), Lift(Bool()), El(Var(0)), Pi(El(Var(0)), Lift(Bool())), Pi(U(0), El(Var(0)))],
    ids=["U0", "Lift Bool", "El A", "El A -> Lift Bool", "(B : U0) -> El B"],
)
def test_oracle_reconstructs_the_universe_of_a_code(ty):
    ctx = Context((U(0),))  # [A : U0]
    assert oracle.oracle_infer(ctx, Code(ty)) == typecheck.infer(ctx, Code(ty))


def test_oracle_level_of_a_term_is_an_oracle_error():
    with pytest.raises(OracleError, match="is not a type"):
        oracle.oracle_level(Context(), TrueTm())


@pytest.mark.parametrize(
    "oracle_read, kernel_read, t",
    [
        (oracle.oracle_infer, typecheck.infer, Code(Lift(U(0)))),
        (oracle.oracle_level, typecheck.wf_type, U(2)),
        (oracle.oracle_level, typecheck.wf_type, Lift(U(1))),
        (oracle.oracle_infer, typecheck.infer, LiftTm(Code(U(0)))),
    ],
    ids=["code Lift U0", "U2", "Lift U1", "lift code U0"],
)
def test_oracle_stops_at_the_checkers_universe_bound(oracle_read, kernel_read, t):
    with pytest.raises(typecheck.LevelError):
        kernel_read(Context(), t)
    with pytest.raises(OracleError, match=f"exceeds the maximum universe level {typecheck.DEFAULT_MAX_LEVEL}"):
        oracle_read(Context(), t)


def test_oracle_infer_matches_kernel_up_to_conversion():
    agreed = 0
    for seed in range(80):
        ctx, _, t = generated.term(seed)
        if t is None:
            continue
        try:
            kernel_ty = typecheck.infer(ctx, t)
        except typecheck.TypeCheckError:
            continue
        oracle_ty = oracle.oracle_infer(ctx, t)
        assert typecheck.conv_types(ctx, kernel_ty, oracle_ty)
        agreed += 1
    assert agreed >= 20
