"""The reduction oracle and the deterministic generators."""

import pytest

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
    TrueTm,
    U,
    UnliftTm,
    Var,
    term_size,
)
from sconekit import nbe, oracle, typecheck
from sconekit.oracle import (
    FuelExhaustedError,
    GenBudget,
    NoInhabitantError,
    gen_nf,
    gen_term,
    oracle_conv,
    oracle_norm,
    reduce,
)

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


def test_fuel_env_override(monkeypatch):
    monkeypatch.setenv("SCONEKIT_FUEL", "123")
    assert oracle.default_fuel() == 123


def test_oracle_norm_eta_expands():
    ctx = Context((Pi(Bool(), Bool()),))
    got = oracle_norm(ctx, Pi(Bool(), Bool()), Var(0))
    assert got == Lam(App(Var(1), Var(0)))


def test_oracle_conv():
    assert oracle_conv(Context(), Bool(), App(NEG, TrueTm()), FalseTm())
    assert not oracle_conv(Context(), Bool(), TrueTm(), FalseTm())


def test_generated_terms_typecheck():
    produced = 0
    for seed in range(120):
        budget = GenBudget(seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.gen_type(budget, ctx)
            typecheck.check_context(ctx)
            typecheck.wf_type(ctx, ty)
            t = gen_term(budget, ctx, ty)
        except NoInhabitantError:
            continue
        typecheck.check(ctx, t, ty)
        produced += 1
    assert produced >= 60


def test_generated_terms_respect_size_budget():
    for seed in range(200):
        t = gen_term(GenBudget(max_term_size=9, seed=seed), Context(), Bool())
        assert term_size(t) <= 9


def test_generator_is_deterministic():
    a = gen_term(GenBudget(seed=7), Context(), Bool())
    b = gen_term(GenBudget(seed=7), Context(), Bool())
    assert a == b


def test_gen_nf_at_arrow_type_is_eta_long():
    nf = gen_nf(GenBudget(seed=1), Context(), Pi(Bool(), Bool()))
    assert isinstance(nf, nbe.LamNf)


def test_gen_nf_embeddings_typecheck():
    produced = 0
    for seed in range(120):
        budget = GenBudget(max_term_size=5, seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.oracle_norm_type(ctx, oracle.gen_type(budget, ctx))
            nf = gen_nf(budget, ctx, ty)
        except (NoInhabitantError, oracle.OracleError):
            continue
        typecheck.check(ctx, nbe.embed(nf), ty)
        produced += 1
    assert produced >= 60


def test_uninhabited_type_fails():
    # El of a neutral code with nothing of that type in scope
    ctx = Context((U(0),))
    with pytest.raises(NoInhabitantError):
        gen_term(GenBudget(seed=0), ctx, El(Var(0)))


def test_oracle_infer_matches_kernel_up_to_conversion():
    agreed = 0
    for seed in range(80):
        budget = GenBudget(seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.gen_type(budget, ctx)
            t = gen_term(budget, ctx, ty)
            kernel_ty = typecheck.infer(ctx, t)
        except (NoInhabitantError, typecheck.TypeCheckError):
            continue
        oracle_ty = oracle.oracle_infer(ctx, t)
        assert typecheck.conv_types(ctx, kernel_ty, oracle_ty)
        agreed += 1
    assert agreed >= 20
