"""Normalization by evaluation: normal forms, eta-expansion, naturality."""

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
    ScopeError,
    TrueTm,
    U,
    UnliftTm,
    Var,
    rename,
    shift,
)
from sconekit import nbe, oracle, typecheck
from sconekit.nbe import (
    AppNe,
    BoolNf,
    CodeNf,
    FalseNf,
    LamNf,
    LiftTmNf,
    NeAtBool,
    NeAtU,
    PiNf,
    TrueNf,
    VarNe,
    embed,
    norm,
    norm_type,
)

NEG = Lam(ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))


def test_negation_of_true_normalizes_to_false():
    assert norm(Context(), Bool(), App(NEG, TrueTm())) == FalseNf()


def test_identity_function_is_eta_long():
    ctx = Context((Pi(Bool(), Bool()),))
    # a bare function variable eta-expands to a lambda
    assert norm(ctx, Pi(Bool(), Bool()), Var(0)) == LamNf(
        NeAtBool(AppNe(VarNe(1), NeAtBool(VarNe(0))))
    )


def test_code_of_el_collapses():
    ctx = Context((U(0),))
    assert norm(ctx, U(0), Code(El(Var(0)))) == NeAtU(VarNe(0))


def test_el_of_code_collapses():
    assert norm_type(Context(), El(Code(Bool()))) == BoolNf()


def test_lift_roundtrip_normalizes_away():
    assert norm(Context(), Bool(), UnliftTm(LiftTm(TrueTm()))) == TrueNf()


def test_neutral_at_lift_eta_expands():
    ctx = Context((Lift(Bool()),))
    got = norm(ctx, Lift(Bool()), Var(0))
    assert isinstance(got, LiftTmNf)
    assert embed(got) == LiftTm(UnliftTm(Var(0)))


def test_type_normal_forms():
    assert norm_type(Context(), Pi(Bool(), El(Code(Bool())))) == PiNf(BoolNf(), BoolNf())


def test_normal_form_embedding_typechecks():
    count = 0
    for seed in range(80):
        budget = oracle.GenBudget(seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.gen_type(budget, ctx)
            t = oracle.gen_term(budget, ctx, ty)
            typecheck.check(ctx, t, ty)
        except (oracle.NoInhabitantError, typecheck.TypeCheckError):
            continue
        nf = norm(ctx, ty, t)
        typecheck.check(ctx, embed(nf), ty)
        count += 1
    assert count >= 30


def test_norm_is_idempotent_on_its_image():
    for seed in range(60):
        budget = oracle.GenBudget(seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.gen_type(budget, ctx)
            t = oracle.gen_term(budget, ctx, ty)
            typecheck.check(ctx, t, ty)
        except (oracle.NoInhabitantError, typecheck.TypeCheckError):
            continue
        nf = norm(ctx, ty, t)
        assert norm(ctx, ty, embed(nf)) == nf


def test_naturality_for_a_swap_renaming():
    from sconekit.syntax import Renaming

    ctx = Context((Bool(), Bool()))
    r = Renaming(ctx, ctx, (1, 0))
    t = ElimBool(Bool(), Var(1), TrueTm(), Var(0))
    lhs = nbe.rename_nf(norm(ctx, Bool(), t), lambda i: r.mapping[i])
    rhs = norm(ctx, Bool(), rename(r, t))
    assert lhs == rhs


def test_open_elim_stays_neutral_with_quoted_parts():
    ctx = Context((Bool(),))
    t = ElimBool(Bool(), App(Lam(Var(0)), TrueTm()), FalseTm(), Var(0))
    got = norm(ctx, Bool(), t)
    # the true branch normalizes inside the stuck eliminator
    assert embed(got) == ElimBool(Bool(), TrueTm(), FalseTm(), Var(0))


def test_norm_rejects_ill_scoped_variable():
    with pytest.raises(ScopeError):
        nbe.norm(Context(), Bool(), Var(0))


def test_defined_variable_normalizes_to_its_value():
    assert norm(Context((Bool(),), (TrueTm(),)), Bool(), Var(0)) == TrueNf()
    # a defined function applies: [f : Bool -> Bool := neg] |- f true ~> false
    neg = Lam(ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))
    ctx = Context().define(Pi(Bool(), Bool()), neg)
    assert norm(ctx, Bool(), App(Var(0), TrueTm())) == FalseNf()


def test_declared_index_counts_later_definitions():
    # [x : Bool, y : Bool := true]: x stays Var 1 in the normal form
    ctx = Context((Bool(),)).define(Bool(), TrueTm())
    assert norm(ctx, Bool(), Var(1)) == NeAtBool(VarNe(1))
    # [x : Bool, y : Bool := true, z : Bool]: x is Var 2, z is Var 0
    ctx = ctx.extend(Bool())
    assert ctx.values == (None, TrueTm())
    t = ElimBool(Bool(), Var(2), Var(0), Var(1))
    assert norm(ctx, Bool(), t) == NeAtBool(VarNe(2))
    # a definition that mentions an earlier declared variable
    ctx = Context((Bool(),)).define(Bool(), Var(0)).extend(Bool())
    assert norm(ctx, Bool(), Var(1)) == NeAtBool(VarNe(2))
