"""Kernel typechecker behaviour."""

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
    rename,
)
from sconekit import oracle, typecheck
from sconekit.typecheck import (
    LevelError,
    NotInferableError,
    TypeMismatchError,
    check,
    check_context,
    conv,
    conv_types,
    infer,
    wf_type,
)

NEG = Lam(ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))


def test_infer_true():
    assert infer(Context(), TrueTm()) == Bool()


def test_apply_non_function_is_rejected():
    with pytest.raises(TypeMismatchError, match="not a Π-type"):
        infer(Context(), App(TrueTm(), FalseTm()))


def test_redex_with_inferable_argument_infers():
    assert infer(Context(), App(Lam(Var(0)), TrueTm())) == Bool()


def test_check_identity_lambda():
    check(Context(), Lam(Var(0)), Pi(Bool(), Bool()))


def test_check_true_against_function_type_fails():
    with pytest.raises(TypeMismatchError):
        check(Context(), TrueTm(), Pi(Bool(), Bool()))


def test_check_negation():
    check(Context(), NEG, Pi(Bool(), Bool()))


def test_bare_lambda_not_inferable():
    with pytest.raises(NotInferableError):
        infer(Context(), Lam(Var(0)))


def test_universe_levels_are_bounded():
    assert wf_type(Context(), U(0)) == 1
    with pytest.raises(LevelError):
        wf_type(Context(), U(2))
    with pytest.raises(LevelError):
        infer(Context(), Code(U(1)))


def test_el_code_roundtrip_in_types():
    # El (code Bool) converts to Bool
    assert conv_types(Context(), El(Code(Bool())), Bool())


def test_lift_rules():
    ctx = Context()
    assert infer(ctx, LiftTm(TrueTm())) == Lift(Bool())
    assert infer(ctx, UnliftTm(LiftTm(TrueTm()))) == Bool()
    check(ctx, LiftTm(TrueTm()), Lift(Bool()))
    with pytest.raises(TypeMismatchError):
        infer(ctx, UnliftTm(TrueTm()))


def test_elim_bool_motive_instantiation():
    # motive selecting different types per branch
    motive = ElimBool(U(0), Code(Bool()), Code(Pi(Bool(), Bool())), Var(0))
    t = ElimBool(El(motive), TrueTm(), Lam(Var(0)), TrueTm())
    assert conv_types(Context(), infer(Context(), t), Bool())


def test_dependent_application():
    # f : (A : U0) -> El A -> El A  applied to a code and an element
    ctx = Context((Pi(U(0), Pi(El(Var(0)), El(Var(1)))),))
    t = App(App(Var(0), Code(Bool())), TrueTm())
    assert conv_types(ctx, infer(ctx, t), Bool())


def test_conversion_includes_beta():
    assert conv(Context(), Bool(), App(Lam(Var(0)), TrueTm()), TrueTm())


def test_conversion_distinguishes_booleans():
    assert not conv(Context(), Bool(), TrueTm(), FalseTm())


def test_type_preservation_under_renaming():
    preserved = 0
    for seed in range(80):
        budget = oracle.GenBudget(seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.gen_type(budget, ctx)
            t = oracle.gen_term(budget, ctx, ty)
            check(ctx, t, ty)
        except (oracle.NoInhabitantError, typecheck.TypeCheckError):
            continue
        r = oracle.gen_renaming(oracle.GenBudget(seed=seed + 1), ctx)
        check(r.source, rename(r, t), rename(r, ty))
        preserved += 1
    assert preserved >= 30


def test_check_context_rejects_bad_entry():
    with pytest.raises(typecheck.TypeCheckError):
        check_context(Context((TrueTm(),)))


def test_infer_result_checks():
    for seed in range(60):
        budget = oracle.GenBudget(seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.gen_type(budget, ctx)
            t = oracle.gen_term(budget, ctx, ty)
            inferred = infer(ctx, t)
        except (oracle.NoInhabitantError, typecheck.TypeCheckError):
            continue
        check(ctx, t, inferred)


def test_check_rejects_ill_scoped_type():
    with pytest.raises((typecheck.ScopeError, typecheck.TypeCheckError)):
        check(Context(), TrueTm(), Var(3))


def test_check_rejects_term_as_type():
    with pytest.raises(typecheck.TypeCheckError):
        check(Context(), Lam(Var(0)), TrueTm())


def _projection(n):
    """fun x1 ... xn => x1 and its type Bool^n -> Bool."""
    t, ty = Var(n - 1), Bool()
    for _ in range(n):
        t, ty = Lam(t), Pi(Bool(), ty)
    return t, ty


def test_check_normalizes_expected_type_a_fixed_number_of_times(monkeypatch):
    calls = []
    norm_type = typecheck.norm_type

    def counting_norm_type(ctx, ty):
        calls.append(ty)
        return norm_type(ctx, ty)

    monkeypatch.setattr(typecheck, "norm_type", counting_norm_type)
    counts = []
    for n in (30, 60):
        calls.clear()
        check(Context(), *_projection(n))
        counts.append(len(calls))
    assert counts[0] == counts[1]
