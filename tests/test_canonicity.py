"""Glued evaluation and the canonicity decision procedure."""

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
    LiftTm,
    Pi,
    TrueTm,
    U,
    UnliftTm,
    Var,
)
from sconekit import canonicity, oracle, typecheck
from sconekit.canonicity import (
    BoolWitness,
    CanonicityError,
    GluingDisplayedModel,
    canon,
    glued_eval,
)

NEG = Lam(ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))


def test_worked_example():
    assert canon(App(NEG, TrueTm())) == BoolWitness.IS_FALSE
    assert canon(App(NEG, FalseTm())) == BoolWitness.IS_TRUE


def test_canon_rejects_open_terms():
    with pytest.raises(typecheck.ScopeError):
        canon(Var(0))


def test_canon_rejects_non_boolean():
    with pytest.raises(typecheck.TypeCheckError):
        canon(Lam(Var(0)))


def test_witness_projection_is_convertible():
    # witness IsTrue implies conv with true, IsFalse with false
    for seed in range(200):
        t = oracle.gen_term(oracle.GenBudget(seed=seed), Context(), Bool())
        w = canon(t)
        canonical = TrueTm() if w == BoolWitness.IS_TRUE else FalseTm()
        assert typecheck.conv(Context(), Bool(), t, canonical)


def test_nested_redexes_glue():
    # booleans flow through two beta-redexes before the eliminator fires
    t = App(App(Lam(Lam(App(NEG, Var(0)))), TrueTm()), FalseTm())
    assert canon(t) == BoolWitness.IS_TRUE


def test_universe_codes_glue():
    # elimBool under El of an eliminated code
    motive = El(ElimBool(U(0), Code(Bool()), Code(Bool()), Var(0)))
    t = App(Lam(TrueTm()), TrueTm())
    assert canon(t) == BoolWitness.IS_TRUE


def test_lift_witnesses_unwrap():
    t = UnliftTm(LiftTm(FalseTm()))
    assert canon(t) == BoolWitness.IS_FALSE


def test_glued_eval_first_projection_is_substitution():
    from sconekit.canonicity import GluedValue

    env = (GluedValue(TrueTm(), BoolWitness.IS_TRUE),)
    gv = glued_eval(env, ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))
    assert gv.term == ElimBool(Bool(), FalseTm(), TrueTm(), TrueTm())
    assert gv.sem == BoolWitness.IS_FALSE


def test_displayed_model_beta():
    d = GluingDisplayedModel()
    body = lambda term, sem: sem
    f = d.lam_d(body)
    assert d.app_d(f, TrueTm(), BoolWitness.IS_TRUE) == BoolWitness.IS_TRUE


def test_displayed_model_elim():
    d = GluingDisplayedModel()
    assert (
        d.elim_bool_d(None, "t", "f", TrueTm(), d.true_d()) == "t"
    )
    assert (
        d.elim_bool_d(None, "t", "f", FalseTm(), d.false_d()) == "f"
    )


def test_canon_of_nary_application_never_closes(monkeypatch):
    # (fun x1 ... xn => x1) true false ... false
    def fail_close(env, t):
        raise AssertionError("canon built a first projection")

    monkeypatch.setattr(canonicity, "_close", fail_close)
    for n in (100, 200):
        t = Var(n - 1)
        for _ in range(n):
            t = Lam(t)
        for i in range(n):
            t = App(t, TrueTm() if i == 0 else FalseTm())
        assert canon(t) == BoolWitness.IS_TRUE


def test_glued_eval_of_closed_term_projects_to_itself():
    for seed in range(200):
        t = oracle.gen_term(oracle.GenBudget(seed=seed), Context(), Bool())
        assert glued_eval((), t).term == t
