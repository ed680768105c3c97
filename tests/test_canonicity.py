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
    Lift,
    LiftTm,
    Pi,
    ScopeError,
    TrueTm,
    U,
    UnliftTm,
    Var,
)
from sconekit import oracle, typecheck
from sconekit.models import STANDARD, eval_term
from sconekit.canonicity import (
    BoolWitness,
    CanonicityError,
    GluedValue,
    canon,
    glued_eval,
)

from conftest import bench_module
import generated

families = bench_module("families")
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
        t = generated.closed_bool(seed)
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
    assert canon(ElimBool(motive, TrueTm(), FalseTm(), TrueTm())) == BoolWitness.IS_TRUE
    assert canon(ElimBool(motive, TrueTm(), FalseTm(), FalseTm())) == BoolWitness.IS_FALSE


def test_lift_witnesses_unwrap():
    t = UnliftTm(LiftTm(FalseTm()))
    assert canon(t) == BoolWitness.IS_FALSE


def test_glued_eval_first_projection_is_substitution():
    from sconekit.canonicity import GluedValue

    env = (GluedValue(TrueTm(), BoolWitness.IS_TRUE),)
    gv = glued_eval(env, ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))
    assert gv.term == ElimBool(Bool(), FalseTm(), TrueTm(), TrueTm())
    assert gv.sem == BoolWitness.IS_FALSE


def test_canon_of_nary_application_never_closes(monkeypatch):
    def fail_read(*args):
        raise AssertionError("canon read a first projection")

    init = GluedValue.__init__

    def unreadable(self, term, sem):
        init(self, term, sem)
        self.read = fail_read

    monkeypatch.setattr(GluedValue, "term", property(fail_read))
    monkeypatch.setattr(GluedValue, "__init__", unreadable)
    for n in (100, 200):
        assert canon(families.nary(n)) == BoolWitness.IS_TRUE


def test_canon_of_long_nary_application():
    # its redexes are bound as definitions, without recursion per argument
    assert canon(families.nary(600)) == BoolWitness.IS_TRUE


def test_glued_eval_of_closed_term_projects_to_itself():
    for seed in range(200):
        t = generated.closed_bool(seed)
        assert glued_eval((), t).term == t
    # closed terms at closed Pi, U and Lift types bind variables and eliminate them
    binders = 0
    for seed in range(300):
        budget = oracle.GenBudget(seed=seed)
        ty = oracle.gen_type(budget, Context())
        if not isinstance(ty, (Pi, U, Lift)):
            continue
        try:
            t = oracle.gen_term(budget, Context(), ty)
        except oracle.NoInhabitantError:
            continue
        assert glued_eval((), t).term == t
        binders += "Var(" in repr(t)
    assert binders >= 50
    # a witness applied to a glued value: the body with the value substituted
    gv = glued_eval((), NEG).sem(GluedValue(TrueTm(), BoolWitness.IS_TRUE))
    assert gv.term == ElimBool(Bool(), FalseTm(), TrueTm(), TrueTm())
    assert gv.sem is BoolWitness.IS_FALSE


def test_out_of_range_variable_is_a_scope_error():
    with pytest.raises(ScopeError):
        eval_term(STANDARD, (True, False), Var(2))
    with pytest.raises(ScopeError):
        eval_term(STANDARD, (True, False), Var(4))
    with pytest.raises(ScopeError):
        glued_eval((), Var(0))


@pytest.mark.parametrize(
    "fn", [TrueTm(), Bool(), Code(Bool()), LiftTm(TrueTm())], ids=["true", "Bool", "code", "lift"]
)
def test_glued_application_of_a_non_function_is_a_canonicity_error(fn):
    with pytest.raises(CanonicityError, match="no function witness"):
        glued_eval((), App(fn, TrueTm()))


@pytest.mark.parametrize(
    "term, message",
    [
        (El(TrueTm()), "code did not evaluate to a glued type"),
        (UnliftTm(TrueTm()), "unlift of a term carrying no lifted witness"),
    ],
    ids=["El", "unlift"],
)
def test_glued_eval_of_a_wrong_shaped_value_is_a_canonicity_error(term, message):
    with pytest.raises(CanonicityError, match=message):
        glued_eval((), term)
