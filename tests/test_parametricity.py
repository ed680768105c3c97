"""The unary parametricity translation on the universe fragment."""

import pytest

from sconekit.syntax import (
    App,
    Bool,
    Code,
    Context,
    El,
    Lam,
    Lift,
    LiftTm,
    Pi,
    TrueTm,
    U,
    Var,
    subst_with,
)
from sconekit import nbe, typecheck
from sconekit.parametricity import (
    UnsupportedFragmentError,
    param_family,
    param_term,
    shadow,
    translate,
)

CHURCH_ID_TYPE = Pi(U(0), Pi(El(Var(0)), El(Var(1))))
CHURCH_ID = Lam(Lam(Var(0)))


def test_identity_witness_is_the_four_lambda_identity():
    res = translate(CHURCH_ID, CHURCH_ID_TYPE)
    assert res.witness == Lam(Lam(Lam(Lam(Var(0)))))


def test_witness_retypechecks():
    res = translate(CHURCH_ID, CHURCH_ID_TYPE)
    typecheck.check(Context(), res.witness, res.witness_type)


def test_predicate_of_polymorphic_identity_type():
    # with the subject f in context, the family normalizes to
    # (A : U0) (A* : A -> U0) (a : A) (a* : A* a) -> A* (f A a)
    fam = param_family(CHURCH_ID_TYPE)
    ctx = Context().extend(CHURCH_ID_TYPE)
    expected = Pi(
        U(0),
        Pi(
            Pi(El(Var(0)), U(0)),
            Pi(
                El(Var(1)),
                Pi(
                    El(App(Var(1), Var(0))),
                    El(App(Var(2), App(App(Var(4), Var(3)), Var(1)))),
                ),
            ),
        ),
    )
    assert nbe.embed(nbe.norm_type(ctx, fam)) == expected


def test_booleans_are_out_of_fragment():
    with pytest.raises(UnsupportedFragmentError):
        translate(TrueTm(), Bool())
    with pytest.raises(UnsupportedFragmentError):
        param_family(Bool())


def test_shadow_doubles_free_indices_only():
    # free Var 2 under one local binder points past it at entry 1,
    # whose original copy sits at doubled index 2*1+1, plus the binder
    t = Lam(App(Var(0), Var(2)))
    assert shadow(t) == Lam(App(Var(0), Var(4)))


def test_code_translation_is_a_predicate():
    # code Bool is out of fragment, but code (El x) for x : U0 is in;
    # its witness abstracts over the subject element
    w = param_term(Code(El(Var(0))))
    assert isinstance(w, Lam) and isinstance(w.body, Code)


def test_lift_translation_retypechecks():
    t = Lam(LiftTm(Var(0)))
    ty = Pi(U(0), Lift(U(0)))
    res = translate(t, ty)
    typecheck.check(Context(), res.witness, res.witness_type)


def test_witnesses_of_identity_variants_typecheck_and_agree():
    # eta-expansions and redex-wrappers of the identity at varying depth;
    # their witnesses all normalize to the canonical four-lambda identity
    subjects = [
        CHURCH_ID,
        Lam(Lam(App(App(CHURCH_ID, Var(1)), Var(0)))),
        Lam(Lam(App(App(CHURCH_ID, Var(1)), App(App(CHURCH_ID, Var(1)), Var(0))))),
    ]
    canonical = Lam(Lam(Lam(Lam(Var(0)))))
    witness_ty = subst_with(param_family(CHURCH_ID_TYPE), (CHURCH_ID,))
    for subj in subjects:
        res = translate(subj, CHURCH_ID_TYPE)
        typecheck.check(Context(), res.witness, res.witness_type)
        assert typecheck.conv(Context(), witness_ty, res.witness, canonical)
