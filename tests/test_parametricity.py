"""The unary parametricity translation on the universe fragment."""

import pytest

import generated
import reference_parametricity as ref
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
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    subst_with,
)
from sconekit import nbe, typecheck
from sconekit.parametricity import (
    ParametricityError,
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


def church(n):
    """fun A f x => f (f (... x)), n applications, and its type."""
    body = Var(0)
    for _ in range(n):
        body = App(Var(1), body)
    return Lam(Lam(Lam(body))), Pi(U(0), Pi(Pi(El(Var(0)), El(Var(1))), Pi(El(Var(1)), El(Var(2)))))


def lifted_church(n):
    """fun A f x => f (lift (f (lift ... x))): every argument's shadow passes a LiftTm."""
    body = Var(0)
    for _ in range(n):
        body = App(Var(1), LiftTm(body))
    return Lam(Lam(Lam(body))), Pi(U(0), Pi(Pi(Lift(El(Var(0))), El(Var(1))), Pi(El(Var(1)), El(Var(2)))))


def pi_chain(n):
    """fun B1 b1 ... Bn bn => bn : (B1 : U0) -> El B1 -> ... -> (Bn : U0) -> El Bn -> El Bn."""
    t, ty = Var(0), El(Var(1))
    for _ in range(n):
        t, ty = Lam(Lam(t)), Pi(U(0), Pi(El(Var(0)), ty))
    return t, ty


CLOSED = [church(n) for n in (0, 1, 2, 5, 30)] + [lifted_church(n) for n in (1, 3)] + [pi_chain(n) for n in (1, 2, 20)] + [
    (Lam(Lam(LiftTm(LiftTm(Var(0))))), Pi(U(0), Pi(El(Var(0)), Lift(Lift(El(Var(1))))))),
    (Lam(Lam(UnliftTm(Var(0)))), Pi(U(0), Pi(Lift(El(Var(0))), El(Var(1))))),
    (Lam(Code(Pi(El(Var(0)), El(Var(1))))), Pi(U(0), U(0))),
    (Lam(LiftTm(Code(El(Var(0))))), Pi(U(0), Lift(U(0)))),
]
OPEN_TERMS = [
    App(Var(3), Lam(App(Var(0), Var(2)))),
    App(App(Var(0), UnliftTm(App(Var(2), Var(5)))), Code(Pi(El(Var(1)), Lift(El(App(Var(4), Var(0))))))),
    Lam(Code(Lift(Pi(El(Var(0)), El(Var(3)))))),
    TrueTm(),
    App(Var(0), ElimBool(Bool(), TrueTm(), FalseTm(), Var(1))),
    U(0),
    Pi(U(0), El(Var(0))),
]
OPEN_TYPES = [
    Pi(El(Var(2)), Lift(El(App(Var(1), Var(0))))),
    Lift(Pi(U(0), Pi(El(Var(0)), El(Var(3))))),
    Pi(El(Var(0)), Bool()),
    Lam(Var(0)),
    Var(1),
]


def _outcome(translation, x):
    """translation(x), or the class and message of the ParametricityError it raises."""
    try:
        return translation(x)
    except ParametricityError as err:
        return err.__class__, str(err)


def _agree(translation, reference, x):
    """Whether translation and its frozen reference agree on x; in-fragment is whether neither raised."""
    got, want = _outcome(translation, x), _outcome(reference, x)
    assert got == want, x
    return isinstance(want, Term)


def test_translation_matches_the_frozen_reference_on_generated_items():
    counts = dict.fromkeys(("types", "terms", "entries"), 0)
    for seed in range(400):
        ctx, ty, t = generated.term(seed)
        counts["types"] += _agree(param_family, ref.param_family, ty)
        counts["entries"] += sum(_agree(param_family, ref.param_family, entry) for entry in ctx.entries)
        if t is not None:
            counts["terms"] += _agree(param_term, ref.param_term, t)
            assert shadow(t) == ref.shadow(t)
    assert counts["types"] >= 91 and counts["terms"] >= 41 and counts["entries"] >= 102, counts


@pytest.mark.parametrize("t", OPEN_TERMS + [t for t, _ in CLOSED])
def test_param_term_matches_the_frozen_reference(t):
    _agree(param_term, ref.param_term, t)
    assert shadow(t) == ref.shadow(t)


@pytest.mark.parametrize("ty", OPEN_TYPES + [ty for _, ty in CLOSED])
def test_param_family_matches_the_frozen_reference(ty):
    _agree(param_family, ref.param_family, ty)
    assert shadow(ty) == ref.shadow(ty)


@pytest.mark.parametrize(("t", "ty"), CLOSED)
def test_translate_matches_the_frozen_reference(t, ty):
    res = translate(t, ty)
    assert res.witness == ref.param_term(t)
    assert res.witness_type == ref.witness_type(t, ty)


def test_church_numeral_shadows_are_built_once():
    """Each argument of f (f (... x)) reuses the shadow its enclosing application built."""
    t, _ = church(3)
    w = param_term(t).body.body.body.body.body.body
    shadows = w.fn.arg
    assert w.arg.fn.arg is shadows.arg and w.arg.arg.fn.arg is shadows.arg.arg


def _pi_spine(ty):
    """The number of Pi-types along ty's codomains, counted in a loop."""
    n = 0
    while isinstance(ty, Pi):
        ty, n = ty.cod, n + 1
    return n


def test_long_pi_chains_translate():
    """A Pi costs the translation a constant number of frames, so param_family
    answers on 400 of them and translate, which re-checks, on 300."""
    assert _pi_spine(param_family(pi_chain(200)[1])) == 800
    assert _pi_spine(translate(*pi_chain(150)).witness_type) == 600
