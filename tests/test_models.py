"""The generic evaluator and the set-valued standard model."""

import pickle
import random

import pytest

from sconekit.syntax import (
    Bool,
    ElimBool,
    FalseTm,
    Lam,
    Pi,
    ScopeError,
    TrueTm,
    U,
    Var,
    shift,
    subst,
)
from sconekit import canonicity, nbe, oracle, typecheck
from sconekit.models import (
    SHOWN,
    SBool,
    SPi,
    SU,
    STANDARD,
    elements,
    eval_context,
    eval_substitution,
    eval_term,
    eval_type,
    show,
    types_equal,
    values_equal,
)

import generated


def test_booleans_evaluate_to_python_booleans():
    assert eval_term(STANDARD, (), TrueTm()) is True
    assert eval_term(STANDARD, (), FalseTm()) is False


@pytest.mark.parametrize("ix", [5, 3, -1])
def test_variable_out_of_range_names_the_environment_length(ix):
    with pytest.raises(ScopeError) as info:
        eval_term(nbe.NBE, (nbe.VBool(),) * 3, Var(ix))
    assert str(info.value) == f"variable {ix} out of range in environment of length 3"


def _closure(*env):
    """The NbE value of `fun y => x`, where x is the outermost value of env, or y if env is empty."""
    return nbe.eval_term(env, Lam(Var(len(env))))


def test_a_pickled_closure_keeps_its_environment():
    # the copy's environment still ends in the empty environment, so its
    # length and every variable read walk it as they walk the original's
    value = _closure(nbe.VTrue(), nbe.VFalse())
    copy = pickle.loads(pickle.dumps(value))
    assert len(copy.clo.env) == 2 and copy.clo.env == value.clo.env
    assert nbe.apply_val(copy, nbe.VBool()) == nbe.VTrue()
    assert nbe.apply_val(pickle.loads(pickle.dumps(_closure())), nbe.VFalse()) == nbe.VFalse()


def test_a_pickled_value_is_equal_to_its_original():
    """A closure holds its model, which pickles as its module's instance."""
    value = _closure(nbe.VTrue(), nbe.VFalse())
    assert pickle.loads(pickle.dumps(value)) == value
    for model in (STANDARD, nbe.NBE, canonicity.GLUED):
        assert pickle.loads(pickle.dumps(model)) is model


def test_closures_over_equal_environments_are_equal():
    a, b = _closure(nbe.VTrue(), nbe.VFalse()), _closure(nbe.VTrue(), nbe.VFalse())
    assert a.clo.env is not b.clo.env
    assert a == b and hash(a) == hash(b)
    assert a != _closure(nbe.VFalse(), nbe.VFalse())


def test_a_closure_shows_its_environment_outermost_first():
    assert repr(_closure(nbe.VTrue(), nbe.VFalse())) == (
        "VLam(clo=Clo(model=NbeModel(), env=Env(VTrue(), VFalse()), body=Var(ix=2)))"
    )
    assert repr(_closure()) == "VLam(clo=Clo(model=NbeModel(), env=Env(), body=Var(ix=0)))"


def test_show_prints_a_repr_of_exactly_shown_characters_whole():
    text = "a" * (SHOWN - 2)
    assert len(repr(text)) == SHOWN and show(text) == repr(text)


def test_show_prints_a_one_tuple_with_its_comma():
    assert show((1,)) == "(1,)"


def test_elim_bool_computes():
    t = ElimBool(Bool(), FalseTm(), TrueTm(), TrueTm())
    assert eval_term(STANDARD, (), t) is False


def test_function_space_enumeration():
    fns = elements(SPi(SBool(), lambda _: SBool()))
    assert len(fns) == 4  # Bool -> Bool
    images = sorted((f(True), f(False)) for f in fns)
    assert images == [(False, False), (False, True), (True, False), (True, True)]


def test_universe_elements_are_type_descriptors():
    codes = elements(SU(0))
    assert any(isinstance(c, SBool) for c in codes)


def test_el_of_code_is_identity():
    ty = eval_type(STANDARD, (), Pi(U(0), Bool()))
    assert isinstance(ty, SPi)
    # applying the codomain to a code gives Bool back
    assert types_equal(ty.cod(SBool()), SBool())


def test_eval_context_enumerates_dependently():
    envs = eval_context(STANDARD, (Bool(), Bool()))
    assert len(envs) == 4


def test_substitution_law_sampled():
    passed = 0
    for seed in range(120):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        typecheck.check(ctx, t, ty)
        try:
            s = oracle.gen_closing_substitution(oracle.GenBudget(seed=seed), ctx)
        except oracle.NoInhabitantError:
            continue
        lhs = eval_term(STANDARD, (), subst(s, t))
        rhs = eval_term(STANDARD, eval_substitution(STANDARD, (), s), t)
        sty = eval_type(STANDARD, (), subst(s, ty))
        assert values_equal(sty, lhs, rhs)
        passed += 1
    assert passed >= 40


def test_context_extension_preserves_existing_values():
    passed = 0
    for seed in range(80):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        typecheck.check(ctx, t, ty)
        envs = eval_context(STANDARD, ctx.entries)
        if not envs:
            continue
        env = envs[seed % len(envs)]
        sty = eval_type(STANDARD, env, ty)
        base = eval_term(STANDARD, env, t)
        for a in elements(SBool()):
            assert values_equal(sty, eval_term(STANDARD, env + (a,), shift(t, 1)), base)
        passed += 1
    assert passed >= 30


def test_beta_eta_sampled():
    rng = random.Random(0)
    pi = SPi(SBool(), lambda _: SBool())
    for _ in range(200):
        f = rng.choice(elements(pi))
        a = rng.choice([True, False])
        assert values_equal(SBool(), STANDARD.app(STANDARD.lam(f), a), f(a))
        assert values_equal(pi, STANDARD.lam(lambda x: STANDARD.app(f, x)), f)


def test_model_agrees_with_canonicity_on_closed_booleans():
    from sconekit.canonicity import BoolWitness, canon

    for seed in range(150):
        t = generated.closed_bool(seed)
        want = canon(t) == BoolWitness.IS_TRUE
        assert eval_term(STANDARD, (), t) is want
