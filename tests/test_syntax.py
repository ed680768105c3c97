"""Renaming and substitution laws on raw syntax."""

from sconekit.syntax import (
    App,
    Bool,
    Code,
    Context,
    El,
    Lam,
    Pi,
    Renaming,
    ScopeError,
    Substitution,
    TrueTm,
    U,
    Var,
    mentions,
    rename,
    shift,
    subst,
    subst1,
    term_size,
)

import pytest

from sconekit import oracle

import generated


def test_shift_ignores_bound():
    t = Lam(App(Var(0), Var(1)))
    assert shift(t, 2) == Lam(App(Var(0), Var(3)))


def test_mentions_counts_binders():
    t = Lam(App(Var(0), Var(2)))  # fun y => y x1 under [x1, x0]
    assert mentions(t, 1) and not mentions(t, 0) and not mentions(t, 2)
    assert not mentions(Bool(), 0)


def test_subst1_under_binder():
    # (lam. x0 x1)[x0 := true] contracts the free variable only
    t = Lam(App(Var(0), Var(1)))
    assert subst1(t, TrueTm()) == Lam(App(Var(0), TrueTm()))


def test_swap_renaming():
    ctx = Context((Bool(), Bool()))
    r = Renaming(ctx, ctx, (1, 0))
    assert rename(r, App(Var(0), Var(1))) == App(Var(1), Var(0))
    r.validate()


def test_renaming_out_of_scope():
    r = Renaming(Context((Bool(),)), Context((Bool(),)), (0,))
    with pytest.raises(ScopeError):
        rename(r, Var(3))


def test_renaming_compose_is_function_composition():
    ctx3 = Context((Bool(), Bool(), Bool()))
    r1 = Renaming(ctx3, ctx3, (1, 2, 0))
    r2 = Renaming(ctx3, ctx3, (2, 0, 1))
    t = App(App(Var(0), Var(1)), Var(2))
    assert rename(r1.compose(r2), t) == rename(r1, rename(r2, t))


def test_weakening_renaming_validates():
    ctx = Context((Bool(), Pi(Bool(), Bool())))
    r = Renaming.weakening(ctx, Bool())
    r.validate()
    assert rename(r, Var(0)) == Var(1)


def test_substitution_compose():
    ctx = Context((Bool(),))
    s1 = Substitution(ctx, ctx, (Var(0),))
    s2 = Substitution.closing((TrueTm(),), ctx)
    t = App(Lam(Var(1)), Var(0))
    assert subst(s1.compose(s2), t) == subst(s2, subst(s1, t))


def test_context_lookup_weakens():
    ctx = Context((Bool(), Pi(Bool(), Var(0))))
    # entry mentioning an earlier variable comes back shifted past itself
    assert ctx.lookup(0) == Pi(Bool(), Var(0))
    assert ctx.lookup(1) == Bool()


def test_lookup_out_of_range():
    with pytest.raises(ScopeError):
        Context().lookup(0)


def test_context_unfolds_its_definitions():
    # [f : Bool -> Bool := fun x => x, y : Bool := f true, z : Bool] |- f y z
    ident = Lam(Var(0))
    ctx = Context().define(Pi(Bool(), Bool()), ident).define(Bool(), App(Var(0), TrueTm())).extend(Bool())
    assert list(ctx.bindings()) == [(Pi(Bool(), Bool()), ident), (Bool(), App(Var(0), TrueTm())), (Bool(), None)]
    done, t = ctx.unfold(App(App(Var(2), Var(1)), Var(0)))
    assert t == App(App(ident, App(ident, TrueTm())), Var(0))
    assert done == Context(ctx.entries, (ident, App(ident, TrueTm())))  # every entry stays
    # [A : U0 := code Bool, x : El A] |- El A: the entry's type unfolds too
    code = Code(Bool())
    ctx = Context().define(U(0), code).extend(El(Var(0)))
    assert ctx.unfold(El(Var(1))) == (Context((U(0), El(code)), (code,)), El(code))
    plain, t = Context((Bool(),)), Var(5)
    assert plain.unfold(t) == (plain, t) and plain.unfold(t)[0] is plain
    with pytest.raises(ScopeError):
        Context((Bool(),), (None, TrueTm())).bindings()


def test_subst_commutes_with_formers_on_generated_terms():
    # substitution lemma, checked against independent per-former rebuilding
    checked = 0
    for seed in range(60):
        ctx, _, t = generated.term(seed)
        if len(ctx) == 0 or t is None:
            continue
        try:
            s = oracle.gen_closing_substitution(oracle.GenBudget(seed=seed), ctx)
        except oracle.NoInhabitantError:
            continue
        if isinstance(t, App):
            assert subst(s, t) == App(subst(s, t.fn), subst(s, t.arg))
        if isinstance(t, Lam):
            assert isinstance(subst(s, t), Lam)
        # closing then weakening at the top is the identity on closed results
        assert shift(subst(s, t), 0) == subst(s, t)
        checked += 1
    assert checked >= 20


def test_term_size():
    assert term_size(App(Lam(Var(0)), TrueTm())) == 4
