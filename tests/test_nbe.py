"""Normalization by evaluation: normal forms, eta-expansion, naturality."""

import dataclasses

import pytest

import reference_nbe as ref
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
from sconekit import nbe, oracle, syntax, typecheck
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
    VNe,
    embed,
    norm,
    norm_type,
    quote,
    quote_type,
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


def _compare_with_weakening_reference(ctx):
    """Both environments of ctx agree variable by variable; returns how many."""
    got, want = nbe.reflect_context(ctx), ref.reflect_context(ctx)
    assert len(got) == len(want) == len(ctx)
    for ix, (v, w) in enumerate(zip(got, want)):
        vty, wty = (nbe.eval_term(env, ctx.lookup(ix)) for env in (got, want))
        assert quote_type(vty) == quote_type(wty), (ctx, ix)
        assert quote(vty, v) == quote(wty, w), (ctx, ix)
        if isinstance(w, VNe):
            assert isinstance(v, VNe) and quote_type(v.vty) == quote_type(w.vty), (ctx, ix)
    return len(ctx)


def test_context_environment_agrees_with_weakening_reference():
    variables = defined = 0
    for seed in range(200):
        budget = oracle.GenBudget(seed=seed)
        ctx = oracle.gen_context(budget)
        variables += _compare_with_weakening_reference(ctx)
        small = oracle.GenBudget(seed=seed, max_term_size=6)  # keeps the test under 3 s
        try:
            ty = oracle.gen_type(small, ctx)
            ctx = ctx.define(ty, oracle.gen_term(small, ctx, ty))
        except oracle.NoInhabitantError:
            continue
        variables += _compare_with_weakening_reference(ctx)
        ctx = ctx.extend(oracle.gen_type(small, ctx))
        variables += _compare_with_weakening_reference(ctx)
        defined += 1
    assert defined >= 150 and variables >= 1000


def test_context_environment_is_built_without_restricting(monkeypatch):
    calls = {"restrict": 0, "eval_term": 0}
    for name in calls:
        original = getattr(nbe, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(nbe, name, counting)
    evals = []
    for n in (200, 400):
        calls.update(restrict=0, eval_term=0)
        assert norm(Context((Bool(),) * n), Bool(), Var(n - 1)) == NeAtBool(VarNe(n - 1))
        assert calls["restrict"] == 0
        evals.append(calls["eval_term"])
    assert evals[1] <= 2.2 * evals[0]


def test_node_classes_are_slotted_dataclasses():
    bases = (syntax.Term, nbe.Ne, nbe.Nf, nbe.Val)
    classes = [
        cls
        for module in (syntax, nbe)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, bases) and cls not in bases
    ]
    assert len(classes) >= 40
    for cls in classes:
        assert dataclasses.is_dataclass(cls), cls
        node = cls(*[None] * len(dataclasses.fields(cls)))
        assert not hasattr(node, "__dict__"), cls
