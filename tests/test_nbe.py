"""Normalization by evaluation: normal forms, eta-expansion, naturality."""

import dataclasses

import pytest

import generated
import reference_nbe as ref
from counting import counting
from sconekit.surface import parse_file_contents, resolve_term, resolve_type
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
)
from sconekit import models, nbe, oracle, syntax, typecheck
from sconekit.canonicity import canon
from sconekit.nbe import (
    AppNe,
    BoolNf,
    CodeNf,
    ElimBoolNe,
    ElNf,
    FalseNf,
    LamNf,
    LiftTmNf,
    NeAtBool,
    NeAtEl,
    NeAtU,
    PiNf,
    TrueNf,
    UNf,
    UnliftNe,
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


_TERM_FORMER = {
    VarNe: Var,
    AppNe: App,
    ElimBoolNe: ElimBool,
    UnliftNe: UnliftTm,
    LamNf: Lam,
    TrueNf: TrueTm,
    FalseNf: FalseTm,
    CodeNf: Code,
    LiftTmNf: LiftTm,
    NeAtBool: Var,
    NeAtEl: Var,
    NeAtU: Var,
    PiNf: Pi,
    BoolNf: Bool,
    UNf: U,
    ElNf: El,
    nbe.LiftNf: Lift,
}
_NORMAL_FORM_CLASSES = [
    c for c in vars(nbe).values() if isinstance(c, type) and issubclass(c, (nbe.Nf, nbe.Ne)) and c not in (nbe.Nf, nbe.Ne)
]


@pytest.mark.parametrize("cls", _NORMAL_FORM_CLASSES, ids=lambda c: c.__name__)
def test_every_normal_form_class_embeds(cls):
    """Node fields hold the neutral VarNe(0), and ix and level 0; a NeAt* wrapper embeds as its neutral."""
    nodes = {name for name, _ in cls._children or ()}
    nf = cls(*[VarNe(0) if name in nodes else 0 for name in cls.__match_args__])
    assert type(embed(nf)) is _TERM_FORMER[cls]


@pytest.mark.parametrize(
    "x",
    [None, LamNf(None), TrueTm(), Var(0), LamNf(TrueTm()), NeAtBool(TrueTm()), AppNe(VarNe(0), None)],
    ids=repr,
)
def test_embed_of_what_is_no_normal_form_is_an_ill_typed_error(x):
    with pytest.raises(nbe.IllTypedError, match="unknown normal form"):
        embed(x)


def test_normal_form_embedding_typechecks():
    count = 0
    for seed in range(80):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        typecheck.check(ctx, t, ty)
        nf = norm(ctx, ty, t)
        typecheck.check(ctx, embed(nf), ty)
        count += 1
    assert count >= 30


def test_norm_is_idempotent_on_its_image():
    for seed in range(60):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        typecheck.check(ctx, t, ty)
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
    for ix, (v, w) in enumerate(zip(reversed(got), want)):
        vty, wty = nbe.eval_term(got, ctx.lookup(ix)), ref.eval_term(want, ctx.lookup(ix))
        assert quote_type(vty) == ref.quote_type(wty), (ctx, ix)
        assert quote(vty, v) == ref.quote(wty, w), (ctx, ix)
        if isinstance(w, ref.VNe):
            assert isinstance(v, VNe) and quote_type(v.vty) == ref.quote_type(w.vty), (ctx, ix)
    return len(ctx)


def test_context_environment_agrees_with_weakening_reference():
    variables = defined = 0
    for seed in range(200):
        ctx = generated.term(seed)[0]
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


def test_norm_agrees_with_index_reference():
    terms = opened = 0
    for seed in range(400):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        typecheck.check(ctx, t, ty)
        assert norm(ctx, ty, t) == ref.norm(ctx, ty, t), (ctx, ty, t)
        assert norm_type(ctx, ty) == ref.norm_type(ctx, ty), (ctx, ty)
        terms += 1
        opened += len(ctx) > 0
    assert terms >= 300 and opened >= 200


def test_every_route_evaluates_through_the_model_evaluator():
    """NbE, glued evaluation and the standard model are all run by models.eval_term."""
    t = App(NEG, TrueTm())
    routes = {
        "norm": lambda: norm(Context(), Bool(), t),
        "canon": lambda: canon(t),
        "standard": lambda: models.eval_term(models.STANDARD, (), t),
    }
    for name, route in routes.items():
        with counting("models.eval_term") as calls:
            route()
        assert calls["models.eval_term"] >= 1, name


def _open(text, scope):
    """The term and type of `term : type`, resolved with scope's names, innermost first."""
    term, ty = parse_file_contents(text)
    return resolve_term(term, scope), resolve_type(ty, scope)


def _read_back(ctx, text, scope):
    t, ty = _open(text, scope)
    typecheck.check(ctx, t, ty)
    nf = norm(ctx, ty, t)
    assert nf == ref.norm(ctx, ty, t)
    return nf


def test_context_variable_under_nested_binders():
    nf = _read_back(Context((Bool(),)), "(fun y => fun z => x) : Bool -> Bool -> Bool", ("x",))
    assert nf == LamNf(LamNf(NeAtBool(VarNe(2))))


def test_stuck_elim_motive_is_read_under_its_own_binder():
    # [c : U0, x : El c]; the motive mentions its variable z, the bound y and c
    ctx = Context((U(0), El(Var(0))))
    motive = "El (elim z at _ => U0 | c | (elim y at _ => U0 | c | code Bool))"
    text = (
        f"(fun y => fun s => elim s at z => {motive} | x"
        " | (elim y at w => El (elim w at _ => U0 | c | code Bool) | x | true))"
        f" : (y : Bool) -> (s : Bool) -> {motive.replace('z', 's')}"
    )
    nf = _read_back(ctx, text, ("x", "c"))
    c_under_motive = NeAtU(VarNe(4))
    motive_nf = ElNf(
        ElimBoolNe(UNf(0), c_under_motive, NeAtU(ElimBoolNe(UNf(0), c_under_motive, CodeNf(BoolNf()), VarNe(2))), VarNe(0))
    )
    fcase = ElimBoolNe(
        ElNf(ElimBoolNe(UNf(0), c_under_motive, CodeNf(BoolNf()), VarNe(0))), NeAtEl(VarNe(2)), TrueNf(), VarNe(1)
    )
    assert nf == LamNf(LamNf(NeAtEl(ElimBoolNe(motive_nf, NeAtEl(VarNe(2)), NeAtEl(fcase), VarNe(0)))))


def test_neutral_applied_to_a_function_is_read_back_at_its_depth():
    # [f : (Bool -> Bool) -> Bool, g : Bool -> Bool]
    ctx = Context((Pi(Pi(Bool(), Bool()), Bool()), Pi(Bool(), Bool())))
    scope = ("g", "f")
    g_eta = LamNf(NeAtBool(AppNe(VarNe(2), NeAtBool(VarNe(0)))))  # g under y and the new binder
    nf = _read_back(ctx, "(fun y => f g) : Bool -> Bool", scope)
    assert nf == LamNf(NeAtBool(AppNe(VarNe(2), g_eta)))
    nf = _read_back(ctx, "(fun y => f (fun z => elim z at _ => Bool | y | g z)) : Bool -> Bool", scope)
    body = ElimBoolNe(BoolNf(), NeAtBool(VarNe(1)), NeAtBool(AppNe(VarNe(2), NeAtBool(VarNe(0)))), VarNe(0))
    assert nf == LamNf(NeAtBool(AppNe(VarNe(2), LamNf(NeAtBool(body)))))


def test_neutrals_at_lift_el_and_u():
    # [A : U0, a : El A, l : Lift Bool]
    ctx = Context((U(0), El(Var(0)), Lift(Bool())))
    scope = ("l", "a", "A")
    assert _read_back(ctx, "A : U0", scope) == NeAtU(VarNe(2))
    assert _read_back(ctx, "a : A", scope) == NeAtEl(VarNe(1))
    assert _read_back(ctx, "l : Lift Bool", scope) == LiftTmNf(NeAtBool(UnliftNe(VarNe(0))))
    nf = _read_back(ctx, "(fun y => fun b => l) : (y : A) -> Bool -> Lift Bool", scope)
    assert nf == LamNf(LamNf(LiftTmNf(NeAtBool(UnliftNe(VarNe(2))))))
    _, ty = _open("true : (y : A) -> (B : U0) -> B -> A", scope)
    assert norm_type(ctx, ty) == PiNf(ElNf(VarNe(2)), PiNf(UNf(0), PiNf(ElNf(VarNe(0)), ElNf(VarNe(5)))))


def test_restrict_is_natural_with_rename_nf():
    checked = 0
    for seed in range(80):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        r = oracle.gen_renaming(oracle.GenBudget(seed=seed), ctx)
        f = lambda i: r.mapping[i]  # noqa: E731
        env = nbe.reflect_context(ctx)
        vty, v = nbe.eval_term(env, ty), nbe.eval_term(env, t)
        want = nbe.rename_nf(norm(ctx, ty, t), f)
        assert quote(nbe.restrict(vty, f), nbe.restrict(v, f)) == want, (ctx, ty, t, r)
        assert quote_type(nbe.restrict(vty, f)) == nbe.rename_nf(norm_type(ctx, ty), f)
        checked += len(ctx) > 0
    assert checked >= 40


_CONST_BOOL = models.Clo(nbe.NBE, models.env_of(()), Bool())  # a codomain that ignores its argument
# one value of each class
_VALUES = [
    nbe.VLam(models.Clo(nbe.NBE, models.env_of(()), Var(0))),
    nbe.VTrue(),
    nbe.VFalse(),
    nbe.VLiftVal(nbe.VTrue()),
    nbe.VCode(nbe.VBool()),
    VNe(nbe.VBool(), 0),
    nbe.VPi(nbe.VBool(), _CONST_BOOL),
    nbe.VBool(),
    nbe.VU(0),
    nbe.VEl(VNe(nbe.VU(0), 0)),
    nbe.VLift(nbe.VBool()),
]
# the value classes that quote reads back at each type class; a VNe of type Bool is no function
_FITS = {
    nbe.VPi: (nbe.VLam,),
    nbe.VBool: (nbe.VTrue, nbe.VFalse, VNe),
    nbe.VU: (nbe.VCode, VNe),
    nbe.VEl: (VNe,),
    nbe.VLift: (nbe.VLiftVal, VNe),
}
_TYPES = [v for v in _VALUES if v.__class__ in _FITS]
_ILL_SHAPED = (
    [(f"quote {ty.__class__.__name__} {v.__class__.__name__}", quote, (ty, v))
     for ty in _TYPES for v in _VALUES if v.__class__ not in _FITS[ty.__class__]]
    + [(f"quote_type {v.__class__.__name__}", quote_type, (v,)) for v in _VALUES if v.__class__ not in _FITS]
    + [("quote_type VEl of a non-neutral", quote_type, (nbe.VEl(nbe.VTrue()),))]
    + [(f"apply_val {v.__class__.__name__}", nbe.apply_val, (v, nbe.VTrue())) for v in _VALUES if v.__class__ is not nbe.VLam]
)


@pytest.mark.parametrize(("read", "args"), [case[1:] for case in _ILL_SHAPED], ids=[case[0] for case in _ILL_SHAPED])
def test_every_ill_shaped_read_back_input_is_an_ill_typed_error(read, args):
    with pytest.raises(nbe.IllTypedError) as info:
        read(*args)
    assert info.type is nbe.IllTypedError


def test_show_nf_prints_what_show_of_embed_prints():
    nfs = []
    for seed in range(200):
        ctx, ty, t = generated.term(seed)
        nfs += [norm_type(ctx, ty)] + ([] if t is None else [norm(ctx, ty, t)])
        if (drawn := generated.normal_form(seed)) is not None:
            nfs.append(drawn[2])
    tree = BoolNf()
    for _ in range(12):  # Pi(x, x) nested: show cuts those of four or more levels
        nfs.append(tree)
        tree = PiNf(tree, tree)
    for nf in nfs:
        assert nbe.show_nf(nf) == models.show(embed(nf)), nf
    assert sum(len(models.show(embed(nf))) > models.SHOWN for nf in nfs) >= 5


def test_ill_typed_argument_of_a_stuck_application_raises_when_read_back():
    # [f : Bool -> Bool] |- f (fun x => x): the argument stays a value until quote reads it
    ctx = Context((Pi(Bool(), Bool()),))
    bad = App(Var(0), Lam(Var(0)))
    with pytest.raises(nbe.IllTypedError, match="cannot quote VLam"):
        norm(ctx, Bool(), bad)
    assert norm(ctx, Bool(), ElimBool(Bool(), TrueTm(), bad, TrueTm())) == TrueNf()
