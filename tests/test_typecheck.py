"""Kernel typechecker behaviour."""

import dataclasses
import hashlib
import random
import sys

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
    Term,
    TrueTm,
    U,
    UnliftTm,
    Var,
    rename,
    shift,
    subst1,
)
from sconekit.nbe import norm_type
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

import generated
import reference_typecheck as ref
from conftest import bench_module
from counting import counting

families = bench_module("families")
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


def test_inferred_lift_past_the_maximum_level_is_rejected():
    assert infer(Context(), LiftTm(LiftTm(TrueTm()))) == Lift(Lift(Bool()))
    with pytest.raises(LevelError, match="lifted type exceeds maximum level 2"):
        infer(Context(), LiftTm(LiftTm(LiftTm(TrueTm()))))


@pytest.mark.parametrize("ty", [Lift(U(1)), Lift(Lift(Lift(Bool())))], ids=["Lift U1", "Lift^3 Bool"])
def test_lifted_type_past_the_maximum_level_is_ill_formed(ty):
    with pytest.raises(LevelError, match="lifted type exceeds maximum level 2"):
        wf_type(Context(), ty)


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
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        check(ctx, t, ty)
        r = oracle.gen_renaming(oracle.GenBudget(seed=seed + 1), ctx)
        check(r.source, rename(r, t), rename(r, ty))
        preserved += 1
    assert preserved >= 30


def test_check_context_rejects_bad_entry():
    with pytest.raises(typecheck.TypeCheckError):
        check_context(Context((TrueTm(),)))


def test_check_context_rejects_a_definition_it_cannot_infer():
    with pytest.raises(NotInferableError):
        check_context(Context().define(Bool(), Lam(Var(0))))


def test_check_context_checks_a_definition_in_the_entries_before_it():
    with pytest.raises(TypeMismatchError, match="not a Π-type"):
        check_context(Context().define(Bool(), TrueTm()).define(Bool(), App(Var(0), TrueTm())))


def test_check_context_lets_later_entries_read_a_definition():
    # b : Bool := true, y : El (elim b at _ => U0 | code Bool | code (Bool -> Bool)) := false
    entry = El(ElimBool(U(0), Code(Bool()), Code(Pi(Bool(), Bool())), Var(0)))
    check_context(Context().define(Bool(), TrueTm()).define(entry, FalseTm()))


def test_infer_result_checks():
    for seed in range(60):
        ctx, _, t = generated.term(seed)
        if t is None:
            continue
        try:
            inferred = infer(ctx, t)
        except typecheck.TypeCheckError:
            continue
        check(ctx, t, inferred)


def test_check_rejects_ill_scoped_type():
    with pytest.raises((typecheck.ScopeError, typecheck.TypeCheckError)):
        check(Context(), TrueTm(), Var(3))


def test_check_rejects_term_as_type():
    with pytest.raises(typecheck.TypeCheckError):
        check(Context(), Lam(Var(0)), TrueTm())


# b : Bool |- El (elim b at _ => U0 | code Bool | code Bool), a type that mentions b
_OPEN_TYPE = El(ElimBool(U(0), Code(Bool()), Code(Bool()), Var(0)))


def _open_elims(k):
    """k nested elims on b whose motive, branch types and type all mention b."""
    t = inner = ElimBool(_OPEN_TYPE, TrueTm(), FalseTm(), Var(0))
    for _ in range(k):
        t = ElimBool(shift(_OPEN_TYPE, 1), t, inner, Var(0))
    return t


def test_check_reflects_the_context_once():
    """The caller's n entries are evaluated once per check, not once per normalization."""
    counts = []
    for n in (200, 400):
        with counting("nbe.eval_term") as calls:
            check(Context((Bool(),) * n), _open_elims(5), _OPEN_TYPE)
        counts.append(calls["nbe.eval_term"])
    assert 200 <= counts[1] - counts[0] <= 220, counts


def test_checker_embeds_a_normal_type_only_to_bind_it():
    """Types stay values: dup(k) embeds none, and a binder embeds nothing unless an inferred type reads it."""
    n = 30
    t, ty = Var(n - 1), Bool()
    for _ in range(n):
        t, ty = Lam(t), Pi(Bool(), ty)
    with counting("nbe.embed") as calls:
        for k in (10, 20):
            check(Context(), families.dup(k), Bool())
            assert calls["nbe.embed"] == 0, k
        check(Context(), t, ty)
    assert calls["nbe.embed"] <= n


def _eta_spine(n):
    """fun f x1 ... xn => f x1 ... xn at (Bool^n -> Bool) -> Bool^n -> Bool."""
    t, ty = Var(n), Bool()
    for i in range(n):
        t, ty = App(t, Var(n - 1 - i)), Pi(Bool(), ty)
    for _ in range(n + 1):
        t = Lam(t)
    return t, Pi(ty, ty)


@pytest.mark.parametrize("term, ty", [_eta_spine(100), (families.dup(20), Bool())], ids=["eta spine", "dup(20)"])
def test_check_walks_no_syntax(term, ty):
    """check decides by values: it renames, substitutes and scans no term."""
    with counting("syntax.map_vars", "syntax._any_var") as calls:
        check(Context(), term, ty)
    assert calls == {"syntax.map_vars": 0, "syntax._any_var": 0}


def test_eta_spine_checks_under_the_default_recursion_limit():
    """An application spine is inferred in a loop, so only binders cost a frame each."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        check(Context(), *_eta_spine(400))
    finally:
        sys.setrecursionlimit(limit)


def test_nary_redex_binds_every_argument():
    # (fun x y z => elim y at _ => Bool | x | z) true true false : Bool
    body = ElimBool(Bool(), Var(2), Var(0), Var(1))
    t = App(App(App(Lam(Lam(Lam(body))), TrueTm()), TrueTm()), FalseTm())
    check(Context(), t, Bool())
    assert infer(Context(), t) == Bool()
    # a leftover argument is applied to the body: (fun f => f) neg true
    ctx = Context((Pi(Bool(), Bool()),))
    assert infer(ctx, App(App(Lam(Var(0)), Var(0)), TrueTm())) == Bool()


def test_redex_type_mentions_the_argument():
    # f : (A : U0) -> El A -> El A |- (fun A => f A) (code Bool) : El (code Bool) -> El (code Bool)
    ctx = Context((Pi(U(0), Pi(El(Var(0)), El(Var(1)))),))
    t = App(Lam(App(Var(1), Var(0))), Code(Bool()))
    assert infer(ctx, t) == Pi(El(Code(Bool())), El(Code(Bool())))
    check(ctx, App(t, TrueTm()), Bool())
    with pytest.raises(TypeMismatchError):
        check(ctx, App(t, Code(Bool())), Bool())
    # (fun A => fun B => f A) (code Bool) (code (Bool -> Bool)): A, not B, is substituted
    t2 = App(App(Lam(Lam(App(Var(2), Var(1)))), Code(Bool())), Code(Pi(Bool(), Bool())))
    assert infer(ctx, t2) == Pi(El(Code(Bool())), El(Code(Bool())))


# ---------------------------------------------------------------------------
# Levels: the caller's entries, binders the checker opens and let-bound redexes


def test_binders_opened_under_a_context_keep_their_levels():
    # [A : U0, a : El A] |- fun B => fun x => a : (B : U0) -> El B -> El A
    ctx = Context((U(0), El(Var(0))))
    t = Lam(Lam(Var(2)))
    check(ctx, t, Pi(U(0), Pi(El(Var(0)), El(Var(3)))))
    # ... but not at (B : U0) -> El B -> El B
    with pytest.raises(TypeMismatchError):
        check(ctx, t, Pi(U(0), Pi(El(Var(0)), El(Var(1)))))
    assert infer(ctx.extend(U(0)).extend(El(Var(0))), Var(2)) == El(Var(3))


def test_redex_inside_a_lambda_inside_a_context():
    # [A : U0, f : (B : U0) -> El B -> El B] |- fun x => (fun C => f C x) A : El A -> El A
    ctx = Context((U(0), Pi(U(0), Pi(El(Var(0)), El(Var(1))))))
    body = App(App(Var(2), Var(0)), Var(1))
    check(ctx, Lam(App(Lam(body), Var(2))), Pi(El(Var(1)), El(Var(2))))
    # C := code Bool, so f C expects a boolean, and x : El A is none
    with pytest.raises(TypeMismatchError):
        check(ctx, Lam(App(Lam(body), Code(Bool()))), Pi(El(Var(1)), El(Var(2))))
    # [A, B : U0, f, b : El B] |- fun u => (fun C => fun D => f D b) A B : Bool -> El B
    # D is defined past C, so its value B is shifted over C
    ctx = Context((U(0), U(0), Pi(U(0), Pi(El(Var(0)), El(Var(1)))), El(Var(1))))
    t = App(App(Lam(Lam(App(App(Var(4), Var(0)), Var(3)))), Var(4)), Var(3))
    check(ctx, Lam(t), Pi(Bool(), El(Var(3))))
    with pytest.raises(TypeMismatchError):
        check(ctx, Lam(t), Pi(Bool(), El(Var(4))))


def _code_branches(t1, t2):
    """z : Bool |- El (elim z at _ => U1 | code t1 | code t2)."""
    return El(ElimBool(U(1), Code(t1), Code(t2), Var(0)))


def test_sibling_branches_open_their_own_binders():
    # b : Bool |- elim b at z => P z | fun X => fun y => y | fun g => fun w => w
    # with P true = (X : U0) -> El X -> El X and P false = (g : Bool -> U0) -> El (g true) -> El (g true)
    poly = Pi(U(0), Pi(El(Var(0)), El(Var(1))))
    family = Pi(Pi(Bool(), U(0)), Pi(El(App(Var(0), TrueTm())), El(App(Var(1), TrueTm()))))
    motive = _code_branches(poly, family)
    ctx = Context((Bool(),))
    ident2 = Lam(Lam(Var(0)))
    assert infer(ctx, ElimBool(motive, ident2, ident2, Var(0))) == subst1(motive, Var(0))
    # fun g => fun w => g is no inhabitant of P false, nor is the true branch swapped in
    with pytest.raises(TypeMismatchError):
        infer(ctx, ElimBool(motive, ident2, Lam(Lam(Var(1))), Var(0)))
    with pytest.raises(TypeMismatchError):
        infer(ctx, ElimBool(_code_branches(family, poly), Lam(Lam(Var(1))), ident2, Var(0)))


# ---------------------------------------------------------------------------
# Differential test against the checker that substituted redexes


def _subterms(t, path=()):
    """Every subterm of t, with the path of field names that leads to it."""
    yield path, t
    for f in dataclasses.fields(t):
        child = getattr(t, f.name)
        if isinstance(child, Term):
            yield from _subterms(child, path + (f.name,))


def _replace(t, path, new):
    if not path:
        return new
    return dataclasses.replace(t, **{path[0]: _replace(getattr(t, path[0]), path[1:], new)})


_DUP_BODY = ElimBool(Bool(), Var(0), Var(0), Var(0))
_MUTATIONS = (
    lambda s, rng: rng.choice([TrueTm(), FalseTm(), Bool(), U(0), Code(Bool()), Lam(Var(0))]),
    lambda s, rng: Var(rng.randrange(4)),
    lambda s, rng: App(Lam(Var(0)), s),
    lambda s, rng: App(Lam(_DUP_BODY), s),
    lambda s, rng: App(Lam(shift(s, 1)), rng.choice([TrueTm(), Var(0), Lam(Var(0))])),
    lambda s, rng: App(App(Lam(Lam(shift(s, 2))), TrueTm()), Code(Bool())),
    lambda s, rng: App(App(Lam(Var(0)), Lam(Var(0))), s),
    lambda s, rng: App(s, rng.choice([TrueTm(), Var(0)])),
)


def _outcome(fn):
    """The result, or the class of the documented error raised; others escape."""
    try:
        return ("ok", fn())
    except (typecheck.TypeCheckError, typecheck.ScopeError) as e:
        return ("raised", type(e))


def test_checker_agrees_with_substituting_reference():
    verdicts = accepted = redex_mutants = 0
    for seed in range(200):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        rng = random.Random(seed)
        terms = [t]
        for _ in range(8):
            path, sub = rng.choice(list(_subterms(t)))
            mutant = _replace(t, path, rng.choice(_MUTATIONS)(sub, rng))
            terms.append(mutant)
            redex_mutants += any(isinstance(s, App) and isinstance(s.fn, Lam) for _, s in _subterms(mutant))
        for u in terms:
            got = _outcome(lambda: check(ctx, u, ty))
            assert got == _outcome(lambda: ref.check(ctx, u, ty)), (seed, u)
            got_ty = _outcome(lambda: norm_type(ctx, infer(ctx, u)))
            assert got_ty == _outcome(lambda: norm_type(ctx, ref.infer(ctx, u))), (seed, u)
            verdicts += 2
            accepted += (got[0] == "ok") + (got_ty[0] == "ok")
    assert verdicts >= 3000 and accepted >= 1000 and redex_mutants >= 800, (verdicts, accepted, redex_mutants)


# ---------------------------------------------------------------------------
# Public results, pinned by a digest


def _shown(call):
    """The repr of call's result, or the class and message of the error it raises."""
    try:
        return repr(call())
    except Exception as e:  # every error, documented or not, is part of the outcome
        return f"{type(e).__name__}: {e}"


# The sha256 of the 22,008 outcomes that test_public_results_are_pinned hashes.
OUTCOMES_DIGEST = "0ba705b5ba09e1dbd27c2efbe3550dc6897c0d412e66c8e92f8d1d8e298c07e4"


def test_public_results_are_pinned():
    """infer, check, conv and wf_type of every subterm of 375 generated items, in
    the item's context, and infer, check and conv of 12 seeded mutants of each:
    a changed result, error class or message changes the digest."""
    digest, calls = hashlib.sha256(), 0
    for seed in range(400):
        ctx, ty, t = generated.term(seed)
        if t is None:
            continue
        rng, mutants = random.Random(seed), []
        for _ in range(12):
            path, sub = rng.choice(list(_subterms(t)))
            mutants.append(_replace(t, path, rng.choice(_MUTATIONS)(sub, rng)))
        outcomes = []
        for _, s in _subterms(t):
            outcomes += [_shown(lambda: infer(ctx, s)), _shown(lambda: check(ctx, s, ty)),
                         _shown(lambda: conv(ctx, ty, s, t)), _shown(lambda: wf_type(ctx, s))]
        for u in mutants:
            outcomes += [_shown(lambda: infer(ctx, u)), _shown(lambda: check(ctx, u, ty)), _shown(lambda: conv(ctx, ty, u, t))]
        for outcome in outcomes:
            digest.update(outcome.encode() + b"\0")
        calls += len(outcomes)
    assert calls == 22_008
    assert digest.hexdigest() == OUTCOMES_DIGEST
