"""Acceptance gate: one criterion per test, one pass/fail line each.

Every criterion checks the library against an independently computed
expectation: either a frozen worked example or the reduction oracle.
"""

import time

import pytest

import conftest
import generated

from sconekit.syntax import (
    App,
    Bool,
    Context,
    El,
    ElimBool,
    FalseTm,
    Lam,
    Pi,
    TrueTm,
    U,
    Var,
    rename,
    shift,
    subst,
    term_size,
)
from sconekit import nbe, oracle, typecheck
from sconekit.canonicity import BoolWitness, canon
from sconekit.models import (
    SBool,
    SPi,
    STANDARD,
    elements,
    eval_context,
    eval_substitution,
    eval_term,
    eval_type,
    values_equal,
)
from sconekit.nbe import FalseNf, embed, norm, norm_type
from sconekit.oracle import GenBudget, NoInhabitantError, gen_term, oracle_conv, oracle_norm
from sconekit.parametricity import param_family, translate

NEG = Lam(ElimBool(Bool(), FalseTm(), TrueTm(), Var(0)))
NEG_TRUE = App(NEG, TrueTm())


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.record_criterion(line)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared corpora


@pytest.fixture(scope="module")
def term_corpus():
    """>= 1000 well-typed (ctx, ty, term) triples."""
    corpus = []
    seed = 0
    while len(corpus) < 1000 and seed < 6000:
        ctx, ty, t = generated.term(seed)
        seed += 1
        if t is None:
            continue
        typecheck.check(ctx, t, ty)
        corpus.append((ctx, ty, t))
    return corpus


@pytest.fixture(scope="module")
def nf_corpus():
    """>= 500 generated well-typed normal forms (depth <= 5, contexts <= 3)."""
    corpus = []
    seed = 0
    while len(corpus) < 500 and seed < 4000:
        item = generated.normal_form(seed)
        seed += 1
        if item is None:
            continue
        ctx, ty, nf = item
        typecheck.check(ctx, embed(nf), ty)
        corpus.append(item)
    return corpus


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_worked_example():
    # warm-up, then time the decided calls
    assert canon(NEG_TRUE) == BoolWitness.IS_FALSE
    assert norm(Context(), Bool(), NEG_TRUE) == FalseNf()
    best = min(
        _timed(lambda: (canon(NEG_TRUE), norm(Context(), Bool(), NEG_TRUE)))
        for _ in range(20)
    )
    ok = (
        canon(NEG_TRUE) == BoolWitness.IS_FALSE
        and norm(Context(), Bool(), NEG_TRUE) == FalseNf()
        and best < 0.001
    )
    _report(1, ok, f"negation of true gives false / FalseNf, best run {best * 1e6:.0f} us (< 1 ms)")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_canonicity_at_desk_scale():
    t0 = time.perf_counter()
    n = failures = 0
    seed = 0
    while n < 1000 and seed < 4000:
        t = generated.closed_bool(seed)
        seed += 1
        if term_size(t) > 9:
            continue
        n += 1
        w = canon(t)
        if not isinstance(w, BoolWitness):
            failures += 1
            continue
        expected = TrueTm() if w == BoolWitness.IS_TRUE else FalseTm()
        if oracle_norm(Context(), Bool(), t) != expected:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = n >= 1000 and failures == 0 and elapsed < 30
    _report(2, ok, f"{n} closed Bool terms, {failures} failures, {elapsed:.2f} s (< 30 s)")


def test_criterion_3_stability(nf_corpus):
    failures = 0
    for ctx, ty, nf in nf_corpus:
        if norm(ctx, ty, embed(nf)) != nf:
            failures += 1
    ok = len(nf_corpus) >= 500 and failures == 0
    _report(3, ok, f"norm(embed(nf)) == nf on {len(nf_corpus)} normal forms, {failures} failures")


def test_criterion_4_uniqueness(nf_corpus):
    groups: dict = {}
    for ctx, ty, nf in nf_corpus:
        groups.setdefault((ctx.entries, ty), []).append(nf)
    failures = pairs = conv_equal = 0
    for (entries, ty), nfs in groups.items():
        ctx = Context(entries)
        for i in range(len(nfs)):
            for j in range(i + 1, min(i + 6, len(nfs))):
                pairs += 1
                if oracle_conv(ctx, ty, embed(nfs[i]), embed(nfs[j])):
                    conv_equal += 1
                    if nfs[i] != nfs[j]:
                        failures += 1
    ok = len(nf_corpus) >= 500 and conv_equal > 0 and failures == 0
    _report(
        4,
        ok,
        f"{pairs} same-type pairs, {conv_equal} oracle-convertible, "
        f"{failures} with distinct Nf",
    )


def test_criterion_5_soundness_completeness(term_corpus):
    t0 = time.perf_counter()
    failures = 0
    for ctx, ty, t in term_corpus:
        if not oracle_conv(ctx, ty, t, embed(norm(ctx, ty, t))):
            failures += 1
    # pairs at a shared type: conv agreement must be an iff
    pair_failures = pairs = 0
    for k in range(0, len(term_corpus) - 1, 2):
        ctx, ty, a = term_corpus[k]
        try:
            b = gen_term(GenBudget(seed=100_000 + k), ctx, ty)
        except NoInhabitantError:
            continue
        typecheck.check(ctx, b, ty)
        pairs += 1
        if oracle_conv(ctx, ty, a, b) != (norm(ctx, ty, a) == norm(ctx, ty, b)):
            pair_failures += 1
    elapsed = time.perf_counter() - t0
    ok = (
        len(term_corpus) >= 1000
        and failures == 0
        and pairs >= 300
        and pair_failures == 0
        and elapsed < 120
    )
    _report(
        5,
        ok,
        f"{len(term_corpus)} terms sound, {pairs} pairs iff-checked, "
        f"{failures + pair_failures} failures, {elapsed:.1f} s (< 2 min)",
    )


def test_criterion_6_renaming_naturality(term_corpus):
    failures = checked = 0
    for k, (ctx, ty, t) in enumerate(term_corpus):
        r = oracle.gen_renaming(GenBudget(seed=k), ctx)
        lhs = nbe.rename_nf(norm(ctx, ty, t), lambda i: r.mapping[i])
        rhs = norm(r.source, rename(r, ty), rename(r, t))
        checked += 1
        if lhs != rhs:
            failures += 1
    ok = checked >= 1000 and failures == 0
    _report(6, ok, f"norm commutes with {checked} generated renamings, {failures} failures")


def test_criterion_7_section_laws(term_corpus):
    subst_checked = ext_checked = failures = 0
    for k, (ctx, ty, t) in enumerate(term_corpus[:400]):
        try:
            s = oracle.gen_closing_substitution(GenBudget(seed=k), ctx)
        except NoInhabitantError:
            continue
        lhs = eval_term(STANDARD, (), subst(s, t))
        rhs = eval_term(STANDARD, eval_substitution(STANDARD, (), s), t)
        if not values_equal(eval_type(STANDARD, (), subst(s, ty)), lhs, rhs):
            failures += 1
        subst_checked += 1
        envs = eval_context(STANDARD, ctx.entries)
        if envs:
            env = envs[k % len(envs)]
            sty = eval_type(STANDARD, env, ty)
            base = eval_term(STANDARD, env, t)
            for a in (True, False):
                if not values_equal(sty, eval_term(STANDARD, env + (a,), shift(t, 1)), base):
                    failures += 1
            ext_checked += 1
    import random

    rng = random.Random(0)
    beta_eta = 0
    pi = SPi(SBool(), lambda _: SBool())
    for _ in range(200):
        f = rng.choice(elements(pi))
        a = rng.choice([True, False])
        if not values_equal(SBool(), STANDARD.app(STANDARD.lam(f), a), f(a)):
            failures += 1
        if not values_equal(pi, STANDARD.lam(lambda x: STANDARD.app(f, x)), f):
            failures += 1
        beta_eta += 1
    ok = subst_checked >= 200 and ext_checked >= 200 and beta_eta >= 200 and failures == 0
    _report(
        7,
        ok,
        f"substitution law x{subst_checked}, extension x{ext_checked}, "
        f"beta/eta x{beta_eta}, {failures} failures",
    )


def test_criterion_8_parametricity_reproduction():
    subject_ty = Pi(U(0), Pi(El(Var(0)), El(Var(1))))
    # the predicate over a subject f, normalized in the context [f]
    fam = param_family(subject_ty)
    ctx = Context().extend(subject_ty)
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
    got = embed(norm_type(ctx, fam))
    res = translate(Lam(Lam(Var(0))), subject_ty)
    try:
        typecheck.check(Context(), res.witness, res.witness_type)
        rechecks = True
    except typecheck.TypeCheckError:
        rechecks = False
    ok = got == expected and rechecks and res.witness == Lam(Lam(Lam(Lam(Var(0)))))
    _report(8, ok, "witness type matches the frozen shape exactly and the witness re-typechecks")


def test_criterion_9_eta_law(term_corpus):
    checked = failures = 0
    for ctx, ty, f in term_corpus:
        if checked >= 120:
            break
        if not isinstance(oracle.whnf(ty), Pi):
            continue
        eta = Lam(App(shift(f, 1), Var(0)))
        if not typecheck.conv(ctx, ty, eta, f):
            failures += 1
        checked += 1
    ok = checked >= 100 and failures == 0
    _report(9, ok, f"lam(app(f, x)) convertible with f for {checked} functions, {failures} failures")
