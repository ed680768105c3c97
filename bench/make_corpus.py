"""Regenerate bench/corpus.jsonl, the frozen crosscheck corpus.

Run from the repository root:  python3 bench/make_corpus.py

The corpus is drawn with the library's seeded generators, the same way
the acceptance tests draw theirs: generated terms of size <= 9 in
contexts of length <= 3 that the kernel accepts.  Items whose oracle
normalization runs out of fuel are left out.  The script prints the new
file's sha256; copy it into CORPUS_SHA256 in corpus.py, because set-up
refuses a corpus whose digest differs from the pinned one.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("SCONEKIT_FUEL", None)

from sconekit import nbe, oracle, typecheck  # noqa: E402
from sconekit.oracle import GenBudget, NoInhabitantError  # noqa: E402
from sconekit.syntax import Bool, Context, term_size  # noqa: E402

import corpus  # noqa: E402

# at most this many distinct items per kind; the seeds below SEED_LIMIT give
# only 94 distinct closed Bool terms of size <= 9
COUNTS = {"norm": 400, "stable": 200, "canon": 200, "conv": 200}
MAX_SIZE = 9
SEED_LIMIT = 20_000


def _small_term(budget, ctx, ty):
    t = oracle.gen_term(budget, ctx, ty)
    if term_size(t) > MAX_SIZE:
        raise NoInhabitantError("term larger than the corpus bound")
    typecheck.check(ctx, t, ty)
    return t


def _triples():
    """Generated (ctx, ty, term) triples in seed order, as the tests draw them."""
    for seed in range(SEED_LIMIT):
        budget = GenBudget(seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.gen_type(budget, ctx)
            t = _small_term(budget, ctx, ty)
            oracle.oracle_norm(ctx, ty, t)
        except (NoInhabitantError, oracle.OracleError, typecheck.TypeCheckError):
            continue
        yield seed, ctx, ty, t


def norm_items():
    for _, ctx, ty, t in _triples():
        yield {"kind": "norm", "ctx": ctx, "ty": ty, "term": t}


def conv_items():
    """Same-type pairs: even ones against a second generated term, odd ones
    against the oracle's own normal form, so both verdicts occur."""
    for k, (seed, ctx, ty, a) in enumerate(_triples()):
        try:
            if k % 2:
                b = oracle.oracle_norm(ctx, ty, a)
            else:
                b = _small_term(GenBudget(seed=100_000 + seed), ctx, ty)
            oracle.oracle_conv(ctx, ty, a, b)
        except (NoInhabitantError, oracle.OracleError, typecheck.TypeCheckError):
            continue
        yield {"kind": "conv", "ctx": ctx, "ty": ty, "a": a, "b": b}


def stable_items():
    for seed in range(SEED_LIMIT):
        budget = GenBudget(max_term_size=5, max_context_length=3, seed=seed)
        try:
            ctx = oracle.gen_context(budget)
            ty = oracle.oracle_norm_type(ctx, oracle.gen_type(budget, ctx))
            nf = oracle.gen_nf(budget, ctx, ty)
            typecheck.check(ctx, nbe.embed(nf), ty)
        except (NoInhabitantError, oracle.OracleError, typecheck.TypeCheckError):
            continue
        yield {"kind": "stable", "ctx": ctx, "ty": ty, "nf": nf}


def canon_items():
    for seed in range(SEED_LIMIT):
        try:
            t = _small_term(GenBudget(seed=seed), Context(), Bool())
            oracle.oracle_norm(Context(), Bool(), t)
        except (NoInhabitantError, oracle.OracleError, typecheck.TypeCheckError):
            continue
        yield {"kind": "canon", "term": t}


def main() -> None:
    lines: list[str] = []
    for kind, source in (
        ("norm", norm_items()),
        ("stable", stable_items()),
        ("canon", canon_items()),
        ("conv", conv_items()),
    ):
        seen: set[str] = set()
        for item in source:
            line = corpus.encode_item(item)
            if line not in seen:
                seen.add(line)
                lines.append(line)
            if len(seen) == COUNTS[kind]:
                break
        print(f"{kind}: {len(seen)} items", file=sys.stderr)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    corpus.CORPUS_PATH.write_bytes(data)
    print(hashlib.sha256(data).hexdigest())


if __name__ == "__main__":
    main()
