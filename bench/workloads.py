"""The four workloads of the benchmark.

A workload has a set-up, rounds of operations for timed runs and one
fixed pass for traced runs.  An operation is a (label, thunk) pair; the
thunk returns how many items it produced and raises WrongAnswer when
the library's answer disagrees with the independent one.  A round is
balanced: it holds every kind of operation the workload has, in an
order drawn from the workload seed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from sconekit import canonicity, models, nbe, oracle, typecheck
from sconekit.oracle import GenBudget, NoInhabitantError
from sconekit.syntax import FalseTm, TrueTm

import cli_cases
import corpus
import families
import tracing

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

Op = tuple[str, Callable[[], int]]


class WrongAnswer(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


class Workload:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def fixed_pass(self, tracer: tracing.Tracer | None = None) -> list[Op]:
        """The same set of operations on every call, for traced runs."""
        return self.round()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_metrics(self, items: int) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli: one `sconekit` process per call

ENTRY = "import sys; from sconekit.cli import main; sys.exit(main())"
# the same call, with the tracer installed around main(); the child writes
# its counts, self times, start time and import time to a JSON file
TRACED_ENTRY = """\
import sys, time
start = time.perf_counter()
import sconekit.cli
import_s = time.perf_counter() - start
sys.path.insert(0, {bench!r})
import json, tracing
sys.setrecursionlimit(tracing.TRACED_RECURSION_LIMIT)
tracer = tracing.Tracer()
with tracer:
    code = sconekit.cli.main()
with open({out!r}, "w", encoding="utf-8") as fh:
    json.dump({{"start": start, "import_s": import_s, "counts": tracer.counts, "self_s": tracer.self_s}}, fh)
sys.exit(code)
"""
CALL_TIMEOUT_S = 60


class Cli(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.work = OUT / f"cli-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.child_ms = {"cli.startup_ms": 0.0, "cli.import_ms": 0.0}

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        for name, text in cli_cases.FILES.items():
            (self.work / name).write_text(text, encoding="utf-8")
        self.call(*cli_cases.CASES[0])  # byte-compiles the package and warms the page cache

    def call(self, argv, expected: str, tracer: tracing.Tracer | None = None) -> int:
        out = self.work / "trace.json"
        code = ENTRY if tracer is None else TRACED_ENTRY.format(bench=str(BENCH), out=str(out))
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=self.work,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )
        expect(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        expect(proc.stdout == expected, f"printed {proc.stdout!r}")
        if tracer is not None:
            stats = json.loads(out.read_text(encoding="utf-8"))
            tracer.counts.update(stats["counts"])
            tracer.self_s.update(stats["self_s"])
            # perf_counter is the system-wide monotonic clock, so the two processes agree
            self.child_ms["cli.startup_ms"] += (stats["start"] - spawned) * 1e3
            self.child_ms["cli.import_ms"] += stats["import_s"] * 1e3
        return 1

    def _ops(self, cases, tracer=None) -> list[Op]:
        return [(" ".join(a), lambda a=a, e=e: self.call(a, e, tracer)) for a, e in cases]

    def round(self) -> list[Op]:
        cases = list(cli_cases.CASES)
        self.rng.shuffle(cases)
        return self._ops(cases)

    def fixed_pass(self, tracer=None) -> list[Op]:
        return self._ops(cli_cases.CASES, tracer)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def layer_metrics(self, items: int) -> dict[str, float]:
        return dict(self.child_ms)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# crosscheck: the frozen corpus, each item decided by two routes


def check_item(item: dict) -> int:
    kind, ctx, ty = item["kind"], item["ctx"], item["ty"]
    if kind == "norm":
        t = item["term"]
        typecheck.check(ctx, t, ty)
        expect(nbe.embed(nbe.norm(ctx, ty, t)) == oracle.oracle_norm(ctx, ty, t), "NbE and oracle disagree")
    elif kind == "stable":
        expect(nbe.norm(ctx, ty, nbe.embed(item["nf"])) == item["nf"], "norm(embed(nf)) != nf")
    elif kind == "canon":
        t = item["term"]
        is_true = canonicity.canon(t) is canonicity.BoolWitness.IS_TRUE
        expect(oracle.oracle_norm(ctx, ty, t) == (TrueTm() if is_true else FalseTm()), "canon and oracle disagree")
        expect(models.eval_term(models.STANDARD, (), t) is is_true, "canon and the standard model disagree")
    else:
        a, b = item["a"], item["b"]
        expect(typecheck.conv(ctx, ty, a, b) == oracle.oracle_conv(ctx, ty, a, b), "conv and oracle_conv disagree")
    return 1


class Crosscheck(Workload):
    def setup(self) -> None:
        self.items, self.digest = corpus.load_corpus()

    def round(self) -> list[Op]:
        items = list(self.items)
        self.rng.shuffle(items)
        return [(item["kind"], lambda i=item: check_item(i)) for item in items]


# ---------------------------------------------------------------------------
# scaling: the families at n and 2n


def run_case(case: families.Case) -> int:
    expect(case.verdict(case.run()), f"{case.family} at size {case.size}: wrong result")
    return 1


def case_ops(cases) -> list[Op]:
    return [(families.label(c.family, c.size), lambda c=c: run_case(c)) for c in cases]


class Scaling(Workload):
    """Timed rounds run the 2n cases; the traced pass runs n and 2n for the growth counts."""

    def setup(self) -> None:
        self.cases = families.all_cases()

    def round(self) -> list[Op]:
        cases = [c for c in self.cases if c.large]
        self.rng.shuffle(cases)
        return case_ops(cases)

    def fixed_pass(self, tracer=None) -> list[Op]:
        return case_ops(self.cases)


# ---------------------------------------------------------------------------
# gen: the seeded generators, every output re-checked by the kernel

# Generator seeds 0 .. GEN_SEEDS - 1.  A few seeds in a hundred take a
# hundred times longer than the rest (the generator backtracks and gives
# up), so timed rounds run the whole range, in an order drawn from the
# workload seed, to do the same work in every run.
GEN_SEEDS = 400
GEN_TRACE_ITEMS = 250
GEN_WARMUP_SEEDS = range(-10, 0)


class Gen(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.attempts = self.made = 0

    def setup(self) -> None:
        for s in GEN_WARMUP_SEEDS:
            self.generate(s)

    def generate(self, seed: int) -> int:
        """Draw a term and a normal form from one seed; return how many came out."""
        items = 0
        for budget in (GenBudget(seed=seed), GenBudget(max_term_size=5, max_context_length=3, seed=seed)):
            self.attempts += 1
            ctx = oracle.gen_context(budget)
            typecheck.check_context(ctx)
            ty = oracle.gen_type(budget, ctx)
            typecheck.wf_type(ctx, ty)
            try:
                if budget.max_term_size == 5:
                    ty = oracle.oracle_norm_type(ctx, ty)
                    typecheck.check(ctx, nbe.embed(oracle.gen_nf(budget, ctx, ty)), ty)
                else:
                    typecheck.check(ctx, oracle.gen_term(budget, ctx, ty), ty)
            except NoInhabitantError:  # the generator gave up on this seed
                continue
            items += 1
        self.made += items
        return items

    def round(self) -> list[Op]:
        seeds = list(range(GEN_SEEDS))
        self.rng.shuffle(seeds)
        return [(f"seed {s}", lambda s=s: self.generate(s)) for s in seeds]

    def fixed_pass(self, tracer=None):
        """Seeds from 0 up until GEN_TRACE_ITEMS items came out."""
        self.attempts = self.made = 0
        seed = 0
        while self.made < GEN_TRACE_ITEMS:
            yield f"seed {seed}", lambda s=seed: self.generate(s)
            seed += 1

    def layer_metrics(self, items: int) -> dict[str, float]:
        return {"oracle.gen_seeds": self.attempts, "oracle.gen_yield": items / self.attempts}


WORKLOADS = {"cli": Cli, "crosscheck": Crosscheck, "scaling": Scaling, "gen": Gen}
