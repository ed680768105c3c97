"""The sconekit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the library from ./src and
writes only under bench/out.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, measured over
rounds of operations for S seconds.  With --trace 1 they are the
per-layer metrics, from one fixed pass run once plainly and once under
the tracer.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S seconds
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
DEFAULT_RECURSION_LIMIT = 1000


class Tally:
    """Operations attempted and failed, with each one's latency by label."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.items = 0
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.notes: list[str] = []

    def run(self, ops, tracer=None, work=None) -> None:
        for label, op in ops:
            before = tracer.total_calls() if tracer is not None else 0
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                self.items += op()
            except Exception as e:  # any exception is a failed operation, reported below
                self.failed += 1
                if len(self.notes) < 5:
                    self.notes.append(f"{label}: {type(e).__name__}: {e}")
            self.latencies[label].append(time.perf_counter() - t0)
            if work is not None:
                work[label] = tracer.total_calls() - before

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes

    def all_latencies(self) -> list[float]:
        return [x for xs in self.latencies.values() for x in xs]


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def pin_environment(traced: bool) -> dict:
    """Import the library from ./src with default fuel; return what was run."""
    os.environ.pop("SCONEKIT_FUEL", None)
    sys.path.insert(0, str(SRC))
    import sconekit

    if Path(sconekit.__file__).resolve().parent != SRC / "sconekit":
        raise SystemExit(f"error: sconekit imported from {sconekit.__file__}, not {SRC}")
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    revision = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = proc.stdout.strip() or "unknown"
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "sconekit").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": revision,
        "src_sha256": src_digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "recursion_limit": sys.getrecursionlimit(),
        "traced": traced,
    }


def timed_run(wl, seconds: float) -> tuple[dict, Tally]:
    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    tally = Tally()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        tally.run(wl.round())
    elapsed = time.perf_counter() - t0
    peak_rss = wl.peak_rss_mb()

    calls = tally.all_latencies()
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss,
        "call_p50_ms": statistics.median(calls) * 1e3,
        "call_p90_ms": percentile(calls, 0.9) * 1e3,
        "call_gmean_ms": statistics.geometric_mean(calls) * 1e3,
        "items_per_s": tally.items / elapsed,
    }
    return metrics, tally


def traced_run(wl) -> tuple[dict, Tally]:
    import families
    import tracing
    import workloads

    wl.setup()
    tally = Tally()
    t0 = time.perf_counter()
    tally.run(wl.fixed_pass())
    plain_s = time.perf_counter() - t0

    sys.setrecursionlimit(tracing.TRACED_RECURSION_LIMIT)
    traced = Tally()
    tracer = tracing.Tracer()
    work: dict[str, int] = {}
    t0 = time.perf_counter()
    with tracer:
        traced.run(wl.fixed_pass(tracer), tracer, work)
    traced_s = time.perf_counter() - t0
    tally.merge(traced)

    metrics = dict(tracer.counts)
    metrics.update(tracer.layer_ms())
    metrics.update(wl.layer_metrics(traced.items))
    if isinstance(wl, workloads.Scaling):
        metrics.update(families.growth(work))
        metrics.update(families.times_ms(tally.latencies))
    metrics["trace.overhead_share"] = (traced_s - plain_s) / traced_s
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sconekit" / "__init__.py").is_file():
        print(f"error: no sconekit package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = pin_environment(bool(args.trace))
    sys.path.insert(0, str(BENCH))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            values, tally = traced_run(wl)
        else:
            values, tally = timed_run(wl, args.seconds)
    finally:
        wl.close()
    if isinstance(wl, workloads.Crosscheck):
        env["corpus_sha256"] = wl.digest
    if isinstance(wl, (workloads.Cli, workloads.Scaling)) and not args.trace:
        env["op_median_ms"] = {op: statistics.median(xs) * 1e3 for op, xs in tally.latencies.items()}
    env["fail_share"] = tally.failed / tally.attempted

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values["fail_share"] = env["fail_share"]
    # a per-layer counter that never moved on this workload reads 0
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0) if args.trace else values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps({"env": env}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
