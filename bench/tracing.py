"""Spans and call counts around sconekit's functions, installed from outside.

Tracer.install() replaces each probed function by a wrapper in every
loaded sconekit module that binds it, so calls through module globals
(the recursion inside typecheck.infer or nbe.eval_term) and calls through
names bound by ``from ... import`` are both seen.  Calls that stay inside
one function body, such as nbe.apply_val or oracle.step, are not.

A wrapper adds one to its counter.  If its layer differs from the layer
of the innermost open span it also opens a span, whose parent is that
innermost span.  When a span closes, its length minus the length of its
child spans is added to its layer's self time, and its length to its
parent's child time; spans are not kept after that, because a scaling
pass opens hundreds of thousands.  Nothing here changes what a probed
function returns.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import fields, is_dataclass

# (module, function, layer, counter): layer None counts without a span
PROBES = (
    ("sconekit.typecheck", "check", "typecheck", "typecheck.check_calls"),
    ("sconekit.typecheck", "infer", "typecheck", "typecheck.infer_calls"),
    ("sconekit.typecheck", "wf_type", "typecheck", None),
    ("sconekit.typecheck", "check_context", "typecheck", None),
    ("sconekit.typecheck", "conv", "typecheck", None),
    ("sconekit.nbe", "norm", "nbe", None),
    ("sconekit.nbe", "norm_type", "nbe", None),
    ("sconekit.nbe", "embed", "nbe", None),
    ("sconekit.nbe", "eval_term", "nbe", "nbe.eval_calls"),
    ("sconekit.nbe", "quote", "nbe", "nbe.quote_calls"),
    ("sconekit.nbe", "quote_type", "nbe", "nbe.quote_calls"),
    ("sconekit.nbe", "restrict", "nbe", "nbe.restrict_calls"),
    ("sconekit.syntax", "subst_with", None, "syntax.subst_calls"),
    ("sconekit.syntax", "subst", None, "syntax.subst_calls"),
    ("sconekit.canonicity", "canon", "canonicity", None),
    ("sconekit.canonicity", "glued_eval", "canonicity", "canonicity.glued_eval_calls"),
    ("sconekit.canonicity", "glued_eval_type", "canonicity", None),
    ("sconekit.models", "eval_term", "models", None),
    ("sconekit.models", "eval_type", "models", None),
    ("sconekit.oracle", "oracle_norm", "oracle.reduce", None),
    ("sconekit.oracle", "oracle_norm_type", "oracle.reduce", None),
    ("sconekit.oracle", "oracle_conv", "oracle.reduce", None),
    ("sconekit.oracle", "reduce", "oracle.reduce", None),
    ("sconekit.oracle", "whnf", None, "oracle.whnf_calls"),
    ("sconekit.oracle", "gen_context", "oracle.gen", None),
    ("sconekit.oracle", "gen_type", "oracle.gen", None),
    ("sconekit.oracle", "gen_term", "oracle.gen", None),
    ("sconekit.oracle", "gen_nf", "oracle.gen", None),
    ("sconekit.surface", "parse", "surface.parse", None),
    ("sconekit.surface", "parse_file_contents", "surface.parse", None),
    ("sconekit.surface", "resolve_term", "surface.resolve", None),
    ("sconekit.surface", "resolve_type", "surface.resolve", None),
    ("sconekit.surface", "pretty", "surface.pretty", None),
    ("sconekit.parametricity", "translate", "parametricity", None),
)

# per-layer metric holding each layer's self time
SELF_METRICS = {
    "typecheck": "typecheck.self_ms",
    "nbe": "nbe.self_ms",
    "canonicity": "canonicity.self_ms",
    "models": "models.eval_ms",
    "oracle.reduce": "oracle.reduce_ms",
    "oracle.gen": "oracle.gen_ms",
    "surface.parse": "surface.parse_ms",
    "surface.resolve": "surface.resolve_ms",
    "surface.pretty": "surface.pretty_ms",
    "parametricity": "parametricity.translate_ms",
}

# the recursion limit for traced runs, whose wrappers double the frame depth
TRACED_RECURSION_LIMIT = 20_000


def node_count(node) -> int:
    """Nodes of a normal form (or any tree of dataclasses)."""
    if not is_dataclass(node):
        return 0
    return 1 + sum(node_count(getattr(node, f.name)) for f in fields(node))


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self._stack: list[list] = []  # open spans: [layer, start, child seconds]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def _open(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        layer, start, child_s = self._stack.pop()
        self.self_s[layer] += end - start - child_s
        if self._stack:
            self._stack[-1][2] += end - start

    def _after(self, hook, result) -> None:
        """Run a result hook without charging its time to the caller's layer."""
        t0 = time.perf_counter()
        hook(result)
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - t0

    def _wrap(self, fn, layer, counter, hook):
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if layer is None or (stack and stack[-1][0] == layer):
                result = fn(*args, **kwargs)
            else:
                self._open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close()
            if hook is not None:
                self._after(hook, result)
            return result

        return wrapper

    # -- result hooks ----------------------------------------------------

    def _count_nf(self, nf) -> None:
        self.counts["nbe.nf_nodes"] += node_count(nf)

    def _count_steps(self, trace) -> None:
        self.counts["oracle.steps"] += len(trace.steps)
        for s in trace.steps:
            self.counts["oracle.steps." + s.rule] += 1
        self.counts["oracle.fuel_exhausted"] += trace.fuel_exhausted

    # -- install ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            ("sconekit.nbe", "norm"): self._count_nf,
            ("sconekit.nbe", "norm_type"): self._count_nf,
            ("sconekit.oracle", "reduce"): self._count_steps,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sconekit"]
        wrappers = {}
        for module, name, layer, counter in PROBES:
            if module not in sys.modules:  # e.g. surface, which only the CLI loads
                continue
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._wrap(fn, layer, counter, hooks.get((module, name))))
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, hit[1])
                    self._patches.append((m, attr, value))

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._patches):
            setattr(m, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def total_calls(self) -> int:
        """All counted calls: the work count behind the growth metrics."""
        return sum(v for k, v in self.counts.items() if k.endswith("_calls"))

    def layer_ms(self) -> dict[str, float]:
        return {metric: self.self_s[layer] * 1e3 for layer, metric in SELF_METRICS.items()}
