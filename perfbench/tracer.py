"""Spans around the calls into each ``bei.*`` module's public functions.

The program is not edited: :func:`install` replaces every public module-level
function of the layer modules with a timing wrapper, in every ``bei.*``
namespace that binds it (``from .x import y`` copies the binding, so patching
the defining module alone would miss most calls).  Spans stay in memory as
``(parent, request, name, start, end)`` tuples and are reduced to per-layer
numbers by :func:`layer_metrics` after the timed section.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = (
    "graphs",
    "graph6",
    "cliques",
    "primes",
    "degeneration",
    "classify",
    "oracle",
    "census",
    "cli",
)


def _gens(ideal) -> int:
    return len(ideal.min_gens)


def _betti_total(table) -> int:
    return sum(rank for _, _, rank in table.entries)


# result-size counters: function -> (counter name, size of one result)
RESULT_COUNTERS = {
    "degeneration.initial_ideal": ("degeneration.generators", _gens),
    "degeneration.betti_table": ("degeneration.betti_total", _betti_total),
    "primes.cut_sets": ("primes.cut_sets_found", len),
    "oracle.buchberger": ("oracle.basis_size", len),
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0
        self.sizes: dict[str, int] = {}
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        perf = time.perf_counter
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[sid] = (parent, self.request, name, start, end)
            if counter is not None:
                key, size = counter
                self.sizes[key] = self.sizes.get(key, 0) + size(result)
            return result

        return wrapper

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (for entry points such as the CLI group)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every public function defined in a layer module, wherever it is bound."""
        modules = {m: importlib.import_module(f"bei.{m}") for m in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue  # classes, click commands, constants
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                replaced[id(obj)] = self._wrap(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, canonical_cache_hit_ratio: float) -> dict:
    """Reduce the recorded spans to the per-layer metrics of BENCHMARK.json.

    ``census.parallel_efficiency`` and ``trace.overhead_ratio`` need untraced
    wall times from other processes and are added by the caller.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for sid, (_, _, name, start, end) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[sid]

    def inclusive(names) -> float:
        """Busy time in ``names``, counting a nested call of the set once."""
        names = set(names)
        total = 0.0
        for parent, _, name, start, end in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][2] not in names:
                p = spans[p][0]
            if p < 0:
                total += end - start
        return total

    def prefixed(prefix: str) -> list[str]:
        return [n for n in tracer.originals if n.startswith(prefix)]

    verdicts = calls.get("classify.licci_verdict", 0)
    routes = sum(
        calls.get(f"classify.{r}", 0)
        for r in ("licci_by_shape", "licci_by_algebra", "chordal_licci")
    )
    m = {
        "graphs.canonical_form_s": inclusive(["graphs.canonical_form"]),
        "graphs.canonical_form_calls": calls.get("graphs.canonical_form", 0),
        "graphs.canonical_cache_hit_ratio": canonical_cache_hit_ratio,
        "graphs.enumerate_s": inclusive(["graphs.enumerate_graphs", "graphs.enumerate_connected"]),
        "graphs.simple_paths_s": inclusive(["graphs.simple_paths"]),
        "graph6.codec_s": inclusive(prefixed("graph6.")),
        "cliques.maximal_cliques_s": inclusive(["cliques.maximal_cliques"]),
        "cliques.is_chordal_s": inclusive(["cliques.is_chordal"]),
        "primes.cut_sets_s": inclusive(["primes.cut_sets"]),
        "primes.cut_sets_calls": calls.get("primes.cut_sets", 0),
        "primes.cut_sets_found": tracer.sizes.get("primes.cut_sets_found", 0),
        "degeneration.invariants_s": inclusive(["degeneration.invariants"]),
        "degeneration.invariants_calls": calls.get("degeneration.invariants", 0),
        "degeneration.betti_table_s": inclusive(["degeneration.betti_table"]),
        "degeneration.initial_ideal_s": inclusive(["degeneration.initial_ideal"]),
        "degeneration.generators": tracer.sizes.get("degeneration.generators", 0),
        "degeneration.betti_total": tracer.sizes.get("degeneration.betti_total", 0),
        "degeneration.invariants_per_verdict": _ratio(
            calls.get("degeneration.invariants", 0), verdicts
        ),
        "classify.licci_verdict_self_s": self_s.get("classify.licci_verdict", 0.0),
        "classify.routes_per_verdict": _ratio(routes, verdicts),
        "oracle.verify_s": inclusive(prefixed("oracle.verify_")),
        "oracle.buchberger_s": inclusive(["oracle.buchberger"]),
        "oracle.buchberger_calls": calls.get("oracle.buchberger", 0),
        "oracle.basis_size": tracer.sizes.get("oracle.basis_size", 0),
        "oracle.intersection_s": inclusive(["oracle.ideal_intersection"]),
        "oracle.colon_s": inclusive(["oracle.ideal_colon"]),
        "census.analyze_s": inclusive(["census.analyze"]),
        "census.compute_records_self_s": self_s.get("census.compute_records", 0.0),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t for name, t in self_s.items() if name.split(".", 1)[0] == layer
        )
    return m
