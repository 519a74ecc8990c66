"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass so that no module-level state of
the program (record memo, homology part cache, ``lru_cache``s on the graph
functions) carries from one timed pass into the next.  The last line of
standard output is one JSON object describing the pass.

    PYTHONPATH=src python3 perfbench/bench.py --workload certify-n5 --seed 1 \\
        --pass-index 0 --spawned-at <parent time.monotonic()> --work-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "census_n6.jsonl"

# connected classes with at least one edge, n = 2..7 (OEIS A001349)
CONNECTED_CLASSES = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CODIM1_INSTANCES_N7 = 353  # connected chordal classes with edges, n <= 7
STREAM_N6_STRIDE = 12  # the stream asks for every 12th n=6 class in canonical order


def load_reference() -> dict[str, str]:
    """Census-n6 JSONL lines captured with ``--jobs 1``, keyed by canonical graph6."""
    out = {}
    with open(REFERENCE) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                out[json.loads(line)["graph6"]] = line
    return out


def graph6_edges(g6: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode short-form graph6 without the program's codec (1-based edges)."""
    n = ord(g6[0]) - 63
    bits = []
    for ch in g6[1:]:
        bits.extend((ord(ch) - 63) >> s & 1 for s in range(5, -1, -1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i + 1, j + 1))
            k += 1
    return n, edges


def relabel(rng: random.Random, g6: str):
    """A uniformly random relabeling of a reference class, as a program graph."""
    from bei.graphs import build_graph

    n, edges = graph6_edges(g6)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return build_graph(n, [(perm[a - 1], perm[b - 1]) for a, b in edges])


def cut_vertices(n: int, edges) -> list[int]:
    """Vertices whose removal disconnects the graph, by search (independent of the program)."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    for v in range(1, n + 1):
        rest = [u for u in adj if u != v]
        seen = {rest[0]} if rest else set()
        stack = list(seen)
        while stack:
            for w in adj[stack.pop()] - seen - {v}:
                seen.add(w)
                stack.append(w)
        if len(seen) < len(rest):
            out.append(v)
    return out


def licci_expected(n: int) -> int:
    """1 + p3(n-3), the number of licci classes on n vertices (1 for n < 3)."""
    if n < 3:
        return 1
    t = n - 3
    return 1 + sum(1 for a in range(t + 1) for b in range(a + 1) if 0 <= t - a - b <= b)


def peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids)


def cold_state() -> dict:
    """Sizes of the program's module-level caches; all 0 in a fresh interpreter."""
    from bei import census, degeneration, graphs

    caches = {
        "canonical_form": getattr(graphs, "canonical_form", None),
        "all_graphs": getattr(graphs, "_all_graphs", None),
        "part_cache": getattr(degeneration, "_PART_CACHE", None),
        "record_memo": getattr(census, "_RECORD_MEMO", None),
    }
    return {
        name: cache.cache_info().currsize if hasattr(cache, "cache_info") else len(cache)
        for name, cache in caches.items()
        if cache is not None
    }


# ---------------------------------------------------------------------------
# workloads: the constructor builds the inputs from the seed and pass index
# (set-up), run() is timed, and check() applies the correctness gate
# afterwards, returning the number of failed items.  ``replicas`` is how many
# passes of identical work run.py times per group, fixed so that every commit
# takes the minimum over the same number of tries.


def call_cli(argv: list[str], tracer) -> str:
    """Run the ``bei`` command in-process; return its standard output."""
    from bei.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            if tracer is None:
                main(argv, standalone_mode=False)
            else:
                tracer.span("cli.main", main, argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"bei {argv[0]} exited with {exc.code}") from None
    return out.getvalue()


class CensusN6:
    """``bei census --max-n 6 --jobs 2``, cold, to a fresh output path."""

    per_item = False
    replicas = 4  # one group of four cold censuses fills a run
    items = sum(c for n, c in CONNECTED_CLASSES.items() if n <= 6)

    def __init__(self, seed: int, pass_index: int, work_dir: Path, jobs: int):
        self.out = work_dir / f"census-{os.getpid()}.jsonl"
        if self.out.exists() or Path(f"{self.out}.idx").exists():
            raise RuntimeError(f"{self.out} exists, so the census would reuse it")
        self.argv = ["census", "--max-n", "6", "--out", str(self.out), "--jobs", str(jobs)]

    def run(self, tracer):
        call_cli(self.argv, tracer)

    def check(self, _result) -> int:
        """Bytes equal to the reference, and 1 + p3(n-3) licci classes at each n."""
        reference = list(load_reference().values())
        with open(self.out) as fh:
            lines = fh.read().splitlines()
        failed = len(set(reference) - set(lines)) + len(set(lines) - set(reference))
        if lines != reference:
            failed = max(failed, 1)
        licci: dict[int, int] = {}
        for line in lines:
            rec = json.loads(line)
            licci[rec["n"]] = licci.get(rec["n"], 0) + rec["licci"]
        for n in range(2, 7):
            if licci.get(n, 0) != licci_expected(n):
                failed += CONNECTED_CLASSES[n]
        return min(failed, self.items)


class SweepN7:
    """``bei verify --theorem codim1 --max-n 7``, cold."""

    per_item = False
    replicas = 2
    items = sum(CONNECTED_CLASSES.values())

    def __init__(self, seed: int, pass_index: int, work_dir: Path, jobs: int):
        self.argv = ["verify", "--theorem", "codim1", "--max-n", "7", "--json"]

    def run(self, tracer):
        return call_cli(self.argv, tracer)

    def check(self, stdout: str) -> int:
        """353 instances, no violation, and the known class counts at n = 2..7."""
        from bei.graphs import enumerate_connected

        report = json.loads(stdout.strip().splitlines()[-1])
        failed = len(report["violations"]) + abs(report["instances"] - CODIM1_INSTANCES_N7)
        for n, count in CONNECTED_CLASSES.items():
            failed += abs(len(enumerate_connected(n)) - count)
        return min(failed, self.items)


def _timed_items(requests, call, tracer):
    """Closed loop: each request starts when the previous one has returned."""
    from bei.errors import ResourceBudgetError, RouteDisagreementError, TierExceededError

    results, latencies = [], []
    perf = time.perf_counter
    for i, args in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        start = perf()
        try:
            result = call(*args)
        except (ResourceBudgetError, RouteDisagreementError, TierExceededError) as exc:
            result = exc
        latencies.append((perf() - start) * 1e3)
        results.append(result)
    return results, latencies


class AnalyzeStream:
    """Labeled graphs through ``bei.census.analyze``, half of them repeats."""

    per_item = True
    replicas = 2

    def __init__(self, seed: int, pass_index: int, work_dir: Path, jobs: int):
        from bei import census

        self.census = census
        self.reference = load_reference()
        by_n: dict[int, list[str]] = {}
        for g6, line in self.reference.items():
            by_n.setdefault(json.loads(line)["n"], []).append(g6)
        small = by_n[4] + by_n[5]
        distinct = small + by_n[6][::STREAM_N6_STRIDE]
        # Every class twice, under two labelings: whichever comes second is a
        # repeat of a graph already seen.  The labelings depend on the pass
        # index only, because the cost of one class varies up to 10x with its
        # labeling and would otherwise dominate the spread across seeds; the
        # seed sets the order, and with it what the warm caches hold when each
        # request arrives.
        labels = random.Random(f"analyze-stream:{pass_index}")
        stream = [(g6, relabel(labels, g6)) for g6 in distinct + distinct]
        random.Random(f"analyze-stream:{seed}:{pass_index}").shuffle(stream)
        self.expected = [g6 for g6, _ in stream]
        self.requests = [(G,) for _, G in stream]
        self.items = len(stream)
        # warm-up under labelings of its own: the service has seen small graphs before
        warmup = random.Random(f"analyze-stream-warmup:{pass_index}")
        for g6 in small:
            census.analyze(relabel(warmup, g6))

    def run(self, tracer):
        # looked up per call, so that the traced run reaches the wrapper
        return _timed_items(self.requests, lambda G: self.census.analyze(G), tracer)

    def check(self, result) -> int:
        """Each record equals the census-n6 record of the class it was drawn from."""
        records, _ = result
        return sum(
            1
            for rec, g6 in zip(records, self.expected)
            if isinstance(rec, Exception) or rec.to_json() != self.reference[g6]
        )


class CertifyN5:
    """Gröbner-oracle certification of every connected class with n <= 5, relabeled."""

    per_item = True
    replicas = 2

    def __init__(self, seed: int, pass_index: int, work_dir: Path, jobs: int):
        from bei import oracle

        rng = random.Random(f"certify-n5:{seed}:{pass_index}")
        checks = []  # (oracle function name, graph, vertex or edge)
        for g6, line in load_reference().items():
            n, _ = graph6_edges(g6)
            if n > 5:
                continue
            G = relabel(rng, g6)
            edges = G.edges()
            checks.append(("verify_primary_decomposition", G))
            checks.append(("verify_initial_ideal", G))
            checks.extend(("verify_ohtani", G, v) for v in cut_vertices(n, edges))
            if n <= 4:
                checks.extend(("verify_colon_theorem", G, e) for e in edges)
        self.oracle = oracle
        self.requests = checks
        self.items = len(checks)

    def run(self, tracer):
        return _timed_items(
            self.requests, lambda name, *a: getattr(self.oracle, name)(*a), tracer
        )

    def check(self, result) -> int:
        """Every check returns ``True``."""
        results, _ = result
        return sum(1 for r in results if r is not True)


WORKLOADS = {
    "census-n6": CensusN6,
    "analyze-stream": AnalyzeStream,
    "sweep-n7": SweepN7,
    "certify-n5": CertifyN5,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from bei.graphs import canonical_form

    cold = cold_state()
    workload = WORKLOADS[args.workload](args.seed, args.pass_index, args.work_dir, args.jobs)
    out = {"workload": args.workload, "cold": cold, "items": workload.items}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cache_info = getattr(canonical_form, "cache_info", None)
    cache_before = cache_info() if cache_info else None
    first_call = time.monotonic()
    out["setup_s"] = first_call - args.spawned_at
    if args.setup_only:
        out["peak_rss_kb"] = peak_rss_kb()
        print(json.dumps(out))
        return 0

    start = time.perf_counter()
    try:
        result = workload.run(tracer)
    except Exception as exc:  # a failed pass is reported, not raised
        out.update(wall_s=time.perf_counter() - start, failed=workload.items,
                   error=f"{type(exc).__name__}: {exc}", latencies_ms=[])
    else:
        out["wall_s"] = time.perf_counter() - start
        out["latencies_ms"] = result[1] if workload.per_item else []
        if tracer is not None:
            from tracer import layer_metrics

            hits = misses = 0
            if cache_info:
                hits = cache_info().hits - cache_before.hits
                misses = cache_info().misses - cache_before.misses
            out["layers"] = layer_metrics(tracer, hits / (hits + misses) if hits + misses else 0.0)
            out["canonical_cache_calls"] = hits + misses
        out["failed"] = workload.check(result)
    out["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
