"""Whole-pipeline analysis records, the exhaustive census, and theorem sweeps.

The census walks every isomorphism class of connected graphs with at least
one edge up to a vertex cap, runs the full pipeline on each, and persists
flat JSONL sorted by (n, canonical form).  The levels below the cap are
enumerated first; the top level is generated in the worker pool, one task
per parent class, alongside the analysis of the lower classes.  Every class
comes canonically labeled, so its graph6 is its key, and ``analyze`` is
handed that key instead of computing a canonical form.  Worker
processes only change wall time, never bytes: records are merged and sorted
before writing.  Both files
are replaced atomically, and a sidecar index pins the pipeline version and
the JSONL's sha256; records from another version or from bytes that do not
match the hash are recomputed rather than reused.

A theorem sweep is one row of ``_SWEEPS``: its classes (the connected
classes with edges, or every class with an edge), a statement, and
optionally the closed form of its instance count at each n.  A statement
takes the graph alone and returns None where it does not apply, else the
list of its failure details; one that needs the census record calls
``analyze`` itself, after any cheap applicability test.  One driver,
``_sweep``, runs the statement on every class in the census pool, keyed by
the class's canonical graph6, counts the instances and builds the
violations.  The two licci sweeps count the licci classes and compare each
n with its closed form.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from multiprocessing import get_context

from . import classify
from .classify import PATH, CombinedVerdict, licci_verdict
from .cliques import codim1_conditions, is_chordal, maximal_cliques
from .degeneration import betti_table, initial_ideal, invariants
from .errors import TierExceededError
from .graph6 import emit_graph6, format_edge_list, parse_graph6
from .graphs import (
    ENUMERATION_MAX,
    Graph,
    _children,
    build_graph,
    canonical_form,
    connected_components,
    cut_vertices,
    enumerate_connected,
    enumerate_graphs,
    induced_on,
    is_bipartite,
    is_connected,
    is_decomposable,
)


def _source_version(package_dir: str) -> str:
    """sha256 over the package's ``.py`` sources in sorted name order.

    Any edit to the program gives a new version, so no census record is
    reused by code other than the code that computed it.
    """
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(package_dir) if f.endswith(".py")):
        with open(os.path.join(package_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


PIPELINE_VERSION = _source_version(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class CensusRecord:
    graph6: str
    n: int
    edge_count: int
    chordal: bool
    dim_clique_complex: int
    c_cliques: int
    cut_set_count: int
    unmixed: bool
    dim: int
    depth: int
    reg: int
    cm: bool
    shape: dict
    licci: bool
    routes_agree: bool

    def to_json(self) -> str:
        # keys in field order: the census bytes depend on it
        return json.dumps(vars(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "CensusRecord":
        d = json.loads(line)
        return cls(**d)


def analyze(G: Graph, key: str | None = None) -> CensusRecord:
    """Run the full pipeline on one graph; all licci routes must agree.

    ``key`` is G's canonical graph6 when the caller already holds it, as the
    census does for its canonically labeled classes; otherwise it is computed.
    """
    verdict: CombinedVerdict = licci_verdict(G)
    rec = verdict.witness
    cliques = maximal_cliques(G)
    shapes = verdict.component_shapes
    shape = shapes[0].to_json() if len(shapes) == 1 else {
        "kind": "disconnected",
        "components": [s.to_json() for s in shapes],
    }
    return CensusRecord(
        graph6=canonical_form(G).decode("ascii") if key is None else key,
        n=G.n,
        edge_count=G.edge_count(),
        chordal=verdict.chordal,
        dim_clique_complex=cliques.dim,
        c_cliques=cliques.count,
        cut_set_count=rec.prime_count,
        unmixed=rec.unmixed,
        dim=rec.dim,
        depth=rec.depth,
        reg=rec.reg,
        cm=rec.cm,
        shape=shape,
        licci=verdict.licci,
        routes_agree=True,  # licci_verdict raises otherwise; the byte gate keeps the field
    )


def _in_class(g6: str, fn):
    """fn of the graph that g6 encodes; an error names the class, since
    pool.map re-raises the bare exception."""
    try:
        return fn(parse_graph6(g6.encode("ascii")))
    except Exception as exc:
        exc.args = (f"{exc} (class {g6})",) + exc.args[1:]
        raise


def _worker(g6: str) -> str:
    """The record line of the class whose canonical graph6 is g6."""
    return _in_class(g6, lambda G: analyze(G, g6)).to_json()


def _check_census_tier(max_n: int) -> None:
    """The census tier is the enumeration tier, refused before any class is
    enumerated."""
    if max_n > ENUMERATION_MAX:
        raise TierExceededError(f"census tier is n <= {ENUMERATION_MAX}, got {max_n}")


def census_graphs(max_n: int) -> list[Graph]:
    """Connected classes with edges up to ``max_n``."""
    _check_census_tier(max_n)
    # a connected class with n >= 2 has an edge
    return [g for n in range(2, max_n + 1) for g in enumerate_connected(n)]


def default_jobs() -> int:
    """Requested worker count: BEI_JOBS if set, else all cores."""
    env = os.environ.get("BEI_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"BEI_JOBS must be a positive integer, got {env!r}")
    return jobs


def _pool_size(jobs: int, tasks: int) -> int:
    """Workers actually started: never more than requested, cores or tasks."""
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def _map(fn, items: list, jobs: int) -> list:
    """fn over items, in order: a fork pool of ``_pool_size`` workers, or
    serial for one worker or at most 8 items."""
    workers = _pool_size(jobs, len(items))
    if workers > 1 and len(items) > 8:
        with get_context("fork").Pool(workers) as pool:
            return pool.map(fn, items, chunksize=8)
    return [fn(item) for item in items]


def _census_task(task: tuple[str, frozenset | None]) -> list[tuple[str, str | None]]:
    """One census pool task, as (class, record line) pairs.

    ``(g6, None)`` analyzes the class g6.  ``(g6, held)`` generates the
    connected children of the parent class g6 and analyzes each one whose
    key is not in ``held``; a held child gets None, since the reuse has it.
    """
    g6, held = task
    if held is None:
        return [(g6, _worker(g6))]
    out = []
    for child in _children(parse_graph6(g6.encode("ascii")), connected=True):
        key = emit_graph6(child).decode("ascii")
        out.append((key, None if key in held else _worker(key)))
    return out


def compute_records(
    max_n: int, jobs: int, reuse: dict[str, str]
) -> dict[str, CensusRecord]:
    """Records for every connected class with edges, keyed by canonical graph6.

    Only the levels below ``max_n`` are enumerated here.  The top level is
    generated in the pool, one task per parent class on max_n - 1 vertices,
    so that it overlaps the analysis of the others.
    """
    _check_census_tier(max_n)
    if max_n < 2:
        return {}
    # each enumerated class comes canonically labeled: its graph6 is its form
    lower = [emit_graph6(g).decode("ascii") for g in census_graphs(max_n - 1)]
    parents = [emit_graph6(H).decode("ascii") for H in enumerate_graphs(max_n - 1)]
    held: dict[str, set[str]] = {}
    for key in reuse:
        G = parse_graph6(key.encode("ascii"))
        if G.n == max_n:
            # a canonical class minus its last vertex is its canonical parent
            top = induced_on(G, range(1, max_n)).graph
            held.setdefault(emit_graph6(top).decode("ascii"), set()).add(key)
    tasks = [(k, None) for k in lower if k not in reuse]
    tasks += [(p, frozenset(held.get(p, ()))) for p in parents]
    lines = {k: reuse.get(k) for k in lower}
    for pairs in _map(_census_task, tasks, jobs):
        lines.update(pairs)
    return {
        k: CensusRecord.from_json(reuse[k] if line is None else line)
        for k, line in lines.items()
    }


def _read_reusable(out_path: str, idx_path: str) -> dict[str, str]:
    """Records of a previous census, only if its index vouches for them: same
    pipeline version and the sha256 of exactly the bytes on disk."""
    try:
        with open(idx_path) as fh:
            idx = json.load(fh)
        with open(out_path, "rb") as fh:
            data = fh.read()
        if idx.get("version") != PIPELINE_VERSION:
            return {}
        if idx.get("sha256") != hashlib.sha256(data).hexdigest():
            return {}
        lines = data.decode("utf-8").splitlines()
        return {json.loads(line)["graph6"]: line for line in lines if line}
    except (OSError, ValueError, KeyError, AttributeError, TypeError):
        return {}


def _replace_atomically(path: str, data: bytes) -> None:
    """Write to a temporary file in the same directory, then rename it over path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def run_census(max_n: int, out_path: str, jobs: int) -> list[CensusRecord]:
    """Write one JSONL record per class, canonical order, plus an index sidecar.

    Both files are replaced atomically, the JSONL first; the index pins the
    JSONL's sha256, so a torn or edited JSONL is recomputed, never reused.
    With no class in the tier, nothing is written and the result is empty.
    """
    idx_path = out_path + ".idx"
    reuse = _read_reusable(out_path, idx_path)
    records = compute_records(max_n, jobs, reuse)
    ordered = sorted(
        records.values(), key=lambda r: (r.n, r.graph6.encode("ascii"))
    )
    if not ordered:
        return []
    data = "".join(rec.to_json() + "\n" for rec in ordered).encode("utf-8")
    index = {
        "version": PIPELINE_VERSION,
        "max_n": max_n,
        "count": len(ordered),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    _replace_atomically(out_path, data)
    _replace_atomically(idx_path, json.dumps(index).encode("utf-8"))
    return ordered


# ---------------------------------------------------------------------------
# theorem sweeps


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    tier: int
    instances: int
    violations: tuple[dict, ...]
    wall_time: float

    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "tier": self.tier,
            "instances": self.instances,
            "violations": list(self.violations),
            "wall_time": round(self.wall_time, 3),
        }


def all_graph_classes(max_n: int) -> list[Graph]:
    """Every isomorphism class (connected or not) with at least one edge;
    ``max_n`` above the enumeration tier is refused before any enumeration."""
    if max_n > ENUMERATION_MAX:
        raise TierExceededError(f"enumeration tier is n <= {ENUMERATION_MAX}, got {max_n}")
    out = []
    for n in range(1, max_n + 1):
        out.extend(g for g in enumerate_graphs(n) if g.edge_count())
    return out


def _naoki_bound(g):
    rec = analyze(g)
    cl = maximal_cliques(g)
    bound = g.n - cl.dim
    details = [f"reg {rec.reg} > n-dim {bound}"] if rec.reg > bound else []
    return details + [
        f"clique form fails at {w}"
        for w in cl.maximal_cliques
        if rec.reg > g.n - len(w) + 1
    ]


def _disconnected_bound(g):
    comps = connected_components(g)
    dims = sum(maximal_cliques(induced_on(g, c).graph).dim for c in comps)
    reg = invariants(g).reg
    return [f"reg {reg} > {g.n - dims}"] if reg > g.n - dims else []


def _regmax_path(g):
    rec = analyze(g)
    is_path = rec.shape.get("kind") == PATH
    top = rec.reg == g.n - 1
    return [f"reg {rec.reg}, shape {rec.shape}"] if top != is_path else []


def _licci(g):
    """Counted on the licci classes; ``analyze`` raises if the routes disagree."""
    return [] if analyze(g).licci else None


def _partitions_at_most_3(total: int) -> int:
    count = 0
    for a in range(total + 1):
        for b in range(a + 1):
            c = total - a - b
            if 0 <= c <= b:
                count += 1
    return count


def _partitions(total: int) -> int:
    """p(total), the number of partitions of total into positive parts."""
    ways = [1] + [0] * total
    for part in range(1, total + 1):
        for s in range(part, total + 1):
            ways[s] += ways[s - part]
    return ways[total]


def _licci_connected(n: int) -> int:
    """Licci connected classes on n vertices, 1 + p3(n - 3): the path, and a
    triangle with pendant paths of lengths r >= s >= t summing to n - 3."""
    return 1 + _partitions_at_most_3(n - 3)


def _licci_any(n: int) -> int:
    """Licci classes with an edge on n vertices, p(n) - 1 + sum_{k=3..n}
    p3(k - 3) p(n - k): every component a path (not all isolated vertices),
    or one triangle with pendant paths on k vertices and paths on the rest."""
    return _partitions(n) - 1 + sum(
        _partitions_at_most_3(k - 3) * _partitions(n - k) for k in range(3, n + 1)
    )


def _chordal_licci(g):
    if not is_chordal(g)[0]:
        return None
    rec = analyze(g)
    return [f"reg {rec.reg} > c(G) {rec.c_cliques}"] if rec.reg > rec.c_cliques else []


def _codim1(g):
    if not is_chordal(g)[0]:
        return None
    conds = codim1_conditions(g)
    return [str(conds)] if conds.holds != (maximal_cliques(g).count == g.n - 2) else []


def _cutvertex_degree4(g):
    if not any(g.degree(v) >= 4 for v in cut_vertices(g)):
        return None
    rec = analyze(g)
    return [f"reg {rec.reg}"] if rec.reg > g.n - 3 else []


def _unmixed_gap(g):
    if g.n < 4 or is_decomposable(g) is not None:
        return None
    vertices = range(1, g.n + 1)
    if not any(g.degree(v) == 2 and g.has_edge(*g.neighbors(v)) for v in vertices):
        return None
    rec = analyze(g)
    if not rec.unmixed:
        return None
    return [f"reg {rec.reg}"] if rec.reg > g.n - 3 else []


def _decomposable_reg(g):
    split = is_decomposable(g)
    if split is None:
        return None
    rec = analyze(g)
    _, part1, part2 = split
    inv1 = invariants(part1.graph)
    inv2 = invariants(part2.graph)
    details = []
    if rec.reg != inv1.reg + inv2.reg:
        details.append("regularity not additive")
    if rec.reg == g.n - 2 and not any(
        classify.classify_shape(p.graph).kind == PATH and inv.reg == q.graph.n - 2
        for p, q, inv in ((part1, part2, inv2), (part2, part1, inv1))
    ):
        details.append("no path part with top reg")
    return details


def _bipartite_licci(g):
    if not is_bipartite(g):
        return None
    rec = analyze(g)
    is_path = rec.shape.get("kind") == PATH
    return ["bipartite mismatch"] if rec.licci != is_path else []


def _terai_duality(g):
    """reg and pd of the initial ideal's own Betti table equal the ones that
    ``invariants`` reads off the Alexander dual's table."""
    primal = betti_table(initial_ideal(g))
    dual = invariants(g)
    if (primal.reg, primal.pd) == (dual.reg, dual.pd):
        return []
    return [f"primal reg {primal.reg} pd {primal.pd}, dual reg {dual.reg} pd {dual.pd}"]


def _hu_necessary(g):
    """Counted on every class, checked on the licci ones."""
    rec = analyze(g)
    height = 2 * g.n - rec.dim
    return ["bound fails"] if rec.licci and rec.reg < (height - 1) * (2 - 1) else []


# theorem id -> (classes, statement, closed-form instance count at each n or None)
_SWEEPS = {
    "naoki-bound": (census_graphs, _naoki_bound, None),
    "disconnected-bound": (all_graph_classes, _disconnected_bound, None),
    "regmax-path": (census_graphs, _regmax_path, None),
    "licci-equivalence": (census_graphs, _licci, _licci_connected),
    "chordal-licci": (census_graphs, _chordal_licci, None),
    "codim1": (census_graphs, _codim1, None),
    "cutvertex-degree4": (census_graphs, _cutvertex_degree4, None),
    "unmixed-gap": (census_graphs, _unmixed_gap, None),
    "decomposable-reg": (census_graphs, _decomposable_reg, None),
    "bipartite-licci": (census_graphs, _bipartite_licci, None),
    "disconnected-licci": (all_graph_classes, _licci, _licci_any),
    "hu-necessary": (census_graphs, _hu_necessary, None),
    "terai-duality": (census_graphs, _terai_duality, None),
}


def _sweep_worker(item: tuple[str, str]):
    theorem_id, g6 = item
    return _in_class(g6, _SWEEPS[theorem_id][1])


def _sweep(theorem_id: str, max_n: int, jobs: int):
    """One statement over its classes in the census pool: (instances, violations).

    A statement returns None where it does not apply to a graph, else the
    list of its failure details there (empty when it holds).  With a count,
    the instances at each n from 2 must also equal it.
    """
    classes, _, count = _SWEEPS[theorem_id]
    graphs = classes(max_n)
    # each enumerated class comes canonically labeled: its graph6 is its form
    keys = [emit_graph6(g).decode("ascii") for g in graphs]
    results = _map(_sweep_worker, [(theorem_id, k) for k in keys], jobs)
    per_n, violations = Counter(), []
    for g, key, details in zip(graphs, keys, results):
        if details is not None:
            per_n[g.n] += 1
            violations.extend({"graph6": key, "detail": d} for d in details)
    if count:
        for n in range(2, max_n + 1):
            if per_n[n] != count(n):
                detail = f"licci count at n={n}: {per_n[n]} != {count(n)}"
                violations.append({"graph6": "", "detail": detail})
    return sum(per_n.values()), violations


def _labeled_graph(n: int, bits: int) -> Graph:
    """The graph on 1..n with the pairs (in lex order) that bits selects."""
    pairs = combinations(range(1, n + 1), 2)
    return build_graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


def _labeled_connected(n: int) -> list[Graph]:
    graphs = (_labeled_graph(n, bits) for bits in range(1 << n * (n - 1) // 2))
    return [g for g in graphs if is_connected(g)]


# check -> (theorem id, (oracle module, labeled graph) -> [(label suffix, ok)],
# seeded n = 5 sample?); only a campaign imports the oracle
_ORACLE_CHECKS = {
    "primary-decomposition": (
        "primary-decomposition-oracle",
        lambda oracle, g: [("", oracle.verify_primary_decomposition(g))],
        True,
    ),
    "colon": (
        "colon-oracle",
        lambda oracle, g: [
            (f" e={e[0]}-{e[1]}", oracle.verify_colon_theorem(g, e)) for e in g.edges()
        ],
        False,
    ),
    "initial": (
        "initial-ideal-oracle",
        lambda oracle, g: [("", oracle.verify_initial_ideal(g))],
        True,
    ),
    "ohtani": (
        "ohtani-oracle",
        lambda oracle, g: [
            (f" v={v}", oracle.verify_ohtani(g, v)) for v in cut_vertices(g)
        ],
        False,
    ),
}


def _oracle_campaign(check: str, max_n: int):
    """Exhaustive labeled runs at n <= 4, plus a seeded n = 5 sample where allowed.

    Returns (instances, violations, fixtures), one fixture per instance.
    Nothing above n = 5 is checked, so a larger ``max_n`` is refused.
    """
    if max_n > 5:
        raise TierExceededError(f"oracle campaign tier is n <= 5, got {max_n}")
    from . import oracle

    _, checks, sampled = _ORACLE_CHECKS[check]
    graphs = [g for n in range(1, min(max_n, 4) + 1) for g in _labeled_connected(n)]
    if max_n >= 5 and sampled:
        rng = random.Random(20240 + len(check))
        target = len(graphs) + 12
        while len(graphs) < target:
            g = _labeled_graph(5, rng.getrandbits(10))
            if is_connected(g):
                graphs.append(g)
    fixtures = []
    for g in graphs:
        g6 = emit_graph6(g).decode("ascii")
        label = format_edge_list(g)
        fixtures.extend(
            {"graph6": g6, "labeling": label + suffix, "check": check, "ok": ok}
            for suffix, ok in checks(oracle, g)
        )
    violations = [
        {"graph6": fx["graph6"], "detail": fx["labeling"]}
        for fx in fixtures
        if not fx["ok"]
    ]
    return len(fixtures), violations, fixtures


def write_fixtures(fixtures: list[dict], path: str) -> None:
    data = "".join(json.dumps(fx, separators=(",", ":")) + "\n" for fx in fixtures)
    _replace_atomically(path, data.encode("utf-8"))


_ORACLE_IDS = {tid: check for check, (tid, _, _) in _ORACLE_CHECKS.items()}

# every id that ``bei verify`` offers: the sweeps, then the oracle campaigns
THEOREMS = [*_SWEEPS, *_ORACLE_IDS]


def run_verification(theorem_id: str, max_n: int, jobs: int) -> VerificationReport:
    start = time.monotonic()
    if theorem_id in _SWEEPS:
        instances, violations = _sweep(theorem_id, max_n, jobs)
    elif theorem_id in _ORACLE_IDS:
        instances, violations, _ = _oracle_campaign(_ORACLE_IDS[theorem_id], max_n)
    else:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; known: {sorted(THEOREMS)}"
        )
    return VerificationReport(
        theorem=theorem_id,
        tier=max_n,
        instances=instances,
        violations=tuple(violations),
        wall_time=time.monotonic() - start,
    )
