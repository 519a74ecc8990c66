"""Whole-pipeline analysis records, the exhaustive census, and theorem sweeps.

The census walks every isomorphism class of connected graphs with at least
one edge up to a vertex cap, runs the full pipeline on each, and persists
flat JSONL sorted by (n, canonical form).  Worker processes only change wall
time, never bytes: records are merged and sorted before writing.  Both files
are replaced atomically, and a sidecar index pins the pipeline version and
the JSONL's sha256; records from another version or from bytes that do not
match the hash are recomputed rather than reused.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from itertools import combinations
from multiprocessing import get_context
from typing import Optional

from . import classify
from .classify import PATH, TRIANGLE_WITH_PATHS, CombinedVerdict, licci_verdict
from .cliques import codim1_conditions, is_chordal, maximal_cliques
from .degeneration import invariants
from .errors import TierExceededError
from .graph6 import emit_graph6, parse_graph6
from .graphs import (
    Graph,
    build_graph,
    canonical_form,
    connected_components,
    enumerate_connected,
    enumerate_graphs,
    induced_on,
    is_bipartite,
    is_connected,
    is_decomposable,
)
from .oracle import (
    cut_vertices,
    verify_colon_theorem,
    verify_initial_ideal,
    verify_ohtani,
    verify_primary_decomposition,
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

CENSUS_MAX_N = 7
CENSUS_BEST_EFFORT_N = 8


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
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "CensusRecord":
        d = json.loads(line)
        return cls(**d)


def analyze(G: Graph, best_effort: bool = False) -> CensusRecord:
    """Run the full pipeline on one graph; all licci routes must agree."""
    verdict: CombinedVerdict = licci_verdict(G, best_effort)
    rec = verdict.witness
    cliques = maximal_cliques(G)
    shape = verdict.shape.to_json() if verdict.shape else {
        "kind": "disconnected",
        "components": [s.to_json() for s in verdict.component_shapes],
    }
    return CensusRecord(
        graph6=canonical_form(G).decode("ascii"),
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
        routes_agree=verdict.routes_agree,
    )


def _worker(args: tuple[str, bool]) -> str:
    g6, best_effort = args
    return analyze(parse_graph6(g6.encode("ascii")), best_effort).to_json()


def census_graphs(max_n: int, best_effort: bool = False) -> list[Graph]:
    cap = CENSUS_BEST_EFFORT_N if best_effort else CENSUS_MAX_N
    if max_n > cap:
        raise TierExceededError(
            f"census tier is {CENSUS_MAX_N} (or {CENSUS_BEST_EFFORT_N} with "
            f"best-effort), got {max_n}"
        )
    out = []
    for n in range(2, max_n + 1):
        out.extend(g for g in enumerate_connected(n) if g.edge_count())
    return out


def default_jobs() -> int:
    """Requested worker count: BEI_JOBS if set, else all cores."""
    env = os.environ.get("BEI_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"BEI_JOBS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _pool_size(jobs: int, tasks: int) -> int:
    """Workers actually started: never more than requested, cores or tasks."""
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def compute_records(
    max_n: int,
    jobs: Optional[int] = None,
    best_effort: bool = False,
    reuse: Optional[dict[str, str]] = None,
) -> dict[str, CensusRecord]:
    """Records for every connected class with edges, keyed by canonical graph6."""
    jobs = jobs or default_jobs()
    graphs = census_graphs(max_n, best_effort)
    keys = [canonical_form(g).decode("ascii") for g in graphs]
    todo = [k for k in keys if not (reuse and k in reuse)]
    lines: dict[str, str] = {k: reuse[k] for k in keys if reuse and k in reuse}
    if todo:
        work = [(k, best_effort) for k in todo]
        workers = _pool_size(jobs, len(todo))
        if workers > 1 and len(todo) > 8:
            with get_context("fork").Pool(workers) as pool:
                results = pool.map(_worker, work, chunksize=8)
        else:
            results = [_worker(w) for w in work]
        lines.update(zip(todo, results))
    return {k: CensusRecord.from_json(lines[k]) for k in keys}


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


def run_census(
    max_n: int,
    out_path: str,
    jobs: Optional[int] = None,
    best_effort: bool = False,
) -> list[CensusRecord]:
    """Write one JSONL record per class, canonical order, plus an index sidecar.

    Both files are replaced atomically, the JSONL first; the index pins the
    JSONL's sha256, so a torn or edited JSONL is recomputed, never reused.
    With no class in the tier, nothing is written and the result is empty.
    """
    idx_path = out_path + ".idx"
    reuse = _read_reusable(out_path, idx_path)
    records = compute_records(max_n, jobs, best_effort, reuse or None)
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
        "keys": [r.graph6 for r in ordered],
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


def _connected_data(max_n: int, jobs):
    """(graph, record) pairs for connected classes with edges."""
    records = compute_records(max_n, jobs)
    out = []
    for n in range(2, max_n + 1):
        for g in enumerate_connected(n):
            if g.edge_count():
                out.append((g, records[canonical_form(g).decode("ascii")]))
    return out


def all_graph_classes(max_n: int) -> list[Graph]:
    """Every isomorphism class (connected or not) with at least one edge."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(g for g in enumerate_graphs(n) if g.edge_count())
    return out


def _labeled_connected(n: int) -> list[Graph]:
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for k in range(1 << len(pairs)):
        g = build_graph(n, [pairs[i] for i in range(len(pairs)) if k >> i & 1])
        if is_connected(g):
            out.append(g)
    return out


def _partitions_at_most_3(total: int) -> int:
    count = 0
    for a in range(total + 1):
        for b in range(a + 1):
            c = total - a - b
            if 0 <= c <= b:
                count += 1
    return count


def _check_naoki_bound(max_n, jobs):
    violations = []
    data = _connected_data(max_n, jobs)
    for g, rec in data:
        cl = maximal_cliques(g)
        if rec.reg > g.n - cl.dim:
            violations.append({"graph6": rec.graph6, "detail": f"reg {rec.reg} > n-dim {g.n - cl.dim}"})
        for w in cl.maximal_cliques:
            if rec.reg > g.n - len(w) + 1:
                violations.append({"graph6": rec.graph6, "detail": f"clique form fails at {w}"})
    return len(data), violations


def _check_disconnected_bound(max_n, jobs):
    violations = []
    classes = all_graph_classes(max_n)
    for g in classes:
        comps = connected_components(g)
        dims = sum(
            maximal_cliques(induced_on(g, c).graph).dim for c in comps
        )
        rec = invariants(g)
        if rec.reg > g.n - dims:
            violations.append(
                {
                    "graph6": canonical_form(g).decode("ascii"),
                    "detail": f"reg {rec.reg} > {g.n - dims}",
                }
            )
    return len(classes), violations


def _check_regmax_path(max_n, jobs):
    violations = []
    data = _connected_data(max_n, jobs)
    for g, rec in data:
        is_path = rec.shape.get("kind") == PATH
        if (rec.reg == g.n - 1) != is_path:
            violations.append(
                {"graph6": rec.graph6, "detail": f"reg {rec.reg}, shape {rec.shape}"}
            )
    return len(data), violations


def _check_licci_equivalence(max_n, jobs):
    violations = []
    data = _connected_data(max_n, jobs)
    per_n: dict[int, int] = {}
    for g, rec in data:
        if not rec.routes_agree:
            violations.append({"graph6": rec.graph6, "detail": "routes disagree"})
        if rec.licci:
            per_n[g.n] = per_n.get(g.n, 0) + 1
    for n in range(2, max_n + 1):
        expected = 1 + (_partitions_at_most_3(n - 3) if n >= 3 else 0)
        if per_n.get(n, 0) != expected:
            violations.append(
                {
                    "graph6": "",
                    "detail": f"licci count at n={n}: {per_n.get(n, 0)} != {expected}",
                }
            )
    return len(data), violations


def _check_chordal_licci(max_n, jobs):
    violations = []
    data = [(g, r) for g, r in _connected_data(max_n, jobs) if r.chordal]
    for g, rec in data:
        relaxed = rec.unmixed and rec.reg >= g.n - 2
        if relaxed != rec.licci:
            violations.append(
                {"graph6": rec.graph6, "detail": "unmixed route differs"}
            )
        if rec.reg > rec.c_cliques:
            violations.append(
                {"graph6": rec.graph6, "detail": f"reg {rec.reg} > c(G) {rec.c_cliques}"}
            )
    return len(data), violations


def _check_codim1(max_n, jobs):
    violations = []
    checked = 0
    for n in range(2, max_n + 1):
        for g in enumerate_connected(n):
            if not g.edge_count() or not is_chordal(g)[0]:
                continue
            checked += 1
            conds = codim1_conditions(g)
            if conds.holds != (maximal_cliques(g).count == g.n - 2):
                violations.append(
                    {"graph6": canonical_form(g).decode("ascii"), "detail": str(conds)}
                )
    return checked, violations


def _check_cutvertex_degree4(max_n, jobs):
    violations = []
    data = _connected_data(max_n, jobs)
    checked = 0
    for g, rec in data:
        if not any(g.degree(v) >= 4 for v in cut_vertices(g)):
            continue
        checked += 1
        if rec.reg > g.n - 3:
            violations.append({"graph6": rec.graph6, "detail": f"reg {rec.reg}"})
    return checked, violations


def _check_unmixed_gap(max_n, jobs):
    violations = []
    data = _connected_data(max_n, jobs)
    checked = 0
    for g, rec in data:
        if g.n < 4 or not rec.unmixed:
            continue
        if is_decomposable(g) is not None:
            continue
        has_gap_vertex = any(
            g.degree(v) == 2 and g.has_edge(*g.neighbors(v))
            for v in range(1, g.n + 1)
        )
        if not has_gap_vertex:
            continue
        checked += 1
        if rec.reg > g.n - 3:
            violations.append({"graph6": rec.graph6, "detail": f"reg {rec.reg}"})
    return checked, violations


def _check_decomposable_reg(max_n, jobs):
    violations = []
    data = _connected_data(max_n, jobs)
    checked = 0
    for g, rec in data:
        split = is_decomposable(g)
        if split is None:
            continue
        checked += 1
        _, part1, part2 = split
        inv1 = invariants(part1.graph)
        inv2 = invariants(part2.graph)
        if rec.reg != inv1.reg + inv2.reg:
            violations.append(
                {"graph6": rec.graph6, "detail": "regularity not additive"}
            )
        if rec.reg == g.n - 2:
            shapes = (
                classify.classify_shape(part1.graph),
                classify.classify_shape(part2.graph),
            )
            ok = (
                shapes[0].kind == PATH and inv2.reg == part2.graph.n - 2
            ) or (
                shapes[1].kind == PATH and inv1.reg == part1.graph.n - 2
            )
            if not ok:
                violations.append(
                    {"graph6": rec.graph6, "detail": "no path part with top reg"}
                )
    return checked, violations


def _check_bipartite(max_n, jobs):
    violations = []
    data = [(g, r) for g, r in _connected_data(max_n, jobs) if is_bipartite(g)]
    for g, rec in data:
        if rec.licci != (rec.shape.get("kind") == PATH):
            violations.append({"graph6": rec.graph6, "detail": "bipartite mismatch"})
    return len(data), violations


def _check_disconnected_licci(max_n, jobs):
    violations = []
    checked = 0
    for g in all_graph_classes(max_n):
        if is_connected(g):
            continue
        checked += 1
        try:
            verdict = licci_verdict(g)
        except classify.RouteDisagreementError as exc:
            violations.append(
                {"graph6": canonical_form(g).decode("ascii"), "detail": str(exc)}
            )
            continue
        comps = connected_components(g)
        kinds = [
            classify.classify_shape(induced_on(g, c).graph).kind for c in comps
        ]
        expected = all(k == PATH for k in kinds) or (
            kinds.count(TRIANGLE_WITH_PATHS) == 1
            and all(k in (PATH, TRIANGLE_WITH_PATHS) for k in kinds)
        )
        if verdict.licci != expected:
            violations.append(
                {"graph6": canonical_form(g).decode("ascii"), "detail": "shape rule"}
            )
    return checked, violations


def _check_hu_necessary(max_n, jobs):
    violations = []
    data = _connected_data(max_n, jobs)
    for g, rec in data:
        if not rec.licci:
            continue
        height = 2 * g.n - rec.dim
        if rec.reg < (height - 1) * (2 - 1):
            violations.append({"graph6": rec.graph6, "detail": "bound fails"})
    return len(data), violations


def _oracle_campaign(check: str, max_n: int):
    """Exhaustive labeled runs at n <= 4 (plus fixed n=5 samples where allowed)."""
    import random

    violations = []
    fixtures = []
    checked = 0

    def record(g: Graph, label: str, ok: bool):
        nonlocal checked
        checked += 1
        fixtures.append(
            {
                "graph6": emit_graph6(g).decode("ascii"),
                "labeling": label,
                "check": check,
                "ok": ok,
            }
        )
        if not ok:
            violations.append(
                {"graph6": emit_graph6(g).decode("ascii"), "detail": label}
            )

    for n in range(1, min(max_n, 4) + 1):
        for g in _labeled_connected(n):
            label = f"{n};" + ",".join(f"{a}-{b}" for a, b in g.edges())
            if check == "primary-decomposition":
                record(g, label, verify_primary_decomposition(g))
            elif check == "initial":
                record(g, label, verify_initial_ideal(g))
            elif check == "colon":
                for e in g.edges():
                    record(g, f"{label} e={e[0]}-{e[1]}", verify_colon_theorem(g, e))
            elif check == "ohtani":
                for v in cut_vertices(g):
                    record(g, f"{label} v={v}", verify_ohtani(g, v))
            else:
                raise ValueError(f"unknown oracle check {check!r}")
    if max_n >= 5 and check in ("primary-decomposition", "initial"):
        rng = random.Random(20240 + len(check))
        pairs = list(combinations(range(1, 6), 2))
        done = 0
        while done < 12:
            k = rng.getrandbits(len(pairs))
            g = build_graph(5, [pairs[i] for i in range(len(pairs)) if k >> i & 1])
            if not is_connected(g):
                continue
            label = "5;" + ",".join(f"{a}-{b}" for a, b in g.edges())
            if check == "primary-decomposition":
                record(g, label, verify_primary_decomposition(g))
            else:
                record(g, label, verify_initial_ideal(g))
            done += 1
    return checked, violations, fixtures


def write_fixtures(fixtures: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for fx in fixtures:
            fh.write(json.dumps(fx, separators=(",", ":")) + "\n")


def _oracle_sweep(check: str):
    """A theorem-sweep entry running one oracle campaign; fixtures are dropped."""

    def sweep(max_n, jobs):
        instances, violations, _ = _oracle_campaign(check, max_n)
        return instances, violations

    return sweep


THEOREMS = {
    "naoki-bound": _check_naoki_bound,
    "disconnected-bound": _check_disconnected_bound,
    "regmax-path": _check_regmax_path,
    "licci-equivalence": _check_licci_equivalence,
    "chordal-licci": _check_chordal_licci,
    "codim1": _check_codim1,
    "cutvertex-degree4": _check_cutvertex_degree4,
    "unmixed-gap": _check_unmixed_gap,
    "decomposable-reg": _check_decomposable_reg,
    "bipartite-licci": _check_bipartite,
    "disconnected-licci": _check_disconnected_licci,
    "hu-necessary": _check_hu_necessary,
    "primary-decomposition-oracle": _oracle_sweep("primary-decomposition"),
    "colon-oracle": _oracle_sweep("colon"),
    "initial-ideal-oracle": _oracle_sweep("initial"),
    "ohtani-oracle": _oracle_sweep("ohtani"),
}


def run_verification(
    theorem_id: str, max_n: int, jobs: Optional[int] = None
) -> VerificationReport:
    if theorem_id not in THEOREMS:
        raise ValueError(
            f"unknown theorem id {theorem_id!r}; known: {sorted(THEOREMS)}"
        )
    start = time.monotonic()
    instances, violations = THEOREMS[theorem_id](max_n, jobs)
    return VerificationReport(
        theorem=theorem_id,
        tier=max_n,
        instances=instances,
        violations=tuple(violations),
        wall_time=time.monotonic() - start,
    )
