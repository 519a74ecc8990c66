"""Acceptance gate: every criterion at its stated tolerance, one line each.

All tolerances are exact integer equalities / zero-violation counts.  The
n = 7 sweeps are driven through the same parallel census used by the CLI;
BEI_ACCEPT_MAX_N can lower the tier while iterating locally (the shipped
default is the full tier).
"""

import hashlib
import os
import time
from contextlib import contextmanager

import pytest

from bei.census import _labeled_connected, all_graph_classes, compute_records, run_census
from bei.classify import licci_verdict
from bei.cliques import codim1_conditions, is_chordal, maximal_cliques
from bei.degeneration import invariants
from bei.graphs import (
    build_graph,
    canonical_form,
    connected_components,
    cut_vertices,
    enumerate_connected,
    induced_on,
    is_connected,
    is_decomposable,
)
from bei.oracle import (
    verify_colon_theorem,
    verify_initial_ideal,
    verify_ohtani,
    verify_primary_decomposition,
)

ACCEPT_MAX_N = int(os.environ.get("BEI_ACCEPT_MAX_N", "7"))
JOBS = int(os.environ.get("BEI_JOBS", str(os.cpu_count() or 1)))
CENSUS_N6_SHA256 = "340748b0af83117a8022f3736f963c1b9cf0822a5efe2b6cac90435b2d8876b7"
CENSUS_N7_SHA256 = "98425a08f004555764ca8d138b167230640fe740a0ccfdd4bf5f05576c9a0430"

_timings: dict[str, float] = {}


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:>2}: {desc}")
        raise
    print(f"[PASS] criterion {num:>2}: {desc}")


@pytest.fixture(scope="session")
def records6():
    return compute_records(6, jobs=JOBS, reuse={})


@pytest.fixture(scope="session")
def records_full():
    tier = min(7, ACCEPT_MAX_N)
    start = time.monotonic()
    recs = compute_records(tier, jobs=JOBS, reuse={})
    _timings["full_census"] = time.monotonic() - start
    return tier, recs


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])


def triangle_with_paths(r, s, t):
    edges = [(1, 2), (2, 3), (1, 3)]
    nxt = 4
    for root, length in ((1, r), (2, s), (3, t)):
        prev = root
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_graph(3 + r + s + t, edges)


def test_criterion_01_oracle_certification():
    start = time.monotonic()
    with criterion(1, "oracle certification on all labeled connected graphs n<=4"):
        for n in range(1, 5):
            for g in _labeled_connected(n):
                assert verify_primary_decomposition(g)
                assert verify_initial_ideal(g)
                for e in g.edges():
                    assert verify_colon_theorem(g, e)
                for v in cut_vertices(g):
                    assert verify_ohtani(g, v)
        assert time.monotonic() - start < 300


def test_criterion_02_regularity_bound(records6, records_full):
    tier, recs = records_full
    with criterion(2, f"reg <= n - dim of the clique complex, all classes n<={tier}"):
        assert len(records6) == 142
        checked = 0
        for n in range(2, tier + 1):
            for g in enumerate_connected(n):
                rec = recs[canonical_form(g).decode("ascii")]
                assert rec.reg <= g.n - rec.dim_clique_complex
                checked += 1
        assert checked == len(recs)
        # equality attained at both ends
        for n in range(2, 7):
            assert invariants(complete_graph(n)).reg == 1 == n - (n - 1)
            assert invariants(path_graph(n)).reg == n - 1 == n - 1
        if tier >= 7:
            assert _timings["full_census"] < 3600


def test_criterion_03_regularity_maximum(records_full):
    tier, recs = records_full
    with criterion(3, f"reg = n-1 exactly for the path class, each n<={tier}"):
        for n in range(2, tier + 1):
            top = [r for r in recs.values() if r.n == n and r.reg == n - 1]
            assert len(top) == 1
            assert top[0].shape == {"kind": "path"}
            assert top[0].graph6 == canonical_form(path_graph(n)).decode("ascii")


def test_criterion_04_licci_equivalence(records6):
    with criterion(4, "shape route == algebra route on n<=6; counts 1,2,2,3,4"):
        assert all(r.routes_agree for r in records6.values())
        per_n = {}
        for r in records6.values():
            if r.licci:
                per_n[r.n] = per_n.get(r.n, 0) + 1
        assert per_n == {2: 1, 3: 2, 4: 2, 5: 3, 6: 4}


def test_criterion_05_chordal_licci(records6):
    with criterion(5, "chordal: unmixed + reg window == licci shape; reg <= c(G)"):
        chordal = [r for r in records6.values() if r.chordal]
        assert chordal
        for r in chordal:
            assert ((r.unmixed and r.reg >= r.n - 2)) == r.licci
            assert r.reg <= r.c_cliques
        # the relaxation is real: unmixedness alone must not be weakened to CM
        assert any(not r.cm and r.unmixed for r in records6.values())


def test_criterion_06_codim1_characterization():
    tier = min(7, ACCEPT_MAX_N)
    with criterion(6, f"c(G) = n-2 iff the three facet conditions, chordal n<={tier}"):
        checked = 0
        for n in range(2, tier + 1):
            for g in enumerate_connected(n):
                if not g.edge_count() or not is_chordal(g)[0]:
                    continue
                conds = codim1_conditions(g)
                assert conds.holds == (maximal_cliques(g).count == g.n - 2)
                checked += 1
        assert checked > 0


def test_criterion_07_low_regularity_lemmas(records_full):
    tier, recs = records_full
    with criterion(7, f"cut-vertex-deg>=4 and unmixed-gap classes have reg <= n-3, n<={tier}"):
        hits_a = hits_b = 0
        for n in range(2, tier + 1):
            for g in enumerate_connected(n):
                if not g.edge_count():
                    continue
                rec = recs[canonical_form(g).decode("ascii")]
                if any(g.degree(v) >= 4 for v in cut_vertices(g)):
                    hits_a += 1
                    assert rec.reg <= g.n - 3
                if (
                    g.n >= 4
                    and rec.unmixed
                    and is_decomposable(g) is None
                    and any(
                        g.degree(v) == 2 and g.has_edge(*g.neighbors(v))
                        for v in range(1, g.n + 1)
                    )
                ):
                    hits_b += 1
                    assert rec.reg <= g.n - 3
        assert hits_a > 0 and hits_b > 0


def test_criterion_08_disconnected():
    with criterion(8, "disconnected licci agreement and component-sum bound, n<=6"):
        classes = all_graph_classes(6)
        assert len(classes) == 202
        for g in classes:
            rec = invariants(g)
            dim_sum = sum(
                maximal_cliques(induced_on(g, c).graph).dim
                for c in connected_components(g)
            )
            assert rec.reg <= g.n - dim_sum
            licci_verdict(g)  # raises on shape/algebra disagreement
        disconnected = [g for g in classes if not is_connected(g)]
        assert len(disconnected) == 60


def test_criterion_09_pinned_values():
    with criterion(9, "pinned exact values for K_n, P_n, triangle-with-paths, diamond"):
        for n in range(2, 8):
            assert invariants(complete_graph(n)).reg == 1
            rec = invariants(path_graph(n))
            assert rec.reg == n - 1
            assert rec.depth == rec.dim == n + 1
        for total in range(0, 4):  # n = 3 + total <= 6
            for r in range(total + 1):
                for s in range(total - r + 1):
                    t = total - r - s
                    g = triangle_with_paths(r, s, t)
                    rec = invariants(g)
                    assert rec.reg == g.n - 2
                    assert rec.cm
        diamond = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        assert not invariants(diamond).unmixed


def test_criterion_10_census_determinism(tmp_path):
    with criterion(10, "census at n<=6 is byte-identical across 1 vs 8 workers"):
        start = time.monotonic()
        one = tmp_path / "one.jsonl"
        eight = tmp_path / "eight.jsonl"
        run_census(6, str(one), jobs=1)
        run_census(6, str(eight), jobs=8)
        assert one.read_bytes() == eight.read_bytes()
        assert len(one.read_text().splitlines()) == 142
        # the census-n6 bytes that perfbench/reference/census_n6.jsonl pins
        assert hashlib.sha256(one.read_bytes()).hexdigest() == CENSUS_N6_SHA256
        assert time.monotonic() - start < 900


def test_census_n7_bytes_are_pinned(records_full):
    tier, recs = records_full
    if tier < 7:
        pytest.skip(f"BEI_ACCEPT_MAX_N lowers the census tier to {tier}")
    ordered = sorted(recs.values(), key=lambda r: (r.n, r.graph6.encode("ascii")))
    data = "".join(r.to_json() + "\n" for r in ordered).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == CENSUS_N7_SHA256
