from itertools import combinations

from bei.degeneration import invariants
from bei.graphs import build_graph, enumerate_connected, enumerate_graphs
from bei.primes import cut_sets, minimal_primes

P3 = build_graph(3, [(1, 2), (2, 3)])
K3 = build_graph(3, [(1, 2), (2, 3), (1, 3)])
DIAMOND = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
STAR = build_graph(4, [(1, 2), (1, 3), (1, 4)])


def test_cut_sets_examples():
    assert [(cs.labels(), cs.c) for cs in cut_sets(P3)] == [((), 1), ((2,), 2)]
    assert [(cs.labels(), cs.c) for cs in cut_sets(K3)] == [((), 1)]
    assert [(cs.labels(), cs.c) for cs in cut_sets(DIAMOND)] == [((), 1), ((2, 3), 2)]
    # components carry original labels
    assert cut_sets(DIAMOND)[1].components == ((1,), (4,))


def components_after(g, removed):
    """Independent component counter over explicit vertex/edge lists."""
    left = [v for v in range(1, g.n + 1) if v not in removed]
    comp = {v: v for v in left}

    def find(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for a, b in g.edges():
        if a in left and b in left:
            comp[find(a)] = find(b)
    return len({find(v) for v in left})


def test_cut_set_criterion_full_scan():
    # S is a cut set when it is empty or putting back any one of its
    # vertices strictly drops the component count of G - S
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            expected = {}
            for r in range(n + 1):
                for sub in map(set, combinations(range(1, n + 1), r)):
                    c = components_after(g, sub)
                    if all(components_after(g, sub - {v}) < c for v in sub):
                        expected[sum(1 << (v - 1) for v in sub)] = c
            got = cut_sets(g)
            assert {cs.mask: cs.c for cs in got} == expected
            for cs in got:
                rest = set(range(1, n + 1)) - set(cs.labels())
                assert sorted(v for comp in cs.components for v in comp) == sorted(rest)
                assert len(cs.components) == cs.c
                # c connected parts of a graph with c components are its components
                for comp in cs.components:
                    assert components_after(g, set(range(1, n + 1)) - set(comp)) == 1


def test_minimal_primes_examples():
    s = minimal_primes(P3)
    assert sorted(p.height for p in s.primes) == [2, 2]
    assert s.dim_quotient == 4 and s.unmixed
    s = minimal_primes(DIAMOND)
    assert sorted(p.height for p in s.primes) == [3, 4]
    assert not s.unmixed
    for n in range(2, 7):
        kn = build_graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])
        s = minimal_primes(kn)
        assert len(s.primes) == 1 and s.primes[0].height == n - 1
        assert s.dim_quotient == n + 1


def test_empty_cut_set_height_connected():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            s = minimal_primes(g)
            empty = [p for p in s.primes if p.cutset.mask == 0]
            assert len(empty) == 1 and empty[0].height == n - 1
            assert s.dim_quotient >= n + 1
            if s.unmixed:
                assert s.dim_quotient == n + 1


def test_top_dimension_does_not_force_unmixed():
    # the 4-cycle: the empty cut set already attains the minimum height, so
    # dim = n + 1, yet the opposite-corner cut set has larger height
    c4 = build_graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    s = minimal_primes(c4)
    assert s.dim_quotient == 5 and not s.unmixed
    assert sorted(p.height for p in s.primes) == [3, 4, 4]


def unmixed(g):
    return minimal_primes(g).unmixed


def test_is_unmixed_examples():
    for n in range(2, 8):
        assert unmixed(build_graph(n, [(i, i + 1) for i in range(1, n)]))
    assert not unmixed(STAR)
    twp = build_graph(6, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6)])
    assert unmixed(twp)
    assert not unmixed(DIAMOND)


def test_unmixed_iff_cut_set_counting():
    # for connected graphs all heights agree exactly when c(S) = |S| + 1
    for n in range(1, 7):
        for g in enumerate_connected(n):
            s = minimal_primes(g)
            by_counting = all(
                p.cutset.c == p.cutset.mask.bit_count() + 1 for p in s.primes
            )
            assert s.unmixed == by_counting


def test_cm_implies_unmixed_enumerated():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            rec = invariants(g)
            if rec.cm:
                assert rec.unmixed


def test_dim_matches_unmixed_characterization_disconnected():
    # verbatim criterion on a disconnected input
    g = build_graph(4, [(1, 2), (3, 4)])
    s = minimal_primes(g)
    assert s.unmixed
    assert s.dim_quotient == 6

