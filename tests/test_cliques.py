from itertools import combinations

import pytest

from bei.cliques import codim1_conditions, is_chordal, maximal_cliques
from bei.graphs import build_graph, enumerate_connected

P4 = build_graph(4, [(1, 2), (2, 3), (3, 4)])
K4 = build_graph(4, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)])
DIAMOND = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
TRI_PENDANT = build_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
C4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def test_maximal_cliques_examples():
    s = maximal_cliques(K4)
    assert s.maximal_cliques == ((1, 2, 3, 4),) and s.dim == 3
    s = maximal_cliques(P4)
    assert s.count == 3 and s.dim == 1
    s = maximal_cliques(DIAMOND)
    assert s.maximal_cliques == ((1, 2, 3), (2, 3, 4)) and s.count == 2 and s.dim == 2


def test_clique_complex_facets():
    # the facets of the clique complex are the maximal cliques
    tri = build_graph(3, [(1, 2), (2, 3), (1, 3)])
    assert maximal_cliques(tri).maximal_cliques == ((1, 2, 3),)
    p3 = build_graph(3, [(1, 2), (2, 3)])
    assert maximal_cliques(p3).maximal_cliques == ((1, 2), (2, 3))
    assert maximal_cliques(TRI_PENDANT).maximal_cliques == ((1, 2, 3), (3, 4))


def brute_facets(g):
    """Oracle: a facet is a clique no proper superset of which is a clique."""
    verts = range(1, g.n + 1)
    cliques = [
        set(c)
        for r in range(1, g.n + 1)
        for c in combinations(verts, r)
        if all(g.has_edge(a, b) for a, b in combinations(c, 2))
    ]
    return sorted(
        tuple(sorted(c))
        for c in cliques
        if not any(c < d for d in cliques)
    )


def test_facets_against_bruteforce():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert sorted(maximal_cliques(g).maximal_cliques) == brute_facets(g)


def test_is_chordal():
    tree = build_graph(5, [(1, 2), (1, 3), (3, 4), (3, 5)])
    ok, order = is_chordal(tree)
    assert ok and len(order) == 5
    assert is_chordal(C4) == (False, None)
    ok, order = is_chordal(DIAMOND)
    assert ok
    # witness really is a perfect elimination order
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in DIAMOND.neighbors(v) if pos[u] > pos[v]]
        assert all(DIAMOND.has_edge(a, b) for a, b in combinations(later, 2))


def has_long_induced_cycle(g):
    """Oracle: some vertex set of size >= 4 induces a cycle (connected, 2-regular)."""
    for r in range(4, g.n + 1):
        for sub in combinations(range(1, g.n + 1), r):
            nbrs = {v: {u for u in sub if g.has_edge(u, v)} for v in sub}
            if any(len(nb) != 2 for nb in nbrs.values()):
                continue
            seen, stack = {sub[0]}, [sub[0]]
            while stack:
                for u in nbrs[stack.pop()] - seen:
                    seen.add(u)
                    stack.append(u)
            if len(seen) == r:
                return True
    return False


def test_is_chordal_iff_no_long_induced_cycle():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            chordal, order = is_chordal(g)
            assert chordal != has_long_induced_cycle(g)
            if chordal:
                pos = {v: i for i, v in enumerate(order)}
                assert sorted(pos) == list(range(1, n + 1))
                for v in order:
                    later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
                    assert all(g.has_edge(a, b) for a, b in combinations(later, 2))
            else:
                assert order is None


def test_dim_plus_one_is_max_clique():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            s = maximal_cliques(g)
            assert max(len(w) for w in s.maximal_cliques) == s.dim + 1


def test_codim1_examples():
    c = codim1_conditions(TRI_PENDANT)
    assert (c.cond_i, c.cond_ii, c.cond_iii, c.holds) == (True, True, True, True)
    p5 = build_graph(5, [(i, i + 1) for i in range(1, 5)])
    c = codim1_conditions(p5)
    assert not c.cond_ii and not c.holds
    g = build_graph(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5)])
    c = codim1_conditions(g)
    assert c.holds and maximal_cliques(g).count == 3
    with pytest.raises(ValueError):
        codim1_conditions(C4)
    with pytest.raises(ValueError):
        codim1_conditions(build_graph(3, [(1, 2)]))


def test_codim1_iff_clique_count():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            if not is_chordal(g)[0]:
                continue
            assert codim1_conditions(g).holds == (maximal_cliques(g).count == g.n - 2)
