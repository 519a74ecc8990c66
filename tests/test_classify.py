import pytest

from bei.classify import (
    OTHER,
    PATH,
    TRIANGLE_WITH_PATHS,
    chordal_licci,
    classify_shape,
    licci_by_algebra,
    licci_by_shape,
    licci_verdict,
)
from bei.cliques import is_chordal
from bei.degeneration import invariants
from bei.graphs import (
    build_graph,
    connected_components,
    enumerate_connected,
    induced_on,
    is_bipartite,
)

K3 = build_graph(3, [(1, 2), (2, 3), (1, 3)])
DIAMOND = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
C4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
STAR = build_graph(4, [(1, 2), (1, 3), (1, 4)])
TRI_PENDANT = build_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def shapes(G):
    return tuple(classify_shape(induced_on(G, c).graph) for c in connected_components(G))


def test_classify_shape():
    assert classify_shape(path_graph(7)).kind == PATH
    assert classify_shape(build_graph(1, [])).kind == PATH
    twp = build_graph(6, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (2, 6)])
    s = classify_shape(twp)
    assert s.kind == TRIANGLE_WITH_PATHS and s.attached == (2, 1, 0)
    assert classify_shape(K3).attached == (0, 0, 0)
    two_pendants = build_graph(5, [(1, 2), (2, 3), (1, 3), (1, 4), (1, 5)])
    assert classify_shape(two_pendants).kind == OTHER
    assert classify_shape(C4).kind == OTHER
    assert classify_shape(STAR).kind == OTHER
    with pytest.raises(ValueError):
        classify_shape(build_graph(3, [(1, 2)]))


def test_licci_by_shape():
    k3_p2 = build_graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])
    assert licci_by_shape(shapes(k3_p2))
    two_triangles = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not licci_by_shape(shapes(two_triangles))
    assert not licci_by_shape(shapes(C4))
    with pytest.raises(ValueError):
        licci_verdict(build_graph(3, []))


def test_isolated_vertices_flagged_as_trivial_paths():
    g = build_graph(4, [(1, 2), (1, 3), (2, 3)])  # K3 plus an isolated vertex
    assert [s.kind for s in shapes(g)] == [TRIANGLE_WITH_PATHS, PATH]
    assert licci_by_shape(shapes(g))


def by_algebra(G):
    return licci_by_algebra(G, invariants(G))


def by_chordal(G):
    return chordal_licci(G, invariants(G), is_chordal(G)[0])


def test_licci_by_algebra():
    rec = invariants(path_graph(4))
    assert by_algebra(path_graph(4)) and rec.cm and rec.reg == 3
    assert by_algebra(TRI_PENDANT) and invariants(TRI_PENDANT).reg == 2
    assert not by_algebra(DIAMOND) and not invariants(DIAMOND).unmixed
    # disconnected threshold: n - c - 1
    k3_p2 = build_graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])
    assert by_algebra(k3_p2)
    two_triangles = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not by_algebra(two_triangles)


def test_chordal_licci():
    twp = build_graph(6, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6)])
    rec = invariants(twp)
    assert by_chordal(twp) and rec.unmixed and rec.reg == 4
    assert not by_chordal(STAR)
    assert by_chordal(path_graph(6))
    with pytest.raises(ValueError):
        by_chordal(C4)
    with pytest.raises(ValueError):
        by_chordal(build_graph(4, [(1, 2), (3, 4)]))


def test_hu_bound():
    # reg >= (height - 1)(indeg - 1), with height 2n - dim and indeg 2
    k4 = build_graph(4, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)])
    for g, holds in [(path_graph(5), True), (k4, False), (K3, True)]:
        rec = invariants(g)
        assert (rec.reg >= 2 * g.n - rec.dim - 1) == holds
    assert invariants(k4).cm  # CM but the bound fails, so K4 is not licci


def test_bipartite_corollary():
    # bipartite connected graphs are licci exactly when they are paths
    for g, licci in [(path_graph(5), True), (C4, False), (STAR, False)]:
        assert is_bipartite(g)
        (shape,) = shapes(g)
        assert licci_by_shape((shape,)) == licci == (shape.kind == PATH)


def test_routes_agree_enumerated():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            if not g.edge_count():
                continue
            verdict = licci_verdict(g)  # raises on any route disagreement
            if verdict.licci:
                rec = verdict.witness
                assert rec.reg >= 2 * g.n - rec.dim - 1


def test_licci_counts_small():
    for n, expected in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        count = sum(
            1
            for g in enumerate_connected(n)
            if g.edge_count() and licci_by_shape(shapes(g))
        )
        assert count == expected
