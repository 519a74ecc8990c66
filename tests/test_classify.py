import pytest

from bei.classify import (
    OTHER,
    PATH,
    TRIANGLE_WITH_PATHS,
    bipartite_corollary,
    chordal_licci,
    classify_shape,
    hu_bound_holds,
    licci_by_algebra,
    licci_by_shape,
    licci_verdict,
)
from bei.degeneration import invariants
from bei.graphs import build_graph, enumerate_connected

K3 = build_graph(3, [(1, 2), (2, 3), (1, 3)])
DIAMOND = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
C4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
STAR = build_graph(4, [(1, 2), (1, 3), (1, 4)])
TRI_PENDANT = build_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


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
    assert licci_by_shape(k3_p2).licci
    two_triangles = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not licci_by_shape(two_triangles).licci
    assert not licci_by_shape(C4).licci
    with pytest.raises(ValueError):
        licci_by_shape(build_graph(3, []))


def test_isolated_vertices_flagged_as_trivial_paths():
    g = build_graph(4, [(1, 2), (1, 3), (2, 3)])  # K3 plus an isolated vertex
    verdict = licci_by_shape(g)
    assert verdict.licci
    assert verdict.isolated_vertices == (4,)
    assert [s.kind for s in verdict.component_shapes] == [TRIANGLE_WITH_PATHS, PATH]


def by_algebra(G):
    return licci_by_algebra(G, invariants(G))


def by_chordal(G):
    return chordal_licci(G, invariants(G))


def test_licci_by_algebra():
    v = by_algebra(path_graph(4))
    assert v.licci and v.witness.cm and v.witness.reg == 3
    v = by_algebra(TRI_PENDANT)
    assert v.licci and v.witness.reg == 2
    v = by_algebra(DIAMOND)
    assert not v.licci and not v.witness.unmixed
    # disconnected threshold: n - c - 1
    k3_p2 = build_graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])
    assert by_algebra(k3_p2).licci
    two_triangles = build_graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not by_algebra(two_triangles).licci


def test_chordal_licci():
    twp = build_graph(6, [(1, 2), (2, 3), (1, 3), (1, 4), (2, 5), (3, 6)])
    v = by_chordal(twp)
    assert v.licci and v.witness.unmixed and v.witness.reg == 4
    assert not by_chordal(STAR).licci
    assert by_chordal(path_graph(6)).licci
    with pytest.raises(ValueError):
        by_chordal(C4)
    with pytest.raises(ValueError):
        by_chordal(build_graph(4, [(1, 2), (3, 4)]))


def test_hu_bound():
    assert hu_bound_holds(path_graph(5))
    k4 = build_graph(4, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)])
    assert not hu_bound_holds(k4)  # CM but the bound fails, so K4 is not licci
    assert hu_bound_holds(K3)
    with pytest.raises(ValueError):
        hu_bound_holds(build_graph(2, []))


def test_bipartite_corollary():
    assert bipartite_corollary(path_graph(5))
    assert not bipartite_corollary(C4)
    assert not bipartite_corollary(STAR)
    with pytest.raises(ValueError):
        bipartite_corollary(K3)


def test_routes_agree_enumerated():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            if not g.edge_count():
                continue
            verdict = licci_verdict(g)  # raises on any route disagreement
            assert verdict.routes_agree
            if verdict.licci:
                assert hu_bound_holds(g)


def test_licci_counts_small():
    for n, expected in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        count = sum(
            1
            for g in enumerate_connected(n)
            if g.edge_count() and licci_by_shape(g).licci
        )
        assert count == expected
