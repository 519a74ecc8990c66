import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bei.graph6 import emit_graph6, parse_graph6
from bei.graphs import (
    CANONICAL_MAX,
    _all_graphs,
    _children,
    _columns,
    _least_columns,
    build_graph,
    canonical_form,
    connected_components,
    cut_vertices,
    delete_edge,
    edge_completion,
    enumerate_connected,
    enumerate_graphs,
    induced_on,
    is_bipartite,
    is_connected,
    is_decomposable,
    ohtani_completion,
    simple_paths,
)
from bei.errors import TierExceededError

P3 = build_graph(3, [(1, 2), (2, 3)])
K3 = build_graph(3, [(1, 2), (2, 3), (1, 3)])
DIAMOND = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
STAR = build_graph(4, [(1, 2), (1, 3), (1, 4)])
TRI_PENDANT = build_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])


def small_graphs(max_n=6):
    """Strategy: a random labeled graph on 1..max_n vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(combinations(range(1, n + 1), 2))
        picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return build_graph(n, picked)

    return build()


def test_build_graph_examples():
    assert P3.edges() == ((1, 2), (2, 3))
    assert TRI_PENDANT.edge_count() == 4
    assert build_graph(1, []).edges() == ()
    # duplicates collapse
    assert build_graph(3, [(1, 2), (2, 1), (1, 2)]).edge_count() == 1


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(3, [(2, 2)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        build_graph(0, [])
    with pytest.raises(ValueError):
        build_graph(63, [])


def test_connected_components():
    assert connected_components(P3) == ((1, 2, 3),)
    assert connected_components(build_graph(3, [(1, 2)])) == ((1, 2), (3,))
    rest = induced_on(DIAMOND, [1, 4])
    assert connected_components(rest.graph) == ((1,), (2,))
    assert rest.labels == (1, 4)


def test_induced_on():
    two = induced_on(P3, [1, 3])
    assert two.graph.edge_count() == 0 and two.labels == (1, 3)
    edge = induced_on(K3, [2, 3])
    assert edge.graph.edges() == ((1, 2),) and edge.labels == (2, 3)
    # composition: inducing twice equals inducing on the final set at once
    g = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    once = induced_on(g, [1, 3, 4, 5])
    twice = induced_on(once.graph, [1, 2, 4])  # 1, 3 and 5 of g
    direct = induced_on(g, [1, 3, 5])
    assert twice.graph == direct.graph
    assert tuple(once.labels[v - 1] for v in twice.labels) == direct.labels


def test_delete_edge():
    assert delete_edge(P3, (2, 3)).edges() == ((1, 2),)
    relabeled = delete_edge(K3, (1, 2))
    assert relabeled.edges() == ((1, 3), (2, 3))
    for bad in ((1, 3), (2, 2), (1, 4)):  # absent, a loop, out of range
        with pytest.raises(ValueError):
            delete_edge(P3, bad)


def _reachable_avoiding(g, start, banned):
    seen = {start}
    stack = [start]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w != banned and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_cut_vertices_match_brute_force():
    # an isolated vertex is never a cut vertex; the centre of a star is
    assert cut_vertices(build_graph(2, [])) == ()
    assert cut_vertices(STAR) == (1,)
    assert cut_vertices(build_graph(5, [(1, 2), (2, 3), (4, 5)])) == (2,)
    for n in range(1, 7):
        for g in enumerate_connected(n):
            # v cuts G when the other vertices no longer reach each other
            expected = tuple(
                v
                for v in range(1, n + 1)
                if n > 1
                and len(_reachable_avoiding(g, 1 if v != 1 else 2, v)) < n - 1
            )
            assert cut_vertices(g) == expected


def test_completions():
    k4 = build_graph(4, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)])
    assert ohtani_completion(STAR, 1) == k4
    assert ohtani_completion(K3, 2) == K3
    assert ohtani_completion(P3, 2) == K3
    # completion at both endpoints; neighborhoods read off the input graph
    lonely = build_graph(3, [(2, 3)])
    assert edge_completion(lonely, (1, 2)) == lonely
    split_p4 = build_graph(4, [(1, 2), (3, 4)])
    assert edge_completion(split_p4, (2, 3)) == split_p4
    star2 = build_graph(4, [(1, 2), (2, 3), (2, 4)])
    done = edge_completion(star2, (1, 2))
    assert done.has_edge(1, 3) and done.has_edge(1, 4) and done.has_edge(3, 4)


@given(small_graphs(5), st.data())
@settings(max_examples=60, deadline=None)
def test_completions_only_add_and_idempotent(g, data):
    v = data.draw(st.integers(min_value=1, max_value=g.n))
    gv = ohtani_completion(g, v)
    assert all(gv.adj[i] & g.adj[i] == g.adj[i] for i in range(g.n))
    assert ohtani_completion(gv, v) == gv
    if g.n >= 2:
        w = data.draw(st.integers(min_value=1, max_value=g.n).filter(lambda x: x != v))
        base = delete_edge(g, (v, w)) if g.has_edge(v, w) else g
        # idempotence needs the defining domain: (v, w) not an edge of the input
        # (an existing edge links the two neighborhoods, so one pass feeds the next)
        ge = edge_completion(base, (v, w))
        assert all(ge.adj[i] & base.adj[i] == base.adj[i] for i in range(base.n))
        assert edge_completion(ge, (v, w)) == ge


def brute_paths(g, i, j):
    """Oracle: filter all vertex permutations for simple i-j paths."""
    found = set()
    others = [v for v in range(1, g.n + 1) if v not in (i, j)]
    for r in range(len(others) + 1):
        for mid in permutations(others, r):
            seq = (min(i, j),) + mid + (max(i, j),)
            if all(g.has_edge(seq[k], seq[k + 1]) for k in range(len(seq) - 1)):
                found.add(seq)
    return found


def test_simple_paths_examples():
    assert [p.vertices for p in simple_paths(K3, 1, 3)] == [(1, 2, 3), (1, 3)]
    assert [p.vertices for p in simple_paths(P3, 1, 3)] == [(1, 2, 3)]
    assert [p.vertices for p in simple_paths(DIAMOND, 2, 3)] == [
        (2, 1, 3),
        (2, 3),
        (2, 4, 3),
    ]


def test_simple_paths_against_permutation_filter():
    rng = random.Random(5)
    for n in range(2, 8):
        for _ in range(8 if n < 7 else 3):
            pairs = list(combinations(range(1, n + 1), 2))
            g = build_graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            i, j = rng.sample(range(1, n + 1), 2)
            got = [p.vertices for p in simple_paths(g, i, j)]
            assert sorted(got) == got  # lexicographic order
            assert set(got) == brute_paths(g, i, j)
            for p in simple_paths(g, i, j):
                assert len(set(p.vertices)) == len(p.vertices)


def test_is_decomposable():
    v, g1, g2 = is_decomposable(TRI_PENDANT)
    assert v == 3
    assert {g1.graph.n, g2.graph.n} == {3, 2}
    assert is_decomposable(STAR) is None
    p4 = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert is_decomposable(p4) is not None
    with pytest.raises(ValueError):
        is_decomposable(build_graph(3, [(1, 2)]))


def test_decomposable_witness_is_simplicial_in_both_parts():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            split = is_decomposable(g)
            if split is None:
                continue
            v, p1, p2 = split
            assert set(p1.labels) & set(p2.labels) == {v}
            assert set(p1.labels) | set(p2.labels) == set(range(1, n + 1))
            for part in (p1, p2):
                assert part.graph.n >= 2
                nb = part.graph.neighbors(part.labels.index(v) + 1)
                assert all(part.graph.has_edge(a, b) for a, b in combinations(nb, 2))


def test_is_bipartite():
    assert is_bipartite(P3)
    assert not is_bipartite(K3)
    assert not is_bipartite(DIAMOND)
    assert is_bipartite(build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))


def naive_canonical(g):
    """Oracle: plain minimum over all n! permutations of the adjacency bits."""
    best = None
    for perm in permutations(range(g.n)):
        bits = []
        for j in range(1, g.n):
            for i in range(j):
                bits.append(g.adj[perm[i]] >> perm[j] & 1)
        if best is None or bits < best:
            best = bits
    return best


def labeled_graphs(n):
    """Every labeled graph on n vertices (2^(n choose 2) of them)."""
    pairs = list(combinations(range(1, n + 1), 2))
    for k in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if k >> i & 1])


def graph6_bits(form):
    n = form[0] - 63
    body = [(byte - 63) >> s & 1 for byte in form[1:] for s in range(5, -1, -1)]
    return body[: n * (n - 1) // 2]


def test_canonical_form_matches_naive_minimum():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            assert graph6_bits(canonical_form(g)) == naive_canonical(g)


def test_canonicity_test_matches_canonical_form():
    # the enumerator keeps a child exactly when it is its own canonical form
    kept = 0
    for n in range(1, 6):
        for g in labeled_graphs(n):
            own = _least_columns(g.adj, _columns(g.adj)) is not None
            assert own == (canonical_form(g) == emit_graph6(g))
            kept += own
    assert kept == 1 + 2 + 4 + 11 + 34  # one labeled graph per class


def test_canonical_form_is_relabeling_invariant_at_the_tier():
    n = CANONICAL_MAX
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    graphs = {
        "empty": build_graph(n, []),
        "K10": build_graph(n, combinations(range(1, n + 1), 2)),
        "C10": build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)]),
        "Petersen": build_graph(n, outer + spokes + inner),
    }
    rng = random.Random(10)
    forms = {}
    for name, g in graphs.items():
        form = canonical_form(g)
        for _ in range(4):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabeled = build_graph(n, [(perm[a - 1], perm[b - 1]) for a, b in g.edges()])
            assert canonical_form(relabeled) == form, name
        assert canonical_form(parse_graph6(form)) == form  # a fixed point
        forms[name] = form
    assert forms["empty"] == b"I" + b"?" * 8
    assert len(set(forms.values())) == 4


def test_canonical_form_examples():
    relabeled = build_graph(3, [(1, 2), (1, 3)])  # path 2-1-3
    assert canonical_form(P3) == canonical_form(relabeled)
    assert canonical_form(P3) != canonical_form(K3)
    forms = set()
    for perm in permutations(range(1, 5)):
        edges = [(perm[0], perm[1]), (perm[0], perm[2]), (perm[1], perm[2]), (perm[2], perm[3])]
        forms.add(canonical_form(build_graph(4, edges)))
    assert len(forms) == 1
    with pytest.raises(TierExceededError):
        canonical_form(build_graph(11, []))


def test_enumeration_counts():
    # OEIS A000088 (all graphs) and A001349 (connected graphs)
    assert [len(enumerate_graphs(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert [len(enumerate_connected(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    with pytest.raises(TierExceededError):
        enumerate_connected(9)


def test_enumeration_matches_bruteforce_dedup():
    # independent route: dedup every labeled edge set by canonical form
    for n in range(1, 6):
        seen = {canonical_form(g) for g in labeled_graphs(n) if is_connected(g)}
        assert seen == {canonical_form(g) for g in enumerate_connected(n)}
        assert [canonical_form(g) for g in enumerate_connected(n)] == sorted(seen)


def test_children_of_each_level_make_the_next():
    # the census generates its top level one parent at a time, and finds the
    # parent of a class by dropping its last vertex
    for n in range(2, 8):
        children = [(H, G) for H in _all_graphs(n - 1) for G in _children(H)]
        assert tuple(G for _, G in children) == _all_graphs(n)
        assert all(induced_on(G, range(1, n)).graph == H for H, G in children)


def test_connected_children_are_the_connected_members_of_all_children():
    for n in range(1, 7):
        for H in _all_graphs(n):
            every = _children(H)
            assert _children(H, connected=True) == [G for G in every if is_connected(G)]


def test_enumeration_is_canonically_labeled():
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            assert canonical_form(g) == emit_graph6(g)  # each class comes as its own form
            assert g == induced_on(g, range(1, n + 1)).graph  # self-check of labels
