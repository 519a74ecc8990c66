import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bei import degeneration
from bei.census import census_graphs
from bei.cliques import maximal_cliques
from bei.degeneration import (
    _alexander_dual,
    _homology_ranks,
    _part_homology,
    _relative_faces,
    admissible_paths,
    betti_table,
    colon_generators,
    initial_ideal,
    invariants,
    monomial_ideal,
    x_slot,
    y_slot,
)
from bei.errors import TierExceededError
from bei.graphs import (
    build_graph,
    connected_components,
    enumerate_connected,
    induced_on,
    is_decomposable,
    mask_to_labels,
    simple_paths,
)

# --- Hochster references: the full face table of the Stanley-Reisner complex,
# which the relative kernel and the Betti tables are checked against

HOMOLOGY_MAX_VERTICES = 16


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list of a simplicial complex on vertices 1..vertex_count (bitmasks).

    ``facets == (0,)`` encodes the complex whose only face is the empty set;
    an empty facet tuple encodes the void complex with no faces at all.
    """

    vertex_count: int
    facets: tuple[int, ...]


def faces_by_size(universe: int, gens) -> dict[int, list[int]]:
    """All subsets of ``universe`` containing no generator, grouped by size."""
    verts = []
    m = universe
    while m:
        b = m & -m
        m ^= b
        verts.append(b.bit_length() - 1)
    by_v = {v: [g & ~(1 << v) for g in gens if g >> v & 1] for v in verts}
    faces: dict[int, list[int]] = {0: [0]}

    def rec(start: int, face: int, size: int) -> None:
        for idx in range(start, len(verts)):
            v = verts[idx]
            if all(g & ~face for g in by_v[v]):
                nf = face | 1 << v
                faces.setdefault(size + 1, []).append(nf)
                rec(idx + 1, nf, size + 1)

    rec(0, 0, 0)
    return faces


def reduced_homology(C: SimplicialComplex) -> dict[int, int]:
    """Exact rational reduced homology ranks for dimensions -1..dim."""
    if C.vertex_count > HOMOLOGY_MAX_VERTICES:
        raise TierExceededError(
            f"homology tier is {HOMOLOGY_MAX_VERTICES} vertices, got {C.vertex_count}"
        )
    if not C.facets:
        return {}
    all_faces: set[int] = set()
    for facet in C.facets:
        sub = facet
        while True:
            all_faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & facet
    faces: dict[int, list[int]] = {}
    for f in sorted(all_faces):
        faces.setdefault(f.bit_count(), []).append(f)
    return _homology_ranks(faces)


def stanley_reisner(I) -> SimplicialComplex:
    """Facets of the complex whose non-faces are the monomials of ``I``."""
    universe = (1 << I.n_vars) - 1
    if I.is_zero():
        return SimplicialComplex(I.n_vars, (universe,))
    faces = faces_by_size(universe, I.min_gens)
    face_set = set()
    for lst in faces.values():
        face_set.update(lst)
    facets = []
    for f in face_set:
        outside = universe & ~f
        maximal = True
        while outside:
            b = outside & -outside
            outside ^= b
            if (f | b) in face_set:
                maximal = False
                break
        if maximal:
            facets.append(f)
    return SimplicialComplex(I.n_vars, tuple(sorted(facets, key=mask_to_labels)))


P3 = build_graph(3, [(1, 2), (2, 3)])
K3 = build_graph(3, [(1, 2), (2, 3), (1, 3)])
STAR = build_graph(4, [(1, 2), (1, 3), (1, 4)])


def mask(n, xs=(), ys=()):
    m = 0
    for v in xs:
        m |= x_slot(n, v)
    for v in ys:
        m |= y_slot(n, v)
    return m


def test_admissible_paths_examples():
    # inner vertex inside the label interval disqualifies the long path
    assert {p.lead for p in admissible_paths(P3)} == {
        mask(3, [1], [2]),
        mask(3, [2], [3]),
    }
    # path 2-1-3: the route through 1 < 2 is admissible with a y-slot factor
    g = build_graph(3, [(1, 2), (1, 3)])
    leads = {p.lead for p in admissible_paths(g)}
    assert mask(3, [2], [1, 3]) in leads
    assert leads == {mask(3, [1], [2]), mask(3, [1], [3]), mask(3, [2], [1, 3])}
    assert {p.lead for p in admissible_paths(K3)} == {
        mask(3, [1], [2]),
        mask(3, [1], [3]),
        mask(3, [2], [3]),
    }


def test_admissible_path_u_factor():
    g = build_graph(3, [(1, 2), (1, 3)])
    long = [p for p in admissible_paths(g) if p.path.inner]
    assert len(long) == 1
    assert long[0].path.vertices == (2, 1, 3)
    # x_2 y_3 times the u-factor y_1 of the inner vertex 1 < 2
    assert long[0].lead == mask(3, [2], [1, 3])


def inner_minimal(G, a, b, inner):
    """No proper subsequence of the inner vertices, in path order, joins a to b."""
    for r in range(len(inner)):
        for picked in combinations(inner, r):
            seq = (a,) + picked + (b,)
            if all(G.has_edge(seq[k], seq[k + 1]) for k in range(len(seq) - 1)):
                return False
    return True


def subset_rule_paths(G):
    """The definition read literally: every simple path from a to b (a < b)
    whose inner vertices lie outside [a, b] and satisfy ``inner_minimal``,
    as (vertices, lead) pairs."""
    n = G.n
    out = set()
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for path in simple_paths(G, a, b):
                inner = path.inner
                if any(a < k < b for k in inner) or not inner_minimal(G, a, b, inner):
                    continue
                lead = x_slot(n, a) | y_slot(n, b)
                for k in inner:
                    lead |= x_slot(n, k) if k > b else y_slot(n, k)
                out.add((path.vertices, lead))
    return out


def labeled_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for k in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if k >> i & 1])


def test_admissible_paths_match_the_subset_rule():
    # every labeled graph with n <= 5, then every connected class with n <= 7
    graphs = [g for n in range(1, 6) for g in labeled_graphs(n)]
    graphs += [g for n in range(6, 8) for g in enumerate_connected(n)]
    assert len(graphs) == 1 + 2 + 8 + 64 + 1024 + 112 + 853
    for g in graphs:
        got = [(p.path.vertices, p.lead) for p in admissible_paths(g)]
        assert len(got) == len(set(got)), g
        assert set(got) == subset_rule_paths(g), g


def test_initial_ideal_examples():
    assert set(initial_ideal(P3).min_gens) == {mask(3, [1], [2]), mask(3, [2], [3])}
    assert set(initial_ideal(K3).min_gens) == {
        mask(3, [1], [2]),
        mask(3, [1], [3]),
        mask(3, [2], [3]),
    }
    assert initial_ideal(build_graph(3, [])).is_zero()


def test_colon_generators_examples():
    got = colon_generators(K3, (1, 3))
    assert set(got.min_gens) == {mask(3, [2]), mask(3, ys=[2])}
    # simplicial vertex of degree t: variables for the other t-1 neighbors
    g = build_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    got = colon_generators(g, (1, 4))
    assert set(got.min_gens) == {
        mask(4, [2]),
        mask(4, ys=[2]),
        mask(4, [3]),
        mask(4, ys=[3]),
    }
    p4 = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    got = colon_generators(p4, (1, 4))
    assert set(got.min_gens) == {
        mask(4, [2, 3]),
        mask(4, [3], [2]),
        mask(4, ys=[2, 3]),
    }
    # no inner path at all: the zero ideal
    assert colon_generators(P3, (1, 2)).is_zero()


def test_monomial_ideal_minimalizes():
    I = monomial_ideal(4, [0b0011, 0b0111, 0b0011, 0b1100])
    assert I.min_gens == (0b0011, 0b1100)
    with pytest.raises(ValueError):
        monomial_ideal(4, [0])


def test_stanley_reisner_examples():
    I = monomial_ideal(4, [mask(2, [1], [2])])  # x1*y2 on slots x1,x2,y1,y2
    sr = stanley_reisner(I)
    assert tuple(mask_to_labels(f) for f in sr.facets) == ((1, 2, 3), (2, 3, 4))
    zero = monomial_ideal(4, [])
    assert stanley_reisner(zero).facets == (0b1111,)
    I = monomial_ideal(4, [mask(2, [1]), mask(2, ys=[1])])  # (x1, y1)
    assert tuple(mask_to_labels(f) for f in stanley_reisner(I).facets) == ((2, 4),)


def test_reduced_homology_examples():
    assert reduced_homology(SimplicialComplex(2, (0b01, 0b10))) == {-1: 0, 0: 1}
    square = SimplicialComplex(4, (0b0011, 0b0110, 0b1100, 0b1001))
    assert reduced_homology(square) == {-1: 0, 0: 0, 1: 1}
    hollow = SimplicialComplex(3, (0b011, 0b101, 0b110))
    assert reduced_homology(hollow) == {-1: 0, 0: 0, 1: 1}
    filled = SimplicialComplex(3, (0b111,))
    assert reduced_homology(filled) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology(SimplicialComplex(1, (0,))) == {-1: 1}
    with pytest.raises(TierExceededError):
        reduced_homology(SimplicialComplex(17, (1,)))


def test_reduced_homology_euler_characteristic():
    rng = random.Random(3)
    for _ in range(25):
        nv = rng.randint(2, 6)
        facets = [rng.getrandbits(nv) | 1 for _ in range(rng.randint(1, 4))]
        keep = [f for f in facets if not any(f != g and f & ~g == 0 for g in facets)]
        comp = SimplicialComplex(nv, tuple(dict.fromkeys(keep)))
        ranks = reduced_homology(comp)
        faces = set()
        for f in comp.facets:
            sub = f
            while True:
                faces.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & f
        euler = sum((-1) ** (f.bit_count() - 1) for f in faces)
        assert euler == sum((-1) ** d * r for d, r in ranks.items())


# --- the relative kernel (del v, link v) against the full face table


def nonzero(ranks):
    return {d: r for d, r in ranks.items() if r}


def compressed(gens):
    """The generators on slots 0..k-1 of their union, in slot order, sorted."""
    universe = 0
    for g in gens:
        universe |= g
    slots = [b for b in range(universe.bit_length()) if universe >> b & 1]
    return tuple(
        sorted(sum(1 << i for i, b in enumerate(slots) if g >> b & 1) for g in gens)
    )


def full_face_homology(gens):
    universe = 0
    for g in gens:
        universe |= g
    return nonzero(_homology_ranks(faces_by_size(universe, gens)))


def closed_form_parts(monkeypatch) -> dict:
    """Record the shape and answer of every part of at most three generators,
    which ``_part_homology`` answers in closed form and never caches."""
    parts = {}
    real = degeneration._part_homology

    def recorded(gens, universe):
        vec = real(gens, universe)
        if len(gens) <= 3:
            parts[compressed(gens)] = vec
        return vec

    monkeypatch.setattr(degeneration, "_part_homology", recorded)
    return parts


def closed_form_case(shape):
    """The generator count, and for three generators also the number e of
    pairs whose union is not the whole union."""
    if len(shape) < 3:
        return len(shape)
    a, b, c = shape
    universe = a | b | c
    return 3, sum(x | y != universe for x, y in ((a, b), (a, c), (b, c)))


CLOSED_FORM_CASES = {1, 2, (3, 0), (3, 1), (3, 2), (3, 3)}


def test_part_homology_matches_full_face_table_on_census_parts(monkeypatch):
    # every part of the n <= 6 initial ideals' tables, then the new parts of
    # their Alexander duals' tables up to n = 5.  The cache holds each part of
    # four or more generators, and each such link the reductions recurse
    # into, under its compressed shape alone; the smaller parts are recorded
    # on the way.  Every shape is checked against its full face table.
    cache = {}
    monkeypatch.setattr(degeneration, "_PART_CACHE", cache)
    closed = closed_form_parts(monkeypatch)
    for g in census_graphs(6):
        betti_table(initial_ideal(g))
    assert len(cache) == 21435
    for g in census_graphs(5):
        betti_table(_alexander_dual(initial_ideal(g)))
    assert len(cache) == 21727
    for shape, vec in cache.items():
        assert len(shape) > 3, shape
        assert shape == compressed(shape), shape
        assert vec == full_face_homology(shape), shape
    assert {closed_form_case(shape) for shape in closed} == CLOSED_FORM_CASES
    for shape, vec in closed.items():
        assert vec == full_face_homology(shape), shape


def test_unreduced_dual_parts_match_full_face_table_at_n6(monkeypatch):
    # the n = 6 dual parts with no private vertex and no dominated vertex
    # reach the relative kernel; each is compared with its full face table
    cache = {}
    monkeypatch.setattr(degeneration, "_PART_CACHE", cache)
    unreduced = []
    kernel = degeneration._relative_faces

    def recorded(gens):
        unreduced.append(tuple(gens))
        return kernel(gens)

    monkeypatch.setattr(degeneration, "_relative_faces", recorded)
    closed = closed_form_parts(monkeypatch)
    for g in census_graphs(6):
        betti_table(_alexander_dual(initial_ideal(g)))
    assert len(unreduced) == len(set(unreduced)) == 98
    for shape in unreduced:
        assert cache[shape] == full_face_homology(shape), shape
    # the parts of at most three generators, answered in closed form
    assert {closed_form_case(shape) for shape in closed} == CLOSED_FORM_CASES
    for shape, vec in closed.items():
        assert vec == full_face_homology(shape), shape


def test_dominated_link_is_the_minimalized_link_on_census_duals(monkeypatch):
    # every dominated-vertex branch that the n <= 6 dual tables reach: the
    # link written directly equals monomial_ideal of the sets g - u
    branches = []
    direct = degeneration._dominated_link

    def recorded(gens, u):
        branches.append((gens, u))
        return direct(gens, u)

    monkeypatch.setattr(degeneration, "_PART_CACHE", {})
    monkeypatch.setattr(degeneration, "_dominated_link", recorded)
    for g in census_graphs(6):
        betti_table(_alexander_dual(initial_ideal(g)))
    assert len(branches) == 2230

    def minimalized(gens, u):
        return sorted(monomial_ideal(16, (g & ~u for g in gens)).min_gens)

    def planted(gens, u):
        # keeps every h avoiding u, also one that contains some g - u
        return [g ^ u for g in gens if g & u] + [h for h in gens if not h & u]

    assert all(sorted(direct(gens, u)) == minimalized(gens, u) for gens, u in branches)
    assert any(sorted(planted(gens, u)) != minimalized(gens, u) for gens, u in branches)


def test_private_link_is_the_minimalized_link_on_census_duals(monkeypatch):
    # every private-vertex branch that the n <= 6 dual tables reach: the link
    # written directly equals monomial_ideal of the sets h - g, h != g
    branches = []
    direct = degeneration._private_link

    def recorded(gens, g):
        branches.append((tuple(gens), g))
        return direct(gens, g)

    monkeypatch.setattr(degeneration, "_PART_CACHE", {})
    monkeypatch.setattr(degeneration, "_private_link", recorded)
    for g in census_graphs(6):
        betti_table(_alexander_dual(initial_ideal(g)))
    assert len(branches) == 1634

    def minimalized(gens, g):
        return sorted(monomial_ideal(16, (h & ~g for h in gens if h != g)).min_gens)

    def planted(gens, g):
        # keeps every h disjoint from g, also one that contains some h' - g
        meeting = [h & ~g for h in gens if h & g and h != g]
        kept = monomial_ideal(16, meeting).min_gens if meeting else ()
        return [*kept, *(h for h in gens if not h & g)]

    assert all(sorted(direct(gens, g)) == minimalized(gens, g) for gens, g in branches)
    assert any(sorted(planted(gens, g)) != minimalized(gens, g) for gens, g in branches)


@st.composite
def generator_sets(draw):
    """Minimal generators on up to 8 slots, singletons and private slots likely."""
    nv = draw(st.integers(min_value=1, max_value=8))
    top = (1 << nv) - 1
    gens = draw(st.lists(st.integers(min_value=1, max_value=top), min_size=1, max_size=6))
    gens += draw(
        st.lists(st.integers(min_value=0, max_value=nv - 1).map(lambda i: 1 << i), max_size=2)
    )
    return monomial_ideal(nv, gens).min_gens


@st.composite
def dual_like_sets(draw):
    """Minimal generators of size >= 2 on up to 8 slots, each slot of their
    union in two or more of them, as in the parts of an Alexander dual's table
    that the private-vertex step leaves to the dominated-vertex step."""
    nv = draw(st.integers(min_value=3, max_value=8))
    top = (1 << nv) - 1
    gens = draw(st.lists(st.integers(min_value=3, max_value=top), min_size=3, max_size=8))
    while True:
        gens = monomial_ideal(nv, [g for g in gens if g.bit_count() >= 2]).min_gens
        once = twice = 0
        for g in gens:
            twice |= once & g
            once |= g
        if once == twice:
            break
        gens = [g & twice for g in gens]
    assume(gens)
    return gens


@given(generator_sets() | dual_like_sets())
# closed forms: e counts the pairs of three generators whose union is not W
@example((0b1,))  # one singleton: only the empty face, H_{-1} = 1
@example((0b01, 0b10))  # two singletons: H_{-1} = 1
@example((0b111,))  # the boundary of a triangle: H_1 = 1
@example((0b011, 0b110, 0b101))  # e = 0: H_0 = 2
@example((0b0111, 0b1011, 0b1101))  # e = 0 with slot 0 in every generator: H_1 = 2
@example((0b0011, 0b1110, 0b0101))  # e = 1: H_1 = 1
@example((0b0011, 0b0110, 0b1100))  # e = 2: acyclic
@example((0b000011, 0b001100, 0b110000))  # e = 3: three disjoint pairs, H_2 = 1
# four or more generators: the reductions and the relative kernel
@example((0b00011, 0b00110, 0b01100, 0b11000))  # a chain of private vertices
@example((0b0101, 0b1010, 0b0110, 0b1001))  # a 4-cycle, no private or dominated vertex
@example((0b00111, 0b01011, 0b10110, 0b11010))  # slot 1 in every generator: a suspension
@example((0b001001, 0b100001, 0b011100, 0b110100))  # all through slot 2 contain slot 4
# removing slot 0 leaves slot 3 in no minimal generator: a cone
@example((0b000111, 0b010101, 0b011100, 0b100011, 0b110001, 0b111000))
@example((0b000011, 0b001001, 0b110110, 0b111100))  # dominated slots removed twice in a row
@settings(max_examples=300, deadline=None)
def test_part_homology_against_full_face_table(gens):
    universe = 0
    for g in gens:
        universe |= g
    with patch.object(degeneration, "_PART_CACHE", {}) as cache:
        assert _part_homology(gens, universe) == full_face_homology(gens)
        # the second lookup hits the shape, the only key of the part; a part
        # of at most three generators is answered in closed form, uncached
        assert _part_homology(gens, universe) == full_face_homology(gens)
        assert (compressed(gens) in cache) == (len(gens) > 3)
        assert all(key == compressed(key) and len(key) > 3 for key in cache)


@given(dual_like_sets())
@settings(max_examples=200, deadline=None)
def test_relative_faces_against_full_face_table(gens):
    assert nonzero(_homology_ranks(_relative_faces(gens))) == full_face_homology(gens)


# --- independent Hochster oracle: literal subset scan, dense Fraction ranks


def dense_rank(rows):
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    piv = 0
    for c in range(cols):
        for r in range(rank, len(rows)):
            if rows[r][c]:
                rows[rank], rows[r] = rows[r], rows[rank]
                lead = rows[rank][c]
                for rr in range(len(rows)):
                    if rr != rank and rows[rr][c]:
                        f = rows[rr][c] / lead
                        rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[rank])]
                rank += 1
                break
    return rank


def naive_betti(gens, n_vars):
    """Textbook scan: every subset, explicit faces, dense boundary ranks."""
    entries = {}
    for w in range(1 << n_vars):
        verts = [v for v in range(n_vars) if w >> v & 1]
        faces = []
        for r in range(len(verts) + 1):
            for c in combinations(verts, r):
                fm = sum(1 << v for v in c)
                if not any(g & ~fm == 0 for g in gens):
                    faces.append(fm)
        by_size = {}
        for f in faces:
            by_size.setdefault(f.bit_count(), []).append(f)
        max_size = max(by_size)
        rank_bd = {}
        for size in range(1, max_size + 1):
            lower = {f: i for i, f in enumerate(by_size.get(size - 1, []))}
            upper = by_size.get(size, [])
            rows = []
            for f in upper:
                row = [0] * len(lower)
                sign = 1
                m = f
                while m:
                    b = m & -m
                    m ^= b
                    row[lower[f ^ b]] = sign
                    sign = -sign
                rows.append(row)
            rank_bd[size - 1] = dense_rank(rows)
        for d in range(-1, max_size):
            fd = len(by_size.get(d + 1, []))
            h = fd - rank_bd.get(d, 0) - rank_bd.get(d + 1, 0)
            if h:
                size = w.bit_count()
                key = (size - d - 1, size)
                entries[key] = entries.get(key, 0) + h
    return tuple(sorted((i, j, r) for (i, j), r in entries.items()))


def test_betti_table_p3_frozen():
    bt = betti_table(initial_ideal(P3))
    assert bt.entries == ((0, 0, 1), (1, 2, 2), (2, 4, 1))
    assert bt.reg == 2 and bt.pd == 2


def test_betti_table_zero_ideal():
    bt = betti_table(monomial_ideal(6, []))
    assert bt.entries == ((0, 0, 1),)
    assert bt.reg == 0 and bt.pd == 0


def test_betti_table_against_naive_scan_small_graphs():
    for n in (2, 3):
        for g in enumerate_connected(n):
            I = initial_ideal(g)
            assert betti_table(I).entries == naive_betti(I.min_gens, I.n_vars)
    I = initial_ideal(STAR)
    assert betti_table(I).entries == naive_betti(I.min_gens, I.n_vars)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_betti_table_against_naive_scan_random_ideals(data):
    nv = data.draw(st.integers(min_value=2, max_value=6))
    count = data.draw(st.integers(min_value=1, max_value=4))
    gens = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=(1 << nv) - 1),
            min_size=count,
            max_size=count,
        )
    )
    I = monomial_ideal(nv, gens)
    assert betti_table(I).entries == naive_betti(I.min_gens, I.n_vars)


@st.composite
def small_ideals(draw):
    nv = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(st.integers(min_value=1, max_value=(1 << nv) - 1), max_size=5))
    return monomial_ideal(nv, gens)


@given(small_ideals(), small_ideals())
@settings(max_examples=60, deadline=None)
def test_betti_table_of_disjoint_sum_is_the_convolution(I, J):
    # S/(I + J) = S/I (x) S/J when I and J use disjoint slots, so the Betti
    # table of the sum is the (i, j)-convolution of the two tables
    shifted = [g << I.n_vars for g in J.min_gens]
    both = betti_table(monomial_ideal(I.n_vars + J.n_vars, I.min_gens + tuple(shifted)))
    expected = {}
    for i1, j1, r1 in betti_table(I).entries:
        for i2, j2, r2 in betti_table(J).entries:
            key = (i1 + i2, j1 + j2)
            expected[key] = expected.get(key, 0) + r1 * r2
    assert both.entries == tuple(sorted((i, j, r) for (i, j), r in expected.items()))


def test_first_column_is_generator_degrees():
    for g in [P3, K3, STAR, build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])]:
        I = initial_ideal(g)
        bt = betti_table(I)
        degrees = {}
        for m in I.min_gens:
            degrees[m.bit_count()] = degrees.get(m.bit_count(), 0) + 1
        got = {j: r for i, j, r in bt.entries if i == 1}
        assert got == degrees


# --- graded Euler characteristic: the Taylor complex, no homology at all


def taylor_euler(gens) -> dict[int, int]:
    """Sum of (-1)^|s| over the generator subsets s, by degree of lcm(s).

    One dictionary pass over the generator unions: each generator either
    stays out of a subset or joins it and flips its sign.  The empty subset
    gives the 1 in degree 0.
    """
    signed = {0: 1}
    for g in gens:
        step = dict(signed)
        for u, c in signed.items():
            step[u | g] = step.get(u | g, 0) - c
        signed = step
    by_degree: dict[int, int] = {}
    for u, c in signed.items():
        by_degree[u.bit_count()] = by_degree.get(u.bit_count(), 0) + c
    return {j: c for j, c in by_degree.items() if c}


def betti_euler(table) -> dict[int, int]:
    """Sum of (-1)^i beta_{i,j} over i, by degree j."""
    by_degree: dict[int, int] = {}
    for i, j, r in table.entries:
        by_degree[j] = by_degree.get(j, 0) + (-1) ** i * r
    return {j: c for j, c in by_degree.items() if c}


def test_betti_tables_match_the_taylor_euler_characteristic():
    # every n <= 6 table of both routes: the initial ideal's and its dual's
    for g in census_graphs(6):
        I = initial_ideal(g)
        D = _alexander_dual(I)
        assert betti_euler(betti_table(I)) == taylor_euler(I.min_gens), g
        assert betti_euler(betti_table(D)) == taylor_euler(D.min_gens), g


# --- the Alexander dual route


@st.composite
def nonzero_ideals(draw):
    nv = draw(st.integers(min_value=1, max_value=8))
    gens = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << nv) - 1), min_size=1, max_size=6)
    )
    return monomial_ideal(nv, gens)


def minimal_covers(I) -> list[int]:
    """Brute force: every slot subset meeting each generator, minimal ones kept."""
    covers = [c for c in range(1 << I.n_vars) if all(c & g for g in I.min_gens)]
    return sorted(c for c in covers if not any(d != c and d & ~c == 0 for d in covers))


@given(nonzero_ideals())
@settings(max_examples=150, deadline=None)
def test_alexander_dual_is_the_minimal_covers(I):
    D = _alexander_dual(I)
    assert sorted(D.min_gens) == minimal_covers(I)
    assert _alexander_dual(D) == I


@given(nonzero_ideals())
@settings(max_examples=60, deadline=None)
def test_terai_duality_on_random_ideals(I):
    primal = betti_table(I)
    dual = betti_table(_alexander_dual(I))
    assert primal.reg == dual.pd - 1
    assert primal.pd == dual.reg + 1


def test_alexander_dual_edge_cases():
    # one generator: its dual is the ideal of its variables, a Koszul complex
    D = _alexander_dual(monomial_ideal(4, [0b0110]))
    assert D.min_gens == (0b0010, 0b0100)
    assert betti_table(D).entries == ((0, 0, 1), (1, 1, 2), (2, 2, 1))
    # the zero ideal of an isolated vertex would have the unit ideal as dual
    with pytest.raises(ValueError):
        _alexander_dual(monomial_ideal(2, []))
    rec = invariants(build_graph(1, []))
    assert (rec.reg, rec.pd, rec.depth) == (0, 0, 2)
    rec = invariants(build_graph(3, [(1, 2)]))  # P2 and an isolated vertex
    assert (rec.reg, rec.pd, rec.depth) == (1, 1, 5)


def test_invariants_pinned_families():
    for n in range(2, 8):
        pn = build_graph(n, [(i, i + 1) for i in range(1, n)])
        rec = invariants(pn)
        assert rec.reg == n - 1 and rec.cm
        assert rec.depth == rec.dim == n + 1
        kn = build_graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])
        rec = invariants(kn)
        assert rec.reg == 1 and rec.cm and rec.dim == n + 1
    rec = invariants(STAR)
    assert rec.reg == 2 and not rec.unmixed and not rec.cm


def test_invariants_disconnected_additive():
    g = build_graph(5, [(1, 2), (2, 3), (4, 5)])  # P3 + P2
    rec = invariants(g)
    assert rec.reg == 2 + 1
    assert rec.depth == 2 * 5 - (2 + 1)
    assert rec.dim == 4 + 3
    assert rec.cm


def test_invariants_label_invariance():
    rng = random.Random(11)
    for n in (4, 5):
        for g in rng.sample(enumerate_connected(n), 6):
            base = invariants(g)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabeled = build_graph(
                n, [(perm[a - 1], perm[b - 1]) for a, b in g.edges()]
            )
            other = invariants(relabeled)
            assert (base.reg, base.pd, base.dim, base.unmixed, base.cm) == (
                other.reg,
                other.pd,
                other.dim,
                other.unmixed,
                other.cm,
            )


def test_regularity_additivity_on_decomposable():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            split = is_decomposable(g)
            if split is None:
                continue
            _, p1, p2 = split
            assert (
                invariants(g).reg
                == invariants(p1.graph).reg + invariants(p2.graph).reg
            )


def test_clique_bound_small():
    for n in range(2, 6):
        for g in enumerate_connected(n):
            rec = invariants(g)
            cl = maximal_cliques(g)
            assert rec.reg <= g.n - cl.dim
            for w in cl.maximal_cliques:
                assert rec.reg <= g.n - len(w) + 1


def test_disconnected_clique_bound_small():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 6)
        pairs = list(combinations(range(1, n + 1), 2))
        g = build_graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        if not g.edge_count():
            continue
        rec = invariants(g)
        total_dim = sum(
            maximal_cliques(induced_on(g, c).graph).dim
            for c in connected_components(g)
        )
        assert rec.reg <= g.n - total_dim


def test_quotient_dimension_matches_stanley_reisner():
    # cut-set route and initial-ideal route compute the same dimension
    from bei.primes import minimal_primes

    for n in range(2, 6):
        for g in enumerate_connected(n):
            sr = stanley_reisner(initial_ideal(g))
            # dim + 1 of the Stanley-Reisner complex is its largest facet size
            largest = max(f.bit_count() for f in sr.facets)
            assert minimal_primes(g).dim_quotient == largest


def test_tier_errors():
    with pytest.raises(TierExceededError):
        betti_table(monomial_ideal(18, [3]))
    k8 = build_graph(8, [(i, j) for i in range(1, 8) for j in range(i + 1, 9)])
    assert invariants(k8).reg == 1
    k9 = build_graph(9, [(i, j) for i in range(1, 9) for j in range(i + 1, 10)])
    with pytest.raises(TierExceededError):
        invariants(k9)
