"""Squarefree lex degeneration of binomial edge ideals and exact invariants.

The 2n variable slots are bits: slot k is x_{k+1} for 0 <= k < n, slot n+k is
y_{k+1}.  The monomial order behind every generator set produced here is lex
with x_1 > ... > x_n > y_1 > ... > y_n; that order is part of the module
contract.

Graded Betti numbers of a squarefree monomial quotient are computed from
reduced homology of induced subcomplexes of the Stanley-Reisner complex
(Hochster's formula).  Only the subsets that are unions of generator supports
can contribute: any other subset has a vertex in no contained generator, and
coning over that vertex kills all reduced homology.

The homology of each such union is read off a relative chain complex instead
of the full face table.  For any vertex v of a complex D, the star of v is a
cone, so the long exact sequence of the pair gives H~(D) = H(D, star v), and
the faces of D outside star v are exactly the faces F with v not in F and
F + v a non-face, i.e. the chain groups of (del v, link v).  For a complex
given by minimal non-faces these are the faces of D avoiding v that contain
g - v for some generator g through v; they are enumerated directly, for the v
that lies in the fewest generators.  The boundary map is the ordinary one with
the faces of star v dropped, so the same exact rank routine serves the
absolute and the relative case.  This is one step of an element matching
(Jonsson, Simplicial Complexes of Graphs, LNM 1928) or a discrete Morse
matching (Forman, 1998); the isomorphism holds over the integers, and all
ranks are over the rationals via integer elimination.  No floating point is
used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .cliques import SimplicialComplex
from .errors import TierExceededError
from .graphs import (
    Graph,
    VertexPath,
    connected_components,
    induced_on,
    mask_to_labels,
    simple_paths,
)
from .primes import minimal_primes

BETTI_GUARANTEED_N = 6
BETTI_MAX_N = 8
HOMOLOGY_MAX_VERTICES = 16


def x_slot(n: int, v: int) -> int:
    return 1 << (v - 1)


def y_slot(n: int, v: int) -> int:
    return 1 << (n + v - 1)


@dataclass(frozen=True)
class SquarefreeMonomialIdeal:
    n_vars: int
    min_gens: tuple[int, ...]

    def is_zero(self) -> bool:
        return not self.min_gens


def monomial_ideal(n_vars: int, gens) -> SquarefreeMonomialIdeal:
    """Minimalize: drop duplicates and any generator divisible by another."""
    gens = sorted(set(gens), key=lambda m: (m.bit_count(), m))
    if gens and gens[0] == 0:
        raise ValueError("unit generator (empty support) rejected")
    kept: list[int] = []
    for m in gens:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return SquarefreeMonomialIdeal(n_vars, tuple(kept))


@dataclass(frozen=True)
class AdmissiblePath:
    path: VertexPath
    lead: int


def _inner_minimal(G: Graph, a: int, b: int, inner: tuple[int, ...]) -> bool:
    """No proper subsequence of the inner vertices, in path order, joins a to b."""
    s = len(inner)
    for r in range(s):
        for picked in combinations(inner, r):
            seq = (a,) + picked + (b,)
            if all(G.has_edge(seq[k], seq[k + 1]) for k in range(len(seq) - 1)):
                return False
    return True


def admissible_paths(G: Graph) -> list[AdmissiblePath]:
    """Paths indexing the reduced lex Groebner basis of the edge-minor ideal.

    A path from a to b (a < b) qualifies when every inner vertex lies outside
    the interval [a, b] and no proper ordered subsequence of the inner
    vertices already joins a to b.
    """
    n = G.n
    out = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for path in simple_paths(G, a, b):
                inner = path.inner
                if any(a < k < b for k in inner):
                    continue
                if not _inner_minimal(G, a, b, inner):
                    continue
                lead = x_slot(n, a) | y_slot(n, b)
                for k in inner:
                    lead |= x_slot(n, k) if k > b else y_slot(n, k)
                out.append(AdmissiblePath(path, lead))
    return out


def initial_ideal(G: Graph) -> SquarefreeMonomialIdeal:
    return monomial_ideal(2 * G.n, (p.lead for p in admissible_paths(G)))


def colon_generators(H: Graph, e) -> SquarefreeMonomialIdeal:
    """Monomials from inner paths between the endpoints of ``e``.

    A path with inner vertices w_1..w_s (read from the smaller endpoint)
    contributes y_{w_1}..y_{w_t} x_{w_{t+1}}..x_{w_s} for 0 <= t <= s.  The
    bare edge (s = 0) is excluded: its empty product would generate the unit
    ideal.
    """
    i, j = sorted(e)
    if i == j:
        raise ValueError("endpoints must differ")
    n = H.n
    gens = []
    for path in simple_paths(H, i, j, require_inner=True):
        inner = path.inner
        for t in range(len(inner) + 1):
            m = 0
            for k in inner[:t]:
                m |= y_slot(n, k)
            for k in inner[t:]:
                m |= x_slot(n, k)
            gens.append(m)
    return monomial_ideal(2 * n, gens)


# ---------------------------------------------------------------------------
# faces, exact ranks, reduced homology


def _faces_by_size(universe: int, gens) -> dict[int, list[int]]:
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


def _relative_faces(universe: int, gens) -> dict[int, list[int]]:
    """Chain groups of (del v, link v), v the vertex in fewest generators.

    These are the subsets F of ``universe`` with v not in F that contain no
    generator but contain g - v for some generator g through v, grouped by
    size.  Their relative homology is the reduced homology of the complex on
    ``universe`` avoiding ``gens``; ``universe`` must be nonempty.
    """
    verts = [u for u in range(universe.bit_length()) if universe >> u & 1]
    v = min(verts, key=lambda u: sum(g >> u & 1 for g in gens))
    vb = 1 << v
    anchors = [g ^ vb for g in gens if g & vb]
    if not anchors:
        return {}  # the complex is a cone over v
    covered = 0
    for a in anchors:
        covered |= a
    # anchor vertices first: once they are all decided, a branch either
    # already contains an anchor or can never reach one
    order = sorted(
        (u for u in verts if u != v), key=lambda u: not covered >> u & 1
    )
    by_u = {
        u: [g & ~(1 << u) for g in gens if g >> u & 1 and not g & vb]
        for u in order
    }
    faces: dict[int, list[int]] = {}

    def rec(start: int, face: int, size: int, open_) -> None:
        # open_ lists the anchors the branch can still reach; None once the
        # face contains one, so that every extension is a chain
        skipped = 0
        for idx in range(start, len(order)):
            u = order[idx]
            if open_ is not None:
                reach = [a for a in open_ if not a & skipped]
                if not reach:
                    return
            skipped |= 1 << u
            if any(g & ~face == 0 for g in by_u[u]):
                continue
            nf = face | 1 << u
            child = None
            if open_ is not None and all(a & ~nf for a in reach):
                child = reach
            else:
                faces.setdefault(size + 1, []).append(nf)
            rec(idx + 1, nf, size + 1, child)

    if 0 in anchors:
        faces[0] = [0]
        rec(0, 0, 0, None)
    else:
        rec(0, 0, 0, anchors)
    return faces


def _normalized(col: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return col
    if g > 1:
        return {k: v // g for k, v in col.items()}
    return col


def _rank_of_columns(cols) -> int:
    """Rank over the rationals of integer sparse columns (exact, gcd-reduced).

    Rows may be rescaled freely since only the rank is wanted; pivots are
    stored with positive leading entry and rows are gcd-reduced only when a
    non-unit pivot forces a cross-multiplication.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in cols:
        col = dict(col)
        while col:
            r = min(col)
            p = pivots.get(r)
            if p is None:
                if col[r] < 0:
                    col = {k: -v for k, v in col.items()}
                pivots[r] = col
                rank += 1
                break
            a = col.pop(r)
            b = p[r]
            if b == 1:
                new = col
            else:
                new = {k: b * v for k, v in col.items()}
            for k, v in p.items():
                if k == r:
                    continue
                w = new.get(k, 0) - a * v
                if w:
                    new[k] = w
                elif k in new:
                    del new[k]
            col = new if b == 1 else _normalized(new)
    return rank


def _homology_ranks(faces: dict[int, list[int]]) -> dict[int, int]:
    """Homology ranks per dimension of the chain complex spanned by ``faces``.

    A face of size k spans the chain group of dimension k - 1, so the empty
    face, when present, gives the degree -1 group and the d = 0 boundary map
    is the augmentation.  A boundary face missing from the table lies in the
    subcomplex being divided out and is dropped: a full face table gives
    reduced homology, a table of relative faces gives relative homology.
    Dimension d runs from -1 to (max face size) - 1.
    """
    if not faces:
        return {}
    max_size = max(faces)
    rank_bd: dict[int, int] = {}
    for size in range(1, max_size + 1):
        lower = {f: i for i, f in enumerate(faces.get(size - 1, []))}
        cols = []
        for f in faces.get(size, []):
            col = {}
            sign = 1
            m = f
            while m:
                b = m & -m
                m ^= b
                i = lower.get(f ^ b)
                if i is not None:
                    col[i] = sign
                sign = -sign
            cols.append(col)
        rank_bd[size - 1] = _rank_of_columns(cols)
    ranks = {}
    for d in range(-1, max_size):
        fd = len(faces.get(d + 1, []))
        ranks[d] = fd - rank_bd.get(d, 0) - rank_bd.get(d + 1, 0)
    return ranks


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


def stanley_reisner(I: SquarefreeMonomialIdeal) -> SimplicialComplex:
    """Facets of the complex whose non-faces are the monomials of ``I``."""
    universe = (1 << I.n_vars) - 1
    if I.is_zero():
        return SimplicialComplex(I.n_vars, (universe,))
    faces = _faces_by_size(universe, I.min_gens)
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


# ---------------------------------------------------------------------------
# Betti tables via the subset scan


@dataclass(frozen=True)
class BettiTable:
    entries: tuple[tuple[int, int, int], ...]  # (i, j, rank), sorted
    reg: int
    pd: int


def _covered_unions(gens) -> list[int]:
    """All distinct unions of nonempty generator subsets."""
    seen = set(gens)
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for g in gens:
            w = u | g
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return sorted(seen)


# shape-keyed homology cache: parts from different subsets and different
# ideals coincide after compressing their slots, so this hits very often
_PART_CACHE: dict[tuple[int, ...], dict[int, int]] = {}


def _part_homology(mask: int, gens: list[int]) -> dict[int, int]:
    """Nonzero reduced homology ranks of the complex on ``mask`` avoiding ``gens``."""
    bits = []
    m = mask
    while m:
        b = m & -m
        m ^= b
        bits.append(b.bit_length() - 1)
    pos = {v: i for i, v in enumerate(bits)}
    packed = []
    for g in gens:
        c = 0
        mm = g
        while mm:
            b = mm & -mm
            mm ^= b
            c |= 1 << pos[b.bit_length() - 1]
        packed.append(c)
    key = tuple(sorted(packed))
    vec = _PART_CACHE.get(key)
    if vec is None:
        ranks = _homology_ranks(_relative_faces((1 << len(bits)) - 1, packed))
        vec = {d: r for d, r in ranks.items() if r}
        _PART_CACHE[key] = vec
    return vec


def _check_betti_tier(n_vars: int, best_effort: bool) -> None:
    if n_vars > 2 * BETTI_MAX_N:
        raise TierExceededError(
            f"Betti scan tier is {2 * BETTI_MAX_N} slots, got {n_vars}"
        )
    if n_vars > 2 * (BETTI_MAX_N - 1) and not best_effort:
        raise TierExceededError(
            f"{n_vars} slots needs best_effort=True (guaranteed tier is "
            f"{2 * BETTI_GUARANTEED_N})"
        )


def betti_table(I: SquarefreeMonomialIdeal, best_effort: bool = False) -> BettiTable:
    """Full graded Betti table of the quotient by a squarefree monomial ideal."""
    _check_betti_tier(I.n_vars, best_effort)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    gens = I.min_gens
    for W in _covered_unions(gens):
        size = W.bit_count()
        for d, r in _part_homology(W, [g for g in gens if g & ~W == 0]).items():
            key = (size - d - 1, size)
            entries[key] = entries.get(key, 0) + r
    table = tuple(sorted((i, j, r) for (i, j), r in entries.items()))
    reg = max(j - i for i, j, _ in table)
    pd = max(i for i, j, _ in table)
    return BettiTable(table, reg, pd)


@dataclass(frozen=True)
class InvariantRecord:
    reg: int
    pd: int
    depth: int
    dim: int
    unmixed: bool
    cm: bool
    prime_count: int  # minimal primes, one per cut set


def invariants(G: Graph, best_effort: bool = False) -> InvariantRecord:
    """Regularity, depth, dimension and friends for the edge-minor quotient.

    Regularity and projective dimension are computed per connected component
    from the squarefree initial ideal (the degeneration preserves both) and
    summed; dimension, unmixedness and the prime count come from the one
    minimal-prime pass.
    """
    if G.n > 12:
        raise TierExceededError(f"invariants tier is n <= 12, got {G.n}")
    comps = connected_components(G)
    reg = 0
    pd = 0
    for comp in comps:
        sub = induced_on(G, comp).graph
        _check_betti_tier(2 * sub.n, best_effort)
        bt = betti_table(initial_ideal(sub), best_effort)
        reg += bt.reg
        pd += bt.pd
    summary = minimal_primes(G)
    dim = summary.dim_quotient
    depth = 2 * G.n - pd
    return InvariantRecord(
        reg=reg,
        pd=pd,
        depth=depth,
        dim=dim,
        unmixed=summary.unmixed,
        cm=(depth == dim),
        prime_count=len(summary.primes),
    )
