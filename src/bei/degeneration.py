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

When v lies in exactly one generator g, the matching goes one step further
and lists no face.  The relative faces are then F = (g - v) + E, with E a
face of the complex on W - g (W the union) whose minimal non-faces are the
minimal sets among h - g, h != g: h lies in F exactly when h - g lies in E,
since no other generator contains v.  Dropping a vertex of g - v lands in
link v, which is divided out, so the boundary acts on E alone, and
(del v, link v) is the link of g - v shifted by |g| - 1:
H~_d(D) = H~_{d-|g|+1}(link).  If the sets h - g miss a vertex of W - g,
the link is a cone and D is acyclic.  Otherwise the link is again a part,
reduced the same way.  Its minimal non-faces are written directly too: a
generator disjoint from g is its own set, and only the sets h - g of the
generators meeting g are compared with each other.

When no vertex is private, a vertex u may still be dominated: some vertex
w != u of W has every generator through w contain u.  Combinatorial
Alexander duality inside W maps D to K, the union of the simplices on W - g.
The condition says every facet of K through u contains w, so u is dominated
by w in K, and K strong-collapses to K - u (Barmak-Minian, Discrete Comput.
Geom. 47, 2012).  K - u is the dual inside W - u of the complex D' whose
minimal non-faces are the minimal sets among g - u, and dropping one vertex
from the ground set shifts the degree of the duality by one:
H~_d(D) = H~_{d-1}(D').  When u lies in every generator this is the
suspension.  If those sets miss a vertex of W - u, D' is a cone and D is
acyclic; otherwise D' is again a part.  Since the generators form an
antichain, those minimal sets are written directly: g - u for each g through
u, and each g avoiding u that contains no such set.  Private vertices are
tried first, and only the parts with neither kind of vertex reach the
relative faces.

Parts of at most three generators need no reduction: their homology has a
closed form, and they are never cached.  The lcm-lattice formula
(Gasharov, Peeva and Welker, "The lcm-lattice in monomial resolutions",
Math. Res. Lett. 6, 1999) with the crosscut theorem gives
beta_{i,W} = H~_{i-2}(X), X the complex of the sets of generators whose
union is not W; with Hochster's formula, H~_d(D) = H~_{|W|-d-3}(X).  The
generators form an antichain, so each one alone is a vertex of X when there
are two or more, and all of them together are not a face.  One generator:
X is the complex of the empty face, so H~_{|W|-2}(D) = 1 (D is the boundary
of the simplex on W).  Two: X is two points, so H~_{|W|-3}(D) = 1.  Three:
X is a graph on three vertices with an edge for each of the e pairs whose
union is not W.  For e <= 1 it has 3 - e components, so
H~_{|W|-3}(D) = 2 - e; for e = 2 it is a path and D is acyclic; for e = 3
it is a circle, so H~_{|W|-4}(D) = 1.

The homology of a part depends only on its generator set, since the part's
vertex set is their union, and it does not change when the slots outside the
union are squeezed out.  The cache therefore keys each part of four or more
generators, whether ``betti_table`` asks for it or a reduction recurses into
it as a link, by its shape alone: the generators moved to slots 0..k-1 of their union and sorted,
which parts of different ideals share.  The caller passes the union it
already holds (``betti_table`` its covered union, a reduction the ground set
of its link), and each run of missing slots is squeezed out by one shift.

``invariants`` does not scan the initial ideal I itself.  It computes the
Betti table of the Alexander dual I^v, generated by x^C for each minimal
transversal C of the generator supports (one per minimal prime of I), and
reads reg(S/I) = pd(S/I^v) - 1 and pd(S/I) = reg(S/I^v) + 1 (Terai,
"Alexander duality theorem and Stanley-Reisner rings", RIMS Kokyuroku 1078,
1999; Eagon-Reiner, J. Pure Appl. Algebra 130, 1998).  The dual has far fewer
covered unions.  The table of I itself stays available as
``betti_table(initial_ideal(G))``, which the ``terai-duality`` sweep compares
against the dual route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TierExceededError
from .graphs import (
    Graph,
    VertexPath,
    connected_components,
    induced_on,
    simple_paths,
)
from .primes import minimal_primes

BETTI_MAX_N = 8


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


def admissible_paths(G: Graph) -> list[AdmissiblePath]:
    """Paths indexing the reduced lex Groebner basis of the edge-minor ideal.

    A path from a to b (a < b) qualifies when every inner vertex lies outside
    the interval [a, b] and no proper ordered subsequence of the inner
    vertices already joins a to b.  Such a subsequence exists exactly when
    the path has a chord, so these are the induced paths from a to b with
    every inner vertex outside [a, b]: one search per pair extends only to
    such vertices that no earlier path vertex is adjacent to, and closes the
    path at the first vertex adjacent to b.
    """
    n = G.n
    adj = G.adj
    out = []
    path: list[int] = []  # 0-based vertices from a

    def extend(v: int, barred: int, lead: int, b: int, outside: int) -> None:
        # barred: the path and every neighbour of a path vertex before v
        if adj[v] >> b & 1:
            vertices = tuple(u + 1 for u in path) + (b + 1,)
            out.append(AdmissiblePath(VertexPath(vertices), lead))
            return
        m = adj[v] & outside & ~barred
        barred |= adj[v]
        while m:
            bit = m & -m
            m ^= bit
            u = bit.bit_length() - 1
            slot = x_slot(n, u + 1) if u > b else y_slot(n, u + 1)
            path.append(u)
            extend(u, barred, lead | slot, b, outside)
            path.pop()

    for a in range(n):
        path.append(a)
        for b in range(a + 1, n):
            outside = ~((2 << b) - (1 << a))
            extend(a, 1 << a, x_slot(n, a + 1) | y_slot(n, b + 1), b, outside)
        path.pop()
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
    for path in simple_paths(H, i, j):
        inner = path.inner
        if not inner:
            continue
        for t in range(len(inner) + 1):
            m = 0
            for k in inner[:t]:
                m |= y_slot(n, k)
            for k in inner[t:]:
                m |= x_slot(n, k)
            gens.append(m)
    return monomial_ideal(2 * n, gens)


# ---------------------------------------------------------------------------
# relative faces and exact homology ranks


def _relative_faces(gens) -> dict[int, list[int]]:
    """Chain groups of (del v, link v), v the vertex in fewest generators.

    These are the subsets F of the union of ``gens`` with v not in F that
    contain no generator but contain g - v for some generator g through v,
    grouped by size.  Their relative homology is the reduced homology of the
    complex on that union avoiding ``gens``.  The generators must be minimal
    and every slot of their union must lie in two or more of them, as in the
    parts that reach here: then v has anchors g - v, and none is empty.
    """
    universe = 0
    for g in gens:
        universe |= g
    verts = [u for u in range(universe.bit_length()) if universe >> u & 1]
    v = min(verts, key=lambda u: sum(g >> u & 1 for g in gens))
    vb = 1 << v
    anchors = [g ^ vb for g in gens if g & vb]
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

    rec(0, 0, 0, anchors)
    return faces


def _rank_of_columns(cols) -> int:
    """Rank over the rationals of integer sparse columns (exact).

    Fraction-free elimination: a column may be rescaled freely since only the
    rank is wanted, so a non-unit pivot b is cleared by multiplying the
    column by b, never by dividing.  Pivots are stored with positive leading
    entry.
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
            col = new
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


# ---------------------------------------------------------------------------
# Betti tables via the subset scan


@dataclass(frozen=True)
class BettiTable:
    entries: tuple[tuple[int, int, int], ...]  # (i, j, rank), sorted
    reg: int
    pd: int


def _covered_unions(gens) -> set[int]:
    """All distinct unions of nonempty generator subsets."""
    seen: set[int] = set()
    for g in gens:
        seen |= {u | g for u in seen}
        seen.add(g)
    return seen


# homology cache keyed by shape: a part's homology depends only on its
# generators, up to the slots missing from their union
_PART_CACHE: dict[tuple[int, ...], dict[int, int]] = {}


def _part_homology(gens, universe: int) -> dict[int, int]:
    """Nonzero reduced homology ranks of the complex on ``universe``, the
    union of ``gens``, whose minimal non-faces are ``gens``, cached under
    their shape.

    Each run of slots missing below the top of the union is squeezed out by
    shifting the slots above it down by its length, the highest run first,
    so that the lower runs keep their places.  Parts of at most three
    generators are answered in closed form, with no key at all."""
    count = len(gens)
    if count <= 3:
        size = universe.bit_count()
        if count == 1:
            return {size - 2: 1}
        if count == 2:
            return {size - 3: 1}
        a, b, c = gens
        e = (a | b != universe) + (a | c != universe) + (b | c != universe)
        if e <= 1:
            return {size - 3: 2 - e}
        return {size - 4: 1} if e == 3 else {}
    gaps = ~universe & ((1 << universe.bit_length()) - 1)
    while gaps:
        top = gaps.bit_length()
        # the run is the gaps above the highest slot of the union below top
        start = (universe & ((1 << top) - 1)).bit_length()
        low = (1 << start) - 1
        gaps &= low
        gens = [(g & low) | (g >> (top - start) & ~low) for g in gens]
    key = tuple(sorted(gens))
    vec = _PART_CACHE.get(key)
    if vec is None:
        vec = _PART_CACHE[key] = _shape_homology(key)
    return vec


def _shape_homology(gens: tuple[int, ...]) -> dict[int, int]:
    """Homology of a shape: the link reduction at a private vertex, else the
    removal of a dominated vertex, else the relative faces."""
    once = twice = 0
    for g in gens:
        twice |= once & g
        once |= g
    private = once & ~twice
    if private:
        v = private & -private
        g = next(h for h in gens if h & v)
        return _shifted_link(once & ~g, _private_link(gens, g), g.bit_count() - 1)
    m = once
    while m:
        w = m & -m
        m ^= w
        common = once
        for g in gens:
            if g & w:
                common &= g
        common ^= w  # the slots u with w in g => u in g
        if common:
            u = common & -common
            return _shifted_link(once ^ u, _dominated_link(gens, u), 1)
    ranks = _homology_ranks(_relative_faces(gens))
    return {d: r for d, r in ranks.items() if r}


def _private_link(gens, g: int) -> list[int]:
    """The minimal sets among h - g (h != g), for the antichain ``gens`` and
    its member g, written directly instead of by ``monomial_ideal``.

    The sets h - g of the generators h meeting g are minimalized among
    themselves, smallest first.  A generator h disjoint from g is its own
    set.  It lies inside no h' - g, which would put it inside h', so those
    minimal sets stay minimal; and no other generator lies inside it, so it
    is minimal unless it contains one of them.
    """
    meeting = sorted({h & ~g for h in gens if h & g and h != g}, key=int.bit_count)
    kept: list[int] = []
    for m in meeting:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept + [h for h in gens if not h & g and not any(k & ~h == 0 for k in kept)]


def _dominated_link(gens, u: int) -> list[int]:
    """The minimal sets among g - u, for the antichain ``gens`` and the
    one-slot mask u, written directly instead of by ``monomial_ideal``.

    Each g - u with u in g is minimal: a set inside it would lie inside g.
    A generator h avoiding u is its own set, minimal unless it contains some
    g - u, since it contains no other generator.
    """
    through = [g ^ u for g in gens if g & u]
    return through + [
        h for h in gens if not h & u and not any(t & ~h == 0 for t in through)
    ]


def _shifted_link(rest: int, link, shift: int) -> dict[int, int]:
    """Homology of the part on ``rest`` whose minimal non-faces are ``link``,
    raised by ``shift`` degrees; none if they miss a slot of ``rest``, since
    the complex is then a cone over that slot."""
    covered = 0
    for h in link:
        covered |= h
    if covered != rest:
        return {}
    return {d + shift: r for d, r in _part_homology(link, rest).items()}


def _check_betti_tier(n_vars: int) -> None:
    if n_vars > 2 * BETTI_MAX_N:
        raise TierExceededError(
            f"Betti scan tier is {2 * BETTI_MAX_N} slots, got {n_vars}"
        )


def betti_table(I: SquarefreeMonomialIdeal) -> BettiTable:
    """Full graded Betti table of the quotient by a squarefree monomial ideal."""
    _check_betti_tier(I.n_vars)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    gens = I.min_gens
    for W in _covered_unions(gens):
        size = W.bit_count()
        for d, r in _part_homology([g for g in gens if g & ~W == 0], W).items():
            key = (size - d - 1, size)
            entries[key] = entries.get(key, 0) + r
    table = tuple(sorted((i, j, r) for (i, j), r in entries.items()))
    reg = max(j - i for i, j, _ in table)
    pd = max(i for i, j, _ in table)
    return BettiTable(table, reg, pd)


def _alexander_dual(I: SquarefreeMonomialIdeal) -> SquarefreeMonomialIdeal:
    """The Alexander dual of a nonzero ideal: x^C for each minimal transversal C.

    C meets every generator support and no proper subset of C does.  The
    search branches on the first generator that the partial cover misses,
    trying its slots in turn; a slot tried in one branch is barred from the
    later ones, so no cover is reached twice.  ``monomial_ideal`` then drops
    the covers that are not minimal.
    """
    gens = I.min_gens
    covers: list[int] = []

    def grow(start: int, cover: int, barred: int) -> None:
        for k in range(start, len(gens)):
            if not gens[k] & cover:
                free = gens[k] & ~barred
                while free:
                    b = free & -free
                    free ^= b
                    grow(k + 1, cover | b, barred)
                    barred |= b
                return
        covers.append(cover)

    grow(0, 0, 0)
    return monomial_ideal(I.n_vars, covers)


@dataclass(frozen=True)
class InvariantRecord:
    reg: int
    pd: int
    depth: int
    dim: int
    unmixed: bool
    cm: bool
    prime_count: int  # minimal primes, one per cut set


def invariants(G: Graph) -> InvariantRecord:
    """Regularity, depth, dimension and friends for the edge-minor quotient.

    Regularity and projective dimension are computed per connected component
    from the squarefree initial ideal I (the degeneration preserves both) and
    summed.  Both are read off the Betti table of the Alexander dual:
    reg(S/I) = pd(S/I^v) - 1 and pd(S/I) = reg(S/I^v) + 1.  Dimension,
    unmixedness and the prime count come from the one minimal-prime pass.
    """
    if G.n > 12:
        raise TierExceededError(f"invariants tier is n <= 12, got {G.n}")
    comps = connected_components(G)
    reg = 0
    pd = 0
    for comp in comps:
        sub = induced_on(G, comp).graph
        _check_betti_tier(2 * sub.n)
        I = initial_ideal(sub)
        if I.is_zero():
            continue  # an isolated vertex: S/0 has reg 0 and pd 0
        dual = betti_table(_alexander_dual(I))
        reg += dual.pd - 1
        pd += dual.reg + 1
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
