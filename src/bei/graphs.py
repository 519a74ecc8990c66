"""Labeled simple graphs with bitmask adjacency.

Vertices are labeled 1..n externally and 0..n-1 internally (bit positions).
All values are immutable; every operation returns fresh objects, so
everything here is safe to call from parallel workers.

The canonical form of a graph is its least graph6 string over all vertex
orders.  The graph6 body lists the upper triangle column by column, column
k being vertex k's adjacency to vertices 0..k-1, so the least string is the
least column sequence.  One search finds it level by level.  The columns
still to come depend only on which vertices are unplaced and on each one's
column to the placed prefix, so orders that reach the same such state have
the same futures and merge, and ties do not multiply.

Enumeration is orderly generation (Read, Ann. Discrete Math. 2, 1978;
McKay, J. Algorithms 26, 1998), and it is exact.  Drop the last vertex of a
canonically labeled graph on n vertices: what is left is canonically
labeled, since a smaller string for it would, followed by the same last
column, be a smaller string for the whole.  So every class on n vertices is
one child of one class on n - 1: the parent with a new last vertex and some
neighbour set, kept because it is its own least string.  The canonicity
test is the same search with the child's own columns as the target; it
stops at the first smaller column.  No class is met twice, so nothing is
deduplicated.  The children of one parent (``_children``) need nothing from
any other class, so the census generates its top level one parent per task
in its worker pool.  The census keeps only connected classes, and it tests
only connected candidates for canonicity: a child is connected exactly when
the new vertex has a neighbour in every component of its parent, which is
read off the column before any search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import TierExceededError

MAX_VERTICES = 62  # graph6 short form limit
CANONICAL_MAX = 10  # canonical form tier: the merged-state search stays in milliseconds
ENUMERATION_MAX = 8


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 1..n; ``adj[i]`` is the neighbor bitmask of i+1."""

    n: int
    adj: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.adj[v - 1].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return mask_to_labels(self.adj[v - 1])

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.adj[a - 1] >> (b - 1) & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i in range(self.n):
            m = self.adj[i] >> (i + 1) << (i + 1)  # only j > i
            while m:
                b = m & -m
                m ^= b
                out.append((i + 1, b.bit_length()))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1


def mask_to_labels(mask: int) -> tuple[int, ...]:
    """1-based labels of the set bits of ``mask``."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length())
    return tuple(out)


def labels_to_mask(labels) -> int:
    mask = 0
    for v in labels:
        mask |= 1 << (v - 1)
    return mask


def build_graph(n: int, edges) -> Graph:
    """Build a graph from 1-based unordered label pairs (duplicates collapse)."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    adj = [0] * n
    for e in edges:
        a, b = e
        if a == b:
            raise ValueError(f"loop {{{a},{b}}} rejected")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge {{{a},{b}}} out of range 1..{n}")
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    return Graph(n, tuple(adj))


def _component_masks(adj: tuple[int, ...], vertex_mask: int) -> list[int]:
    """Connected components of the graph induced on ``vertex_mask``, as masks."""
    comps = []
    remaining = vertex_mask
    while remaining:
        start = remaining & -remaining
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & vertex_mask & ~seen
            seen |= frontier
        comps.append(seen)
        remaining &= ~seen
    return comps


def connected_components(G: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition of {1..n} into maximal connected vertex sets."""
    return tuple(mask_to_labels(m) for m in _component_masks(G.adj, G.full_mask()))


def is_connected(G: Graph) -> bool:
    return len(_component_masks(G.adj, G.full_mask())) == 1


@dataclass(frozen=True)
class InducedSubgraph:
    """An induced subgraph together with its label table.

    ``labels[k]`` is the original label of the new vertex k+1.
    """

    graph: Graph
    labels: tuple[int, ...]


def induced_on(G: Graph, kept) -> InducedSubgraph:
    """Induced subgraph on the given label set."""
    keep_mask = labels_to_mask(kept)
    keep = [v for v in range(G.n) if keep_mask >> v & 1]
    index = {v: k for k, v in enumerate(keep)}
    adj = [0] * len(keep)
    for k, v in enumerate(keep):
        m = G.adj[v] & keep_mask
        while m:
            b = m & -m
            m ^= b
            adj[k] |= 1 << index[b.bit_length() - 1]
    return InducedSubgraph(Graph(len(keep), tuple(adj)), tuple(v + 1 for v in keep))


def delete_edge(G: Graph, e) -> Graph:
    """G without the edge ``e``, which must be present."""
    a, b = e
    if a == b or not (1 <= a <= G.n and 1 <= b <= G.n):
        raise ValueError(f"bad edge {{{a},{b}}}")
    if not G.has_edge(a, b):
        raise ValueError(f"edge {{{a},{b}}} not present")
    adj = list(G.adj)
    adj[a - 1] ^= 1 << (b - 1)
    adj[b - 1] ^= 1 << (a - 1)
    return Graph(G.n, tuple(adj))


def cut_vertices(G: Graph) -> tuple[int, ...]:
    """The vertices whose removal raises the component count."""
    full = G.full_mask()
    before = len(_component_masks(G.adj, full))
    return tuple(
        v
        for v in range(1, G.n + 1)
        if len(_component_masks(G.adj, full & ~(1 << (v - 1)))) > before
    )


def ohtani_completion(G: Graph, v: int) -> Graph:
    """Make the neighborhood of v a clique; everything else unchanged."""
    nb = G.adj[v - 1]
    adj = list(G.adj)
    m = nb
    while m:
        b = m & -m
        m ^= b
        adj[b.bit_length() - 1] |= nb & ~b
    return Graph(G.n, tuple(adj))


def edge_completion(H: Graph, e) -> Graph:
    """Make the neighborhoods of both endpoints of ``e`` cliques (e need not be an edge)."""
    i, j = e
    if i == j:
        raise ValueError("endpoints must differ")
    adj = list(H.adj)
    for end in (i, j):
        nb = H.adj[end - 1]
        m = nb
        while m:
            b = m & -m
            m ^= b
            adj[b.bit_length() - 1] |= nb & ~b
    return Graph(H.n, tuple(adj))


@dataclass(frozen=True)
class VertexPath:
    """A simple path, stored as its ordered 1-based vertex sequence."""

    vertices: tuple[int, ...]

    @property
    def inner(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


def simple_paths(G: Graph, i: int, j: int) -> list[VertexPath]:
    """All simple paths between i and j, oriented from min(i,j), lexicographic order."""
    if i == j:
        raise ValueError("endpoints must differ")
    a, b = (i, j) if i < j else (j, i)
    adj = G.adj
    target = b - 1
    out: list[VertexPath] = []
    path = [a - 1]

    def dfs(v: int, visited: int) -> None:
        if v == target:
            out.append(VertexPath(tuple(u + 1 for u in path)))
            return
        m = adj[v] & ~visited
        while m:
            bit = m & -m
            m ^= bit
            u = bit.bit_length() - 1
            path.append(u)
            dfs(u, visited | bit)
            path.pop()

    dfs(a - 1, 1 << (a - 1))
    return out


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    m = mask
    while m:
        b = m & -m
        m ^= b
        others = mask & ~b
        if adj[b.bit_length() - 1] & others != others:
            return False
    return True


def is_decomposable(G: Graph) -> Optional[tuple[int, InducedSubgraph, InducedSubgraph]]:
    """The first split (v, part1, part2) at a vertex simplicial in both parts, or None.

    Only two-component splits of G - v can work: every component of G - v
    contains a neighbor of v, and neighbors in different components are never
    adjacent, so grouping two components on one side breaks the clique
    condition there.  Parts are induced on (component + v) and have at least
    2 vertices each.
    """
    if G.n < 2:
        raise ValueError("need at least 2 vertices")
    if not is_connected(G):
        raise ValueError("decomposability is defined for connected graphs")
    full = G.full_mask()
    for v in range(1, G.n + 1):
        vbit = 1 << (v - 1)
        comps = _component_masks(G.adj, full & ~vbit)
        if len(comps) != 2:
            continue
        nb = G.adj[v - 1]
        if all(_is_clique(G.adj, nb & c) for c in comps):
            part1, part2 = (induced_on(G, mask_to_labels(c | vbit)) for c in comps)
            return v, part1, part2
    return None


def is_bipartite(G: Graph) -> bool:
    color = [-1] * G.n
    for s in range(G.n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            m = G.adj[v]
            while m:
                b = m & -m
                m ^= b
                u = b.bit_length() - 1
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def _pack_graph6(n: int, cols: list[int]) -> bytes:
    """graph6 short form: byte n+63, then the bits of the columns in 6-bit groups.

    Column k holds k bits, x(0,k) the high one: the upper triangle column-major.
    """
    out = bytearray([63 + n])
    group = 0
    filled = 0
    for k, col in enumerate(cols):
        for s in range(k - 1, -1, -1):
            group = group << 1 | col >> s & 1
            filled += 1
            if filled == 6:
                out.append(63 + group)
                group = 0
                filled = 0
    if filled:
        out.append(63 + (group << (6 - filled)))
    return bytes(out)


def _columns(adj: tuple[int, ...]) -> list[int]:
    """Each vertex's column to the vertices before it, vertex 0 the high bit."""
    cols = []
    for k, row in enumerate(adj):
        col = 0
        for i in range(k):
            col = col << 1 | row >> i & 1
        cols.append(col)
    return cols


def _least_columns(
    adj: tuple[int, ...], target: Optional[list[int]] = None
) -> Optional[list[int]]:
    """The columns of the least vertex order; None once an order beats ``target``.

    Level k places the k-th vertex.  A state gives every unplaced vertex its
    column to the placed prefix and every placed one ``placed``; the columns
    of one level have equal length, so integer order is string order.  Only
    states with the least prefix are kept, and equal states reached by
    different orders merge.  ``target`` is ``_columns(adj)``: the search then
    stops at the first column below the identity order's.
    """
    n = len(adj)
    placed = 1 << n  # above every column, which has at most n - 1 bits
    rows = [[row >> w & 1 for w in range(n)] for row in adj]
    states = {(0,) * n}
    least = [0]
    for k in range(1, n):
        goal = None if target is None else target[k]
        following = set()
        for cols in states:
            for u, c in enumerate(cols):
                if c == least[-1]:
                    child = [placed if d == placed else d + d + b for d, b in zip(cols, rows[u])]
                    child[u] = placed
                    child = tuple(child)
                    if goal is not None and min(child) < goal:
                        return None
                    following.add(child)
        states = following
        # with a target, the identity order is among the states and reaches the goal
        least.append(min(map(min, states)) if goal is None else goal)
    return least


@lru_cache(maxsize=1 << 17)
def canonical_form(G: Graph) -> bytes:
    """Minimum graph6 encoding over all vertex permutations.

    The graph6 body is the column-major upper triangle, so the minimum is
    the least column sequence, which ``_least_columns`` finds exactly (the
    tests cross-check it with the plain minimum over all n! permutations).
    """
    n = G.n
    if n > CANONICAL_MAX:
        raise TierExceededError(f"canonical form tier is n <= {CANONICAL_MAX}, got {n}")
    return _pack_graph6(n, _least_columns(G.adj))


def _children(H: Graph, connected: bool = False) -> list[Graph]:
    """The canonically labeled children of the canonically labeled H, canonical order.

    H gets a new last vertex with each neighbour set, in the order of its
    column; a child is kept when it is its own least string.  With
    ``connected``, only the connected children are tested: a child is
    connected exactly when its new vertex has a neighbour in every
    component of H.
    """
    last = H.n
    target = _columns(H.adj) + [0]
    # each component as a column: vertex i is the bit last - 1 - i
    comps = [
        sum(1 << (last - 1 - i) for i in range(last) if c >> i & 1)
        for c in _component_masks(H.adj, H.full_mask())
    ]
    out = []
    for col in range(1 << last):
        if connected and not all(col & c for c in comps):
            continue
        # moving the new vertex to place p keeps the columns before p and
        # makes its own first p bits column p: a cheap, exact rejection
        if any(col >> (last - p) < target[p] for p in range(1, last)):
            continue
        mask = sum(1 << i for i in range(last) if col >> (last - 1 - i) & 1)
        adj = tuple(row | (mask >> i & 1) << last for i, row in enumerate(H.adj)) + (mask,)
        target[last] = col
        if _least_columns(adj, target) is not None:
            out.append(Graph(last + 1, adj))
    return out


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    """One canonically labeled graph per isomorphism class on n vertices, canonical order.

    The children of each class on n - 1 vertices, in canonical order: the
    output is in string order too.
    """
    if n == 1:
        return (Graph(1, (0,)),)
    return tuple(G for H in _all_graphs(n - 1) for G in _children(H))


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices (connected or not), one per class, canonical order."""
    if not 1 <= n <= ENUMERATION_MAX:
        raise TierExceededError(f"enumeration tier is n <= {ENUMERATION_MAX}, got {n}")
    return _all_graphs(n)


def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class, canonical order."""
    return tuple(G for G in enumerate_graphs(n) if is_connected(G))
