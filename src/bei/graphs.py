"""Labeled simple graphs with bitmask adjacency.

Vertices are labeled 1..n externally and 0..n-1 internally (bit positions).
All values are immutable; every operation returns fresh objects, so
everything here is safe to call from parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import TierExceededError

MAX_VERTICES = 62  # graph6 short form limit
CANONICAL_MAX = 10  # brute-force canonicalization tier
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


def restriction(G: Graph, removed) -> InducedSubgraph:
    """Induced subgraph on the vertices outside ``removed`` (set of labels)."""
    removed_mask = labels_to_mask(removed)
    keep = [v for v in range(G.n) if not removed_mask >> v & 1]
    index = {v: k for k, v in enumerate(keep)}
    adj = [0] * len(keep)
    for k, v in enumerate(keep):
        m = G.adj[v] & ~removed_mask
        while m:
            b = m & -m
            m ^= b
            adj[k] |= 1 << index[b.bit_length() - 1]
    if not keep:
        # empty graph: modeled as the 0-vertex edge case via n=0 sentinel is
        # not representable; callers that allow it get an explicit marker
        return InducedSubgraph(Graph(0, ()), ())
    return InducedSubgraph(Graph(len(keep), tuple(adj)), tuple(v + 1 for v in keep))


def induced_on(G: Graph, kept) -> InducedSubgraph:
    """Induced subgraph on the given label set."""
    keep_mask = labels_to_mask(kept)
    return restriction(G, mask_to_labels(G.full_mask() & ~keep_mask))


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


def simple_paths(G: Graph, i: int, j: int, require_inner: bool = False) -> list[VertexPath]:
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
            if not require_inner or len(path) > 2:
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


def _pack_graph6(n: int, bits) -> bytes:
    """graph6 short form: byte n+63, then 6-bit groups of the given bit list."""
    out = bytearray([63 + n])
    group = 0
    filled = 0
    for bit in bits:
        group = group << 1 | bit
        filled += 1
        if filled == 6:
            out.append(63 + group)
            group = 0
            filled = 0
    if filled:
        out.append(63 + (group << (6 - filled)))
    return bytes(out)


def _upper_triangle_bits(G: Graph) -> list[int]:
    """Column-major upper-triangle adjacency bits x(0,1), x(0,2), x(1,2), ..."""
    bits = []
    for j in range(1, G.n):
        col = G.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    return bits


@lru_cache(maxsize=1 << 17)
def canonical_form(G: Graph) -> bytes:
    """Minimum graph6 encoding over all vertex permutations.

    Branch-and-bound over permutation prefixes: a prefix is pruned exactly
    when its bits already exceed the best complete string, so the result is
    identical to the plain minimum over all n! permutations (cross-checked in
    the tests).
    """
    n = G.n
    if n > CANONICAL_MAX:
        raise TierExceededError(f"canonical form tier is n <= {CANONICAL_MAX}, got {n}")
    adj = G.adj
    if n == 1:
        return _pack_graph6(1, [])
    best: Optional[list[int]] = None

    def extend(perm: list[int], used: int, bits: list[int]) -> None:
        nonlocal best
        k = len(perm)
        if k == n:
            best = bits
            return
        cands = []
        for v in range(n):
            if used >> v & 1:
                continue
            col = tuple(adj[p] >> v & 1 for p in perm)
            cands.append((col, v))
        cands.sort()
        for col, v in cands:
            nbits = bits + list(col)
            if best is not None:
                prefix = best[: len(nbits)]
                if nbits > prefix:
                    break  # candidates are sorted; the rest are no better
            extend(perm + [v], used | 1 << v, nbits)

    extend([], 0, [])
    assert best is not None
    return _pack_graph6(n, best)


def canonical_graph(G: Graph) -> Graph:
    """The canonically labeled representative of G's isomorphism class."""
    from .graph6 import parse_graph6  # graph6 builds on this module

    return parse_graph6(canonical_form(G))


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class of all graphs on n vertices."""
    if n == 1:
        return (Graph(1, (0,)),)
    seen: dict[bytes, Graph] = {}
    for H in _all_graphs(n - 1):
        base = tuple(H.adj) + (0,)
        for mask in range(1 << (n - 1)):
            adj = list(base)
            adj[n - 1] = mask
            m = mask
            while m:
                b = m & -m
                m ^= b
                adj[b.bit_length() - 1] |= 1 << (n - 1)
            G = Graph(n, tuple(adj))
            key = canonical_form(G)
            if key not in seen:
                seen[key] = canonical_graph(G)
    return tuple(seen[k] for k in sorted(seen))


def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices (connected or not), one per class, canonical order."""
    if not 1 <= n <= ENUMERATION_MAX:
        raise TierExceededError(f"enumeration tier is n <= {ENUMERATION_MAX}, got {n}")
    return _all_graphs(n)


def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class, canonical order."""
    return tuple(G for G in enumerate_graphs(n) if is_connected(G))
