"""Maximal cliques, chordality, and the codimension-one facet conditions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, is_connected, mask_to_labels


@dataclass(frozen=True)
class CliqueSummary:
    maximal_cliques: tuple[tuple[int, ...], ...]
    count: int
    dim: int


def _maximal_clique_masks(G: Graph) -> list[int]:
    """Bron--Kerbosch with pivoting."""
    adj = G.adj
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        px = p | x
        pivot, best = -1, -1
        m = px
        while m:
            b = m & -m
            m ^= b
            score = (p & adj[b.bit_length() - 1]).bit_count()
            if score > best:
                best, pivot = score, b.bit_length() - 1
        cand = p & ~adj[pivot]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            expand(r | b, p & adj[v], x & adj[v])
            p &= ~b
            x |= b

    expand(0, G.full_mask(), 0)
    return sorted(out, key=mask_to_labels)


def maximal_cliques(G: Graph) -> CliqueSummary:
    masks = _maximal_clique_masks(G)
    return CliqueSummary(
        maximal_cliques=tuple(mask_to_labels(m) for m in masks),
        count=len(masks),
        dim=max(m.bit_count() for m in masks) - 1,
    )


def is_chordal(G: Graph) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Chordality test via maximum cardinality search plus explicit verification.

    Returns (True, perfect elimination order as 1-based labels) or (False, None).
    """
    n = G.n
    adj = G.adj
    weight = [0] * n
    visited = 0
    mcs = []
    for _ in range(n):
        v = max(
            (u for u in range(n) if not visited >> u & 1),
            key=lambda u: (weight[u], -u),
        )
        mcs.append(v)
        visited |= 1 << v
        m = adj[v] & ~visited
        while m:
            b = m & -m
            m ^= b
            weight[b.bit_length() - 1] += 1
    elim = mcs[::-1]
    pos = [0] * n
    for k, v in enumerate(elim):
        pos[v] = k
    later = [0] * n
    for k, v in enumerate(elim):
        for u in elim[k + 1 :]:
            if adj[v] >> u & 1:
                later[v] |= 1 << u
    for v in range(n):
        m = later[v]
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            rest = later[v] & ~b
            if adj[u] & rest != rest:
                return (False, None)
    return (True, tuple(v + 1 for v in elim))


@dataclass(frozen=True)
class Codim1Conditions:
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    holds: bool


def codim1_conditions(G: Graph) -> Codim1Conditions:
    """The three facet conditions equivalent to having exactly n-2 maximal cliques.

    (i) no maximal clique has more than 3 vertices, (ii) some maximal triangle
    exists, (iii) the triangle facets are connected under sharing an edge
    (trivially true with a single triangle).
    """
    if not is_connected(G):
        raise ValueError("defined for connected graphs")
    chordal, _ = is_chordal(G)
    if not chordal:
        raise ValueError("defined for chordal graphs")
    facets = _maximal_clique_masks(G)
    triangles = [f for f in facets if f.bit_count() == 3]
    cond_i = all(f.bit_count() <= 3 for f in facets)
    cond_ii = len(triangles) >= 1
    if len(triangles) <= 1:
        cond_iii = True
    else:
        # connectivity of the triangle graph joined on shared edges
        seen = {0}
        stack = [0]
        while stack:
            a = stack.pop()
            for b in range(len(triangles)):
                if b not in seen and (triangles[a] & triangles[b]).bit_count() == 2:
                    seen.add(b)
                    stack.append(b)
        cond_iii = len(seen) == len(triangles)
    return Codim1Conditions(cond_i, cond_ii, cond_iii, cond_i and cond_ii and cond_iii)
