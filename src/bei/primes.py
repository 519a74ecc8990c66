"""Cut sets and the combinatorial minimal primes of a binomial edge ideal.

A vertex subset S is a cut set when it is empty or when putting back any
single element s of S strictly drops the component count of G - S.  Putting
s back merges the components of G - S that s touches, so S is kept exactly
when every s in S touches at least two of them.  Heights come from the closed
formula n - c(S) + |S|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _component_masks, mask_to_labels


@dataclass(frozen=True)
class CutSet:
    mask: int
    components: tuple[tuple[int, ...], ...]
    c: int

    def labels(self) -> tuple[int, ...]:
        return mask_to_labels(self.mask)


@dataclass(frozen=True)
class MinimalPrime:
    cutset: CutSet
    height: int


@dataclass(frozen=True)
class DecompositionSummary:
    primes: tuple[MinimalPrime, ...]
    dim_quotient: int
    unmixed: bool


def _cut_set(G: Graph, s: int) -> CutSet | None:
    """The cut set on the vertex mask ``s``, or None if ``s`` is not one."""
    adj = G.adj
    comps = _component_masks(adj, G.full_mask() & ~s)
    m = s
    while m:
        b = m & -m
        m ^= b
        nb = adj[b.bit_length() - 1]
        if sum(1 for c in comps if nb & c) < 2:
            return None
    return CutSet(s, tuple(mask_to_labels(cm) for cm in comps), len(comps))


def cut_sets(G: Graph) -> tuple[CutSet, ...]:
    """All subsets indexing minimal primes, sorted by (size, bitmask)."""
    found = [cs for s in range(1 << G.n) if (cs := _cut_set(G, s)) is not None]
    found.sort(key=lambda cs: (cs.mask.bit_count(), cs.mask))
    return tuple(found)


def minimal_primes(G: Graph) -> DecompositionSummary:
    primes = tuple(
        MinimalPrime(cs, G.n - cs.c + cs.mask.bit_count()) for cs in cut_sets(G)
    )
    heights = {p.height for p in primes}
    return DecompositionSummary(
        primes=primes,
        dim_quotient=2 * G.n - min(heights),
        unmixed=len(heights) == 1,
    )

