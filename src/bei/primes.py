"""Cut sets and the combinatorial minimal primes of a binomial edge ideal.

Every vertex subset S is tested verbatim: S is kept when it is empty or when
removing any single element of S strictly drops the component count of the
restriction.  Heights come from the closed formula n - c(S) + |S|.
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


def _component_count(adj, full: int, removed: int) -> int:
    return len(_component_masks(adj, full & ~removed))


def _cut_set(G: Graph, s: int) -> CutSet | None:
    """The cut set on the vertex mask ``s``, or None if ``s`` is not one."""
    full = G.full_mask()
    adj = G.adj
    comps = _component_masks(adj, full & ~s)
    m = s
    while m:
        b = m & -m
        m ^= b
        if _component_count(adj, full, s & ~b) >= len(comps):
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

