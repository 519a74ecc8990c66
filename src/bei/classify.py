"""Shape recognition and the licci verdict through independent routes.

The shape route is purely combinatorial: J_G is licci exactly when every
component of G is a path, except that at most one may be a triangle with
pendant paths.  The algebra route asks for Cohen-Macaulayness plus
regularity in the top window; for connected chordal graphs a third route
needs only unmixedness.  When more than one route applies they are all
computed and compared; a disagreement raises instead of picking a winner.
``licci_verdict`` computes the component shapes, one record
``rec = invariants(G)`` and one ``is_chordal`` result once and hands them to
the routes; each route returns a bool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cliques import is_chordal
from .degeneration import InvariantRecord, invariants
from .errors import RouteDisagreementError
from .graph6 import emit_graph6
from .graphs import Graph, connected_components, induced_on, is_connected

PATH = "path"
TRIANGLE_WITH_PATHS = "triangle_with_paths"
OTHER = "other"


@dataclass(frozen=True)
class Shape:
    kind: str
    attached: Optional[tuple[int, int, int]] = None  # pendant path lengths, sorted desc

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.attached is not None:
            out["r"], out["s"], out["t"] = self.attached
        return out


def classify_shape(G: Graph) -> Shape:
    """Path, triangle-with-pendant-paths (with sorted lengths), or other."""
    if not is_connected(G):
        raise ValueError("shape classification is for connected graphs")
    m = G.edge_count()
    degrees = [G.degree(v) for v in range(1, G.n + 1)]
    if m == G.n - 1 and max(degrees, default=0) <= 2:
        return Shape(PATH)
    if m != G.n:
        return Shape(OTHER)
    # exactly one cycle; strip leaves down to the core
    alive = G.full_mask()
    deg = degrees[:]
    changed = True
    while changed:
        changed = False
        for v in range(G.n):
            if alive >> v & 1 and deg[v] == 1:
                alive &= ~(1 << v)
                mm = G.adj[v] & alive
                while mm:
                    b = mm & -mm
                    mm ^= b
                    deg[b.bit_length() - 1] -= 1
                deg[v] = 0
                changed = True
    core = [v + 1 for v in range(G.n) if alive >> v & 1]
    if len(core) != 3:
        return Shape(OTHER)
    if not all(G.has_edge(a, b) for a in core for b in core if a < b):
        return Shape(OTHER)
    if any(G.degree(v) > 3 for v in core):
        return Shape(OTHER)
    if any(G.degree(v) > 2 for v in range(1, G.n + 1) if v not in core):
        return Shape(OTHER)
    lengths = []
    for v in core:
        hang = [u for u in G.neighbors(v) if u not in core]
        if not hang:
            lengths.append(0)
            continue
        # follow the pendant path
        count = 0
        prev, cur = v, hang[0]
        while True:
            count += 1
            nxt = [u for u in G.neighbors(cur) if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        lengths.append(count)
    return Shape(TRIANGLE_WITH_PATHS, tuple(sorted(lengths, reverse=True)))


def licci_by_shape(shapes: tuple[Shape, ...]) -> bool:
    """Combinatorial verdict on the component shapes: every component a path,
    except at most one triangle-with-paths."""
    kinds = [s.kind for s in shapes]
    return kinds.count(TRIANGLE_WITH_PATHS) <= 1 and all(
        k in (PATH, TRIANGLE_WITH_PATHS) for k in kinds
    )


def licci_by_algebra(G: Graph, rec: InvariantRecord) -> bool:
    """Cohen-Macaulay plus regularity at least n-2 (n-c-1 with c components)."""
    if G.edge_count() == 0:
        raise ValueError("edgeless graph has no proper ideal to classify")
    c = len(connected_components(G))
    threshold = G.n - 2 if c == 1 else G.n - c - 1
    return rec.cm and rec.reg >= threshold


def chordal_licci(G: Graph, rec: InvariantRecord, chordal: bool) -> bool:
    """For connected chordal graphs unmixedness replaces Cohen-Macaulayness.

    ``chordal`` is the caller's ``is_chordal(G)`` result.
    """
    if not is_connected(G):
        raise ValueError("chordal route needs a connected graph")
    if not chordal:
        raise ValueError("chordal route needs a chordal graph")
    if G.edge_count() == 0:
        raise ValueError("edgeless graph has no proper ideal to classify")
    return rec.unmixed and rec.reg >= G.n - 2


@dataclass(frozen=True)
class CombinedVerdict:
    licci: bool
    component_shapes: tuple[Shape, ...]
    witness: InvariantRecord
    chordal: bool


def licci_verdict(G: Graph) -> CombinedVerdict:
    """Run every applicable route; raise if they do not agree.

    The component shapes, the invariants and the chordality test are
    computed once here.  The routes still decide independently: by shape, by
    Cohen-Macaulayness, and (for connected chordal graphs) by unmixedness.
    """
    if G.edge_count() == 0:
        raise ValueError("edgeless graph has no proper ideal to classify")
    shapes = tuple(classify_shape(induced_on(G, c).graph) for c in connected_components(G))
    rec = invariants(G)
    chordal, _ = is_chordal(G)
    routes = ["shape", "algebra"]
    verdicts = [licci_by_shape(shapes), licci_by_algebra(G, rec)]
    if chordal and is_connected(G):
        routes.append("chordal")
        verdicts.append(chordal_licci(G, rec, chordal))
    if len(set(verdicts)) != 1:
        raise RouteDisagreementError(
            f"licci routes disagree on {emit_graph6(G).decode('ascii')}: "
            f"{dict(zip(routes, verdicts))}"
        )
    return CombinedVerdict(
        licci=verdicts[0],
        component_shapes=shapes,
        witness=rec,
        chordal=chordal,
    )
