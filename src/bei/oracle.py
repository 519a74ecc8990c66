"""Desk-scale exact symbolic algebra used to certify the combinatorial modules.

Polynomials carry exact rational coefficients: a plain ``int`` while the
value is integral, a ``Fraction`` only after a division leaves a remainder
(one helper, ``_quotient``, makes every division), and never a float.  The
reduced bases of binomial edge ideals, and of the intersections built to
certify them, have coefficients ±1 (tested for every labeled connected
graph on n <= 4 vertices), so there no Fraction is ever made.

Buchberger selects the pair whose lcm has the least total degree, then the
least lcm in lex, and prunes pairs by the update of Gebauer and Moeller (J.
Symbolic Comput. 6, 1988): criteria M and F on the new pairs of each new
element, where a coprime pair drops the pairs it covers and is never reduced,
and criterion B on the pairs still waiting.  One kernel, ``_reduce``, makes
every reduction against a list of cached ``(lead, tail)`` reducers, kept in
step with the basis; an S-polynomial is built from the two tails straight
into its work dict (``_spoly_reduce``).  The final basis is still checked:
every non-coprime S-polynomial of it must reduce to zero.  Hard budgets
(variables, input and run degree, reduced pairs, basis size) raise explicit
resource errors instead of running away.  Intersections and colons go
through one auxiliary elimination variable ranked above everything else;
the t-free part of that reduced basis is the reduced basis of the
intersection, which is kept with it.

Monomials are packed into one integer each (the packed exponent vectors of
Monagan and Pearce, CASC 2007).  Every variable owns an 8-bit field, 7 value
bits under one guard bit, and variable 0 (t when present, then x_1.., y_1..)
sits in the most significant field.  So lex comparison is integer
comparison, multiplication and division are addition and subtraction, and
divisibility and lcm are a few operations on the guard bits.  Lex is the
only order: every check here compares against the lex degeneration.  An
exponent above 127 does not fit its field: building or creating such a
monomial raises ResourceBudgetError, it never wraps.  The public interface
still speaks exponent tuples: the constructor takes {exponent tuple:
coefficient} and ``lt()`` returns an exponent tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional

from .degeneration import colon_generators, initial_ideal
from .errors import ResourceBudgetError
from .graphs import Graph, delete_edge, edge_completion, induced_on, ohtani_completion
from .primes import CutSet, _cut_set, minimal_primes

MAX_EFFECTIVE_VARS = 11
MAX_INPUT_DEGREE = 6  # documented contract is 4; headroom covers internal folds
MAX_RUN_DEGREE = 24
MAX_PAIRS = 60_000
MAX_BASIS = 400

_FIELD_BITS = 8
_MAX_EXPONENT = 0x7F  # value bits of a field; bit 7 is its guard


@dataclass(frozen=True)
class PolyContext:
    """Variable layout [t?] x_1..x_n y_1..y_n with t (when present) greatest,
    ordered lex, so a packed monomial is its own sort key.

    ``_guard`` has the guard bit of every field set.
    """

    n: int
    aux: bool = False

    def __post_init__(self):
        guard = int.from_bytes(bytes([_MAX_EXPONENT + 1]) * self.nvars, "big")
        object.__setattr__(self, "_guard", guard)

    @property
    def nvars(self) -> int:
        return 2 * self.n + (1 if self.aux else 0)

    def x(self, v: int) -> int:
        return (1 if self.aux else 0) + v - 1

    def y(self, v: int) -> int:
        return (1 if self.aux else 0) + self.n + v - 1

    def var_names(self) -> tuple[str, ...]:
        names = tuple(f"x{v}" for v in range(1, self.n + 1)) + tuple(
            f"y{v}" for v in range(1, self.n + 1)
        )
        return (("t",) + names) if self.aux else names

    def _pack(self, exps) -> int:
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        if any(e > _MAX_EXPONENT for e in exps):
            raise _overflow()
        return int.from_bytes(bytes(exps), "big")  # negative exponents: ValueError

    def _unpack(self, m: int) -> tuple[int, ...]:
        return tuple(m.to_bytes(self.nvars, "big"))


def _overflow() -> ResourceBudgetError:
    return ResourceBudgetError(
        f"an exponent exceeds {_MAX_EXPONENT}, the field width of a packed monomial"
    )


def _divides(a: int, b: int, guard: int) -> bool:
    """a | b: no field of b - a borrows from its guard bit."""
    return ((b | guard) - a) & guard == guard


def _quotient(a, b):
    """a / b exactly: the int a // b when b divides a, else a Fraction,
    normalised back to int when its denominator is 1.  Never ``/`` on two
    ints, which would return a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _lcm(a: int, b: int, guard: int) -> int:
    """Fieldwise max: the guard bits of (a | guard) - b mark the fields where
    a >= b and widen into a mask over their value bits."""
    ge = ((a | guard) - b) & guard
    mask = ge - (ge >> (_FIELD_BITS - 1))
    return (a & mask) | (b & ~mask)


class Polynomial:
    """Exact multivariate polynomial; terms map packed monomial -> nonzero
    int or Fraction."""

    __slots__ = ("ctx", "terms", "_lt", "_tail")

    def __init__(self, ctx: PolyContext, terms: dict):
        """``terms`` maps exponent tuples to anything Fraction accepts except a
        float, which raises TypeError: a float is not an exact coefficient."""
        self.ctx = ctx
        self.terms = {}
        self._lt = None
        self._tail = None
        for exps, c in terms.items():
            if isinstance(c, float):
                raise TypeError(f"float coefficient {c!r}: use an int or a Fraction")
            c = Fraction(c)
            if c:
                self.terms[ctx._pack(exps)] = c.numerator if c.denominator == 1 else c

    @classmethod
    def _make(cls, ctx: PolyContext, terms: dict) -> "Polynomial":
        """Wrap packed terms whose coefficients are already nonzero ints or
        Fractions."""
        p = cls.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        p._lt = None
        p._tail = None
        return p

    # builders -------------------------------------------------------------
    @classmethod
    def variable(cls, ctx, index):
        exps = [0] * ctx.nvars
        exps[index] = 1
        return cls(ctx, {tuple(exps): 1})

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, {(0,) * ctx.nvars: c})

    # structure ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def _lead(self) -> tuple[int, int | Fraction]:
        """Packed lead monomial and its coefficient."""
        if self._lt is None:
            m = max(self.terms)
            self._lt = (m, self.terms[m])
        return self._lt

    def _reducer(self) -> tuple[int, tuple]:
        """Packed lead monomial and the other terms, for reducing by self."""
        if self._tail is None:
            lead = self._lead()[0]
            self._tail = (lead, tuple((m, c) for m, c in self.terms.items() if m != lead))
        return self._tail

    def lt(self) -> tuple[tuple[int, ...], int | Fraction]:
        m, c = self._lead()
        return self.ctx._unpack(m), c

    def degree(self) -> int:
        width = self.ctx.nvars
        return max((sum(m.to_bytes(width, "big")) for m in self.terms), default=0)

    def monic(self) -> "Polynomial":
        _, c = self._lead()
        if c == 1:
            return self
        terms = {m: _quotient(v, c) for m, v in self.terms.items()}
        return Polynomial._make(self.ctx, terms)

    # arithmetic -----------------------------------------------------------
    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            w = out.get(m, 0) + c
            if w:
                out[m] = w
            elif m in out:
                del out[m]
        return Polynomial._make(self.ctx, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            w = out.get(m, 0) - c
            if w:
                out[m] = w
            elif m in out:
                del out[m]
        return Polynomial._make(self.ctx, out)

    def __neg__(self):
        return Polynomial._make(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        guard = self.ctx._guard
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                if m & guard:
                    raise _overflow()
                w = out.get(m, 0) + c1 * c2
                if w:
                    out[m] = w
                elif m in out:
                    del out[m]
        return Polynomial._make(self.ctx, out)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        ctx = self.ctx
        names = ctx.var_names()
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            body = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i]
                for i, e in enumerate(ctx._unpack(m))
                if e
            )
            parts.append(f"{c}" if not body else (body if c == 1 else f"{c}*{body}"))
        return " + ".join(parts)


class Ideal:
    __slots__ = ("ctx", "gens", "_gb")

    def __init__(self, ctx: PolyContext, gens):
        self.ctx = ctx
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = None

    def groebner(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb


def _reduce(work: dict, reducers: list, guard: int) -> dict:
    """Full remainder of the terms in ``work``, which it consumes, modulo
    ``reducers``: the ``_reducer()`` pairs of monic polynomials."""
    out: dict = {}
    while work:
        m = max(work)
        c = work.pop(m)
        top = m | guard
        for lead, tail in reducers:
            if (top - lead) & guard == guard:  # lead divides m, as in _divides
                shift = m - lead
                for mg, cg in tail:
                    mm = mg + shift
                    if mm & guard:
                        raise _overflow()
                    w = work.get(mm, 0) - c * cg
                    if w:
                        work[mm] = w
                    elif mm in work:
                        del work[mm]
                break
        else:
            out[m] = c
    return out


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Full remainder of f modulo a list of monic polynomials."""
    guard = f.ctx._guard
    reducers = [g._reducer() for g in basis]
    return Polynomial._make(f.ctx, _reduce(dict(f.terms), reducers, guard))


def _spoly_reduce(f: tuple, g: tuple, reducers: list, guard: int) -> dict:
    """Remainder of the S-polynomial of two monic polynomials, given as their
    ``_reducer()`` pairs: the shifted tails go straight into the work dict,
    since the shifted leads cancel."""
    lf, tail_f = f
    lg, tail_g = g
    lcm = _lcm(lf, lg, guard)
    shift = lcm - lf
    work = {}
    for m, c in tail_f:
        m += shift
        if m & guard:
            raise _overflow()
        work[m] = c
    shift = lcm - lg
    for m, c in tail_g:
        m += shift
        if m & guard:
            raise _overflow()
        w = work.get(m, 0) - c
        if w:
            work[m] = w
        elif m in work:
            del work[m]
    return _reduce(work, reducers, guard)


def buchberger(I: Ideal) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis (monic, sorted by decreasing lead term).

    Pairs are selected by (total degree of the lcm, lcm) and pruned by the
    Gebauer-Moeller update; the pair budget counts the popped pairs that
    survive it, each of which is reduced.
    """
    ctx = I.ctx
    if ctx.nvars > MAX_EFFECTIVE_VARS:
        raise ResourceBudgetError(
            f"{ctx.nvars} variables exceeds the {MAX_EFFECTIVE_VARS}-variable budget"
        )
    for g in I.gens:
        if g.degree() > MAX_INPUT_DEGREE:
            raise ResourceBudgetError(
                f"generator degree {g.degree()} exceeds budget {MAX_INPUT_DEGREE}"
            )
    guard = ctx._guard
    width = ctx.nvars
    basis: list[Polynomial] = []
    reducers: list[tuple] = []
    leads: list[int] = []
    active: list[int] = []  # indices whose lead no later lead divides
    live: dict[tuple[int, int], int] = {}  # pair -> lcm; the heap deletes lazily
    heap: list = []

    def update(h: Polynomial) -> None:
        """Append h and its pairs, pruned by criteria M, F and B."""
        j = len(basis)
        basis.append(h)
        reducers.append(h._reducer())
        lh = reducers[-1][0]
        leads.append(lh)
        # criteria M and F: keep a new pair only when no other new pair's lcm
        # divides its lcm (of equal lcms, the last one stays); a coprime pair
        # stays, so it drops the pairs it covers, but it is never pushed
        new = [(_lcm(leads[k], lh, guard), k) for k in active]
        kept = []
        for idx, (lcm, k) in enumerate(new):
            top = lcm | guard
            coprime = lcm == leads[k] + lh
            if not coprime and (
                any((top - other) & guard == guard for other, _ in new[idx + 1 :])
                or any((top - other) & guard == guard for other, _, _ in kept)
            ):
                continue
            kept.append((lcm, k, coprime))
        # criterion B: drop a live pair when h's lead divides its lcm and
        # both of its lcms with h differ from it
        for (a, b), lcm in list(live.items()):
            if (
                _divides(lh, lcm, guard)
                and lcm != _lcm(leads[a], lh, guard)
                and lcm != _lcm(leads[b], lh, guard)
            ):
                del live[a, b]
        for lcm, k, coprime in kept:
            if not coprime:
                live[k, j] = lcm
                heappush(heap, (sum(lcm.to_bytes(width, "big")), lcm, k, j))
        active[:] = [k for k in active if not _divides(lh, leads[k], guard)]
        active.append(j)

    for g in I.gens:
        h = _reduce(dict(g.terms), reducers, guard)
        if h:
            update(Polynomial._make(ctx, h).monic())

    processed = 0
    while heap:
        _, _, i, j = heappop(heap)
        if live.pop((i, j), None) is None:
            continue  # deleted by criterion B
        processed += 1
        if processed > MAX_PAIRS:
            raise ResourceBudgetError(f"pair budget {MAX_PAIRS} exceeded")
        h = _spoly_reduce(reducers[i], reducers[j], reducers, guard)
        if not h:
            continue
        h = Polynomial._make(ctx, h)
        if h.degree() > MAX_RUN_DEGREE:
            raise ResourceBudgetError(f"degree budget {MAX_RUN_DEGREE} exceeded")
        update(h.monic())
        if len(basis) > MAX_BASIS:
            raise ResourceBudgetError(f"basis size budget {MAX_BASIS} exceeded")

    # every new element was reduced by all earlier ones, so the active
    # elements are the minimal basis
    minimal = [basis[k] for k in active]
    # tail-reduce to the unique reduced basis in one pass: the leads never
    # change, and no tail term is divisible by its own lead, so a reduced
    # tail stays reduced
    for idx, f in enumerate(minimal):
        minimal[idx] = normal_form(f, minimal[:idx] + minimal[idx + 1 :])
    minimal.sort(key=lambda g: g._lead()[0], reverse=True)
    # self-check: every S-polynomial of the final basis reduces to zero
    final = [f._reducer() for f in minimal]
    for i, (li, _) in enumerate(final):
        for j in range(i + 1, len(final)):
            lj = final[j][0]
            if _lcm(li, lj, guard) == li + lj:
                continue
            if _spoly_reduce(final[i], final[j], final, guard):
                raise AssertionError("reduced basis failed the S-polynomial check")
    return tuple(minimal)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Mutual membership via normal forms against each reduced basis."""
    if I.ctx != J.ctx:
        raise ValueError("ideals live in different contexts")
    gb_i = I.groebner()
    gb_j = J.groebner()
    return all(normal_form(g, gb_j).is_zero() for g in I.gens) and all(
        normal_form(g, gb_i).is_zero() for g in J.gens
    )


def _lift(f: Polynomial, actx: PolyContext) -> Polynomial:
    """Into the context with t: t is the top field, so the keys stay."""
    return Polynomial._make(actx, f.terms)


def _project(f: Polynomial, ctx: PolyContext) -> Polynomial:
    """Back from the context with t, for a polynomial free of t."""
    assert all(m >> (_FIELD_BITS * ctx.nvars) == 0 for m in f.terms)
    return Polynomial._make(ctx, f.terms)


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    """Eliminate t from t*I + (1-t)*J."""
    ctx = I.ctx
    if ctx != J.ctx:
        raise ValueError("ideals live in different contexts")
    if ctx.aux:
        raise ValueError("nested elimination not supported")
    actx = PolyContext(ctx.n, aux=True)
    t = Polynomial.variable(actx, 0)
    one = Polynomial.constant(actx, 1)
    gens = [t * _lift(g, actx) for g in I.gens]
    gens += [(one - t) * _lift(g, actx) for g in J.gens]
    gb = buchberger(Ideal(actx, gens))
    t_unit = 1 << (_FIELD_BITS * ctx.nvars)
    kept = [_project(p, ctx) for p in gb if p._lead()[0] < t_unit]
    inter = Ideal(ctx, kept)
    # elimination theorem: the t-free part of a reduced lex basis is the
    # reduced basis of I ∩ J, and buchberger has already self-checked it
    inter._gb = tuple(kept)
    return inter


def _exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    ctx = f.ctx
    guard = ctx._guard
    glt, glc = g._lead()
    work = dict(f.terms)
    out: dict = {}
    while work:
        m = max(work)
        c = work.pop(m)
        if not _divides(glt, m, guard):
            raise ArithmeticError("division is not exact")
        q = m - glt
        qc = _quotient(c, glc)
        out[q] = qc
        for mg, cg in g.terms.items():
            if mg == glt:
                continue
            mm = mg + q
            if mm & guard:
                raise _overflow()
            w = work.get(mm, 0) - qc * cg
            if w:
                work[mm] = w
            elif mm in work:
                del work[mm]
    return Polynomial._make(ctx, out)


def ideal_colon(I: Ideal, f: Polynomial) -> Ideal:
    """I : f, computed as (I ∩ (f)) divided by f."""
    if f.is_zero():
        raise ValueError("colon by zero")
    inter = ideal_intersection(I, Ideal(I.ctx, [f]))
    return Ideal(I.ctx, [_exact_divide(g, f) for g in inter.gens])


# ---------------------------------------------------------------------------
# graph-flavored constructions


def edge_binomial(ctx: PolyContext, a: int, b: int) -> Polynomial:
    """x_a y_b - x_b y_a for a < b."""
    a, b = min(a, b), max(a, b)
    ma = [0] * ctx.nvars
    ma[ctx.x(a)] = 1
    ma[ctx.y(b)] = 1
    mb = [0] * ctx.nvars
    mb[ctx.x(b)] = 1
    mb[ctx.y(a)] = 1
    return Polynomial(ctx, {tuple(ma): 1, tuple(mb): -1})


def binomial_edge_ideal(G: Graph, ctx: Optional[PolyContext] = None) -> Ideal:
    ctx = ctx or PolyContext(G.n)
    return Ideal(ctx, [edge_binomial(ctx, a, b) for a, b in G.edges()])


def _slot_exponents(ctx: PolyContext, mask: int) -> tuple[int, ...]:
    """Exponents of a mask on the 2n slots of the degeneration module: slot k
    is variable ``ctx.x(1) + k``."""
    return (0,) * ctx.x(1) + tuple(mask >> k & 1 for k in range(2 * ctx.n))


def monomial_polynomial(ctx: PolyContext, mask: int) -> Polynomial:
    """A squarefree monomial on the 2n slot layout of the degeneration module."""
    return Polynomial(ctx, {_slot_exponents(ctx, mask): 1})


def prime_component_ideal(G: Graph, S: CutSet) -> Ideal:
    """Variables for S plus the 2-minors of the completed components."""
    if _cut_set(G, S.mask) != S:
        raise ValueError("not a valid cut set of this graph")
    ctx = PolyContext(G.n)
    gens = []
    for v in S.labels():
        gens.append(Polynomial.variable(ctx, ctx.x(v)))
        gens.append(Polynomial.variable(ctx, ctx.y(v)))
    for comp in S.components:
        for i, a in enumerate(comp):
            for b in comp[i + 1 :]:
                gens.append(edge_binomial(ctx, a, b))
    return Ideal(ctx, gens)


# ---------------------------------------------------------------------------
# certification checks


def _budget_n(G: Graph, cap: int, what: str) -> None:
    if G.n > cap:
        raise ResourceBudgetError(f"{what} budget is n <= {cap}, got {G.n}")


def verify_primary_decomposition(G: Graph) -> bool:
    """The edge-minor ideal equals the intersection of its combinatorial primes."""
    _budget_n(G, 5, "primary decomposition check")
    primes = minimal_primes(G).primes
    acc = prime_component_ideal(G, primes[0].cutset)
    for p in primes[1:]:
        acc = ideal_intersection(acc, prime_component_ideal(G, p.cutset))
    return ideal_equal(acc, binomial_edge_ideal(G))


def verify_colon_theorem(H: Graph, e) -> bool:
    """Colon of the edge-deleted ideal by the removed binomial equals the
    completed-graph ideal plus the inner-path monomials."""
    _budget_n(H, 4, "colon check")
    a, b = e
    if not H.has_edge(a, b):
        raise ValueError("e must be an edge of H")
    ctx = PolyContext(H.n)
    h_minus = delete_edge(H, e)
    lhs = ideal_colon(binomial_edge_ideal(h_minus, ctx), edge_binomial(ctx, a, b))
    completed = edge_completion(h_minus, e)
    mono = [
        monomial_polynomial(ctx, m) for m in colon_generators(H, e).min_gens
    ]
    rhs = Ideal(ctx, list(binomial_edge_ideal(completed, ctx).gens) + mono)
    return ideal_equal(lhs, rhs)


def verify_ohtani(G: Graph, v: int) -> bool:
    """Splitting at a non-simplicial or cut vertex: J_G = J_{G_v} ∩ (J_{G-v} + (x_v, y_v))."""
    _budget_n(G, 5, "vertex splitting check")
    ctx = PolyContext(G.n)
    right_a = binomial_edge_ideal(ohtani_completion(G, v), ctx)
    rest = induced_on(G, [u for u in range(1, G.n + 1) if u != v])
    gens = [
        edge_binomial(ctx, rest.labels[a - 1], rest.labels[b - 1])
        for a, b in rest.graph.edges()
    ]
    gens.append(Polynomial.variable(ctx, ctx.x(v)))
    gens.append(Polynomial.variable(ctx, ctx.y(v)))
    right = ideal_intersection(right_a, Ideal(ctx, gens))
    return ideal_equal(binomial_edge_ideal(G, ctx), right)


def verify_initial_ideal(G: Graph) -> bool:
    """Lex lead terms of the reduced basis match the path-indexed monomials.

    A non-squarefree lead fails, since it equals no squarefree image.
    """
    _budget_n(G, 5, "initial ideal check")
    ctx = PolyContext(G.n)
    gb = binomial_edge_ideal(G, ctx).groebner()
    return {p.lt()[0] for p in gb} == {
        _slot_exponents(ctx, m) for m in initial_ideal(G).min_gens
    }
