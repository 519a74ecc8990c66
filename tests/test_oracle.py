import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bei.errors import ResourceBudgetError
from bei import census, degeneration, oracle, primes
from bei.degeneration import initial_ideal
from bei.graphs import build_graph, cut_vertices, enumerate_connected, is_connected
from bei.oracle import (
    MAX_INPUT_DEGREE,
    Ideal,
    PolyContext,
    Polynomial,
    binomial_edge_ideal,
    buchberger,
    edge_binomial,
    ideal_colon,
    ideal_equal,
    ideal_intersection,
    monomial_polynomial,
    normal_form,
    prime_component_ideal,
    verify_colon_theorem,
    verify_initial_ideal,
    verify_ohtani,
    verify_primary_decomposition,
    _divides,
    _lcm,
)
from bei.primes import cut_sets

CTX3 = PolyContext(3)
P3 = build_graph(3, [(1, 2), (2, 3)])
K3 = build_graph(3, [(1, 2), (2, 3), (1, 3)])
K4 = build_graph(4, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)])
DIAMOND = build_graph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def var(ctx, idx):
    return Polynomial.variable(ctx, idx)


def test_polynomial_arithmetic():
    x1, y1 = var(CTX3, CTX3.x(1)), var(CTX3, CTX3.y(1))
    f = x1 * y1 - y1 * x1
    assert f.is_zero()
    g = (x1 + y1) * (x1 - y1)
    sq = x1 * x1 - y1 * y1
    assert g == sq
    assert (x1 + x1).lt()[1] == Fraction(2)
    assert edge_binomial(CTX3, 2, 1) == edge_binomial(CTX3, 1, 2)


def test_orders():
    lex = PolyContext(2)
    f = edge_binomial(lex, 1, 2)
    m, c = f.lt()
    assert m[lex.x(1)] == 1 and m[lex.y(2)] == 1 and c == 1


def test_buchberger_fixtures():
    single = Ideal(CTX3, [edge_binomial(CTX3, 1, 2)])
    assert buchberger(single) == (edge_binomial(CTX3, 1, 2),)
    gb = binomial_edge_ideal(K3).groebner()
    leads = {p.lt()[0] for p in gb}
    names = {}
    for m in leads:
        names[tuple(i for i, e in enumerate(m) if e)] = True
    assert {tuple(sorted(k)) for k in names} == {
        (CTX3.x(1), CTX3.y(2)),
        (CTX3.x(1), CTX3.y(3)),
        (CTX3.x(2), CTX3.y(3)),
    }
    x1 = var(CTX3, CTX3.x(1))
    gb = buchberger(Ideal(CTX3, [x1, edge_binomial(CTX3, 1, 2)]))
    x2y1 = var(CTX3, CTX3.x(2)) * var(CTX3, CTX3.y(1))
    assert set(gb) == {x1, x2y1}


def test_reduced_basis_unique_under_generator_permutation():
    rng = random.Random(4)
    gens = list(binomial_edge_ideal(DIAMOND, PolyContext(4)).gens)
    base = buchberger(Ideal(PolyContext(4), gens))
    for _ in range(4):
        rng.shuffle(gens)
        assert buchberger(Ideal(PolyContext(4), gens)) == base


def test_normal_form_idempotent_and_linear():
    gb = binomial_edge_ideal(K3).groebner()
    rng = random.Random(8)
    for _ in range(10):
        f = Polynomial(
            CTX3,
            {
                tuple(rng.randint(0, 1) for _ in range(6)): Fraction(
                    rng.randint(-3, 3)
                )
                for _ in range(4)
            },
        )
        g = Polynomial(
            CTX3,
            {tuple(rng.randint(0, 1) for _ in range(6)): Fraction(rng.randint(-3, 3))
             for _ in range(3)},
        )
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


def test_ideal_equal_basics():
    f = edge_binomial(CTX3, 1, 2)
    assert ideal_equal(Ideal(CTX3, [f]), Ideal(CTX3, [-f]))
    assert not ideal_equal(binomial_edge_ideal(P3), binomial_edge_ideal(K3))
    # respects generator rewriting
    g = edge_binomial(CTX3, 2, 3)
    assert ideal_equal(Ideal(CTX3, [f, g]), Ideal(CTX3, [f + g, g]))


def test_intersection_examples():
    x1, y1 = var(CTX3, CTX3.x(1)), var(CTX3, CTX3.y(1))
    x2, y2 = var(CTX3, CTX3.x(2)), var(CTX3, CTX3.y(2))
    inter = ideal_intersection(Ideal(CTX3, [x1]), Ideal(CTX3, [y1]))
    assert ideal_equal(inter, Ideal(CTX3, [x1 * y1]))
    inter = ideal_intersection(Ideal(CTX3, [x1, y1]), Ideal(CTX3, [x2, y2]))
    assert ideal_equal(
        inter, Ideal(CTX3, [x1 * x2, x1 * y2, y1 * x2, y1 * y2])
    )


def test_ohtani_identity_p3():
    ctx = CTX3
    completed = binomial_edge_ideal(K3, ctx)  # neighborhood completion at 2
    xv, yv = var(ctx, ctx.x(2)), var(ctx, ctx.y(2))
    inter = ideal_intersection(completed, Ideal(ctx, [xv, yv]))
    assert ideal_equal(inter, binomial_edge_ideal(P3, ctx))
    assert verify_ohtani(P3, 2)


def test_colon_examples():
    x1, y1 = var(CTX3, CTX3.x(1)), var(CTX3, CTX3.y(1))
    col = ideal_colon(Ideal(CTX3, [x1 * y1]), x1)
    assert ideal_equal(col, Ideal(CTX3, [y1]))
    # triangle minus an edge, colon by the removed minor: the inner variables
    tri_minus = build_graph(3, [(1, 2), (2, 3)])
    col = ideal_colon(
        binomial_edge_ideal(tri_minus, CTX3), edge_binomial(CTX3, 1, 3)
    )
    x2, y2 = var(CTX3, CTX3.x(2)), var(CTX3, CTX3.y(2))
    assert ideal_equal(col, Ideal(CTX3, [x2, y2]))
    # colon by a nonzerodivisor returns the ideal
    I = binomial_edge_ideal(K3, CTX3)
    col = ideal_colon(I, var(CTX3, CTX3.x(1)) + var(CTX3, CTX3.x(2)))
    assert ideal_equal(col, I)


def test_prime_component_ideal():
    css = cut_sets(P3)
    empty = [c for c in css if c.mask == 0][0]
    cut2 = [c for c in css if c.mask][0]
    assert len(prime_component_ideal(P3, empty).gens) == 3  # minors of the closure
    gens = prime_component_ideal(P3, cut2).gens
    assert len(gens) == 2  # x2, y2 only; singleton components give no minors
    with pytest.raises(ValueError):
        prime_component_ideal(K3, cut2)
    # {2} cuts this claw as well, but into other components
    with pytest.raises(ValueError):
        prime_component_ideal(build_graph(4, [(1, 2), (2, 3), (2, 4)]), cut2)
    diamond_cut = [c for c in cut_sets(DIAMOND) if c.mask][0]
    assert len(prime_component_ideal(DIAMOND, diamond_cut).gens) == 4


def test_verify_primary_decomposition_examples():
    assert verify_primary_decomposition(P3)
    assert verify_primary_decomposition(DIAMOND)
    assert verify_primary_decomposition(K4)


def test_primary_decomposition_scans_the_cut_sets_once(monkeypatch):
    # the primes come from one cut_sets call; each prime's guard checks its
    # own cut set only
    calls = []
    original = primes.cut_sets

    def counting(G):
        calls.append(G)
        return original(G)

    for mod in (primes, oracle):  # wherever the function is bound
        if getattr(mod, "cut_sets", None) is original:
            monkeypatch.setattr(mod, "cut_sets", counting)
    assert verify_primary_decomposition(DIAMOND)
    assert calls == [DIAMOND]


def test_verify_colon_theorem_examples():
    assert verify_colon_theorem(K3, (1, 3))
    assert verify_colon_theorem(P3, (1, 2))
    assert verify_colon_theorem(DIAMOND, (2, 3))
    with pytest.raises(ValueError):
        verify_colon_theorem(P3, (1, 3))


def test_initial_ideal_matches_groebner_leads_at_n6(monkeypatch):
    """in(J_G) from the admissible paths equals the lex lead terms of the
    reduced basis on every connected n = 6 class, at its canonical labeling;
    a planted fault, one path lead dropped, is caught on every class."""
    monkeypatch.setattr(oracle, "MAX_EFFECTIVE_VARS", 12)
    real_paths = degeneration.admissible_paths
    graphs = enumerate_connected(6)
    assert len(graphs) == 112
    ctx = PolyContext(6)

    def path_leads(g):
        return {oracle._slot_exponents(ctx, m) for m in initial_ideal(g).min_gens}

    for g in graphs:
        leads = {p.lt()[0] for p in buchberger(binomial_edge_ideal(g, ctx))}
        assert leads == path_leads(g), g
        with monkeypatch.context() as m:
            m.setattr(degeneration, "admissible_paths", lambda G: real_paths(G)[1:])
            assert leads != path_leads(g), g


def test_tail_reduction_takes_one_pass(monkeypatch):
    # x1 - x2 enters first; x2 - x3 then reduces its tail to x1 - x3, which
    # stays reduced, so one normal form per minimal element suffices
    x1, x2, x3 = (var(CTX3, CTX3.x(v)) for v in (1, 2, 3))
    changed = []
    original = oracle.normal_form

    def counting(f, basis):
        r = original(f, basis)
        changed.append(r != f)
        return r

    monkeypatch.setattr(oracle, "normal_form", counting)
    gb = buchberger(Ideal(CTX3, [x1 - x2, x2 - x3]))
    assert gb == (x1 - x3, x2 - x3)
    assert changed == [True, False]


def test_verify_initial_ideal_examples():
    for g in (P3, K3, K4, DIAMOND):
        assert verify_initial_ideal(g)
    relabeled = build_graph(3, [(1, 2), (1, 3)])
    assert verify_initial_ideal(relabeled)


def test_cut_vertices():
    assert cut_vertices(P3) == (2,)
    assert cut_vertices(K3) == ()
    assert cut_vertices(build_graph(4, [(1, 2), (1, 3), (1, 4)])) == (1,)


def test_radical_membership_sampling():
    rng = random.Random(21)
    for g in (P3, K3, build_graph(3, [(1, 2)])):
        I = binomial_edge_ideal(g, CTX3)
        gb = I.groebner()
        for _ in range(12):
            f = Polynomial(
                CTX3,
                {
                    tuple(rng.randint(0, 1) for _ in range(6)): Fraction(
                        rng.randint(-2, 2)
                    )
                    for _ in range(3)
                },
            )
            f_in = normal_form(f, gb).is_zero()
            sq_in = normal_form(f * f, gb).is_zero()
            assert f_in == sq_in


def test_budget_errors():
    big = PolyContext(6)  # 12 > 11 effective variables
    with pytest.raises(ResourceBudgetError):
        buchberger(Ideal(big, [edge_binomial(big, 1, 2)]))
    k6 = build_graph(6, [(i, j) for i in range(1, 6) for j in range(i + 1, 7)])
    with pytest.raises(ResourceBudgetError):
        verify_primary_decomposition(k6)
    deep = var(CTX3, 0)
    for _ in range(6):
        deep = deep * var(CTX3, 0)
    with pytest.raises(ResourceBudgetError):
        buchberger(Ideal(CTX3, [deep]))


def test_monomial_polynomial_layout():
    from bei.degeneration import x_slot, y_slot

    m = x_slot(3, 2) | y_slot(3, 3)
    p = monomial_polynomial(CTX3, m)
    exps = p.lt()[0]
    assert exps[CTX3.x(2)] == 1 and exps[CTX3.y(3)] == 1 and sum(exps) == 2


# ---------------------------------------------------------------------------
# packed monomials against their exponent-tuple definitions


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    aux = draw(st.booleans())
    ctx = PolyContext(n, aux=aux)
    exponent = st.one_of(
        st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=127)
    )
    vec = st.lists(exponent, min_size=ctx.nvars, max_size=ctx.nvars).map(tuple)
    a = draw(vec)
    # a permutation of a: the same total degree, so only lex order separates them
    b = tuple(draw(st.permutations(a))) if draw(st.booleans()) else draw(vec)
    return n, aux, a, b


@given(exponent_pairs())
@settings(max_examples=300, deadline=None)
def test_packed_monomials_match_exponent_tuples(case):
    n, aux, a, b = case
    ctx = PolyContext(n, aux=aux)
    pa, pb = ctx._pack(a), ctx._pack(b)
    g = ctx._guard
    assert ctx._unpack(pa) == a and ctx._unpack(pb) == b
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)  # lex
    assert _divides(pa, pb, g) == all(x <= y for x, y in zip(a, b))
    assert ctx._unpack(_lcm(pa, pb, g)) == tuple(map(max, a, b))
    coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
    assert (_lcm(pa, pb, g) == pa + pb) == coprime
    if all(x + y <= 127 for x, y in zip(a, b)):
        assert ctx._unpack(pa + pb) == tuple(x + y for x, y in zip(a, b))
    if _divides(pa, pb, g):
        assert ctx._unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))


def power_of(f, k):
    out = f
    for _ in range(k - 1):
        out = out * f
    return out


def test_exponent_past_the_field_raises():
    ctx = PolyContext(2)
    big = (127, 0, 0, 0)
    Polynomial(ctx, {big: 1})  # the largest exponent that fits
    with pytest.raises(ResourceBudgetError):
        Polynomial(ctx, {(128, 0, 0, 0): 1})
    f = Polynomial(ctx, {(64, 0, 0, 0): 1})
    with pytest.raises(ResourceBudgetError):
        f * f  # x1^128
    # lex reduction of a non-homogeneous input raises the degree:
    # x1^6 -> x2^30 -> y1^150 modulo x1 - x2^5, x2 - y1^5
    x1, x2, y1 = (var(ctx, i) for i in range(3))
    chain = [x1 - x2 * x2 * x2 * x2 * x2, x2 - y1 * y1 * y1 * y1 * y1]
    power = x1 * x1 * x1 * x1 * x1 * x1
    assert power.degree() <= MAX_INPUT_DEGREE
    with pytest.raises(ResourceBudgetError):
        normal_form(power, chain)
    with pytest.raises(ResourceBudgetError):
        buchberger(Ideal(ctx, chain + [power]))
    # an S-polynomial shift: the pair (x1*y2^3, x1 - y2^125) shifts the tail
    # y2^125 by y2^3; without x1*y2^3 the same generators reduce fine
    y2 = var(ctx, 3)
    gens = [x1 * power_of(y2, 3), y1 - power_of(y2, 5), x2 - power_of(y1, 5)]
    gens.append(x1 - power_of(x2, 5))  # reduces to x1 - y2^125
    assert max(g.degree() for g in gens) <= MAX_INPUT_DEGREE
    assert buchberger(Ideal(ctx, gens[1:]))[0] == x1 - power_of(y2, 125)
    with pytest.raises(ResourceBudgetError):
        buchberger(Ideal(ctx, gens))


@st.composite
def small_ideals(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    ctx = PolyContext(n)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    gens = list(binomial_edge_ideal(build_graph(n, edges), ctx).gens)
    mono = st.lists(
        st.integers(min_value=0, max_value=1), min_size=ctx.nvars, max_size=ctx.nvars
    ).map(tuple)
    for _ in range(draw(st.integers(min_value=0 if edges else 1, max_value=2))):
        u, v = draw(mono), draw(mono)
        sign = draw(st.sampled_from((1, -1)))
        f = Polynomial(ctx, {u: 1}) + Polynomial(ctx, {v: sign})
        if not f.is_zero():
            gens.append(f)
    return ctx, gens


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_buchberger_returns_a_reduced_basis(case):
    ctx, gens = case
    gb = buchberger(Ideal(ctx, gens))
    leads = [p.lt()[0] for p in gb]
    for p in gb:
        assert p.lt()[1] == 1
    for i, p in enumerate(gb):
        for m in p.terms:
            exps = ctx._unpack(m)
            for j, lead in enumerate(leads):
                if j != i or exps != lead:
                    assert not all(x <= y for x, y in zip(lead, exps))
    for g in gens:
        assert normal_form(g, gb).is_zero()


# ---------------------------------------------------------------------------
# coefficients: ints while division is exact, Fractions only after a remainder


def coefficients(polys):
    return [c for p in polys for c in p.terms.values()]


def test_non_unit_lead_falls_back_to_fraction():
    ctx = PolyContext(2)
    x1, y1 = var(ctx, ctx.x(1)), var(ctx, ctx.y(1))
    two, three = Polynomial.constant(ctx, 2), Polynomial.constant(ctx, 3)
    (g,) = buchberger(Ideal(ctx, [two * x1 - three * y1]))
    assert g.terms == {x1._lead()[0]: 1, y1._lead()[0]: Fraction(-3, 2)}
    assert [type(c) for c in g.terms.values()] == [int, Fraction]


def test_reduced_basis_unchanged_by_scaling_generators():
    ctx = PolyContext(2)
    rng = random.Random(13)
    scales = [
        Polynomial.constant(ctx, s) for s in (2, -1, Fraction(-1, 3), Fraction(5, 2))
    ]
    with_fraction = 0
    for _ in range(200):
        gens = [
            Polynomial(
                ctx,
                {
                    tuple(rng.randint(0, 1) for _ in range(ctx.nvars)): rng.choice(
                        (-3, -2, -1, 1, 2, 3)
                    )
                    for _ in range(rng.randint(1, 3))
                },
            )
            for _ in range(rng.randint(1, 3))
        ]
        base = buchberger(Ideal(ctx, gens))
        coeffs = coefficients(base)
        assert all(type(c) in (int, Fraction) for c in coeffs)
        with_fraction += any(type(c) is Fraction for c in coeffs)
        for k in scales:
            scaled = buchberger(Ideal(ctx, [k * g for g in gens]))
            assert scaled == base
            assert all(type(c) in (int, Fraction) for c in coefficients(scaled))
    assert with_fraction > 0  # the fallback path ran


def test_colon_by_a_scaled_polynomial():
    # (2f) has lead coefficient 2, so the quotients of _exact_divide are Fractions
    I = binomial_edge_ideal(build_graph(3, [(1, 2), (2, 3)]), CTX3)
    f = edge_binomial(CTX3, 1, 3)
    plain = ideal_colon(I, f)
    scaled = ideal_colon(I, Polynomial.constant(CTX3, 2) * f)
    assert any(type(c) is Fraction for c in coefficients(scaled.gens))
    assert all(type(c) in (int, Fraction) for c in coefficients(scaled.gens))
    assert scaled.groebner() == plain.groebner()
    assert ideal_equal(scaled, plain)


def test_float_coefficients_are_rejected():
    ctx = PolyContext(2)
    with pytest.raises(TypeError):
        Polynomial(ctx, {(1, 0, 0, 0): 0.1})
    with pytest.raises(TypeError):
        Polynomial.constant(ctx, 1.0)
    x1, x2 = (1, 0, 0, 0), (0, 1, 0, 0)
    exact = Polynomial(ctx, {x1: Fraction(1, 10), x2: Fraction(4, 2)})
    assert exact.terms == {ctx._pack(x1): Fraction(1, 10), ctx._pack(x2): 2}
    assert [type(c) for c in exact.terms.values()] == [Fraction, int]


def test_edge_ideal_bases_stay_integral(monkeypatch):
    """Every basis the primary-decomposition check builds, the reduced basis of
    J_G and those of its intersections, has int coefficients only."""
    bases = []
    original = oracle.buchberger

    def recording(I):
        gb = original(I)
        bases.append((I.ctx.aux, gb))
        return gb

    monkeypatch.setattr(oracle, "buchberger", recording)
    graphs = 0
    for n in range(2, 5):
        pairs = list(combinations(range(1, n + 1), 2))
        for k in range(1 << len(pairs)):
            g = build_graph(n, [pairs[i] for i in range(len(pairs)) if k >> i & 1])
            if not is_connected(g):
                continue
            graphs += 1
            assert verify_primary_decomposition(g)
    assert graphs == 43
    assert any(aux for aux, _ in bases) and any(not aux for aux, _ in bases)
    for _, gb in bases:
        assert all(type(c) is int for c in coefficients(gb))


# ---------------------------------------------------------------------------
# buchberger against a reference: every pair, no criteria, plain normal_form


def reference_buchberger(ctx, gens):
    basis = [g.monic() for g in gens]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # the pair whose lcm has the least degree first
        _, lcm, i, j = min(
            (sum(lcm), lcm, i, j)
            for i, j in pairs
            for lcm in [tuple(map(max, basis[i].lt()[0], basis[j].lt()[0]))]
        )
        pairs.remove((i, j))
        lf, lg = basis[i].lt()[0], basis[j].lt()[0]
        shift_f = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lf)): 1})
        shift_g = Polynomial(ctx, {tuple(a - b for a, b in zip(lcm, lg)): 1})
        h = normal_form(shift_f * basis[i] - shift_g * basis[j], basis)
        if not h.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(h.monic())
    minimal = []
    for f in sorted(basis, key=lambda p: p.lt()[0]):
        lead = f.lt()[0]
        if not any(all(a <= b for a, b in zip(g.lt()[0], lead)) for g in minimal):
            minimal.append(f)
    reduced = [normal_form(f, minimal[:k] + minimal[k + 1 :]) for k, f in enumerate(minimal)]
    return tuple(sorted(reduced, key=lambda p: p.lt()[0], reverse=True))


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_buchberger_matches_the_reference(case):
    ctx, gens = case
    assert buchberger(Ideal(ctx, gens)) == reference_buchberger(ctx, gens)


def test_check_ideals_match_the_reference(monkeypatch):
    """Every ideal that the n <= 4 primary-decomposition and colon checks pass
    to buchberger, with t or without, and every basis that an intersection
    keeps from its elimination."""
    runs, intersections = [], []
    original_buchberger = oracle.buchberger
    original_intersection = oracle.ideal_intersection

    def recording(I):
        gb = original_buchberger(I)
        runs.append((I, gb))
        return gb

    def recording_intersection(I, J):
        inter = original_intersection(I, J)
        intersections.append(inter)
        return inter

    monkeypatch.setattr(oracle, "buchberger", recording)
    monkeypatch.setattr(oracle, "ideal_intersection", recording_intersection)
    for n in range(2, 5):
        for g in census._labeled_connected(n):
            assert verify_primary_decomposition(g)
            assert all(verify_colon_theorem(g, e) for e in g.edges())
    assert any(I.ctx.aux for I, _ in runs) and any(not I.ctx.aux for I, _ in runs)
    for I, gb in runs:
        assert gb == reference_buchberger(I.ctx, I.gens)
    assert len(intersections) > 100
    for inter in intersections:
        assert inter._gb == original_buchberger(Ideal(inter.ctx, inter.gens))


# ---------------------------------------------------------------------------
# the pair and basis budgets

STAR = build_graph(4, [(1, 4), (2, 4), (3, 4)])  # 3 generators, 6 in the basis


def test_pair_budget_counts_the_reduced_pairs(monkeypatch):
    # 8 pairs of the star's run survive the Gebauer-Moeller criteria
    I = binomial_edge_ideal(STAR)
    monkeypatch.setattr(oracle, "MAX_PAIRS", 7)
    with pytest.raises(ResourceBudgetError, match="pair budget 7"):
        buchberger(I)
    monkeypatch.setattr(oracle, "MAX_PAIRS", 8)
    assert len(buchberger(I)) == 6


def test_basis_budget(monkeypatch):
    I = binomial_edge_ideal(STAR)
    monkeypatch.setattr(oracle, "MAX_BASIS", 5)
    with pytest.raises(ResourceBudgetError, match="basis size budget 5"):
        buchberger(I)
    monkeypatch.setattr(oracle, "MAX_BASIS", 6)
    assert len(buchberger(I)) == 6
