"""Buchberger bases: golden values, reduction properties, certificates."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from helpers import Z, rand_poly, rand_qpoly, within
from polymat import groebner
from polymat.groebner import buchberger, is_unit_ideal, normal_form
from polymat.poly import (DEGREVLEX, DimensionError, MonomialOrder,
                          Polynomial, mono_div, mono_divides, mono_lcm,
                          mono_mul)

z1, z2, z3 = Z(0), Z(1), Z(2)
ONE = Polynomial.one(3)


def ideal_equal(gens_a, gens_b):
    a = buchberger(list(gens_a))
    b = buchberger(list(gens_b))
    return (all(normal_form(p, b).is_zero for p in a.generators)
            and all(normal_form(p, a).is_zero for p in b.generators))


def test_golden_reduced_basis(ex1):
    gens = [ex1["h"]] + [p for row in ex1["F"].entries for p in row]
    basis = buchberger(gens)
    assert set(map(str, basis.generators)) == {"z1 - z3", "z2", "z3^2"}


def test_unit_ideal_goldens():
    assert is_unit_ideal([z2, ONE])[0]
    assert is_unit_ideal([z3 + 1, ONE])[0]
    assert not is_unit_ideal([z1, z3])[0]
    basis = buchberger([z1, z3])
    assert set(map(str, basis.generators)) == {"z1", "z3"}


def test_unit_certificates():
    flag, cof = is_unit_ideal([z3 + 1, ONE], track=True)
    assert flag
    total = cof[0] * (z3 + 1) + cof[1] * ONE
    assert total == ONE

    rng = random.Random(17)
    confirmed = 0
    for k in range(30):
        gens = [rand_poly(rng, nonzero=True) for _ in range(3)]
        if k % 2:
            gens.append(1 + rand_poly(rng) * rand_poly(rng))
        flag, cof = is_unit_ideal(gens, track=True)
        if not flag:
            continue
        confirmed += 1
        acc = Polynomial.zero(3)
        for c, g in zip(cof, gens):
            acc = acc + c * g
        assert acc == ONE
    assert confirmed >= 5


def test_trivial_ideals():
    assert buchberger([ONE]).generators == (ONE,)
    assert buchberger([]).generators == ()
    assert buchberger([Polynomial.zero(3)]).generators == ()


def test_ideal_equality_under_permutation():
    gens = [z1 * (z1 - z3), z3]
    base = buchberger(gens)
    assert ideal_equal(base.generators, [z1 ** 2, z3])
    for perm in permutations(gens):
        again = buchberger(list(perm))
        assert again.generators == base.generators  # reduced basis is unique

    # appending a redundant combination changes nothing
    extra = gens + [z2 * gens[0] + (z1 + 1) * gens[1]]
    assert buchberger(extra).generators == base.generators


def test_normal_form_properties():
    basis = buchberger([z1 - z3, z2, z3 ** 2])
    assert normal_form(z2 * z3 ** 2 + 7, basis) == Polynomial.constant(3, 7)
    for g in basis.generators:
        assert normal_form(g, basis).is_zero
    rng = random.Random(23)
    for _ in range(40):
        p = rand_poly(rng, max_deg=3)
        nf = normal_form(p, basis)
        assert normal_form(nf, basis) == nf


def test_reduced_basis_shape():
    rng = random.Random(31)
    for _ in range(15):
        gens = [rand_poly(rng, nonzero=True) for _ in range(3)]
        basis = buchberger(gens)
        lms = [g.leading_monomial(basis.order) for g in basis.generators]
        for i, g in enumerate(basis.generators):
            assert g.leading_coefficient(basis.order) == 1
            for j, lm in enumerate(lms):
                if i == j:
                    continue
                assert not any(mono_divides(lm, m) for m in g.terms)
        # every generator reduces to zero
        for g in gens:
            assert normal_form(g, basis).is_zero


def test_buchberger_criterion_post_hoc():
    # all S-polynomials of the finished basis reduce to zero
    rng = random.Random(37)
    for _ in range(10):
        gens = [rand_poly(rng, nonzero=True) for _ in range(3)]
        basis = buchberger(gens)
        gb = basis.generators
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                li = gb[i].leading_monomial(DEGREVLEX)
                lj = gb[j].leading_monomial(DEGREVLEX)
                lcm = mono_lcm(li, lj)
                s = gb[i].mul_term(1, mono_div(lcm, li)) - \
                    gb[j].mul_term(1, mono_div(lcm, lj))
                assert normal_form(s, basis).is_zero


# (sympy's name, our order) pairs: every kind, and one permuted order
SYMPY_ORDERS = [("grevlex", DEGREVLEX),
                ("grlex", MonomialOrder("deglex")),
                ("lex", MonomialOrder("lex")),
                ("lex", MonomialOrder("lex", (2, 0, 1)))]


def agrees_with_sympy(sympy, gens, name="grevlex", order=DEGREVLEX):
    """Our reduced basis under ``order`` and sympy's under the order it
    calls ``name``, on the variables from most to least significant, both
    made monic, are the same set."""
    syms = sympy.symbols("x y w")
    ranked = [syms[i] for i in order.permutation or range(3)]

    def to_sympy(p):
        expr = 0
        for mono, coeff in p.terms.items():
            term = sympy.Rational(coeff)
            for s, e in zip(syms, mono):
                term *= s ** e
            expr += term
        return expr

    def monic(expr):
        lc = sympy.LC(expr, *ranked, order=name)
        return sympy.expand(expr / lc)

    ours = [to_sympy(g) for g in buchberger(gens, order).generators]
    theirs = sympy.groebner([to_sympy(g) for g in gens], *ranked, order=name)
    return set(map(monic, ours)) == set(map(monic, theirs.exprs))


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    for name, order in SYMPY_ORDERS:
        rng = random.Random(41)
        for _ in range(10):
            gens = [rand_poly(rng, nonzero=True, max_deg=2) for _ in range(3)]
            assert agrees_with_sympy(sympy, gens, name, order), order


# The engine clears denominators and scales rows internally; these inputs
# have non-integer coefficients, so every scaling has to be undone exactly.

def rational_gens(rng, k=3):
    """k non-constant polynomials, most of their coefficients not integers."""
    gens = []
    while len(gens) < k:
        g = rand_qpoly(rng, max_deg=2, max_terms=3, nonzero=True)
        if not g.is_constant:
            gens.append(g)
    return gens


@pytest.mark.parametrize("seed", range(15))
def test_rational_cofactors_recombine(seed):
    rng = random.Random(100 + seed)
    gens = rational_gens(rng)
    basis = buchberger(gens, track=True)
    for g, cofactors in zip(basis.generators, basis.cofactors):
        acc = Polynomial.zero(3)
        for c, f in zip(cofactors, gens):
            acc = acc + c * f
        assert acc == g


def test_rational_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    for name, order in SYMPY_ORDERS:
        rng = random.Random(43)
        for _ in range(10):
            assert agrees_with_sympy(sympy, rational_gens(rng), name,
                                     order), order


@pytest.mark.parametrize("seed", range(10))
def test_scaled_generators(seed):
    rng = random.Random(200 + seed)
    gens = rational_gens(rng)
    c = Fraction(rng.choice([-7, -2, 3, 5]), rng.choice([2, 3, 9]))
    base = buchberger(gens, track=True)
    scaled = buchberger([c * g for g in gens], track=True)
    assert scaled.generators == base.generators
    assert scaled.cofactors == tuple(tuple(p * (1 / c) for p in row)
                                     for row in base.cofactors)


def textbook_remainder(p, divisors):
    """Division over the rationals: the leading term of the running
    polynomial is cancelled by the first divisor whose leading monomial
    divides it, or else moved to the remainder."""
    r = Polynomial.zero(p.nvars)
    while p:
        m, c = p.leading_term()
        for d in divisors:
            lm, lc = d.leading_term()
            if mono_divides(lm, m):
                p = p - d.mul_term(c / lc, mono_div(m, lm))
                break
        else:
            lt = Polynomial(p.nvars, {m: c})
            r, p = r + lt, p - lt
    return r


def test_normal_form_on_a_list_is_textbook_division():
    # random non-monic divisors are seldom a Groebner basis, so the
    # remainder depends on the divisor order that both follow
    rng = random.Random(300)
    remainders = 0
    for _ in range(30):
        divisors = rational_gens(rng)
        p = rand_qpoly(rng, max_deg=4, max_terms=6, nonzero=True)
        r = normal_form(p, divisors)
        assert r == textbook_remainder(p, divisors)
        remainders += not r.is_zero
    assert remainders >= 15


@pytest.mark.parametrize("seed", range(12))
def test_ideal_is_the_rank_one_module(seed):
    # one engine: the module basis of 1-vectors is the ideal's basis
    from polymat.modules import module_groebner
    rng = random.Random(seed)
    gens = [rand_poly(rng, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(rng.choice([2, 3, 4]))]
    assert module_groebner([(g,) for g in gens], 1) == tuple(
        (g,) for g in buchberger(gens).generators)


# Inside the engine a monomial is one packed int; these check the packing
# against the tuple helpers it replaces, up to the edge of its fields.

def near_limit(rng, nvars, limit):
    """A monomial of degree below limit: most of them small, some with
    their degree or one exponent just under the limit."""
    deg = rng.choice([rng.randrange(4), limit - 1 - rng.randrange(3)])
    if rng.random() < 0.5:
        mono = [0] * nvars
        mono[rng.randrange(nvars)] = deg
    else:
        cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
        mono = [b - a for a, b in zip([0] + cuts, cuts + [deg])]
    return tuple(mono)


@pytest.mark.parametrize("nvars", range(1, 7))
@pytest.mark.parametrize("kind, perm", [(k, p) for k in MonomialOrder.KINDS
                                         for p in (False, True)])
@pytest.mark.parametrize("bits", [3, 16])
def test_packing_matches_the_tuple_helpers(nvars, kind, perm, bits):
    rng = random.Random(nvars * 100 + bits)
    order = MonomialOrder(kind, rng.sample(range(nvars), nvars) if perm
                          else None)
    packing = groebner._packing(order, nvars, bits)
    limit, guards = packing.limit, packing.guards
    assert limit == 1 << bits

    def pack(mono):
        (row,) = packing.pack([{mono: 1}])
        (packed,) = row
        return packed

    monos = [near_limit(rng, nvars, limit) for _ in range(30)]
    packed = [pack(m) for m in monos]
    for m, p in zip(monos, packed):
        assert packing.unpack(p) == m
    for a, pa in zip(monos, packed):
        for b, pb in zip(monos, packed):
            assert (pa < pb) == (order.key(a) < order.key(b))
            assert (pa == pb) == (a == b)
            divides = ((pb | guards) - pa) & guards == guards
            assert divides == mono_divides(a, b)
            if divides:
                assert pb - pa == pack(mono_div(b, a))
            if sum(a) + sum(b) < limit:
                assert pa + pb == pack(mono_mul(a, b))
            # a pair's lcm, the key of the S-pair queue, may reach the
            # limit, but it never carries and still sorts by the order
            lcm = mono_lcm(a, b)
            assert packing.unpack(pack(lcm)) == lcm
            assert (pack(lcm) < pa) == (order.key(lcm) < order.key(a))


def test_key_weights_check_the_permutation():
    with pytest.raises(DimensionError):
        MonomialOrder("lex", (1, 0)).key_weights(3, 8)


def test_narrow_fields_widen_and_agree(monkeypatch):
    # fields just wide enough for the input's degrees fill up at once: the
    # carry check must fire and the retry reach the default answer
    rng = random.Random(57)
    cases = []
    for order in (DEGREVLEX, MonomialOrder("lex"),
                  MonomialOrder("deglex", (1, 2, 0))):
        for _ in range(6):
            gens = []
            while len(gens) < 3:
                g = rand_poly(rng, nonzero=True, max_deg=3)
                if not g.is_constant:
                    gens.append(g)
            cases.append((gens, order, rand_poly(rng, max_deg=4,
                                                 max_terms=4)))
    # under lex a reduction step raises the tail: z1^3 -> z2^9
    cases.append(([z1 - z2 ** 3, z2 * z3 - 1], MonomialOrder("lex"), z1 ** 3))
    answers = [(buchberger(gens, order, track=True),
                normal_form(p, gens, order)) for gens, order, p in cases]
    monkeypatch.setattr(groebner, "_HEADROOM_BITS", 0)
    requested = []

    def recording(order, nvars, bits):
        requested.append(bits)
        return packing(order, nvars, bits)

    packing = groebner._packing
    monkeypatch.setattr(groebner, "_packing", recording)
    widened = 0
    for (gens, order, p), (basis, remainder) in zip(cases, answers):
        for run, want in ((lambda: buchberger(gens, order, track=True),
                           basis),
                          (lambda: normal_form(p, gens, order), remainder)):
            requested.clear()
            with within(10):  # a silent carry may not terminate
                assert run() == want
            assert requested == sorted(set(requested))
            widened += len(requested) > 1
    assert widened >= 6
