"""Buchberger bases: golden values, reduction properties, certificates."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from helpers import Z, rand_poly, rand_qpoly
from polymat.groebner import buchberger, is_unit_ideal, normal_form
from polymat.poly import (DEGREVLEX, Polynomial, mono_div,
                          mono_divides, mono_lcm)

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


def agrees_with_sympy(sympy, gens):
    """Our reduced basis and sympy's grevlex basis, both made monic, are
    the same set."""
    x, y, w = sympy.symbols("x y w")

    def to_sympy(p):
        expr = 0
        for mono, coeff in p.terms.items():
            expr += sympy.Rational(coeff) * x ** mono[0] * y ** mono[1] * w ** mono[2]
        return expr

    def monic(expr):
        lc = sympy.LC(expr, x, y, w, order="grevlex")
        return sympy.expand(expr / lc)

    ours = [to_sympy(g) for g in buchberger(gens).generators]
    theirs = sympy.groebner([to_sympy(g) for g in gens],
                            x, y, w, order="grevlex")
    return set(map(monic, ours)) == set(map(monic, theirs.exprs))


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for _ in range(10):
        gens = [rand_poly(rng, nonzero=True, max_deg=2) for _ in range(3)]
        assert agrees_with_sympy(sympy, gens)


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
    rng = random.Random(43)
    for _ in range(10):
        assert agrees_with_sympy(sympy, rational_gens(rng))


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
