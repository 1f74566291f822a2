"""Buchberger bases: golden values, reduction properties, certificates."""

import random
from itertools import permutations

import pytest

from helpers import Z, rand_poly
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


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    x, y, w = sympy.symbols("x y w")

    def to_sympy(p):
        expr = 0
        for mono, coeff in p.terms.items():
            expr += sympy.Rational(coeff) * x ** mono[0] * y ** mono[1] * w ** mono[2]
        return expr

    def monic(expr):
        lc = sympy.LC(expr, x, y, w, order="grevlex")
        return sympy.expand(expr / lc)

    rng = random.Random(41)
    for _ in range(10):
        gens = [rand_poly(rng, nonzero=True, max_deg=2) for _ in range(3)]
        ours = [to_sympy(g) for g in buchberger(gens).generators]
        theirs = sympy.groebner([to_sympy(g) for g in gens],
                                x, y, w, order="grevlex")
        assert set(map(monic, ours)) == set(map(monic, theirs.exprs))


@pytest.mark.parametrize("seed", range(12))
def test_ideal_is_the_rank_one_module(seed):
    # one engine: the module basis of 1-vectors is the ideal's basis
    from polymat.modules import module_groebner
    rng = random.Random(seed)
    gens = [rand_poly(rng, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(rng.choice([2, 3, 4]))]
    assert module_groebner([(g,) for g in gens], 1) == tuple(
        (g,) for g in buchberger(gens).generators)
