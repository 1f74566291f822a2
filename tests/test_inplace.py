"""Division and Buchberger work on private copies of their inputs.

Polynomial values are shared as immutable, so the in-place reduction steps
inside divides, normal_form, buchberger, syzygy, module_basis and
module_normal_form must leave every argument's numerators and denominator
exactly as they were.
"""

import random

import pytest

from helpers import rand_matrix, rand_poly, rand_qpoly
from polymat.groebner import buchberger, normal_form
from polymat.matrix import PolyMatrix
from polymat.modules import module_basis, module_normal_form, syzygy
from polymat.poly import Polynomial, divides, exact_div, gcd, normalized

SEEDS = range(20)


def snapshot(polys):
    # copies of the stored numerators, which the kernel may share
    return [(dict(p.num), p.den) for p in polys]


@pytest.mark.parametrize("seed", SEEDS)
def test_divides_exact_quotient_and_refusal(seed):
    rng = random.Random(seed)
    d = rand_poly(rng, max_deg=2, max_terms=3, nonzero=True)
    if d.is_constant:
        d = d + Polynomial.variable(3, rng.randrange(3))
    q = rand_poly(rng, max_deg=2, max_terms=4, nonzero=True)
    p = d * q
    before = snapshot([d, q, p])
    assert divides(d, p) == (True, q)
    # d does not divide d*q + c for a nonzero constant c, as d is not constant
    assert divides(d, p + rng.choice([1, -2, 3])) == (False, None)
    assert snapshot([d, q, p]) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_groebner_leaves_inputs_alone(seed):
    rng = random.Random(seed)
    gens = [rand_poly(rng, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(3)]
    p = rand_poly(rng, max_deg=3, max_terms=5)
    before = snapshot(gens + [p])
    basis = buchberger(gens, track=True)
    generated = snapshot(basis.generators)
    normal_form(p, basis)
    normal_form(p, gens)
    assert snapshot(gens + [p]) == before
    assert snapshot(basis.generators) == generated


@pytest.mark.parametrize("seed", SEEDS)
def test_syzygy_leaves_rows_alone(seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, 2, 3)
    rows = [m.row(0), m.row(1)]
    flat = [p for row in rows for p in row]
    before = snapshot(flat)
    syzygy(rows)
    assert snapshot(flat) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_module_reduction_leaves_inputs_alone(seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, 2, 3)
    rows = [m.row(0), m.row(1)]
    v = tuple(rand_poly(rng, max_deg=2, max_terms=3) for _ in range(3))
    flat = [p for row in rows for p in row] + list(v)
    before = snapshot(flat)
    basis = module_basis(rows)
    generated = snapshot(p for g in basis.generators for p in g)
    module_normal_form(v, basis)
    assert snapshot(flat) == before
    assert snapshot(p for g in basis.generators for p in g) == generated


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_inputs_left_alone(seed):
    # denominators are cleared on copies, never on the callers' terms
    rng = random.Random(seed)
    gens = [rand_qpoly(rng, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(3)]
    rows = [tuple(rand_qpoly(rng, max_deg=1) for _ in range(3))
            for _ in range(2)]
    v = tuple(rand_qpoly(rng, max_deg=2, max_terms=3) for _ in range(3))
    flat = gens + [p for row in rows for p in row] + list(v)
    before = snapshot(flat)
    basis = buchberger(gens, track=True)
    normal_form(v[0], basis)
    normal_form(v[0], gens)
    syzygy(rows)
    module_normal_form(v, module_basis(rows))
    assert snapshot(flat) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_kernel_leaves_inputs_alone(seed):
    # divides, substitute, the matrix product, normalized and gcd clear
    # denominators into integer dicts of their own
    rng = random.Random(seed)
    d = rand_qpoly(rng, max_deg=2, max_terms=3, nonzero=True)
    p = rand_qpoly(rng, max_deg=2, max_terms=4, nonzero=True) * d
    value = rand_qpoly(rng, max_deg=2, allowed_vars=[1, 2])
    a = PolyMatrix([[rand_qpoly(rng, max_deg=1) for _ in range(3)]
                    for _ in range(2)])
    b = PolyMatrix([[rand_qpoly(rng, max_deg=1) for _ in range(2)]
                    for _ in range(3)])
    flat = [d, p, value] + [q for m in (a, b) for row in m.entries
                            for q in row]
    before = snapshot(flat)
    divides(d, p)
    divides(d, p + 1)
    exact_div(p, d)
    p.substitute(0, value)
    a * b
    normalized(p)
    gcd(p, d * value)
    assert snapshot(flat) == before
