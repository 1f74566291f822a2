"""Randomized property suite behind the acceptance gate.

Each prop_* function runs at least 200 seeded random instances with exact
assertions and returns the instance count, so the acceptance test can time
the whole block and report per-property results.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from helpers import rand_matrix, rand_poly, rand_qpoly, rand_unimodular
from polymat.factorize import (EQUIVALENT, FACTORED, NOT_EQUIVALENT,
                               NotInClassError, classify, decide_equivalence,
                               factorize, verify_equivalence,
                               verify_factorization)
from polymat.groebner import is_unit_ideal
from polymat.matrix import (PolyMatrix, all_minors, gcd_chain,
                            minor_ideal_generators)
from polymat.modules import module_equal, rank_of_module, syzygy
from polymat.poly import Polynomial, divides, exact_div, normalized

N = 3
ONE = Polynomial.one(N)
ZERO = Polynomial.zero(N)


def _h_of(rng: random.Random) -> Polynomial:
    f = rand_poly(rng, max_deg=1, max_terms=2, allowed_vars=[1, 2])
    return Polynomial.variable(N, 0) - f


def prop_binet_cauchy(count: int = 200) -> int:
    """Minors of a product expand bilinearly in the factors' minors."""
    rng = random.Random(1001)
    for _ in range(count):
        g = rand_matrix(rng, 2, 3, max_deg=1)
        f1 = rand_matrix(rng, 3, 4, max_deg=1)
        f = g * f1
        for size in (1, 2):
            row_subsets = list(combinations(range(2), size))
            col_subsets = list(combinations(range(4), size))
            mid_subsets = list(combinations(range(3), size))
            for rows in row_subsets:
                for cols in col_subsets:
                    lhs = f.submatrix(rows, cols).determinant()
                    rhs = ZERO
                    for mid in mid_subsets:
                        rhs = rhs + g.submatrix(rows, mid).determinant() * \
                            f1.submatrix(mid, cols).determinant()
                    assert lhs == rhs
    return count


def prop_divisor_laws(count: int = 200) -> int:
    """d_{i-1} | d_i, the factor-divisor law, and gcd invariance under
    unimodular transformations."""
    rng = random.Random(1002)
    for _ in range(count):
        f1 = rand_matrix(rng, 2, 3, max_deg=1)
        g1 = rand_matrix(rng, 2, 2, max_deg=1)
        f = g1 * f1
        chain = gcd_chain(f)
        for lo, hi in zip(chain, chain[1:]):
            if lo.is_zero:
                assert hi.is_zero
            else:
                assert divides(lo, hi)[0]
        chain_f1 = gcd_chain(f1)
        chain_g1 = gcd_chain(g1)
        for i in (1, 2):
            for factor_d in (chain_f1[i], chain_g1[i]):
                if factor_d.is_zero:
                    assert chain[i].is_zero
                else:
                    assert divides(factor_d, chain[i])[0]
        u = rand_unimodular(rng, 2, ops=2)
        v = rand_unimodular(rng, 3, ops=2)
        f2 = u * f1 * v
        chain_f2 = gcd_chain(f2)
        for i in (1, 2):
            assert normalized(chain_f1[i]) == normalized(chain_f2[i])
    return count


def prop_syzygy_rank_law(count: int = 200) -> int:
    """rank(Syz) == l - rank(rows) and exact annihilation."""
    rng = random.Random(1003)
    done = 0
    while done < count:
        l = rng.choice([2, 3])
        m = rng.choice([2, 3])
        rows = [tuple(rand_poly(rng, max_deg=1, max_terms=2, coeff_bound=2)
                      for _ in range(m)) for _ in range(l)]
        if all(p.is_zero for row in rows for p in row):
            continue
        done += 1
        basis = syzygy(rows)
        for g in basis.generators:
            acc = [ZERO] * m
            for coeff, row in zip(g, rows):
                for k in range(m):
                    acc[k] = acc[k] + coeff * row[k]
            assert all(p.is_zero for p in acc)
        stack_rank = PolyMatrix([list(r) for r in rows]).rank()
        syz_rank = (rank_of_module(list(basis.generators))
                    if basis.generators else 0)
        assert syz_rank == l - stack_rank
    return done


def prop_divides_iff_substitution(count: int = 200) -> int:
    """h | p exactly when p vanishes under z1 -> f, in both directions."""
    rng = random.Random(1004)
    multiples = 0
    for k in range(count):
        h = _h_of(rng)
        p = rand_poly(rng, max_deg=2, max_terms=3)
        if k % 2:
            p = p * h
        flag, quotient = divides(h, p)
        f = Polynomial.variable(N, 0) - h
        assert flag == p.substitute(0, f).is_zero
        if flag:
            multiples += 1
            assert quotient * h == p
    assert multiples >= count // 2
    return count


def _factorable_instance(rng: random.Random):
    """F = G1 * F1 with det(G1) a unit multiple of h, filtered to r = 1."""
    h = _h_of(rng)
    w1 = rand_unimodular(rng, 2, ops=2)
    w2 = rand_unimodular(rng, 2, ops=2)
    g1 = w1 * PolyMatrix.diagonal([h, ONE]) * w2
    f1 = rand_matrix(rng, 2, 3, max_deg=1)
    f = g1 * f1
    try:
        if classify(f, h) != 1:
            return None
    except Exception:
        return None
    return f, h


def prop_uniqueness_and_necessity(count: int = 200) -> int:
    """Two tie-breaking regimes yield the same right-factor row module; the
    constructed instances also witness the r = 1 necessity direction (the
    algorithm must find the factorization), and every returned witness
    verifies exactly."""
    rng = random.Random(1005)
    done = 0
    while done < count:
        instance = _factorable_instance(rng)
        if instance is None:
            continue
        f, h = instance
        done += 1
        out_a = factorize(f, h)
        out_b = factorize(f, h, reverse_tie_break=True)
        assert out_a.variant == FACTORED, "necessity: factorization exists"
        assert out_b.variant == FACTORED
        assert verify_factorization(f, out_a.g1, out_a.f1, h, 1)
        assert verify_factorization(f, out_b.g1, out_b.f1, h, 1)
        rows_a = [tuple(out_a.f1.row(i)) for i in range(2)]
        rows_b = [tuple(out_b.f1.row(i)) for i in range(2)]
        assert module_equal(rows_a, rows_b)
    return done


def prop_equivalence_roundtrip(count: int = 200) -> int:
    """Constructed equivalent matrices are recognized with verified
    witnesses, and they satisfy both necessity conditions."""
    rng = random.Random(1006)
    done = 0
    while done < count:
        if done % 10 == 9:
            l, r = 3, rng.choice([1, 2])
        else:
            l, r = 2, 1
        h = _h_of(rng)
        u0 = rand_unimodular(rng, l, ops=2, allowed_vars=[1, 2])
        v0 = rand_unimodular(rng, l, ops=2)
        d = PolyMatrix.diagonal([h] * r + [ONE] * (l - r))
        f = u0 * d * v0
        out = decide_equivalence(f, h, r)
        assert out.variant == EQUIVALENT
        assert verify_equivalence(f, out.u, out.d, out.v)
        chain = gcd_chain(f)
        assert divides(h, chain[l - r + 1])[0]
        gens = [h] + minor_ideal_generators(f, l - r)
        assert is_unit_ideal(gens)[0]
        done += 1
    return done


def prop_minor_ideal_biconditional(count: int = 200) -> int:
    """With maximal minors written as h * e_j and c_j the next-size minors,
    the ideal (h, e.., c..) is the whole ring iff (h, c..) already is."""
    rng = random.Random(1007)
    done = 0
    while done < count:
        h = _h_of(rng)
        w1 = rand_unimodular(rng, 2, ops=2)
        g1 = w1 * PolyMatrix.diagonal([h, ONE])
        f1 = rand_matrix(rng, 2, 3, max_deg=1)
        f = g1 * f1
        maximal = all_minors(f, 2)
        if not divides(h, gcd_chain(f)[2])[0]:
            continue
        done += 1
        e = [exact_div(a, h) for a in maximal]
        c = [p for p in all_minors(f, 1)]
        big = [h] + [p for p in e if not p.is_zero] + \
            [p for p in c if not p.is_zero]
        small = [h] + [p for p in c if not p.is_zero]
        assert is_unit_ideal(big)[0] == is_unit_ideal(small)[0]
    return done


def _chain_multiplicity(chain, h: Polynomial) -> int | None:
    """The gcd-chain route on d_0..d_l: None when h does not divide d_l,
    else the unique r with h | d_{l-r+1} and h not | d_{l-r}."""
    l = len(chain) - 1
    if not divides(h, chain[l])[0]:
        return None
    return next(r for r in range(1, l + 1)
                if divides(h, chain[l - r + 1])[0]
                and not divides(h, chain[l - r])[0])


def prop_rank_route_matches_gcd_chain(count: int = 200) -> int:
    """classify's rank drop of F(z1 -> f) is the gcd chain's multiplicity,
    NotInClassError is raised exactly when h does not divide d_l, and on
    U*diag(h^2,1,..)*V asked r = 2 the certificate is d_{l-1}.

    Instances cycle through U*diag(h,..,h,1,..)*V*F1, rank-deficient F
    (d_l = 0), random F (mostly outside the class) and the h^2 negatives.
    """
    rng = random.Random(1008)
    outside = deficient = 0
    for k in range(count):
        h = _h_of(rng)
        l = rng.choice([2, 3])
        kind = k % 4
        if kind == 0:
            s = rng.randint(1, l)
            g = rand_unimodular(rng, l, ops=2) * \
                PolyMatrix.diagonal([h] * s + [ONE] * (l - s))
            f = g * rand_matrix(rng, l, l + 1, max_deg=1)
        elif kind == 1:
            rows = [list(rand_matrix(rng, 1, l + 1).row(0))
                    for _ in range(l - 1)]
            q = rand_poly(rng, max_deg=1, max_terms=2)
            rows.append([q * p for p in rows[0]])
            f = PolyMatrix(rows)
        elif kind == 2:
            f = rand_matrix(rng, l, l + 1, max_deg=1)
        else:
            f = rand_unimodular(rng, l, ops=2) * \
                PolyMatrix.diagonal([h ** 2] + [ONE] * (l - 1)) * \
                rand_unimodular(rng, l, ops=2)
        chain = gcd_chain(f)
        expected = _chain_multiplicity(chain, h)
        try:
            got = classify(f, h)
        except NotInClassError:
            got = None
        assert got == expected
        outside += expected is None
        deficient += chain[l].is_zero
        if kind == 3:
            out = decide_equivalence(f, h, 2)
            assert out.variant == NOT_EQUIVALENT
            assert out.certificate == (chain[l - 1],)
    assert outside >= count // 8 and deficient >= count // 8
    return count


def _triangular(rng: random.Random, h: Polynomial,
                exponents: list[int]) -> PolyMatrix:
    """Upper or lower triangular with h^e on the diagonal, one e per
    row, and sparse entries of degree at most 1 off it."""
    l, upper = len(exponents), rng.random() < 0.5
    return PolyMatrix([[h ** exponents[i] if i == j
                        else rand_poly(rng, max_deg=1, max_terms=2)
                        if (j > i) == upper else ZERO
                        for j in range(l)] for i in range(l)])


def _spread(rng: random.Random, total: int, parts: int) -> list[int]:
    out = [0] * parts
    for _ in range(total):
        out[rng.randrange(parts)] += 1
    return out


def prop_equivalence_by_rank_drop(count: int = 200) -> int:
    """On det F = c*h^r, (h) + I_{l-r}(F) is the unit ideal, the theorem
    that leaves the rank drop the whole test: decide_equivalence answers
    NOT_EQUIVALENT iff classify's drop is below r, and then with the
    certificate d_{l-r+1}.

    F is U*T*V or T1*U*T2, U and V unimodular, T, T1 and T2 triangular
    with powers of h on the diagonal whose exponents sum to r."""
    rng = random.Random(1010)
    answers = Counter()
    for k in range(count):
        h = _h_of(rng)
        l = rng.choice([2, 3])
        r = rng.randint(1, l)
        if k % 2:
            first = rng.randint(0, r)
            f = (_triangular(rng, h, _spread(rng, first, l))
                 * rand_unimodular(rng, l, ops=2)
                 * _triangular(rng, h, _spread(rng, r - first, l)))
        else:
            f = (rand_unimodular(rng, l, ops=2)
                 * _triangular(rng, h, _spread(rng, r, l))
                 * rand_unimodular(rng, l, ops=2))
        assert is_unit_ideal([h] + minor_ideal_generators(f, l - r))[0]
        out = decide_equivalence(f, h, r)
        assert (out.variant == NOT_EQUIVALENT) == (classify(f, h) < r)
        if out.variant == NOT_EQUIVALENT:
            assert out.certificate == (gcd_chain(f)[l - r + 1],)
        elif out.variant == EQUIVALENT:
            assert verify_equivalence(f, out.u, out.d, out.v)
        answers[out.variant] += 1
    assert min(answers[EQUIVALENT], answers[NOT_EQUIVALENT]) >= count // 5
    return count


def prop_rational_ring_laws(count: int = 200) -> int:
    """On rational coefficients, where the denominators differ from term to
    term: distributivity, exact division of a product, substitution as a
    ring homomorphism, and normalization up to a rational factor."""
    rng = random.Random(1009)
    for _ in range(count):
        a, b, c = (rand_qpoly(rng, max_terms=4) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a - b) * c == a * c - b * c
        if not b.is_zero:
            assert exact_div(a * b, b) == a
        index = rng.randrange(N)
        value = rand_qpoly(rng, max_deg=2, allowed_vars=[
            v for v in range(N) if v != index])
        sa, sb = a.substitute(index, value), b.substitute(index, value)
        assert (a + b).substitute(index, value) == sa + sb
        assert (a * b).substitute(index, value) == sa * sb
        factor = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                          rng.randint(1, 9))
        assert normalized(factor * a) == normalized(a)
    return count


ALL_PROPS = [
    ("binet-cauchy products", prop_binet_cauchy),
    ("divisor chain and factor laws", prop_divisor_laws),
    ("syzygy rank law", prop_syzygy_rank_law),
    ("divisibility vs substitution", prop_divides_iff_substitution),
    ("uniqueness and r=1 necessity", prop_uniqueness_and_necessity),
    ("equivalence round trip", prop_equivalence_roundtrip),
    ("minor ideal biconditional", prop_minor_ideal_biconditional),
    ("rank route vs gcd chain", prop_rank_route_matches_gcd_chain),
    ("equivalence by the rank drop", prop_equivalence_by_rank_drop),
    ("rational ring laws", prop_rational_ring_laws),
]
