"""Syzygies, module membership and equality, and module quotients."""

import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import Z, rand_poly, rand_unimodular
from polymat.matrix import PolyMatrix
from polymat.modules import (module_basis, module_equal, module_groebner,
                             module_membership,
                             module_quotient_by_poly, rank_of_module, syzygy)
from polymat.poly import DimensionError, Polynomial

z1, z2, z3 = Z(0), Z(1), Z(2)
ONE = Polynomial.one(3)
ZERO = Polynomial.zero(3)


def annihilates(coeffs, rows):
    m = len(rows[0])
    acc = [ZERO] * m
    for c, row in zip(coeffs, rows):
        for k in range(m):
            acc[k] = acc[k] + c * row[k]
    return all(p.is_zero for p in acc)


class TestSyzygy:
    def test_worked_2x4(self, ex1):
        fbar = ex1["F"].substitute(0, z3)
        rows = [fbar.row(0), fbar.row(1)]
        basis = syzygy(rows)
        assert module_equal(basis, [(ONE, -z2)])
        for g in basis.generators:
            assert annihilates(g, rows)

    def test_worked_3x3(self, eq_ex):
        fbar = eq_ex["F"].substitute(0, z2)
        rows = [fbar.row(i) for i in range(3)]
        basis = syzygy(rows)
        reference = [tuple(eq_ex["H"].row(0)), tuple(eq_ex["H"].row(1))]
        assert module_equal(basis, reference)
        for g in basis.generators:
            assert annihilates(g, rows)

    def test_independent_rows_trivial(self):
        rows = [(ONE, ZERO, z1), (ZERO, ONE, z2)]
        assert syzygy(rows).generators == ()

    def test_rank_law_random(self):
        rng = random.Random(71)
        for _ in range(40):
            l = rng.choice([2, 3])
            m = rng.choice([2, 3])
            rows = [tuple(rand_poly(rng, max_deg=1, max_terms=2)
                          for _ in range(m)) for _ in range(l)]
            if all(all(p.is_zero for p in row) for row in rows):
                continue
            s = syzygy(rows)
            for g in s.generators:
                assert annihilates(g, rows)
            stacked = PolyMatrix([list(r) for r in rows])
            if s.generators:
                assert rank_of_module(list(s.generators)) == \
                    l - stacked.rank()
            else:
                assert stacked.rank() == l

    def test_basis_is_already_reduced(self):
        # syzygy returns the tag parts of the augmented basis as they are
        rng = random.Random(73)
        seen = 0
        for _ in range(40):
            l = rng.choice([2, 3, 4])
            m = rng.choice([1, 2, 3])
            rows = [tuple(rand_poly(rng, max_deg=2, max_terms=2)
                          for _ in range(m)) for _ in range(l)]
            if all(p.is_zero for row in rows for p in row):
                continue
            gens = syzygy(rows).generators
            if gens:
                seen += 1
                assert module_groebner(gens, l) == gens
        assert seen >= 20

    def test_worked_rank_values(self, ex1, eq_ex):
        fbar1 = ex1["F"].substitute(0, z3)
        assert rank_of_module([fbar1.row(0), fbar1.row(1)]) == 1
        fbar2 = eq_ex["F"].substitute(0, z2)
        assert rank_of_module([fbar2.row(i) for i in range(3)]) == 1

    def test_rank_one_construction(self):
        rng = random.Random(73)
        base = (z1 + z2, z2 * z3, ONE)
        rows = [tuple(p * mult for p in base)
                for mult in [z1, z2 - 1, Polynomial.constant(3, 2)]]
        assert rank_of_module(rows) == 1
        s = syzygy(rows)
        assert rank_of_module(list(s.generators)) == 2

    def test_bounded_degree_completeness(self, ex1):
        # every annihilator found by a brute-force linear ansatz lies in the
        # computed syzygy module
        fbar = ex1["F"].substitute(0, z3)
        rows = [fbar.row(0), fbar.row(1)]
        basis = syzygy(rows)
        monos = [m for m in product(range(3), repeat=3) if sum(m) <= 2]
        # solve sum_i v_i * rows[i] = 0 with deg(v_i) <= 2 over the rationals
        unknowns = [(i, mono) for i in range(2) for mono in monos]
        equations = {}
        for col in range(4):
            for (i, mono) in unknowns:
                prod_poly = Polynomial(3, {mono: Fraction(1)}) * rows[i][col]
                for target, coeff in prod_poly.terms.items():
                    equations.setdefault((col, target), {})[(i, mono)] = coeff
        rowsys = []
        for key in sorted(equations):
            rowsys.append([Fraction(equations[key].get(u, 0))
                           for u in unknowns])
        # rational gaussian elimination for the nullspace
        ncols = len(unknowns)
        mat = [row[:] for row in rowsys]
        pivots = {}
        r = 0
        for c in range(ncols):
            pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            inv = 1 / mat[r][c]
            mat[r] = [x * inv for x in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c]:
                    factor = mat[i][c]
                    mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
            pivots[c] = r
            r += 1
        free = [c for c in range(ncols) if c not in pivots]
        assert free, "the ansatz space must contain the syzygy direction"
        members = 0
        for fc in free:
            sol = [Fraction(0)] * ncols
            sol[fc] = Fraction(1)
            for c, prow in pivots.items():
                sol[c] = -mat[prow][fc]
            vec = [dict(), dict()]
            for (i, mono), val in zip(unknowns, sol):
                if val:
                    vec[i][mono] = val
            candidate = tuple(Polynomial(3, v) for v in vec)
            assert annihilates(candidate, rows)
            assert module_membership(candidate, basis)
            members += 1
        assert members >= 1


class TestMembership:
    def test_generators_members(self, eq_ex):
        rows = [tuple(eq_ex["H"].row(i)) for i in range(2)]
        basis = module_basis(rows)
        for g in rows:
            assert module_membership(g, basis)

    def test_random_combinations(self):
        rng = random.Random(79)
        gens = [(z1, z2, ZERO), (ZERO, z3, ONE)]
        basis = module_basis(gens)
        for _ in range(20):
            a = rand_poly(rng, max_deg=1)
            b = rand_poly(rng, max_deg=1)
            combo = tuple(a * u + b * v for u, v in zip(*gens))
            assert module_membership(combo, basis)

    def test_outside_coordinate(self):
        basis = module_basis([(z1, ZERO)])
        assert not module_membership((ZERO, ONE), basis)

    def test_ambient_mismatch(self):
        basis = module_basis([(z1, ZERO)])
        with pytest.raises(DimensionError):
            module_membership((z1, ZERO, ZERO), basis)

    def test_groebner_ambient_mismatch(self):
        assert module_groebner([(z1, ZERO)], 2) == ((z1, ZERO),)
        for ambient in (1, 3):
            with pytest.raises(DimensionError):
                module_groebner([(z1, ZERO)], ambient)


class TestModuleEqual:
    def test_reflexive_and_constructed(self, ex1):
        rows = [tuple(ex1["F1"].row(i)) for i in range(2)]
        assert module_equal(rows, rows)
        rng = random.Random(83)
        for _ in range(10):
            u = rand_unimodular(rng, 2, ops=3, allowed_vars=[1, 2])
            transformed = [
                tuple(u[0, 0] * a + u[0, 1] * b for a, b in zip(*rows)),
                tuple(u[1, 0] * a + u[1, 1] * b for a, b in zip(*rows)),
            ]
            assert module_equal(rows, transformed)

    def test_equivalence_relation(self):
        a = [(z1, ZERO), (ZERO, z2)]
        b = [(z1, z2), (ZERO, z2)]          # same module
        c = [(z1, z2)]                      # strictly smaller module
        d = [(z1, z2), (z1 + z2, z2)]       # contains (z2, 0): different
        assert module_equal(a, b) and module_equal(b, a)
        assert module_equal(a, a)
        assert not module_equal(a, c)
        assert not module_equal(a, d)

    def test_strict_inclusion(self):
        assert not module_equal([(z1, ZERO)], [(ONE, ZERO)])


class TestQuotient:
    def test_scalar_extraction(self):
        d = z1 - z3
        rows = [(d, ZERO), (ZERO, d)]
        q = module_quotient_by_poly(rows, d)
        assert module_equal(list(q), [(ONE, ZERO), (ZERO, ONE)])

    def test_gcd_row(self):
        w0 = z2
        w = (z1 - z3, z2, ONE)
        row = tuple(w0 * p for p in w)
        q = module_quotient_by_poly([row], w0)
        assert module_equal(list(q), [w])

    def test_identity_quotient(self, ex1):
        rows = [tuple(ex1["F1"].row(i)) for i in range(2)]
        q = module_quotient_by_poly(rows, ONE)
        assert module_equal(list(q), rows)

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            module_quotient_by_poly([(z1, z2)], ZERO)
