"""Determinants, minors, the gcd chain, rank, reduced minors, Fitting
ideals, and unimodularity."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from helpers import (CHAINS_5x6, GCD_FAULT, SQUARE_GCD_3x4, M, P, Z,
                     eq_up_to_unit, rand_matrix, rand_qpoly, rand_unimodular,
                     within)
from polymat.matrix import (PolyMatrix, ShapeError, all_minors,
                            column_reduced_minors, fitting_ideal, gcd_chain,
                            minors_report, row_reduced_minors, seeded_points)
from polymat.modules import syzygy
from polymat.poly import (DimensionError, InternalError, Polynomial, _int_div,
                          divides, gcd, gcd_many, normalized)

z1, z2, z3 = Z(0), Z(1), Z(2)
ONE = Polynomial.one(3)
ZERO = Polynomial.zero(3)


class TestDeterminant:
    def test_identity(self):
        assert PolyMatrix.identity(3, 3).determinant() == ONE

    def test_equivalence_example(self, eq_ex):
        # the displayed witnesses force det = -(z1 - z2)^2; the source text
        # quotes it up to the sign, so the assertion is up to a unit
        det = eq_ex["F"].determinant()
        assert det == -(z1 - z2) ** 2
        assert eq_up_to_unit(det, (z1 - z2) ** 2)

    def test_3x3_example(self, ex2):
        det = ex2["F"].determinant()
        expected = P("-z1") * (z1 - z2) ** 2 * P("z1^2*z2 + z1^2*z3 + z2^2")
        assert det == expected

    def test_non_square_rejected(self, ex1):
        with pytest.raises(ShapeError):
            ex1["F"].determinant()

    def test_matches_minor_expansion(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rand_matrix(rng, 3, 3)
            assert m.determinant() == all_minors(m, 3)[0]

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        x, y, w = sympy.symbols("x y w")

        def to_sympy(p):
            total = 0
            for mono, c in p.terms.items():
                total += sympy.Rational(c) * x**mono[0] * y**mono[1] * w**mono[2]
            return total

        rng = random.Random(13)
        for _ in range(10):
            m = rand_matrix(rng, 3, 3, max_deg=2)
            theirs = sympy.Matrix([[to_sympy(p) for p in row]
                                   for row in m.entries]).det()
            assert sympy.expand(to_sympy(m.determinant()) - theirs) == 0


class TestMinors:
    def test_gcd_chain_2x4(self, ex1):
        rep2 = minors_report(ex1["F"], 2)
        assert rep2.d == z2 * (z1 - z3)
        rep1 = minors_report(ex1["F"], 1)
        assert rep1.d == ONE
        assert rep1.reduced == rep1.minors  # entries are the reduced minors

    def test_gcd_chain_3x3(self, ex2):
        assert minors_report(ex2["F"], 2).d == z1 - z2

    def test_reduced_identity(self):
        rng = random.Random(17)
        for _ in range(30):
            m = rand_matrix(rng, 2, 3)
            for size in (1, 2):
                rep = minors_report(m, size)
                for a, b in zip(rep.minors, rep.reduced):
                    assert a == rep.d * b

    def test_divisor_chain(self):
        rng = random.Random(19)
        for _ in range(30):
            m = rand_matrix(rng, 3, 3)
            chain = gcd_chain(m)
            for lo, hi in zip(chain, chain[1:]):
                if lo.is_zero:
                    assert hi.is_zero
                else:
                    assert divides(lo, hi)[0]

    def test_out_of_range(self, ex1):
        with pytest.raises(ShapeError):
            all_minors(ex1["F"], 3)
        with pytest.raises(ShapeError):
            all_minors(ex1["F"], 3, lazy=True)

    def test_lazy_chain_equals_eager_chain(self):
        # gcd_chain expands the minors of each size only until their gcd
        # is constant; the chain is the gcd of all of them
        rng = random.Random(29)
        for _ in range(30):
            rows, cols = rng.choice([(2, 3), (3, 3), (3, 4)])
            m = rand_matrix(rng, rows, cols, max_deg=2)
            eager = [ONE] + [gcd_many(all_minors(m, i))
                             for i in range(1, rows + 1)]
            assert gcd_chain(m) == eager
            for size in range(1, rows + 1):
                assert list(all_minors(m, size, lazy=True)) == all_minors(
                    m, size)


class TestModularPivots:
    def test_pivots_are_independent_and_greedy(self):
        # at a point modulo the prime the pivot columns of a seeded matrix
        # are the greedy ones of the exact elimination, from either side
        rng = random.Random(31)
        for _ in range(40):
            k = rng.randrange(1, 4)
            m = rand_matrix(rng, 3, k) * rand_matrix(rng, k, 4)
            for reverse in (False, True):
                assert (m._modular_pivots(seeded_points(3)[0], reverse)
                        == m._eliminate(reverse)[0])

    def test_a_root_drops_the_rank(self):
        # at a point where a pivot vanishes, fewer columns are found, and
        # those are still independent
        m = M([["z2", "0"], ["0", "z3"]])
        assert m._modular_pivots((5, 0, 7)) == [1]
        assert m._eliminate()[0] == [0, 1]


class TestGcdSwell:
    """Chains whose gcd once ran for more than 30 s (a subresultant
    remainder sequence, or the syzygy gcd on its own); each must answer
    within 20 s."""

    def test_square_gcd_3x4(self):
        h = P("z1 - 2*z3 - 3")
        with within(20):
            chain = gcd_chain(M(SQUARE_GCD_3x4))
        assert chain == [ONE, ONE, h, h ** 2]

    def test_gcd_fault_4x5(self):
        one = Polynomial.one(4)
        with within(20):
            chain = gcd_chain(M(GCD_FAULT, nvars=4))
        assert chain == [one] * 4 + [P("z1 - z4", nvars=4)]

    @pytest.mark.parametrize("seed", sorted(CHAINS_5x6))
    def test_chain_5x6(self, seed):
        h_text, grid = CHAINS_5x6[seed]
        h, one = P(h_text, nvars=4), Polynomial.one(4)
        with within(20):
            chain = gcd_chain(M(grid, nvars=4))
        assert chain == [one, one, one, h, h ** 2, h ** 3]

    def test_minor_pair_5x6(self):
        a, b = all_minors(M(CHAINS_5x6[2][1], nvars=4), 5)[:2]
        assert (len(a.terms), len(b.terms)) == (133, 212)
        with within(20):
            g = gcd(a, b)
        assert g == P("z1 - 1", nvars=4) ** 3


class TestElimination:
    @staticmethod
    def first_full_rank_columns(m, reverse):
        """Reference: the first full-column-rank rank-sized column subset in
        lexicographic order (reversed when asked)."""
        r = m.rank()
        subsets = list(combinations(range(m.cols), r))
        if reverse:
            subsets.reverse()
        return next(cols for cols in subsets
                    if m.submatrix(range(m.rows), cols).rank() == r)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_pivots_are_first_independent_columns(self, reverse):
        rng = random.Random(41)
        for _ in range(30):
            l, m_cols = rng.choice([(2, 3), (3, 4), (3, 5)])
            k = rng.randint(1, l - 1)
            m = (rand_matrix(rng, l, k, max_deg=1)
                 * rand_matrix(rng, k, m_cols, max_deg=1))
            pivots = m._eliminate(reverse)[0]
            if not pivots:
                assert column_reduced_minors(m, reverse) == []
                continue
            cols = self.first_full_rank_columns(m, reverse)
            assert tuple(sorted(pivots)) == cols
            sub = m.submatrix(range(m.rows), cols)
            assert column_reduced_minors(m, reverse) == \
                list(minors_report(sub, len(cols)).reduced)

    def test_determinant_of_singular_matrices(self):
        rng = random.Random(43)
        repeated = M([["z1", "z2", "z1", "1"], ["z2", "z3", "z2", "z1"],
                      ["1", "z1", "1", "z3"], ["z3", "0", "z3", "z2"]])
        cases = [repeated]
        for _ in range(20):
            n = rng.choice([2, 3, 4])
            cases.append(rand_matrix(rng, n, n - 1, max_deg=1)
                         * rand_matrix(rng, n - 1, n, max_deg=1))
            cases.append(rand_matrix(rng, n, n, max_deg=1))
        zeros = 0
        for m in cases:
            det = m.determinant()
            assert det == all_minors(m, m.rows)[0]
            zeros += det.is_zero
        assert zeros >= 20
        assert repeated.determinant() == ZERO
        assert repeated._eliminate()[0] == [0, 1, 3]


class TestRank:
    def test_substituted_examples(self, ex1, ex2):
        assert ex1["F"].substitute(0, z3).rank() == 1
        assert ex2["F"].substitute(0, z2).rank() == 1
        # remark case: setting z1 -> 0 keeps rank 2
        assert ex2["F"].substitute(0, ZERO).rank() == 2

    def test_zero_matrix(self):
        assert PolyMatrix.zeros(2, 3, 3).rank() == 0

    def test_rank_equals_largest_nonzero_minor(self):
        rng = random.Random(23)
        for _ in range(40):
            m = rand_matrix(rng, 3, 4, max_deg=1)
            by_minors = 0
            for size in range(1, 4):
                if any(not p.is_zero for p in all_minors(m, size)):
                    by_minors = size
            assert m.rank() == by_minors


class TestColumnReducedMinors:
    def test_worked_examples(self, ex1, ex2):
        crm1 = column_reduced_minors(ex1["F"].substitute(0, z3))
        assert sorted(map(str, map(normalized, crm1))) == ["1", "z2"]
        # the zero row of the substituted 3x3 example contributes a zero
        # reduced minor; the worked example lists the nonzero ones
        crm2 = column_reduced_minors(ex2["F"].substitute(0, z2))
        nonzero = sorted(str(normalized(p)) for p in crm2 if not p.is_zero)
        assert nonzero == ["1", "z3 + 1"]

    def test_full_rank_square(self):
        d = PolyMatrix.diagonal([z1 - z3, ONE])
        assert column_reduced_minors(d) == [ONE]

    def test_zero_matrix_empty(self):
        assert column_reduced_minors(PolyMatrix.zeros(2, 2, 3)) == []

    def test_choice_independence(self):
        # two different full-column-rank submatrices agree per index up to a
        # nonzero constant (the field-unit content of the sign claim; over
        # the rationals the gcd normalization can shift the scalar)
        rng = random.Random(29)
        checked = 0
        while checked < 20:
            m = rand_matrix(rng, 3, 2, max_deg=1) * rand_matrix(rng, 2, 4, max_deg=1)
            r = m.rank()
            if r == 0:
                continue
            subsets = [cols for cols in combinations(range(m.cols), r)
                       if m.submatrix(range(m.rows), cols).rank() == r]
            if len(subsets) < 2:
                continue
            checked += 1
            first = minors_report(
                m.submatrix(range(m.rows), subsets[0]), r).reduced
            second = minors_report(
                m.submatrix(range(m.rows), subsets[1]), r).reduced
            for a, b in zip(first, second):
                assert normalized(a) == normalized(b)

    def test_row_reduced_minors_mirror(self, ex1):
        fbar = ex1["F"].substitute(0, z3)
        assert [normalized(p) for p in row_reduced_minors(fbar)] == \
            [normalized(p) for p in column_reduced_minors(fbar.transpose())]


class TestFittingIdeals:
    def test_worked_presentation(self, ex1):
        fbar = ex1["F"].substitute(0, z3)
        pres = PolyMatrix([list(g) for g in
                           syzygy([fbar.row(0), fbar.row(1)]).generators])
        # module with 2 generators: index 0 -> 2x2 minors, index 1 -> entries
        fitt0 = fitting_ideal(pres, 0)
        assert fitt0.generators == ()
        fitt1 = fitting_ideal(pres, 1)
        assert fitt1.is_unit

    def test_conventions(self):
        pres = M([["z1", "0"]])
        assert fitting_ideal(pres, 2).is_unit      # j >= generators
        assert fitting_ideal(pres, 5).is_unit
        assert fitting_ideal(pres, 0).generators == ()   # minors too large
        zero_pres = PolyMatrix.zeros(1, 2, 3)
        assert fitting_ideal(zero_pres, 1).generators == ()


class TestUnimodular:
    def test_equivalence_witnesses(self, eq_ex):
        assert eq_ex["U"].is_unimodular()
        assert eq_ex["V"].is_unimodular()
        assert not PolyMatrix.diagonal([z1 - z3, ONE]).is_unimodular()

    def test_elementary_products(self):
        rng = random.Random(31)
        for _ in range(20):
            u = rand_unimodular(rng, 3, ops=4)
            assert u.is_unimodular()
            inv = u.inverse_unimodular()
            assert u * inv == PolyMatrix.identity(3, 3)

    def test_inverse_requires_unimodular(self):
        with pytest.raises(ValueError):
            PolyMatrix.diagonal([z1, ONE]).inverse_unimodular()


class TestProducts:
    def test_reconstruction(self, ex1):
        u = M([["1", "-z2"], ["0", "1"]])
        d = PolyMatrix.diagonal([z1 - z3, ONE])
        g1 = u.inverse_unimodular() * d
        assert g1 == ex1["G1"]
        assert g1 * ex1["F1"] == ex1["F"]
        assert PolyMatrix.identity(2, 3) * ex1["F"] == ex1["F"]

    def test_entrywise_sums_of_products(self):
        rng = random.Random(41)
        for _ in range(10):
            a, b = rand_matrix(rng, 2, 3), rand_matrix(rng, 3, 2)
            ab = a * b
            for i in range(2):
                for j in range(2):
                    acc = ZERO
                    for k in range(3):
                        acc = acc + a[i, k] * b[k, j]
                    assert ab[i, j] == acc
        # a cancelling sum comes out as the zero polynomial
        assert (M([["z1", "z2"]]) * M([["z2"], ["-z1"]]))[0, 0].terms == {}
        with pytest.raises(DimensionError):
            PolyMatrix.identity(2, 3) * PolyMatrix.identity(2, 4)

    def test_binet_cauchy_spot(self):
        rng = random.Random(37)
        for _ in range(10):
            g = rand_matrix(rng, 2, 3)
            f1 = rand_matrix(rng, 3, 4)
            f = g * f1
            rows = (0, 1)
            cols = (1, 3)
            lhs = f.submatrix(rows, cols).determinant()
            rhs = ZERO
            for s in combinations(range(3), 2):
                rhs = rhs + g.submatrix(rows, s).determinant() * \
                    f1.submatrix(s, cols).determinant()
            assert lhs == rhs

    def test_substitute_matrix_displays(self, ex1, ex2):
        fbar = ex1["F"].substitute(0, z3)
        expected = M([
            ["-z2^2*z3 + z2*z3^2", "-z2^3 + z2*z3^2", "0", "z2^2"],
            ["-z2*z3 + z3^2", "-z2^2 + z3^2", "0", "z2"],
        ])
        assert fbar == expected
        gbar = ex2["F"].substitute(0, z2)
        expected2 = M([
            ["0", "(z2 + z3)*(z3 + 1)", "-z2*(z3 + 1)"],
            ["0", "0", "0"],
            ["0", "z2 + z3", "-z2"],
        ])
        assert gbar == expected2
        constant_free = M([["z2", "z3"], ["1", "0"]])
        assert constant_free.substitute(0, z3 + 1) == constant_free


def _expand(m, rows, cols):
    """The minor on the given rows and columns by cofactor expansion along
    the first row, in plain Polynomial arithmetic: the reference for the
    integer kernel."""
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) == 1:
        return m[rows[0], cols[0]]
    acc = Polynomial.zero(m.nvars)
    for t, c in enumerate(cols):
        term = m[rows[0], c] * _expand(m, rows[1:], cols[:t] + cols[t + 1:])
        acc = acc + term if t % 2 == 0 else acc - term
    return acc


def _reference_minors(m, size):
    return [_expand(m, r, c) for r in combinations(range(m.rows), size)
            for c in combinations(range(m.cols), size)]


def _reference_rank(m, cols):
    return max((k for k in range(1, len(cols) + 1)
                if any(not p.is_zero for p in _reference_minors(
                    m.submatrix(range(m.rows), cols), k))), default=0)


def _all_fractions(polys):
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


class TestDenominatorScaling:
    """The minors and the Bareiss elimination clear each row of its
    denominators by its own scale; matrices whose rows have different
    denominators check that every result is divided back by the right
    scales and comes out with Fraction coefficients only."""

    @staticmethod
    def qmatrix(rng, rows, cols, max_deg=1):
        return PolyMatrix([[rand_qpoly(rng, max_deg=max_deg)
                            for _ in range(cols)] for _ in range(rows)])

    def cases(self, seed, count):
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            l, m_cols = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
            m = self.qmatrix(rng, l, m_cols)
            if rng.random() < 0.3:  # rank-deficient: a row of sums
                rows = [list(r) for r in m.entries]
                rows[-1] = [a + b * Fraction(3, 7)
                            for a, b in zip(rows[0], rows[1])]
                m = PolyMatrix(rows)
            out.append(m)
        return out

    def test_rows_have_different_denominators(self):
        # the draws exercise the scaling: most rows need a scale, and the
        # scales differ between rows
        scales = [[lcm(*(c.denominator for p in row for c in p.terms.values()))
                   for row in m.entries] for m in self.cases(53, 40)]
        assert sum(s > 1 for row in scales for s in row) > 100
        assert sum(len(set(row)) > 1 for row in scales) > 30

    def test_all_minors(self):
        for m in self.cases(53, 40):
            for size in range(1, min(m.shape) + 1):
                minors = all_minors(m, size)
                assert minors == _reference_minors(m, size)
                assert _all_fractions(minors)
                report = minors_report(m, size)
                assert list(report.minors) == minors
                assert _all_fractions(report.reduced + (report.d,))
                assert all(a == report.d * b
                           for a, b in zip(report.minors, report.reduced))

    def test_determinant_and_rank(self):
        for m in self.cases(59, 40):
            rank = _reference_rank(m, range(m.cols))
            assert m.rank() == rank
            if m.is_square:
                det = m.determinant()
                assert det == _expand(m, range(m.rows), range(m.cols))
                assert _all_fractions([det])
                assert det.is_zero == (rank < m.rows)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_pivots_and_last_pivot(self, reverse):
        for m in self.cases(61, 30):
            pivots, last, sign = m._eliminate(reverse)
            # greedy: a column is a pivot iff it raises the rank of the
            # columns before it (after it, from the right)
            order = list(range(m.cols))[::-1 if reverse else 1]
            expected = []
            for c in order:
                if (len(expected) < m.rows and _reference_rank(
                        m, sorted(expected + [c])) > len(expected)):
                    expected.append(c)
            assert pivots == expected
            assert _all_fractions([last])
            # up to sign, the last pivot is a maximal minor on the pivot
            # columns, of the rows the swaps moved to the top
            if pivots:
                candidates = [_expand(m, rows, pivots) for rows in
                              combinations(range(m.rows), len(pivots))]
                assert last in candidates or -last in candidates
            assert sign in (1, -1)

    def test_adjugate(self):
        for m in self.cases(67, 40):
            if not m.is_square:
                continue
            n = m.rows
            adj = m._adjugate()
            idx = range(n)
            for i in idx:
                for j in idx:
                    minor = _expand(m, [r for r in idx if r != j],
                                    [c for c in idx if c != i])
                    assert adj[i, j] == (-minor if (i + j) % 2 else minor)
            assert _all_fractions(p for row in adj.entries for p in row)
            det = m.determinant()
            assert m * adj == PolyMatrix.diagonal([det] * n)

    def test_inverse_of_scaled_unimodular(self):
        rng = random.Random(71)
        for _ in range(15):
            u = rand_unimodular(rng, 3, ops=4)
            scale = [Fraction(1, rng.randint(2, 6)) for _ in range(3)]
            scaled = PolyMatrix([[p * s for p in row]
                                 for row, s in zip(u.entries, scale)])
            inv = scaled.inverse_unimodular()
            assert scaled * inv == PolyMatrix.identity(3, 3)
            assert _all_fractions(p for row in inv.entries for p in row)

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        x, y, w = sympy.symbols("x y w")

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * x**e[0] * y**e[1] * w**e[2]
                        for e, c in p.terms.items()), sympy.Integer(0))

        for m in self.cases(73, 6):
            theirs = sympy.Matrix([[to_sympy(p) for p in row]
                                   for row in m.entries])
            assert m.rank() == theirs.rank()
            size = min(m.shape)
            for (r, c), ours in zip(
                    ((r, c) for r in combinations(range(m.rows), size)
                     for c in combinations(range(m.cols), size)),
                    all_minors(m, size)):
                minor = theirs.extract(list(r), list(c)).det()
                assert sympy.expand(to_sympy(ours) - minor) == 0

    def test_product_with_rows_and_columns_of_different_scales(self):
        rng = random.Random(79)
        for _ in range(30):
            l, k, m_cols = (rng.randint(1, 4) for _ in range(3))
            a = self.qmatrix(rng, l, k, max_deg=2)
            b = self.qmatrix(rng, k, m_cols, max_deg=2)
            product = a * b
            assert product.shape == (l, m_cols)
            for i in range(l):
                for j in range(m_cols):
                    want = Polynomial.zero(3)
                    for t in range(k):
                        want = want + a[i, t] * b[t, j]
                    assert product[i, j] == want
            assert _all_fractions(p for row in product.entries for p in row)
        # every row and column of this pair needs its own scale
        a = M([["1/2*z1", "1/3"], ["1/5*z2", "7"]])
        b = M([["1/7", "z3"], ["1/11*z1", "1/13"]])
        assert a * b == M([["1/14*z1 + 1/33*z1", "1/2*z1*z3 + 1/39"],
                           ["1/35*z2 + 7/11*z1", "1/5*z2*z3 + 7/13"]])

    def test_sympy_cross_check_product(self):
        sympy = pytest.importorskip("sympy")
        x, y, w = sympy.symbols("x y w")

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * x**e[0] * y**e[1] * w**e[2]
                        for e, c in p.terms.items()), sympy.Integer(0))

        rng = random.Random(83)
        for _ in range(5):
            a, b = self.qmatrix(rng, 2, 3), self.qmatrix(rng, 3, 2)
            theirs = (sympy.Matrix([[to_sympy(p) for p in row]
                                    for row in a.entries])
                      * sympy.Matrix([[to_sympy(p) for p in row]
                                      for row in b.entries]))
            ours = a * b
            for i in range(2):
                for j in range(2):
                    assert sympy.expand(to_sympy(ours[i, j])
                                        - theirs[i, j]) == 0

    def test_integer_division_refuses_inexact_pairs(self):
        one, x, y = (0, 0), (1, 0), (0, 1)
        assert _int_div({x: 2, one: 4}, {one: 2}) == {x: 1, one: 2}
        assert _int_div({x: 3, one: 4}, {one: 2}) is None    # coefficient
        assert _int_div({y: 2}, {x: 1}) is None              # monomial
        # (x + 1)(x - 1) = x^2 - 1; x^2 + 1 is no multiple of x - 1
        assert _int_div({(2, 0): 1, one: -1}, {x: 1, one: -1}) == \
            {x: 1, one: 1}
        assert _int_div({(2, 0): 1, one: 1}, {x: 1, one: -1}) is None
        # 2x^2 - 2 is 2(x + 1)(x - 1), but not an integer multiple of 4x - 4
        assert _int_div({(2, 0): 2, one: -2}, {x: 4, one: -4}) is None

    def test_inexact_bareiss_step_raises(self, monkeypatch):
        import polymat.matrix as matrix_module
        monkeypatch.setattr(matrix_module, "_int_div", lambda p, d: None)
        with pytest.raises(InternalError):
            M([["z1", "z2"], ["z3", "1"]]).determinant()
