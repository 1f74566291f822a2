"""ZLP tests, the ZLP split of a full-row-rank matrix, and unimodular
completion with its budget semantics."""

import random

import pytest

from helpers import M, Z, rand_matrix, rand_poly, rand_unimodular
from polymat.completion import (FAILED_DEPTH_LIMIT,
                                FactorizationIncompleteError, HypothesisError,
                                NotFullRankError, complete_to_unimodular,
                                is_zlp, zlp_factorize)
from polymat.groebner import buchberger
from polymat.matrix import PolyMatrix, all_minors
from polymat.modules import module_equal
from polymat.poly import Polynomial, exact_div

z1, z2, z3 = Z(0), Z(1), Z(2)
ONE = Polynomial.one(3)
ZERO = Polynomial.zero(3)


def assert_tracked_inverse(res):
    """The inverse a completion carries is the inverse of its matrix."""
    n = res.matrix.rows
    assert res.inverse * res.matrix == PolyMatrix.identity(n, 3)
    assert res.inverse == res.matrix.inverse_unimodular()


class TestIsZlp:
    def test_worked_rows(self):
        assert is_zlp(M([["1", "-z2"]]))
        h = M([["1", "0", "-z3 - 1"], ["0", "1", "0"]])
        assert is_zlp(h)
        basis = buchberger(all_minors(h, 2))
        assert basis.is_unit

    def test_vanishing_at_origin(self):
        assert not is_zlp(M([["z1", "z3"]]))

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotFullRankError):
            is_zlp(M([["z1", "z2"], ["z1", "z2"]]))


class TestZlpFactorize:
    def test_gcd_extraction_row(self):
        w0 = z2
        h0 = M([["z2*(z1 - z3)", "z2^2", "z2"]])
        h1, h2 = zlp_factorize(h0)
        assert h1 * h2 == h0
        assert h1.shape == (1, 1)
        assert h1[0, 0] == w0
        assert is_zlp(h2)

    def test_syzygy_stack(self, eq_ex):
        h0 = eq_ex["H"]
        h1, h2 = zlp_factorize(h0)
        assert h1 * h2 == h0
        assert is_zlp(h2)
        assert module_equal([tuple(h0.row(i)) for i in range(2)],
                            [tuple(h2.row(i)) for i in range(2)])

    def test_idempotent_on_zlp(self):
        h = M([["1", "0", "-z3 - 1"], ["0", "1", "0"]])
        h1, h2 = zlp_factorize(h)
        assert h1 == PolyMatrix.identity(2, 3)
        assert h2 == h

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisError):
            zlp_factorize(M([["z1", "z3"]]))

    def test_constant_gcd_iff_zlp(self):
        # zlp_factorize answers d = det(h1) = 1 from the unit test of the
        # raw minors alone
        rng = random.Random(97)
        kinds = {True: 0, False: 0}
        for k in range(60):
            r = rng.choice([1, 2])
            l = r + rng.choice([1, 2])
            if k % 3 == 0:  # rows of a unimodular matrix
                u = rand_unimodular(rng, l, ops=3, allowed_vars=[1, 2])
                h0 = PolyMatrix([list(u.row(i)) for i in range(r)])
            elif k % 3 == 1:  # such rows times a common factor
                u = rand_unimodular(rng, l, ops=3, allowed_vars=[1, 2])
                d = rand_poly(rng, max_deg=1, max_terms=2, nonzero=True)
                h0 = PolyMatrix([[p * d for p in u.row(i)]
                                 for i in range(r)])
            else:
                h0 = rand_matrix(rng, r, l)
            if h0.rank() < r:
                continue
            try:
                constant = zlp_factorize(h0)[0].determinant().is_constant
            except (HypothesisError, FactorizationIncompleteError):
                constant = False
            zlp = is_zlp(h0)
            assert constant == zlp
            kinds[zlp] += 1
        assert min(kinds.values()) >= 10

    def test_two_row_gcd_case(self):
        # common scalar factor across a 2-row stack
        d = z2
        base = M([["1", "0", "z3"], ["0", "1", "-z1"]])
        h0 = base.map(lambda p: p * d)
        h1, h2 = zlp_factorize(h0)
        assert h1 * h2 == h0
        assert is_zlp(h2)
        assert module_equal([tuple(base.row(i)) for i in range(2)],
                            [tuple(h2.row(i)) for i in range(2)])


    @staticmethod
    def gram_left_factor(h0, h2):
        """Reference: h1 = h0 h2^T adj(h2 h2^T) / det(h2 h2^T)."""
        gram = h2 * h2.transpose()
        n = gram.rows
        adj = PolyMatrix([[(-1) ** (i + j) * gram.submatrix(
            [a for a in range(n) if a != j],
            [b for b in range(n) if b != i]).determinant()
            for j in range(n)] for i in range(n)])
        det = gram.determinant()
        return (h0 * h2.transpose() * adj).map(lambda p: exact_div(p, det))

    def test_left_factor_matches_gram_adjugate(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(8):
            l = rng.choice([3, 4])
            u = rand_unimodular(rng, l, ops=3, allowed_vars=[1, 2])
            g = rand_matrix(rng, 2, 2, max_deg=1)
            if g.determinant().is_constant:
                continue
            h0 = g * PolyMatrix([list(u.row(i)) for i in range(2)])
            assert not is_zlp(h0)  # the quotient branch
            h1, h2 = zlp_factorize(h0)
            assert h1 == self.gram_left_factor(h0, h2)
            checked += 1
        assert checked >= 5


class TestCompletion:
    def test_worked_row(self):
        res = complete_to_unimodular(M([["1", "-z2"]]))
        assert res.completed
        assert res.matrix == M([["1", "-z2"], ["0", "1"]])

    def test_worked_two_rows(self):
        h = M([["1", "0", "-z3 - 1"], ["0", "1", "0"]])
        res = complete_to_unimodular(h)
        assert res.completed
        assert res.matrix == M([["1", "0", "-z3 - 1"],
                                ["0", "1", "0"],
                                ["0", "0", "1"]])

    def test_postconditions(self, eq_ex):
        _, h2 = zlp_factorize(eq_ex["H"])
        res = complete_to_unimodular(h2)
        assert res.completed
        u = res.matrix
        assert u.is_unimodular()
        for i in range(2):
            assert u.row(i) == h2.row(i)
        assert u * u.inverse_unimodular() == PolyMatrix.identity(3, 3)

    def test_strip_and_recomplete(self):
        rng = random.Random(91)
        for _ in range(15):
            size = rng.choice([2, 3])
            r = rng.randrange(1, size)
            u0 = rand_unimodular(rng, size, ops=3, allowed_vars=[1, 2])
            h = PolyMatrix([list(u0.row(i)) for i in range(r)])
            res = complete_to_unimodular(h)
            assert res.completed
            assert res.matrix.is_unimodular()
            for i in range(r):
                assert res.matrix.row(i) == h.row(i)
            assert_tracked_inverse(res)

    def test_no_constant_entry_pair(self):
        # a ZLP row without unit entries: needs the cofactor block move
        w = M([["z1*z2 + 1", "z1^2"]])
        res = complete_to_unimodular(w)
        assert res.completed
        assert res.matrix.is_unimodular()
        assert res.matrix.row(0) == w.row(0)
        assert_tracked_inverse(res)

    def test_square_input(self):
        u = M([["1", "z2"], ["0", "1"]])
        res = complete_to_unimodular(u)
        assert res.completed and res.matrix == u
        assert_tracked_inverse(res)

    def test_budget_exhaustion_is_inconclusive(self):
        w = M([["z1*z2 + 1", "z1^2"]])
        res = complete_to_unimodular(w, max_ops=0)
        assert res.status == FAILED_DEPTH_LIMIT
        assert res.matrix is None
        assert res.ops_used == 1  # the op that crosses the budget counts

    def test_degree_budget(self):
        w = M([["z1*z2 + 1", "z1^2"]])
        res = complete_to_unimodular(w, max_degree=1)
        assert res.status == FAILED_DEPTH_LIMIT
        assert res.ops_used == 1

    def test_stalled_row_gives_up_with_budget_left(self):
        # the entries generate the unit ideal, (3*z2 - 3*z3 + 3) - 3*z2
        # + (3/2)*2*z3 = 3, but stage 1b reduces only by 2*z3, whose
        # leading monomial divides neither z2 term, and the one cofactor
        # move of stage 2 (two ops) leaves the row stalled: the search gives
        # up with budget left
        w = M([["3*z2 - 3*z3 + 3", "2*z3", "z2"]])
        res = complete_to_unimodular(w)
        assert res.status == FAILED_DEPTH_LIMIT
        assert res.matrix is None and res.inverse is None
        assert res.ops_used == 2

    def test_non_zlp_rejected(self):
        with pytest.raises(HypothesisError):
            complete_to_unimodular(M([["z1", "z3"]]))
