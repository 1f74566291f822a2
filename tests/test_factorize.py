"""The top-level factorization and equivalence procedures."""

import json
import os
import random
import sys
from itertools import combinations
from types import SimpleNamespace

import pytest

from helpers import (GCD_FAULT, M, P, Z, eq_up_to_unit, rand_matrix,
                     rand_poly, rand_unimodular, within)
from polymat.completion import is_zlp
from polymat.factorize import (COMPLETION_NOT_FOUND, EQUIVALENT, FACTORED,
                               NO_FACTORIZATION, NOT_EQUIVALENT,
                               UNABLE_TO_JUDGE, NotInClassError, PivotError,
                               _cramer_stacks, _substituted,
                               _syzygy_stacks, classify,
                               decide_equivalence, factorize,
                               factorize_general_variable,
                               fitting_sufficient_check, split_pivot,
                               verify_equivalence, verify_factorization)
from polymat.groebner import buchberger, is_unit_ideal, normal_form
from polymat.matrix import (_PRIME, PolyMatrix, all_minors,
                            column_reduced_minors)
from polymat.modules import (module_equal, module_quotient_by_poly,
                             rank_of_module, syzygy)
from polymat.poly import InternalError, Polynomial, gcd_many

z1, z2, z3 = Z(0), Z(1), Z(2)
ONE = Polynomial.one(3)
ZERO = Polynomial.zero(3)


def syzygy_annihilator(fbar, r, reverse):
    """The first ZLP stack of the syzygy fallback, or None."""
    return next((stack for stack, zlp in _syzygy_stacks(fbar, r, reverse)
                 if zlp), None)


def ideal_equal(gens_a, gens_b):
    a = buchberger(list(gens_a))
    b = buchberger(list(gens_b))
    return (all(normal_form(p, b).is_zero for p in a.generators)
            and all(normal_form(p, a).is_zero for p in b.generators))


def rows_of(matrix):
    return [tuple(matrix.row(i)) for i in range(matrix.rows)]


class TestSplitPivot:
    def test_accepts_linear(self):
        assert split_pivot(P("z1 - z3")) == z3
        assert split_pivot(P("z2"), 1).is_zero

    def test_rejects_non_monic(self):
        with pytest.raises(PivotError):
            split_pivot(P("2*z1 - z3"))
        with pytest.raises(PivotError):
            split_pivot(P("z1^2 - z3"))
        with pytest.raises(PivotError):
            split_pivot(P("z1*z2 - z3"))


class TestClassify:
    def test_worked_examples(self, ex1, ex2):
        assert classify(ex1["F"], ex1["h"]) == 1
        assert classify(ex2["F"], ex2["h"]) == 2

    def test_full_extraction(self):
        h = P("z1 - z2")
        f = PolyMatrix.diagonal([h, h]) * M([["1", "z3"], ["0", "1"]])
        assert classify(f, h) == 2

    def test_not_in_class(self):
        with pytest.raises(NotInClassError):
            classify(PolyMatrix.identity(2, 3), P("z1 - z3"))


class TestFactorize:
    def test_worked_2x4(self, ex1):
        out = factorize(ex1["F"], ex1["h"])
        assert out.factored and out.r == 1
        assert verify_factorization(ex1["F"], out.g1, out.f1, ex1["h"], 1)
        assert module_equal(rows_of(out.f1), rows_of(ex1["F1"]))

    def test_no_factorization_branch(self, ex1):
        # the first right factor admits nothing w.r.t. z2 ...
        out = factorize_general_variable(ex1["F1"], 1, ZERO)
        assert out.variant == NO_FACTORIZATION and out.r == 1
        assert ideal_equal(out.certificate, [z1, z3])
        # ... and neither does the original matrix
        out2 = factorize_general_variable(ex1["F"], 1, ZERO)
        assert out2.variant == NO_FACTORIZATION

    def test_worked_3x3_chain(self, ex2):
        out = factorize(ex2["F"], ex2["h"])
        assert out.factored and out.r == 2
        assert verify_factorization(ex2["F"], out.g1, out.f1, ex2["h"], 2)
        assert module_equal(rows_of(out.f1), rows_of(ex2["F1"]))

        out2 = factorize_general_variable(out.f1, 0, ZERO)
        assert out2.factored and out2.r == 1
        composed = out.g1 * out2.g1
        assert composed * out2.f1 == ex2["F"]
        assert eq_up_to_unit(composed.determinant(),
                             z1 * (z1 - z2) ** 2)

    def test_full_extraction_branch(self):
        h = P("z1 - z2")
        f1 = M([["1", "z3", "0"], ["z2", "1", "z3"]])
        f = PolyMatrix.diagonal([h, h]) * f1
        assert classify(f, h) == 2
        # multiplicity l means h divides every single entry
        from polymat.poly import divides
        assert all(divides(h, p)[0] for row in f.entries for p in row)
        out = factorize(f, h)
        assert out.factored and out.r == 2
        assert out.g1 == PolyMatrix.diagonal([h, h])
        assert out.f1 == f1

    def test_unable_to_judge(self):
        f = M([["z2", "z2^2", "z1"],
               ["z3", "z2*z3", "0"],
               ["0", "z1", "0"]])
        out = factorize(f, P("z1"))
        assert out.variant == UNABLE_TO_JUDGE and out.r == 2
        assert out.g1 is None and out.f1 is None
        assert out.certificate  # the non-unit reduced basis

    @pytest.mark.parametrize("reverse", [False, True])
    def test_cofactors_recombine_the_chosen_minors(self, ex1, ex2, reverse):
        # the reduced minors are taken on the pivot columns found from the
        # tie-break's side; the certificate's cofactors combine them to 1
        for data in (ex1, ex2):
            out = factorize(data["F"], data["h"], reverse_tie_break=reverse)
            fbar = _substituted(data["F"], data["h"]).fbar
            minors = column_reduced_minors(fbar, reverse)
            assert sum((c * m for c, m in zip(out.cofactors, minors)),
                       ZERO) == ONE

    def test_uniqueness_of_row_module(self, ex1, ex2):
        for data in (ex1, ex2):
            first = factorize(data["F"], data["h"])
            second = factorize(data["F"], data["h"], reverse_tie_break=True)
            assert first.factored and second.factored
            assert module_equal(rows_of(first.f1), rows_of(second.f1))

    def test_general_variable_trivial_diag(self):
        f = PolyMatrix.diagonal([z3 - z1 * z2, ONE])
        out = factorize_general_variable(f, 2, z1 * z2)
        assert out.factored and out.r == 1
        assert verify_factorization(f, out.g1, out.f1)

    def test_gcd_fault_matrix(self):
        # the rank of F(z1 -> f) decides without the gcd of the 4x4
        # minors; that gcd is timed in test_matrix.TestGcdSwell
        f = M(GCD_FAULT, nvars=4)
        h = P("z1 - z4", nvars=4)
        out = factorize(f, h)
        assert out.factored and out.r == 1
        assert verify_factorization(f, out.g1, out.f1, h, 1)

    def test_rejects_bad_pivot(self):
        with pytest.raises(PivotError):
            factorize_general_variable(PolyMatrix.identity(2, 3), 0, z1 + z2)


class TestAnnihilator:
    @staticmethod
    def greedy(fbar, r, reverse):
        """Reference: re-rank the growing stack for every generator."""
        gens = list(syzygy([fbar.row(i) for i in range(fbar.rows)]).generators)
        if reverse:
            gens.reverse()
        chosen = []
        for g in gens:
            if rank_of_module(chosen + [g]) > len(chosen):
                chosen.append(g)
            if len(chosen) == r:
                break
        return PolyMatrix([list(g) for g in chosen])

    @staticmethod
    def first_zlp_subset(fbar, r):
        """Reference: the first r syzygy generators, in lexicographic subset
        order, that are ZLP."""
        gens = syzygy([fbar.row(i) for i in range(fbar.rows)]).generators
        return next((PolyMatrix([list(g) for g in subset])
                     for subset in combinations(gens, r)
                     if rank_of_module(subset) == r
                     and is_zlp(PolyMatrix([list(g) for g in subset]))), None)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_greedy_rerank(self, reverse, monkeypatch):
        fz = sys.modules["polymat.factorize"]
        rng = random.Random(53)
        wider = 0
        for _ in range(40):
            l, k = rng.choice([(3, 1), (4, 1), (3, 2), (4, 2)])
            fbar = (rand_matrix(rng, l, k, max_deg=1)
                    * rand_matrix(rng, k, l + 1, max_deg=1))
            r = l - fbar.rank()
            if r == l:
                continue
            pick = self.greedy(fbar, r, reverse)
            # the pivot pick itself, with its ZLP test passed
            with monkeypatch.context() as patch:
                patch.setattr(fz, "is_unit_ideal", lambda gens: (True, None))
                assert syzygy_annihilator(fbar, r, reverse) == pick
            out = syzygy_annihilator(fbar, r, reverse)
            assert out == (pick if is_zlp(pick)
                           else self.first_zlp_subset(fbar, r))
            gens = syzygy([fbar.row(i) for i in range(l)]).generators
            wider += len(gens) > r
        assert wider >= 5

    def test_no_syzygy_is_internal(self, ex1, monkeypatch):
        fbar = _substituted(ex1["F"], ex1["h"]).fbar
        monkeypatch.setattr(sys.modules["polymat.factorize"], "syzygy",
                            lambda rows: SimpleNamespace(generators=()))
        with pytest.raises(InternalError):
            next(_syzygy_stacks(fbar, 1, False))


class TestQuotientBranchOnDecisionPath:
    """A syzygy pick that is not ZLP (d = z3): the decision path completes
    the first Cramer stack of the reduced minors, which is ZLP, and the
    syzygy fallback would find a ZLP subset as well."""

    F = [["1", "0", "0"], ["z2", "z1 - z3", "0"], ["z3", "0", "z1 - z3"]]
    # the right factor of the syzygy route: by the uniqueness of the row
    # module, the Cramer route's factor spans the same rows
    SYZYGY_F1 = [["0", "0", "-1"], ["0", "-1", "0"], ["1", "0", "0"]]

    def test_factorize(self):
        f, h = M(self.F), P("z1 - z3")
        out = factorize(f, h)
        assert out.variant == FACTORED and out.r == 2
        assert out.g1 == M([["0", "0", "1"], ["-z1 + z3", "0", "z2"],
                            ["0", "-z1 + z3", "z3"]])
        assert out.f1 == M([["0", "-1", "0"], ["0", "0", "-1"],
                            ["1", "0", "0"]])
        assert verify_factorization(f, out.g1, out.f1, h, 2)
        assert module_equal(rows_of(out.f1), rows_of(M(self.SYZYGY_F1)))
        assert out.certificate == (ONE,)
        sub = _substituted(f, h)
        fbar, r = sub.fbar, sub.r
        pick = TestAnnihilator.greedy(fbar, r, False)
        assert gcd_many(all_minors(pick, r)) == z3
        assert is_zlp(syzygy_annihilator(fbar, r, False))

    def test_decide_equivalence(self):
        f, h = M(self.F), P("z1 - z3")
        out = decide_equivalence(f, h, 2)
        assert out.variant == EQUIVALENT
        assert out.u == M([["0", "0", "1"], ["-1", "0", "z2"],
                           ["0", "-1", "z3"]])
        assert out.v == M([["0", "-1", "0"], ["0", "0", "-1"],
                           ["1", "0", "0"]])
        assert verify_equivalence(f, out.u, out.d, out.v)
        assert module_equal(rows_of(out.v), rows_of(M(self.SYZYGY_F1)))

    def test_not_zlp_annihilator_is_internal(self, ex2, eq_ex, monkeypatch):
        # a fallback stack (r = 2) that does not annihilate F(z1 -> f),
        # reached when no Cramer stack is ZLP
        fz = sys.modules["polymat.factorize"]
        stacks = fz._cramer_stacks
        monkeypatch.setattr(fz, "_cramer_stacks", lambda *args: (
            (stack, False) for stack, _ in stacks(*args)))
        monkeypatch.setattr(fz, "_syzygy_stacks",
                            lambda *args: iter([(M([["z1", "z2", "0"],
                                                    ["0", "0", "1"]]),
                                                 True)]))
        with pytest.raises(InternalError):
            factorize(ex2["F"], ex2["h"])
        with pytest.raises(InternalError):
            decide_equivalence(eq_ex["F"], eq_ex["h"], 2)

    def test_not_annihilating_cramer_vector_is_internal(self, ex1,
                                                        monkeypatch):
        # [z1, z2] on the r = 1 route, in place of the Cramer vector:
        # neither a point nor the exact pivots prove the rank
        monkeypatch.setattr(sys.modules["polymat.factorize"],
                            "_cramer_stacks",
                            lambda *args: iter([(M([["z1", "z2"]]), True)]))
        with pytest.raises(InternalError):
            factorize(ex1["F"], ex1["h"])
        with pytest.raises(InternalError):
            decide_equivalence(PolyMatrix.diagonal([P("z1 - z3"), ONE]),
                               P("z1 - z3"), 1)

    def test_skips_quotient_gcd_and_rank(self, monkeypatch):
        # the decision path takes the ZLP stack from the reduced minors,
        # with neither syzygies nor an elimination
        def boom(*args, **kwargs):
            raise AssertionError("called on the decision path")
        for name in ("module_quotient_by_poly", "rank_of_module",
                     "module_equal", "syzygy"):
            for mod in list(sys.modules.values()):
                if (mod.__name__.startswith("polymat")
                        and hasattr(mod, name)):
                    monkeypatch.setattr(mod, name, boom)
        monkeypatch.setattr(PolyMatrix, "rank", boom)
        # the gcds left are the reduced-minor check's, in polymat.matrix,
        # and those e_i of the Cramer vectors' entries
        monkeypatch.setattr(sys.modules["polymat.completion"], "gcd_many",
                            boom)
        fz = sys.modules["polymat.factorize"]
        gcd = fz.gcd_many

        def stack_gcd(*args, **kwargs):
            if sys._getframe(1).f_code.co_name != "_cramer_stacks":
                boom()
            return gcd(*args, **kwargs)
        monkeypatch.setattr(fz, "gcd_many", stack_gcd)
        f, h = M(self.F), P("z1 - z3")
        assert factorize(f, h).variant == FACTORED
        assert decide_equivalence(f, h, 2).variant == EQUIVALENT


class TestNoZlpSubset:
    """The reduced minors z3, z3 - 2, z2 of F(z1 -> z3) generate the unit
    ideal, so a factorization exists, but no 2-subset of the syzygy basis
    is ZLP: an inconclusive answer, like a spent budget."""

    F = [["z3", "0", "0"], ["z3 - 2", "z1 - z3", "0"],
         ["z2", "0", "z1 - z3"]]

    def test_factorize(self):
        f, h = M(self.F), P("z1 - z3")
        sub = _substituted(f, h)
        fbar, r = sub.fbar, sub.r
        assert is_unit_ideal(sub.reduced)[0]
        gens = syzygy(rows_of(fbar)).generators
        assert not any(is_zlp(PolyMatrix([list(g) for g in pair]))
                       for pair in combinations(gens, r)
                       if rank_of_module(pair) == r)
        for reverse in (False, True):
            out = factorize(f, h, reverse_tie_break=reverse)
            assert out.variant == COMPLETION_NOT_FOUND and out.r == 2
            assert out.certificate == (ONE,)
            assert out.cofactors == (P("1/2"), P("-1/2"), ZERO)


def structured(rng, h):
    """F = [A 0; B h*D] with A square, D unimodular or the identity."""
    l = rng.choice([3, 4])
    k = rng.randrange(1, l)
    a = rand_matrix(rng, k, k)
    b = rand_matrix(rng, l - k, k)
    d = (rand_unimodular(rng, l - k, ops=2) if rng.random() < 0.5
         else PolyMatrix.identity(l - k, 3))
    return PolyMatrix([list(a.row(i)) + [ZERO] * (l - k) for i in range(k)]
                      + [list(b.row(i)) + [h * p for p in d.row(i)]
                         for i in range(l - k)])


class TestSyzygyModuleIsTheQuotient:
    """Under the reduced-minor hypothesis the syzygy module of F(z1 -> f)
    is {v : d*v in <pick>}, d the gcd of the pick's maximal minors, so the
    first ZLP r-subset of its basis is the first one that spans it."""

    @staticmethod
    def spanning_subset(gens, r):
        """Reference: the first r-subset of rank r spanning the module."""
        return next((PolyMatrix([list(g) for g in subset])
                     for subset in combinations(gens, r)
                     if rank_of_module(subset) == r
                     and module_equal(subset, gens)), None)

    def test_structured_family(self):
        rng = random.Random(1)
        h = P("z1 - z3")
        found = {True: 0, False: 0}
        for _ in range(100):
            f = structured(rng, h)
            sub = _substituted(f, h)
            fbar, r = sub.fbar, sub.r
            if r == f.rows or not is_unit_ideal(sub.reduced)[0]:
                continue
            gens = syzygy(rows_of(fbar)).generators
            for reverse in (False, True):
                pick = TestAnnihilator.greedy(fbar, r, reverse)
                if is_zlp(pick):
                    continue
                d = gcd_many(all_minors(pick, r))
                assert module_quotient_by_poly(rows_of(pick), d) == gens
                expected = self.spanning_subset(gens, r)
                assert syzygy_annihilator(fbar, r, reverse) == expected
                found[expected is not None] += 1
        assert min(found.values()) >= 5


class TestCramerVector:
    """For r = 1 the annihilator is the Cramer vector of the reduced minors
    that the hypothesis check computed, scaled as the reduced syzygy basis
    is: it equals that basis's one generator, bit for bit, and the decision
    builds no syzygy module."""

    @staticmethod
    def instances():
        """Seeded r = 1 decisions: factorize on U*diag(h, 1..)*V*F1 and on
        the structured family, decide_equivalence on U*diag(h, 1..)*V."""
        rng = random.Random(7)
        h, out = P("z1 - z3"), []
        for _ in range(12):
            l = rng.choice([2, 3, 4])
            g = (rand_unimodular(rng, l)
                 * PolyMatrix.diagonal([h] + [ONE] * (l - 1))
                 * rand_unimodular(rng, l))
            f = g * rand_matrix(rng, l, l + 1)
            if classify(f, h) == 1:
                out += [(factorize, (f, h), {"reverse_tie_break": rev})
                        for rev in (False, True)]
            out.append((decide_equivalence, (g, h, 1), {}))
        for _ in range(40):
            f = structured(rng, h)
            if classify(f, h) == 1:
                out += [(factorize, (f, h), {"reverse_tie_break": rev})
                        for rev in (False, True)]
        return out

    def test_equals_the_syzygy_generator(self, monkeypatch):
        # the stack completed, paired with the F(z1 -> f) of its decision
        fz = sys.modules["polymat.factorize"]
        fbars, seen = [], []
        substituted, complete = fz._substituted, fz._complete

        def spy_substituted(*args, **kwargs):
            sub = substituted(*args, **kwargs)
            fbars.append(sub.fbar)
            return sub

        def spy_complete(stack, *args):
            seen.append((fbars[-1], stack))
            return complete(stack, *args)

        monkeypatch.setattr(fz, "_substituted", spy_substituted)
        monkeypatch.setattr(fz, "_complete", spy_complete)
        for decide, args, kwargs in self.instances():
            decide(*args, **kwargs)
        assert len(seen) >= 30
        kinds = set()
        for fbar, h_zlp in seen:
            gens = syzygy(rows_of(fbar)).generators
            assert len(gens) == 1
            assert h_zlp == PolyMatrix([list(gens[0])])
            kinds.add(fbar.rows)
        assert kinds == {2, 3, 4}

    def test_no_syzygy_on_the_decision(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("syzygy called for r = 1")
        monkeypatch.setattr(sys.modules["polymat.factorize"], "syzygy", boom)
        variants = set()
        for decide, args, kwargs in self.instances():
            variants.add(decide(*args, **kwargs).variant)
        assert {FACTORED, EQUIVALENT} <= variants


def power_family(rng, h, l, r):
    """U * diag(h, .., h, 1, ..) * V with r copies of h, U and V seeded
    products of elementary operations."""
    return (rand_unimodular(rng, l)
            * PolyMatrix.diagonal([h] * r + [ONE] * (l - r))
            * rand_unimodular(rng, l))


class TestCramerStacks:
    """The annihilator is the first ZLP Cramer stack of the reduced minors
    of F(z1 -> f) on its pivot columns, ZLP read off the degrees of b_I and
    of the row gcds; the first stack, annihilating F(z1 -> f), proves the
    rank taken at a point."""

    @staticmethod
    def instances():
        rng = random.Random(11)
        h = P("z1 - z3")
        out = [M(TestNoZlpSubset.F)]
        for _ in range(30):
            l = rng.choice([3, 4])
            g = power_family(rng, h, l, rng.randrange(1, l))
            out += [g, g * rand_matrix(rng, l, l + 1)]
        return h, out + [structured(rng, h) for _ in range(80)]

    def test_degree_test_is_the_zlp_test(self):
        h, matrices = self.instances()
        seen = {True: 0, False: 0}
        for f in matrices:
            fbar, r, reduced, _ = _substituted(f, h)
            if r == f.rows or not is_unit_ideal(reduced)[0]:
                continue
            for stack, zlp in _cramer_stacks(reduced, f.rows, f.rows - r):
                assert zlp == is_unit_ideal(all_minors(stack, r))[0]
                assert all(p.is_zero for row in (stack * fbar).entries
                           for p in row)
                seen[zlp] += 1
        assert min(seen.values()) >= 20
        # no Cramer stack of the TestNoZlpSubset matrix is ZLP
        sub = _substituted(matrices[0], h)
        assert not any(zlp for _, zlp in _cramer_stacks(sub.reduced, 3,
                                                          3 - sub.r))

    def test_a_later_stack_when_the_first_is_not_zlp(self):
        # the row sets I after the first are tried in order, and the one
        # completed is checked to annihilate F(z1 -> f) on the way
        h, matrices = self.instances()
        later = 0
        for f in matrices:
            _, r, reduced, _ = _substituted(f, h)
            if r == f.rows or not is_unit_ideal(reduced)[0]:
                continue
            flags = [zlp for _, zlp in _cramer_stacks(reduced, f.rows,
                                                      f.rows - r)]
            if flags[0] or not any(flags):
                continue
            out = factorize(f, h)
            assert out.variant == FACTORED and out.r == r
            assert verify_factorization(f, out.g1, out.f1, h, r)
            later += 1
        assert later >= 5

    def test_first_point_drops_the_rank(self, ex1, monkeypatch):
        # a seeded point that is a root of a pivot (r = 1 taken for r = 2)
        # or of every entry (r = 2 taken for r = l) falls back to the exact
        # elimination of F(z1 -> f), and the answer is the one without the
        # root
        mx = sys.modules["polymat.matrix"]
        diagonal = M([["z2", "0", "0", "0"], ["0", "z3", "0", "0"],
                      ["0", "0", "z1 - z3", "0"]])
        h = P("z1 - z3")
        pivots, eliminate = PolyMatrix._modular_pivots, PolyMatrix._eliminate
        for f, root in ((diagonal, (5, 0, 7)), (ex1["F"], (0, 0, 0))):
            expected = factorize(f, h)
            assert expected.variant == FACTORED and expected.r == 1
            points, eliminated = [], []
            with monkeypatch.context() as patch:
                patch.setattr(mx, "seeded_point", lambda nvars: root)
                patch.setattr(PolyMatrix, "_modular_pivots",
                              lambda *args: points.append(pivots(*args))
                              or points[-1])
                patch.setattr(PolyMatrix, "_eliminate",
                              lambda self, *args: eliminated.append(self)
                              or eliminate(self, *args))
                assert factorize(f, h) == expected
            assert len(points) == 1 and len(points[0]) < f.rows - 1
            assert f.substitute(0, z3) in eliminated

    def test_a_root_at_every_point_falls_back_to_elimination(self, ex1,
                                                             monkeypatch):
        expected = factorize(ex1["F"], ex1["h"])
        eliminated = []
        eliminate = PolyMatrix._eliminate
        monkeypatch.setattr(sys.modules["polymat.matrix"],
                            "seeded_point", lambda nvars: (0,) * nvars)
        monkeypatch.setattr(PolyMatrix, "_eliminate",
                            lambda self, *args: eliminated.append(self)
                            or eliminate(self, *args))
        assert factorize(ex1["F"], ex1["h"]) == expected
        assert ex1["F"].substitute(0, z3) in eliminated

    def test_minor_a_multiple_of_the_prime(self):
        # every integer coefficient of a minor the rank needs is a multiple
        # of the prime, so it vanishes at every point and the exact
        # elimination decides; the answers are those of the Bareiss route
        p, h = str(_PRIME), P("z1 - z3")
        f = M([[p, "0"], ["0", "z1 - z3"]])
        out = factorize(f, h)
        assert out.variant == FACTORED and out.r == 1
        assert out.g1 == M([["0", "1"], ["z1 - z3", "0"]])
        assert out.f1 == M([["0", "1"], [p, "0"]])
        assert decide_equivalence(f, h, 1).v == out.f1
        f = M([["1", "1", "0"], ["1", f"1 + {p}", "0"],
               ["0", "0", "z1 - z3"]])
        out = factorize(f, h)
        assert out.variant == FACTORED and out.r == 1
        assert out.f1 == M([["0", "0", "1"], ["1", str(_PRIME + 1), "0"],
                            ["1", "1", "0"]])
        f = PolyMatrix.diagonal([P(p), h, h])
        out = factorize(f, h)
        assert out.variant == FACTORED and out.r == 2
        assert verify_factorization(f, out.g1, out.f1, h, 2)

    # F(z1 -> 0) has the one pivot column (z2, z3^2, 1 + z2*z3): no b_I =
    # z2, z3^2 or 1 + z2*z3 has a factor in common with the other two, so
    # no stack is ZLP, but a pair of the syzygy basis is
    FALLBACK = [["z2", "z1", "0"], ["z3^2", "0", "z1"],
                ["1 + z2*z3", "z1*z3", "0"]]

    def test_syzygy_fallback_when_no_stack_is_zlp(self, monkeypatch):
        f, h = M(self.FALLBACK), z1
        sub = _substituted(f, h)
        assert sub.r == 2 and is_unit_ideal(sub.reduced)[0]
        assert not any(zlp for _, zlp in _cramer_stacks(sub.reduced, 3, 1))
        fz = sys.modules["polymat.factorize"]
        calls = []
        syz = fz.syzygy
        monkeypatch.setattr(fz, "syzygy",
                            lambda rows: calls.append(rows) or syz(rows))
        for reverse in (False, True):
            out = factorize(f, h, reverse_tie_break=reverse)
            assert out.variant == FACTORED and out.r == 2
            assert verify_factorization(f, out.g1, out.f1, h, 2)
        out = decide_equivalence(f, h, 2)
        assert out.variant == EQUIVALENT
        assert verify_equivalence(f, out.u, out.d, out.v)
        assert len(calls) == 3

    def test_syzygy_fallback_runs_only_when_reached(self, monkeypatch):
        # the stream builds no syzygy module until the Cramer stacks are
        # spent, so the rank alone builds none
        fz = sys.modules["polymat.factorize"]
        calls = []
        syz = fz.syzygy
        monkeypatch.setattr(fz, "syzygy",
                            lambda rows: calls.append(rows) or syz(rows))
        f, h = M(self.FALLBACK), z1
        assert _substituted(f, h).r == 2 and classify(f, h) == 2
        assert calls == []
        assert factorize(f, h).variant == FACTORED
        assert len(calls) == 1

    def test_no_syzygy_and_no_elimination_for_r_above_one(self,
                                                          monkeypatch):
        fz = sys.modules["polymat.factorize"]

        def boom(*args, **kwargs):
            raise AssertionError("syzygy called on the decision path")
        monkeypatch.setattr(fz, "syzygy", boom)
        eliminated = []
        eliminate = PolyMatrix._eliminate
        monkeypatch.setattr(PolyMatrix, "_eliminate",
                            lambda self, *args: eliminated.append(self)
                            or eliminate(self, *args))
        rng = random.Random(5)
        h = P("z1 - z3")
        answers = []
        for _ in range(20):
            l = rng.choice([3, 4])
            r = rng.randrange(2, l)
            g = power_family(rng, h, l, r)
            f = g * rand_matrix(rng, l, l + 1)
            for out, m in ((factorize(f, h), f),
                           (decide_equivalence(g, h, r), g)):
                fbar = m.substitute(0, z3)
                assert fbar not in eliminated
                answers.append((out.variant, out.r == r))
        assert answers.count((FACTORED, True)) >= 15
        assert answers.count((EQUIVALENT, True)) == 20


@pytest.mark.parametrize("l", [10, 12])
def test_scale_r2(l):
    # U*diag(h, h, 1..)*V*F1, l x (l + 1) in 4 variables, U and V one
    # elementary operation each: the syzygy module of F(z1 -> f) took more
    # than 40 s
    rng = random.Random(l)
    one = Polynomial.one(4)
    h = Z(0, 4) - rand_poly(rng, 4, max_deg=1, max_terms=2,
                            allowed_vars=range(1, 4), nonzero=True)
    g = (rand_unimodular(rng, l, 4, ops=1)
         * PolyMatrix.diagonal([h, h] + [one] * (l - 2))
         * rand_unimodular(rng, l, 4, ops=1))
    f = g * PolyMatrix([[rand_poly(rng, 4, max_deg=2, max_terms=2)
                         for _ in range(l + 1)] for _ in range(l)])
    with within(10):
        out = factorize(f, h)
        assert out.variant == FACTORED and out.r == 2
        assert verify_factorization(f, out.g1, out.f1, h, 2)


def test_scale_equivalence_r6():
    # U*diag(h, .., h, 1, ..)*V, 12 x 12 with six copies of h, in 4
    # variables, U and V one elementary operation each: Buchberger on
    # (h) + I_6(F) and the 6-minors of F took about 12 s
    rng = random.Random(12)
    one = Polynomial.one(4)
    h = Z(0, 4) - rand_poly(rng, 4, max_deg=1, max_terms=2,
                            allowed_vars=range(1, 4), nonzero=True)
    f = (rand_unimodular(rng, 12, 4, ops=1)
         * PolyMatrix.diagonal([h] * 6 + [one] * 6)
         * rand_unimodular(rng, 12, 4, ops=1))
    with within(5):
        out = decide_equivalence(f, h, 6)
        assert out.variant == EQUIVALENT
        assert verify_equivalence(f, out.u, out.d, out.v)


def test_scale_8x9_r1_problem():
    # U*diag(h, 1..)*V*F1 in 4 variables, U and V three row operations
    # each: the syzygy module of F(z1 -> f) took more than 30 s
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "problems", "scale_8x9_r1.json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    f, h = M(data["matrix"], data["nvars"]), P(data["h"], data["nvars"])
    with within(10):
        out = factorize(f, h)
        assert out.variant == FACTORED and out.r == 1
        assert verify_factorization(f, out.g1, out.f1, h, 1)


class TestMinorIdealBiconditional:
    def test_worked_example(self, ex1):
        # with the maximal minors written as h*e_j and c_j the entries,
        # (h, e.., c..) is the unit ideal iff (h, c..) is
        from polymat.groebner import is_unit_ideal
        from polymat.matrix import all_minors
        from polymat.poly import exact_div
        f, h = ex1["F"], ex1["h"]
        e = [exact_div(a, h) for a in all_minors(f, 2)]
        c = [p for p in all_minors(f, 1) if not p.is_zero]
        big = [h] + [p for p in e if not p.is_zero] + c
        small = [h] + c
        assert is_unit_ideal(big)[0] == is_unit_ideal(small)[0]


class TestFittingCheck:
    def test_worked_2x4(self, ex1):
        ok, details = fitting_sufficient_check(ex1["F"], ex1["h"])
        assert ok
        assert details["second_fitting_zero"] and details["principal"]

    def test_rank_drop_two_fails(self):
        h = P("z1 - z2")
        base = M([["1", "0", "z3"], ["0", "1", "1"], ["z3", "0", "1"]])
        f = PolyMatrix.diagonal([h, h, ONE]) * base
        ok, _ = fitting_sufficient_check(f, h)
        assert not ok

    def test_minimal_diag(self):
        h = P("z1 - z3")
        f = PolyMatrix.diagonal([h, ONE])
        ok, details = fitting_sufficient_check(f, h)
        assert ok
        # the check being true must be backed by an actual factorization
        out = factorize(f, h)
        assert out.factored

    def test_truth_implies_factorization(self, ex1):
        ok, _ = fitting_sufficient_check(ex1["F"], ex1["h"])
        assert ok
        assert factorize(ex1["F"], ex1["h"]).factored


class TestEquivalence:
    def test_worked_3x3(self, eq_ex):
        out = decide_equivalence(eq_ex["F"], eq_ex["h"], 2)
        assert out.equivalent
        assert verify_equivalence(eq_ex["F"], out.u, out.d, out.v)
        # the displayed witness pair is also accepted by the checker
        assert verify_equivalence(eq_ex["F"], eq_ex["U"], eq_ex["D"],
                                  eq_ex["V"])

    def test_diag_identity_case(self):
        h = P("z1 - z3")
        f = PolyMatrix.diagonal([h, ONE])
        out = decide_equivalence(f, h, 1)
        assert out.equivalent
        assert verify_equivalence(f, out.u, out.d, out.v)

    def test_constructed_random(self):
        rng = random.Random(97)
        h = P("z1 - z2")
        successes = 0
        for _ in range(10):
            u0 = rand_unimodular(rng, 3, ops=3, allowed_vars=[1, 2])
            v0 = rand_unimodular(rng, 3, ops=3)
            f = u0 * PolyMatrix.diagonal([h, h, ONE]) * v0
            out = decide_equivalence(f, h, 2)
            assert out.equivalent
            assert verify_equivalence(f, out.u, out.d, out.v)
            successes += 1
        assert successes == 10

    def test_not_equivalent_square_power(self):
        h = P("z1 - z2")
        f = PolyMatrix.diagonal([h ** 2, ONE])
        out = decide_equivalence(f, h, 2)
        assert out.variant == NOT_EQUIVALENT

    def test_full_rank_case(self):
        h = P("z1 - z2")
        w = M([["1", "z3"], ["0", "1"]])
        f = PolyMatrix.diagonal([h, h]) * w
        out = decide_equivalence(f, h, 2)
        assert out.equivalent
        assert verify_equivalence(f, out.u, out.d, out.v)

    def test_determinant_mismatch_rejected(self):
        h = P("z1 - z2")
        with pytest.raises(ValueError):
            decide_equivalence(PolyMatrix.diagonal([h * z3, ONE]), h, 1)

    def test_r_out_of_range(self, eq_ex):
        with pytest.raises(ValueError):
            decide_equivalence(eq_ex["F"], eq_ex["h"], 5)

    def test_no_buchberger_and_no_minors_of_f(self, monkeypatch):
        # det F = c*h^r makes (h) + I_{l-r}(F) the unit ideal, so a
        # positive answer needs neither a Groebner basis nor a minor of F
        fz = sys.modules["polymat.factorize"]

        def boom(*args, **kwargs):
            raise AssertionError("buchberger called by decide_equivalence")
        monkeypatch.setattr(fz, "buchberger", boom)
        expanded = []
        minors = fz.all_minors
        monkeypatch.setattr(fz, "all_minors",
                            lambda m, *args, **kwargs: expanded.append(m)
                            or minors(m, *args, **kwargs))
        rng = random.Random(23)
        h = P("z1 - z3")
        ranks = set()
        for _ in range(20):
            l = rng.choice([2, 3, 4])
            r = rng.randrange(1, l)
            g = power_family(rng, h, l, r)
            out = decide_equivalence(g, h, r)
            assert out.variant == EQUIVALENT and out.certificate == (ONE,)
            assert verify_equivalence(g, out.u, out.d, out.v)
            assert g not in expanded
            ranks.add(r)
        assert ranks == {1, 2, 3}


class TestVerifiers:
    def test_witness_perturbation(self, ex1):
        g1, f1 = ex1["G1"], ex1["F1"]
        assert verify_factorization(ex1["F"], g1, f1, ex1["h"], 1)
        rows = [list(f1.row(i)) for i in range(2)]
        rows[0][0] = rows[0][0] + 1
        broken = PolyMatrix(rows)
        assert not verify_factorization(ex1["F"], g1, broken, ex1["h"], 1)

    def test_equivalence_witness_perturbation(self, eq_ex):
        assert verify_equivalence(eq_ex["F"], eq_ex["U"], eq_ex["D"],
                                  eq_ex["V"])
        rows = [list(eq_ex["U"].row(i)) for i in range(3)]
        rows[1][1] = rows[1][1] + z3
        assert not verify_equivalence(eq_ex["F"], PolyMatrix(rows),
                                      eq_ex["D"], eq_ex["V"])

    def test_determinant_condition(self, ex1):
        # product matches but the determinant power is wrong
        assert not verify_factorization(ex1["F"], ex1["G1"], ex1["F1"],
                                        ex1["h"], 2)
