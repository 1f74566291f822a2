"""Ring arithmetic, substitution, divisibility, gcd, and monomial orders."""

import random
from fractions import Fraction
from math import gcd as igcd

import pytest

from helpers import P, Z, eq_up_to_unit, rand_poly, rand_qpoly
from polymat import poly
from polymat.groebner import normal_form
from polymat.matrix import PolyMatrix, all_minors
from polymat.poly import (DEGREVLEX, DimensionError, MonomialOrder,
                          Polynomial, SubstitutionError, _heuristic_gcd,
                          _syzygy_gcd, divides, exact_div, gcd, gcd_many,
                          mono_mul, normalized)
from polymat.modules import syzygy

z1, z2, z3 = Z(0), Z(1), Z(2)
ZERO = Polynomial.zero(3)
ONE = Polynomial.one(3)


class TestArithmetic:
    def test_distributivity_example(self):
        assert (z1 - z3) * z2 == z1 * z2 - z2 * z3

    def test_additive_identity(self):
        p = P("z1^2 - z1*z2")
        assert p + ZERO == p

    def test_difference_of_squares(self):
        assert (z1 + z2) * (z1 - z2) == z1 ** 2 - z2 ** 2

    def test_mixed_nvars_rejected(self):
        with pytest.raises(DimensionError):
            z1 + Polynomial.variable(2, 0)

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for _ in range(100):
            a = rand_poly(rng)
            b = rand_poly(rng)
            c = rand_poly(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_scalar_and_pow(self):
        p = P("z1 + 1/2")
        assert 2 * p == P("2*z1 + 1")
        assert p ** 2 == P("z1^2 + z1 + 1/4")
        assert p ** 0 == ONE

    def test_constants(self):
        assert Polynomial.constant(3, Fraction(5, 7)).terms == \
            {(0, 0, 0): Fraction(5, 7)}
        assert type(Polynomial.one(2).terms[(0, 0)]) is Fraction
        assert Polynomial.constant(3, 0) == ZERO and ZERO.terms == {}
        for make in (lambda: Polynomial.constant(0, 1),
                     lambda: Polynomial.one(0), lambda: Polynomial.zero(0),
                     lambda: Polynomial.constant(-1, 2)):
            with pytest.raises(ValueError):
                make()


class TestSubstitution:
    def test_kills_multiples(self):
        p = z1 * z2 - z2 * z3
        assert p.substitute(0, z3).is_zero

    def test_worked_entry(self):
        p = -z1 * z2 + z3 ** 2
        assert p.substitute(0, z3) == -z2 * z3 + z3 ** 2

    def test_rejects_self_reference(self):
        with pytest.raises(SubstitutionError):
            z1.substitute(0, z1 + z2)

    def test_homomorphism_random(self):
        rng = random.Random(202)
        for _ in range(60):
            p = rand_poly(rng)
            q = rand_poly(rng)
            f = rand_poly(rng, allowed_vars=[1, 2])
            assert (p * q).substitute(0, f) == \
                p.substitute(0, f) * q.substitute(0, f)
            assert (p + q).substitute(0, f) == \
                p.substitute(0, f) + q.substitute(0, f)

    def test_constants_fixed(self):
        c = Polynomial.constant(3, Fraction(5, 7))
        assert c.substitute(0, z3) == c


class TestDivides:
    def test_worked_divisor(self):
        ok, q = divides(z1 - z3, z2 * (z1 - z3))
        assert ok and q == z2

    def test_coprime(self):
        ok, q = divides(z2, z1 - z3)
        assert not ok and q is None

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divides(ZERO, z1)

    def test_divides_iff_substitution_vanishes(self):
        # h | p exactly when p(f, z2, z3) = 0, both directions
        rng = random.Random(303)
        for _ in range(120):
            f = rand_poly(rng, allowed_vars=[1, 2])
            h = z1 - f
            p = rand_poly(rng, max_deg=3)
            if rng.random() < 0.5:
                p = p * h  # force a multiple half of the time
            flag, _ = divides(h, p)
            assert flag == p.substitute(0, f).is_zero

    def test_exact_div_raises(self):
        with pytest.raises(ArithmeticError):
            exact_div(z1, z2)


class TestGcd:
    def test_absorbing_zero(self):
        p = P("-2*z1 + 2*z3")
        assert gcd(p, ZERO) == normalized(p) == z1 - z3
        assert gcd(ZERO, ZERO).is_zero

    def test_constants_are_units(self):
        assert gcd(P("2"), P("4*z1")) == ONE

    def test_constructed_common_factor(self):
        rng = random.Random(404)
        hits = 0
        while hits < 60:
            a = rand_poly(rng, nonzero=True)
            b = rand_poly(rng, nonzero=True)
            g = rand_poly(rng, nonzero=True)
            if not gcd(a, b).is_constant:
                continue  # need coprime cofactors for an exact answer
            hits += 1
            got = gcd(a * g, b * g)
            assert eq_up_to_unit(got, g) or (g.is_constant and got == ONE)
            # the gcd divides both inputs, and g divides the gcd
            assert divides(got, a * g)[0]
            assert divides(got, b * g)[0]
            assert divides(normalized(g), got)[0] or g.is_constant

    def test_gcd_many(self):
        assert gcd_many([P("2*z2^2"), P("4*z2*z3"), P("6*z2")]) == z2

    def test_gcd_many_edge_sequences(self):
        with pytest.raises(ValueError):
            gcd_many([])
        assert gcd_many([ZERO, ZERO]).is_zero
        assert gcd_many([ZERO, ZERO, P("-2*z1*z2"), P("4*z2^2")]) == z2

    @staticmethod
    def spied(monkeypatch):
        """Record the calls of both gcd routes, each still answering."""
        calls = []
        for name in ("_heuristic_gcd", "_syzygy_gcd"):
            route = getattr(poly, name)
            monkeypatch.setattr(poly, name, lambda a, b, route=route, name=name:
                                calls.append(name) or route(a, b))
        return calls

    def test_gcd_many_keeps_a_running_gcd_that_divides(self, monkeypatch):
        # one exact division settles each element that the running gcd
        # divides: neither gcd route runs
        rng = random.Random(2601)
        calls = self.spied(monkeypatch)
        for _ in range(20):
            g = rand_qpoly(rng, max_deg=2, nonzero=True)
            if g.is_constant:
                g = g + z1
            seq = [g] + [g * rand_qpoly(rng, max_deg=2) for _ in range(6)]
            assert gcd_many(seq) == normalized(g)
        assert calls == []
        # an element that the running gcd does not divide still reaches
        # GCDHEU
        h = z1 - z3
        assert gcd_many([h * z2, h * (z2 + 1), h * z2 ** 2]) == h
        assert calls == ["_heuristic_gcd"]


class TestSingleTermDivision:
    """_int_div by a one-term divisor is one pass over the dividend."""

    def test_quotient_and_refusals(self):
        rng = random.Random(2602)
        for _ in range(60):
            q = rand_poly(rng, max_deg=3, max_terms=5, nonzero=True).num
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            coeff = rng.choice([1, -1, 2, -3, 6])
            p = {mono_mul(m, mono): c * coeff for m, c in q.items()}
            kept = dict(p)
            assert poly._int_div(p, {mono: coeff}) == q
            assert p == kept
            # a term whose exponent the divisor's does not divide
            if any(mono):
                lower = tuple(max(e - 1, 0) for e in mono)
                inexact = {**p, lower: 1}
                assert poly._int_div(inexact, {mono: coeff}) is None
                assert p == kept
            # a coefficient the divisor's does not divide
            if abs(coeff) > 1:
                inexact = {**p, mono_mul(mono, (3, 3, 3)): coeff + 1}
                assert poly._int_div(inexact, {mono: coeff}) is None


class TestMonomialOrder:
    def test_degrevlex_golden(self):
        # textbook: with z1 > z2 > z3, z1*z3 > z2^2 in deglex but the
        # reverse holds in degrevlex
        key = DEGREVLEX.key
        assert key((1, 0, 1)) < key((0, 2, 0))
        assert MonomialOrder("deglex").key((1, 0, 1)) > \
            MonomialOrder("deglex").key((0, 2, 0))
        assert MonomialOrder("lex").key((1, 0, 0)) > \
            MonomialOrder("lex").key((0, 5, 5))

    def test_multiplicative_and_well_ordered(self):
        rng = random.Random(505)
        orders = [DEGREVLEX, MonomialOrder("lex"), MonomialOrder("deglex"),
                  MonomialOrder("degrevlex", (2, 0, 1))]
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            for order in orders:
                if order.key(a) < order.key(b):
                    assert order.key(mono_mul(a, c)) < order.key(mono_mul(b, c))
                assert order.key((0, 0, 0)) <= order.key(a)

    def test_permutation_validation(self):
        with pytest.raises(ValueError):
            MonomialOrder("lex", (0, 0, 1))


def _sympy_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """sympy's gcd of a and b, read back and normalized."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(f"x1:{a.nvars + 1}")

    def to_sympy(p):
        return sympy.Poly({mono: sympy.Rational(c.numerator, c.denominator)
                           for mono, c in p.terms.items()}, *syms)

    g = sympy.gcd(to_sympy(a), to_sympy(b))
    return normalized(Polynomial(a.nvars, {
        mono: Fraction(int(c.p), int(c.q)) for mono, c in g.terms()}))


class TestNormalization:
    def test_primitive_positive(self):
        p = P("-1/2*z1 + 1/2*z3")
        assert normalized(p) == z1 - z3

    def test_sympy_cross_check_gcd(self):
        # independent oracle for the gcd routine
        rng = random.Random(606)
        for _ in range(25):
            a = rand_poly(rng, max_deg=2, max_terms=3, nonzero=True)
            b = rand_poly(rng, max_deg=2, max_terms=3, nonzero=True)
            g = rand_poly(rng, max_deg=1, max_terms=2, nonzero=True)
            assert gcd(a * g, b * g) == _sympy_gcd(a * g, b * g), (a, b, g)


def _sized_poly(rng: random.Random, nvars: int, degree: int,
                terms: int) -> Polynomial:
    """``terms`` distinct monomials of total degree at most ``degree``, the
    first of exactly that degree, with nonzero coefficients in -5..5."""
    out = {}
    while len(out) < terms:
        mono = [0] * nvars
        for _ in range(degree if not out else rng.randint(0, degree)):
            mono[rng.randrange(nvars)] += 1
        out[tuple(mono)] = Fraction(rng.choice([c for c in range(-5, 6) if c]))
    return Polynomial(nvars, out)


class TestGcdAtScale:
    """Seeded pairs well beyond the 3-variable cross-check above, checked
    against sympy up to a constant."""

    @staticmethod
    def pairs():
        rng = random.Random(707)
        made = []
        while len(made) < 4:  # planted common factor, then coprime
            if len(made) < 2:
                g = _sized_poly(rng, 4, rng.randint(1, 2), 3)
                a, b = (_sized_poly(rng, 4, rng.randint(4, 6) - g.total_degree(),
                                    rng.randint(6, 8)) * g for _ in range(2))
            else:
                a, b = (_sized_poly(rng, 4, rng.randint(5, 6),
                                    rng.randint(15, 25)) for _ in range(2))
            if all(5 <= p.total_degree() <= 6 and 15 <= len(p.terms) <= 25
                   for p in (a, b)):
                made.append((a, b))
        for _ in range(3):  # univariate, degree 25 to 40
            g = _sized_poly(rng, 1, rng.randint(2, 8), 3)
            a, b = (_sized_poly(rng, 1, rng.randint(25, 40) - g.total_degree(),
                                15) * g for _ in range(2))
            made.append((a, b))
        return made

    def test_sympy_cross_check(self):
        for a, b in self.pairs():
            assert gcd(a, b) == _sympy_gcd(a, b), (a, b)

    def test_syzygy_of_a_pair_has_one_generator(self):
        # the gcd reads q / a off the single generator (a, b)
        for a, b in self.pairs():
            assert len(syzygy([(a,), (b,)]).generators) == 1


class TestHeuristicGcd:
    """The evaluation gcd against the syzygy gcd and sympy: after
    normalization every route must give the same polynomial."""

    @staticmethod
    def pairs():
        rng = random.Random(808)
        made = list(TestGcdAtScale.pairs())
        for _ in range(30):  # Fraction coefficients, planted factor
            g = rand_qpoly(rng, max_deg=2, max_terms=3, nonzero=True)
            made.append(tuple(rand_qpoly(rng, max_deg=3, max_terms=4,
                                         nonzero=True) * g
                              for _ in range(2)))
        made += [
            # integer content 2 in the gcd
            (P("6*z1*z3 - 6*z2*z3 + 6*z1 - 6*z2"),
             P("10*z1*z2 - 10*z2^2 + 20*z1 - 20*z2")),
            # negative leading coefficients
            (P("-z1*z2 + z2*z3 - z1 + z3"),
             P("-z1^2 - z1*z2 + z1*z3 + z2*z3")),
            # z3 only in the first, z2 in neither
            (P("z1*z3 + z3"), P("z1^2 - z1 - 2")),
        ]
        return [(a, b) for a, b in made
                if not (a.is_constant or b.is_constant)]

    @staticmethod
    def heuristic(a, b):
        h = _heuristic_gcd(a, b)  # an integer term dict
        return None if h is None else Polynomial._from_ints(a.nvars, h)

    def test_routes_agree(self):
        for a, b in self.pairs():
            heuristic = self.heuristic(a, b)
            assert heuristic is not None, (a, b)
            expected = normalized(_syzygy_gcd(a, b))
            assert normalized(heuristic) == expected == gcd(a, b), (a, b)
            assert _sympy_gcd(a, b) == expected, (a, b)

    def test_edge_cases(self):
        content, negative, one_sided = self.pairs()[-3:]
        g = self.heuristic(*content)
        assert normalized(g) == z1 - z2
        assert abs(g.terms[(1, 0, 0)]) == 2  # the gcd of the contents
        assert gcd(*negative) == z1 - z3
        assert gcd(*one_sided) == z1 + 1

    def test_fallback_when_the_point_grows_too_large(self, monkeypatch):
        pairs = self.pairs()
        expected = [gcd(a, b) for a, b in pairs]
        monkeypatch.setattr(poly, "_HEU_MAX_BITS", 1)
        fallbacks = []

        def counted(a, b):
            fallbacks.append((a, b))
            return _syzygy_gcd(a, b)

        monkeypatch.setattr(poly, "_syzygy_gcd", counted)
        for (a, b), want in zip(pairs, expected):
            assert _heuristic_gcd(a, b) is None
            assert gcd(a, b) == want, (a, b)
        assert len(fallbacks) == len(pairs)

    def test_evaluation_keeps_only_the_powers_it_uses(self):
        # z1^20000 evaluated at a small point is 66,000 bits; keeping every
        # power below it held about 80 MB at once
        import tracemalloc
        a = Polynomial(2, {(20000, 0): 1, (0, 1): 1})
        b = Polynomial.variable(2, 1)
        tracemalloc.start()
        try:
            g = gcd(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g == Polynomial.one(2)
        assert peak < 1 << 20

    def test_gives_up_before_evaluating_a_pair_too_large(self, monkeypatch):
        # degree 14 in 10 variables, 120 and 111 terms, with a planted
        # factor: its innermost point would pass _HEU_MAX_BITS, which the
        # heuristic used to find out only after 16 evaluations
        rng = random.Random(120)
        g = _sized_poly(rng, 10, rng.randint(2, 4), 3)
        a, b = (_sized_poly(rng, 10, 14 - g.total_degree(),
                            rng.randint(30, 45)) * g for _ in range(2))
        assert (a.total_degree(), len(a.terms), len(b.terms)) == (14, 120, 111)
        evaluations = []

        def counted(f, var, xi):
            evaluations.append(xi)
            return evaluate(f, var, xi)

        evaluate = poly._evaluate
        monkeypatch.setattr(poly, "_evaluate", counted)
        assert _heuristic_gcd(a, b) is None
        assert gcd(a, b) == normalized(g)
        assert evaluations == []


def _reference_divides(d: Polynomial, p: Polynomial):
    """Long division under degrevlex in Fraction arithmetic."""
    lm_d, lc_d = d.leading_term()
    quotient, r = {}, dict(p.terms)
    while r:
        lm = max(r, key=DEGREVLEX.key)
        if any(a > b for a, b in zip(lm_d, lm)):
            return False, None
        shift = tuple(b - a for a, b in zip(lm_d, lm))
        c = quotient[shift] = r[lm] / lc_d
        for mono, cd in d.terms.items():
            mono = mono_mul(mono, shift)
            r[mono] = r.get(mono, 0) - c * cd
            if not r[mono]:
                del r[mono]
    return True, Polynomial(p.nvars, quotient)


def _reference_substitute(p: Polynomial, index: int, value: Polynomial):
    """Term by term: c * z^rest * value^e, in Fraction arithmetic."""
    out = Polynomial.zero(p.nvars)
    for mono, c in p.terms.items():
        rest = mono[:index] + (0,) + mono[index + 1:]
        out = out + value ** mono[index] * Polynomial(p.nvars, {rest: c})
    return out


def _reference_normalized(p: Polynomial, order: MonomialOrder):
    """p times lcm(denominators) / gcd(scaled numerators), signed."""
    from math import gcd as igcd, lcm as ilcm
    d = ilcm(*(c.denominator for c in p.terms.values()))
    n = igcd(*(int(c * d) for c in p.terms.values()))
    factor = Fraction(d, n)
    return p * (-factor if p.leading_coefficient(order) < 0 else factor)


def _fractions_only(*polys: Polynomial) -> bool:
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


class TestIntegerBoundaries:
    """divides, substitute and normalized run on integer term dicts between
    ``_ints`` and ``_from_ints``: on rational inputs whose terms have
    different denominators they must agree with Fraction arithmetic and
    hand out Fraction coefficients only."""

    def test_divides_against_fraction_long_division(self):
        rng = random.Random(1801)
        contents = [Fraction(6, 5), Fraction(-4, 9), Fraction(7), 1]
        for i in range(60):
            d = rand_qpoly(rng, max_deg=2, max_terms=3, nonzero=True)
            if d.is_constant:
                d = d + z2
            d = d * contents[i % 4]  # content 6, 4 or 7 once cleared
            q = rand_qpoly(rng, max_deg=2, max_terms=4, nonzero=True)
            exact = d * q
            inexact = exact + rand_qpoly(rng, max_deg=1, nonzero=True)
            for p in (exact, inexact):
                got, want = divides(d, p), _reference_divides(d, p)
                assert got == want, (d, p)
                if got[0]:
                    assert _fractions_only(got[1])
                    assert exact_div(p, d) == got[1]
            assert divides(d, exact) == (True, q)
            if not divides(d, inexact)[0]:
                with pytest.raises(ArithmeticError):
                    exact_div(inexact, d)

    def test_divides_edge_divisors(self):
        rng = random.Random(1802)
        p = rand_qpoly(rng, max_deg=3, max_terms=5, nonzero=True)
        # content 6, and a negative leading coefficient
        for d in (P("6*z1 - 12*z3 + 18/5"), P("-3/4*z1^2 + z2 - 1/2")):
            ok, q = divides(d, p * d)
            assert ok and q == p and _fractions_only(q)
            assert divides(d, p * d + 1) == (False, None)
        for c in (Fraction(-3, 7), Fraction(5), Fraction(1, 4)):
            ok, q = divides(Polynomial.constant(3, c), p)
            assert ok and q == p * (1 / c) and _fractions_only(q)
        assert divides(P("2*z1 - 1/3"), ZERO) == (True, ZERO)
        assert exact_div(ZERO, P("z2")) == ZERO
        # the quotient does not depend on the order
        d = P("z1 - z2^2 + 1/2*z3")
        for kind in MonomialOrder.KINDS:
            assert divides(d, p * d, MonomialOrder(kind)) == (True, p)

    def test_substitute_rational_value(self):
        rng = random.Random(1803)
        for _ in range(60):
            p = rand_qpoly(rng, max_deg=3, max_terms=5)
            index = rng.randrange(3)
            others = [v for v in range(3) if v != index]
            value = rand_qpoly(rng, max_deg=2, max_terms=3,
                               allowed_vars=others)
            got = p.substitute(index, value)
            assert got == _reference_substitute(p, index, value), (p, value)
            assert _fractions_only(got)

    def test_normalized_under_every_order(self):
        rng = random.Random(1804)
        orders = [MonomialOrder(kind) for kind in MonomialOrder.KINDS]
        orders.append(MonomialOrder("lex", (2, 0, 1)))
        for _ in range(60):
            p = rand_qpoly(rng, max_deg=3, max_terms=5, nonzero=True)
            for order in orders:
                got = normalized(p, order)
                assert got == _reference_normalized(p, order), (p, order)
                assert _fractions_only(got)
                assert all(c.denominator == 1 for c in got.terms.values())
                assert got.leading_coefficient(order) > 0
        assert normalized(ZERO) == ZERO

    def test_sympy_cross_check_substitution(self):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x1:4")

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*(s ** e for s, e in zip(syms, mono)))
                        for mono, c in p.terms.items()), sympy.Integer(0))

        rng = random.Random(1805)
        for _ in range(15):
            p = rand_qpoly(rng, max_deg=3, max_terms=4)
            value = rand_qpoly(rng, max_deg=2, allowed_vars=[1, 2])
            theirs = to_sympy(p).subs(syms[0], to_sympy(value))
            assert sympy.expand(to_sympy(p.substitute(0, value))
                                - theirs) == 0


def _assert_canonical(p: Polynomial) -> None:
    """Integer numerators, none zero, over a positive denominator that
    shares no factor with them; zero is {} over 1."""
    assert type(p.num) is dict and type(p.den) is int and p.den >= 1
    assert all(type(m) is tuple and len(m) == p.nvars
               and all(type(e) is int and e >= 0 for e in m) for m in p.num)
    assert all(type(c) is int and c for c in p.num.values())
    assert igcd(p.den, *p.num.values()) == 1
    assert p.num or p.den == 1


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_pow(a: dict, e: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a: dict, index: int, value: dict, nvars: int) -> dict:
    out: dict = {}
    for mono, c in a.items():
        rest = mono[:index] + (0,) + mono[index + 1:]
        out = _ref_add(out, _ref_mul({rest: c},
                                     _ref_pow(value, mono[index], nvars)))
    return out


def _checked(p: Polynomial, reference: dict) -> Polynomial:
    """p is canonical, its terms equal the Fraction reference, and each of
    them is a Fraction."""
    _assert_canonical(p)
    terms = p.terms
    assert terms == reference, (p, reference)
    assert all(type(c) is Fraction for c in terms.values())
    assert hash(p) == hash((p.nvars, frozenset(terms.items())))
    return p


class TestRepresentation:
    """A Polynomial is integer numerators over one denominator in lowest
    terms; every constructor and operation returns that form, and
    ``terms`` is the Fraction map a Fraction implementation would hold."""

    def test_constructors(self):
        rng = random.Random(2001)
        for value in (0, 1, -6, Fraction(4, 6), Fraction(-9, 3), True):
            _checked(Polynomial.constant(3, value),
                     {(0, 0, 0): Fraction(value)} if value else {})
        _checked(Polynomial.zero(2), {})
        _checked(Polynomial.one(2), {(0, 0): Fraction(1)})
        _checked(Polynomial.variable(3, 1), {(0, 1, 0): Fraction(1)})
        # repeated monomials add up, and cancel to nothing
        _checked(Polynomial(2, [((1, 0), Fraction(1, 2)), ((1, 0), 1),
                                ((0, 0), Fraction(2, 3)),
                                ((0, 0), Fraction(-2, 3))]),
                 {(1, 0): Fraction(3, 2)})
        _checked(Polynomial(2, {(1, 1): "3/6", (0, 2): 0.25}),
                 {(1, 1): Fraction(1, 2), (0, 2): Fraction(1, 4)})
        for _ in range(100):
            terms = rand_qpoly(rng, max_deg=3, max_terms=5).terms
            _checked(Polynomial(3, terms), terms)
            _checked(Polynomial(3, list(terms.items())), terms)

    def test_operations(self):
        rng = random.Random(2002)
        for _ in range(100):
            a, b = rand_qpoly(rng), rand_qpoly(rng)
            ta, tb = a.terms, b.terms
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            k = rng.randint(-3, 3)
            _checked(a + b, _ref_add(ta, tb))
            _checked(a - b, _ref_add(ta, tb, -1))
            _checked(a - a, {})
            _checked(-a, _ref_add({}, ta, -1))
            _checked(a * b, _ref_mul(ta, tb))
            e = rng.randint(0, 3)
            _checked(a ** e, _ref_pow(ta, e, 3))
            for scalar in (c, k):
                s = {(0, 0, 0): Fraction(scalar)} if scalar else {}
                _checked(a + scalar, _ref_add(ta, s))
                _checked(scalar + a, _ref_add(ta, s))
                _checked(a - scalar, _ref_add(ta, s, -1))
                _checked(scalar - a, _ref_add(s, ta, -1))
                _checked(a * scalar, _ref_mul(ta, s))
                _checked(scalar * a, _ref_mul(ta, s))
            mono = (rng.randint(0, 2), 0, rng.randint(0, 1))
            _checked(a.mul_term(c, mono), _ref_mul(ta, {mono: c} if c else {}))
            index = rng.randrange(3)
            coeffs = a.coefficients_in(index)
            for e, q in enumerate(coeffs):
                _checked(q, {m[:index] + (0,) + m[index + 1:]: v
                             for m, v in ta.items() if m[index] == e})
            _checked(a.permute_variables((2, 0, 1)),
                     {(m[2], m[0], m[1]): v for m, v in ta.items()})
            others = [v for v in range(3) if v != index]
            value = rand_qpoly(rng, max_deg=2, allowed_vars=others)
            _checked(a.substitute(index, value),
                     _ref_substitute(ta, index, value.terms, 3))

    def test_scalar_product_is_mul_term(self):
        # a product by an int or Fraction rescales num over den, with the
        # same canonical form as the term product by the unit monomial
        rng = random.Random(2004)
        unit = (0, 0, 0)
        for _ in range(100):
            p = rand_qpoly(rng, max_terms=4)
            for c in (0, Fraction(0), -1, rng.randint(-9, -2), 7,
                      Fraction(-3, 7), Fraction(5, 2),
                      Fraction(rng.randint(-9, 9), rng.randint(2, 9))):
                expected = p.mul_term(c, unit)
                for product in (p * c, c * p):
                    _assert_canonical(product)
                    assert product == expected
                    assert (product.num, product.den) == (expected.num,
                                                          expected.den)

    def test_kernel_results(self):
        # every exit through _from_ints: quotients, normal forms, gcds,
        # matrix products, determinants, minors and parsed text
        rng = random.Random(2003)
        for _ in range(40):
            d = rand_qpoly(rng, max_deg=2, nonzero=True)
            q = rand_qpoly(rng, max_deg=2, nonzero=True)
            _checked(exact_div(d * q, d), q.terms)
            n = normalized(d)
            _assert_canonical(n)
            assert n.den == 1
            g = gcd(d * q, d * (q + z1))
            _assert_canonical(g)
            assert g.den == 1 and divides(g, d * q)[0]
            a = PolyMatrix([[rand_qpoly(rng, max_deg=1) for _ in range(2)]
                            for _ in range(2)])
            b = PolyMatrix([[rand_qpoly(rng, max_deg=1) for _ in range(2)]
                            for _ in range(2)])
            ab = a * b
            for i in range(2):
                for j in range(2):
                    _checked(ab[i, j], _ref_add(
                        _ref_mul(a[i, 0].terms, b[0, j].terms),
                        _ref_mul(a[i, 1].terms, b[1, j].terms)))
            det = _ref_add(_ref_mul(a[0, 0].terms, a[1, 1].terms),
                           _ref_mul(a[0, 1].terms, a[1, 0].terms), -1)
            _checked(a.determinant(), det)
            _checked(all_minors(a, 2)[0], det)
            for p in all_minors(a, 1):
                _assert_canonical(p)
            nf = normal_form(a[0, 0], [d])
            _assert_canonical(nf)
            _checked(P(str(a[0, 0])), a[0, 0].terms)

    def test_equality_and_hash(self):
        rng = random.Random(2004)
        pool = []
        for _ in range(40):
            a, b = rand_qpoly(rng, max_terms=2), rand_qpoly(rng, max_terms=2)
            # equal values reached by different routes
            pool += [a, b, a * b, b * a, (a + b) - b, a * 2 * Fraction(1, 2),
                     Polynomial(3, a.terms)]
        for p in pool:
            for q in pool:
                assert (p == q) == (p.terms == q.terms)
                if p == q:
                    assert hash(p) == hash(q)
        assert Polynomial.constant(3, Fraction(1, 2)) == Fraction(2, 4)
        assert Polynomial.constant(3, 3) == 3 and ZERO == 0
        assert Polynomial.one(2) != Polynomial.one(3)

    def test_boundaries_share_integer_forms(self):
        # _ints hands out a polynomial's own numerators where its
        # denominator is already the common one; _from_ints keeps its dict
        a, b, c = P("z1 + 2*z2"), P("1/6*z1 - z3"), P("1/4*z2")
        (fa,), d = poly._ints([a])
        assert fa is a.num and d == 1
        (fb, fc), d = poly._ints([b, c])
        assert d == 12 and fb == {(1, 0, 0): 2, (0, 0, 1): -12}
        assert fc == {(0, 1, 0): 3}
        (fb, fb2), d = poly._ints([b, b])
        assert fb is b.num and fb2 is b.num and d == 6
        terms = {(0, 1, 0): 4, (1, 0, 0): -6}
        assert Polynomial._from_ints(3, terms).num is terms
        half = Polynomial._from_ints(3, terms, -8)
        assert half.num == {(0, 1, 0): -2, (1, 0, 0): 3} and half.den == 4

    def test_terms_is_a_copy(self):
        p = P("1/2*z1 + 3")
        p.terms[(1, 0, 0)] = Fraction(7)
        assert p == P("1/2*z1 + 3") and p.terms[(1, 0, 0)] == Fraction(1, 2)

    def test_sympy_cross_check_arithmetic(self):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x1:4")

        def to_sympy(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*(s ** e for s, e in zip(syms, mono)))
                        for mono, c in p.terms.items()), sympy.Integer(0))

        rng = random.Random(2005)
        for _ in range(15):
            a, b = rand_qpoly(rng), rand_qpoly(rng)
            value = rand_qpoly(rng, max_deg=2, allowed_vars=[0, 2])
            e = rng.randint(0, 3)
            sa, sb = to_sympy(a), to_sympy(b)
            for ours, theirs in ((a + b, sa + sb), (a * b, sa * sb),
                                 (a ** e, sa ** e),
                                 (a.substitute(1, value),
                                  sa.subs(syms[1], to_sympy(value)))):
                assert sympy.expand(to_sympy(ours) - theirs) == 0
