"""Expression grammar, error reporting, and print/parse round-trips."""

import random
from fractions import Fraction
from math import comb

import pytest

from helpers import rand_poly
from polymat import parsing
from polymat.parsing import ParseError, parse_polynomial
from polymat.poly import Polynomial


def test_worked_expression():
    p = parse_polynomial("z1^2 - z1*z2", 3)
    assert p.terms == {(2, 0, 0): Fraction(1), (1, 1, 0): Fraction(-1)}


def test_zero():
    assert parse_polynomial("0", 3).is_zero
    assert parse_polynomial("z1 - z1", 3).is_zero


def test_rationals_and_unary_minus():
    p = parse_polynomial("-(3/2)*z2^3 + z1", 3)
    assert p.terms == {(0, 3, 0): Fraction(-3, 2), (1, 0, 0): Fraction(1)}
    q = parse_polynomial("-3/2*z2^3 + z1", 3)
    assert p == q


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse_polynomial("-z1^2", 3) == -(Polynomial.variable(3, 0) ** 2)
    assert parse_polynomial("2*z1 + 3*z2*z3^2", 3) == \
        parse_polynomial("z1 + z1 + 3*(z3^2*z2)", 3)
    assert parse_polynomial("(z1 + z2)^2", 3) == \
        parse_polynomial("z1^2 + 2*z1*z2 + z2^2", 3)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("z1 z2", 3)
    with pytest.raises(ParseError):
        parse_polynomial("2 z1", 3)


def test_unknown_variable():
    with pytest.raises(ParseError) as info:
        parse_polynomial("z1 + z9", 3)
    assert "z9" in str(info.value)
    assert info.value.column == 6


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_polynomial("z1 + ", 3)
    assert info.value.line == 1
    assert info.value.column == 6
    with pytest.raises(ParseError) as info:
        parse_polynomial("z1 +\n* z2", 3)
    assert info.value.line == 2
    assert info.value.column == 1


def test_exponent_overflow():
    with pytest.raises(ParseError) as info:
        parse_polynomial("z1^10000000", 3)
    assert "overflow" in str(info.value)


def test_expression_too_large():
    # refused before expansion: comb(10^6 + 2, 2) terms at the least
    with pytest.raises(ParseError) as info:
        parse_polynomial("(z1+z2+z3)^1000000", 3)
    assert "too large" in str(info.value)
    assert (info.value.line, info.value.column) == (1, 12)
    # a product of a 1001-term and a 1000-term sum
    a = " + ".join(f"z1^{k}" for k in range(1001))
    b = " + ".join(f"z2^{k}" for k in range(1000))
    with pytest.raises(ParseError) as info:
        parse_polynomial(f"({a}) * ({b})", 3)
    assert "too large" in str(info.value)
    # one term stays one term
    assert parse_polynomial("z1^1000000", 3).num == {(10 ** 6, 0, 0): 1}
    assert parse_polynomial("(-2*z2)^1000", 3) == \
        Polynomial(3, {(0, 1000, 0): 2 ** 1000})


def test_size_bound_at_the_limit(monkeypatch):
    # (z1+z2+z3)^2 forms 9 products squaring and 6 more times the unit
    monkeypatch.setattr(parsing, "MAX_TERMS", 15)
    assert len(parse_polynomial("(z1+z2+z3)^2", 3).num) == 6
    assert len(parse_polynomial("(z1+z2+z3)*(z1+z2+z3+z1*z2+z3^2)", 3).num) \
        == 12
    monkeypatch.setattr(parsing, "MAX_TERMS", 14)
    for text in ("(z1+z2+z3)^2", "(z1+z2+z3)*(z1+z2+z3+z1*z2+z3^2)"):
        with pytest.raises(ParseError, match="too large"):
            parse_polynomial(text, 3)
    assert len(parse_polynomial("(z1+z2+z3)*(z1+z2+z3+z1*z2)", 3).num) == 9


def test_power_products_bound_the_terms():
    for t in range(1, 5):
        base = " + ".join(f"z{i + 1}" for i in range(t))
        for e in range(1, 8):
            terms = len(parse_polynomial(f"({base})^{e}", 4).num)
            assert terms == comb(e + t - 1, t - 1)
            assert parsing._power_products(t, e) >= terms


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_polynomial("1/0", 3)


def test_bad_tokens():
    for text in ("z1 & z2", "z", "()", "z1^z2", "z1 * * z2"):
        with pytest.raises(ParseError):
            parse_polynomial(text, 3)


def test_round_trip_random():
    rng = random.Random(2024)
    for _ in range(200):
        p = rand_poly(rng, max_deg=4, max_terms=5, coeff_bound=9)
        if rng.random() < 0.3:
            p = p * Fraction(rng.randint(1, 7), rng.randint(2, 9))
        again = parse_polynomial(str(p), 3)
        assert again == p and again.terms == p.terms


def test_round_trip_worked(ex1, ex2, eq_ex):
    for data in (ex1, ex2, eq_ex):
        for row in data["F"].entries:
            for p in row:
                assert parse_polynomial(str(p), 3) == p


def _tree(rng, depth):
    """A random expression tree over z1..z3: leaves are integers, a/b
    literals and variables; inner nodes are unary minus, +, -, *, powers
    and parentheses."""
    if depth <= 0 or rng.random() < 0.25:
        kind = rng.choice(["int", "frac", "var"])
        if kind == "int":
            return ("int", rng.randint(0, 9))
        if kind == "frac":
            return ("frac", rng.randint(0, 9), rng.randint(1, 9))
        return ("var", rng.randint(1, 3))
    kind = rng.choice(["neg", "+", "-", "*", "^", "()"])
    if kind in ("neg", "()"):
        return (kind, _tree(rng, depth - 1))
    if kind == "^":
        return (kind, _tree(rng, depth - 2), rng.randint(0, 3))
    return (kind, _tree(rng, depth - 1), _tree(rng, depth - 1))


def _text(node):
    """The tree printed so that the grammar reads it back as the same
    tree: a sum or difference is wrapped wherever it is an operand of a
    tighter operator or the right operand of + or -, and a power base
    that is not an atom is wrapped."""
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "frac":
        return f"{node[1]}/{node[2]}"
    if kind == "var":
        return f"z{node[1]}"
    if kind == "()":
        return f"({_text(node[1])})"

    def wrap(child, kinds):
        return f"({_text(child)})" if child[0] in kinds else _text(child)

    if kind == "neg":
        return "-" + wrap(node[1], ("+", "-", "*"))
    if kind == "^":
        base = node[1]
        atom = base[0] in ("int", "frac", "var", "()")
        return f"{_text(base) if atom else f'({_text(base)})'}^{node[2]}"
    if kind == "*":
        return f"{wrap(node[1], ('+', '-'))} * {wrap(node[2], ('+', '-'))}"
    return f"{_text(node[1])} {kind} {wrap(node[2], ('+', '-'))}"


def _value(node, nvars=3):
    """The tree evaluated in Polynomial arithmetic."""
    kind = node[0]
    if kind == "int":
        return Polynomial.constant(nvars, node[1])
    if kind == "frac":
        return Polynomial.constant(nvars, Fraction(node[1], node[2]))
    if kind == "var":
        return Polynomial.variable(nvars, node[1] - 1)
    if kind == "()":
        return _value(node[1])
    if kind == "neg":
        return -_value(node[1])
    if kind == "^":
        return _value(node[1]) ** node[2]
    a, b = _value(node[1]), _value(node[2])
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def test_random_trees_parse_to_their_value():
    rng = random.Random(4242)
    kinds = set()
    for _ in range(200):
        node = _tree(rng, 5)
        text = _text(node)
        p = parse_polynomial(text, 3)
        expected = _value(node)
        assert p == expected, text
        assert p.terms == expected.terms, text
        assert all(type(c) is Fraction for c in p.terms.values()), text
        kinds.update(k for k in ("(", "^0", "^2", "^3", "/", "-")
                     if k in text)
    assert kinds == {"(", "^0", "^2", "^3", "/", "-"}


@pytest.mark.parametrize("text, terms", [
    ("0^0", {(0, 0, 0): 1}),
    ("z1^0", {(0, 0, 0): 1}),
    ("0*z1", {}),
    ("-(-z1)", {(1, 0, 0): 1}),
    ("3/2^2", {(0, 0, 0): Fraction(9, 4)}),     # a/b is one atom
    ("2/4 + 1/2 - 1", {}),
    ("4/2*z2", {(0, 1, 0): 2}),
    ("(z1 - z1)^0", {(0, 0, 0): 1}),
    ("-z3^2", {(0, 0, 2): -1}),
])
def test_edge_expressions(text, terms):
    p = parse_polynomial(text, 3)
    assert p.terms == terms
    assert all(type(c) is Fraction for c in p.terms.values())
