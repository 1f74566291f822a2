"""Recursive-descent parser for polynomial expressions.

Grammar (tightest binding first): ``^`` with a nonnegative integer literal
exponent, unary minus, ``*``, then ``+``/``-``.  Multiplication is always
explicit; numbers are integers or rational literals ``a/b``.  Variables are
``z1`` .. ``zn``.  The printed form of a Polynomial parses back to the
identical term map.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .poly import Polynomial, _power, _sub_shifted, _times

MAX_EXPONENT = 10 ** 6
# A product or power is refused before it is expanded when the term
# products it would form pass this bound.  Each product of an a-term and a
# b-term polynomial forms a * b of them, and has at most that many terms.
MAX_TERMS = 10 ** 6


class ParseError(ValueError):
    """Syntax or semantic error, carrying position and expectation info."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{suffix}")


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch == "z":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable name needs an index", line,
                                 start_col, ("z<k>",))
            tokens.append(_Token("var", int(text[i + 1:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.one = (0,) * nvars

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {self._describe(tok)}", tok.line,
                             tok.column, (kind,))
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else f"token {tok.value!r}"

    def parse(self) -> Polynomial:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {self._describe(tok)}", tok.line,
                             tok.column, ("+", "-", "*", "end of input"))
        if all(type(c) is int for c in value.values()):
            return Polynomial._from_ints(self.nvars, value)
        return Polynomial(self.nvars, value)

    # The rules below return term dicts with no zero coefficient: an int
    # coefficient, or a Fraction where a literal a/b went in.

    def expr(self) -> dict:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            # value -= c * rhs, c = -1 for a sum
            _sub_shifted(value, -1 if op == "+" else 1, self.one, self.term())
        return value

    def term(self) -> dict:
        value = self.factor()
        while self.peek().kind == "*":
            tok = self.advance()
            rhs = self.factor()
            _bound(len(value) * len(rhs), tok)
            value = _times(value, rhs)
        return value

    def factor(self) -> dict:
        if self.peek().kind == "-":
            self.advance()
            return {mono: -c for mono, c in self.factor().items()}
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("int")
            if tok.value > MAX_EXPONENT:
                raise ParseError("exponent overflow", tok.line, tok.column)
            _bound(_power_products(len(base), tok.value), tok)
            return _power(base, tok.value, {self.one: 1})
        return base

    def atom(self) -> dict:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = tok.value
            if self.peek().kind == "/":
                self.advance()
                denom = self.expect("int")
                if denom.value == 0:
                    raise ParseError("zero denominator", denom.line,
                                     denom.column)
                value = Fraction(tok.value, denom.value)
            return {self.one: value} if value else {}
        if tok.kind == "var":
            self.advance()
            if not 1 <= tok.value <= self.nvars:
                raise ParseError(
                    f"unknown variable z{tok.value} (nvars={self.nvars})",
                    tok.line, tok.column)
            index = tok.value - 1
            return {(0,) * index + (1,) + (0,) * (self.nvars - index - 1): 1}
        if tok.kind == "(":
            self.advance()
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(f"unexpected {self._describe(tok)}", tok.line,
                         tok.column, ("number", "variable", "("))


def _bound(products: int, tok: _Token) -> None:
    if products > MAX_TERMS:
        raise ParseError("expression too large", tok.line, tok.column)


def _power_products(t: int, e: int) -> int:
    """The term products that ``_power`` forms raising a t-term base to the
    e, where its power k has at most comb(k + t - 1, t - 1) terms; the count
    stops once it passes MAX_TERMS.  For e >= 1 it is at least that bound
    for k = e, the most terms the result can have."""
    def size(k: int) -> int:
        return comb(k + t - 1, t - 1) if t else 0

    products, done, step = 0, 0, 1  # result is base^done, squares base^step
    while e and products <= MAX_TERMS:
        if e & 1:
            products += size(done) * size(step)
            done += step
        if e > 1:
            products += size(step) ** 2
            step *= 2
        e >>= 1
    return products


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse an expression string into a canonical Polynomial."""
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    return _Parser(_tokenize(text), nvars).parse()


def format_polynomial(p: Polynomial) -> str:
    """Canonical textual form; round-trips through parse_polynomial."""
    return str(p)
