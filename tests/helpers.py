"""Shared builders for the test suite: parsed fixtures for the worked
examples and seeded random generators for property tests."""

from __future__ import annotations

import contextlib
import random
import signal
from fractions import Fraction

from polymat.matrix import PolyMatrix
from polymat.parsing import parse_polynomial
from polymat.poly import Polynomial, normalized

N = 3


def P(text: str, nvars: int = N) -> Polynomial:
    return parse_polynomial(text, nvars)


def M(grid, nvars: int = N) -> PolyMatrix:
    return PolyMatrix([[P(cell, nvars) for cell in row] for row in grid])


def Z(index: int, nvars: int = N) -> Polynomial:
    return Polynomial.variable(nvars, index)


def eq_up_to_unit(p: Polynomial, q: Polynomial) -> bool:
    return normalized(p) == normalized(q)


# -- the three worked examples -------------------------------------------

def example_2x4() -> dict:
    """2x4 matrix that splits off h = z1 - z3 exactly once."""
    f = M([
        ["-2*z1*z2^2 + z1^2*z3 + z2^2*z3 - z1*z3^2 + z2*z3^2",
         "z1^3 - z2^3 - z1^2*z3 + z2*z3^2",
         "z1*z2 - z2*z3",
         "z2^2"],
        ["-z1*z2 + z3^2", "-z2^2 + z1*z3", "0", "z2"],
    ])
    g1 = M([["z1 - z3", "z2"], ["0", "1"]])
    f1 = M([
        ["z1*z3 - z2^2", "z1^2 - z2*z3", "z2", "0"],
        ["-z1*z2 + z3^2", "-z2^2 + z1*z3", "0", "z2"],
    ])
    return {"F": f, "h": P("z1 - z3"), "G1": g1, "F1": f1}


def example_3x3() -> dict:
    """3x3 matrix with a double factor z1 - z2 and then a z1 factor."""
    f = M([
        ["z1^2 - z1*z2", "z2*z3 + z3^2 + z2 + z3", "-z2*z3 - z2"],
        ["z1*z2 - z2^2", "-z1*z3 + z2*z3", "z1^3 - z1^2*z2 + z1*z2 - z2^2"],
        ["0", "z2 + z3", "-z2"],
    ])
    g1 = M([["z1 - z2", "0", "z3 + 1"],
            ["0", "z1 - z2", "0"],
            ["0", "0", "1"]])
    f1 = M([["z1", "0", "0"],
            ["z2", "-z3", "z1^2 + z2"],
            ["0", "z2 + z3", "-z2"]])
    g2 = M([["z1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    f2 = M([["1", "0", "0"],
            ["z2", "-z3", "z1^2 + z2"],
            ["0", "z2 + z3", "-z2"]])
    return {"F": f, "h": P("z1 - z2"), "G1": g1, "F1": f1,
            "G2": g2, "F2": f2}


def example_equivalence() -> dict:
    """3x3 matrix equivalent to diag(h, h, 1) for h = z1 - z2."""
    f = M([
        ["z1*z2 - z2^2 + z2*z3 + z2 - z3 - 1",
         "z1*z2*z3 - z2^2*z3 + z1*z2 - z2^2 + z2*z3 - z3",
         "z1*z2*z3 - z2^2*z3"],
        ["z1*z2 - z2^2 + z1 - z2 + z3 + 1",
         "z1*z2*z3 - z2^2*z3 + 2*z1*z2 - 2*z2^2 + z1*z3 - z2*z3 + z1 - z2 + z3",
         "z1*z2*z3 - z2^2*z3 + z1*z2 - z2^2 + z1*z3 - z2*z3"],
        ["z1 - z2", "z1*z3 - z2*z3 + 2*z1 - 2*z2", "z1*z3 - z2*z3 + z1 - z2"],
    ])
    u = M([["0", "z2", "z2 - 1"], ["z2", "z2 + 1", "1"], ["1", "1", "0"]])
    v = M([["0", "1", "1"], ["1", "z3 + 1", "z3"], ["z3 + 1", "z3", "0"]])
    d = M([["z1 - z2", "0", "0"], ["0", "z1 - z2", "0"], ["0", "0", "1"]])
    syz = M([["1", "-z2 + 1", "z2^2 - z2"],
             ["-1", "z2 - 1", "-z2^2 + z2 + 1"]])
    return {"F": f, "h": P("z1 - z2"), "U": u, "V": v, "D": d, "H": syz}


# -- matrices whose gcd chain once swelled ----------------------------------

# 4x5 in 4 variables: the gcd of the five 4x4 minors is z1 - z4.
GCD_FAULT = [["-3*z1^2 + 3*z1*z4 - 2*z1 + 2*z4", "-2*z1 + 2*z4", "0",
              "2*z1*z2 - z1*z4 - 2*z2*z4 + z4^2 + 2*z1 - 2*z4",
              "-2*z1*z2 + 2*z2*z4 + z1 - z4"],
             ["-3*z3", "-2", "-3*z4", "-z1 - 1", "0"],
             ["-z4", "0", "-2*z1 - 2*z2", "4", "2"],
             ["0", "3*z4 + 3", "-3", "-2*z3 + 3", "0"]]

# 3x4 in 3 variables: the gcd of the four 3x3 minors (49, 55, 21 and 22
# terms) is (z1 - 2*z3 - 3)^2.
SQUARE_GCD_3x4 = [
    ["-2*z1*z2*z3 + 4*z2*z3^2 + 6*z2*z3", "2*z1^2 - 4*z1*z3 - 5*z1 - 2*z3 - 3",
     "0", "z1*z2^2 - 2*z2^2*z3 - 3*z2^2"],
    ["z1^2 - 2*z1*z3 - 6*z3 - 9", "-2*z1^2 + 7*z1*z3 - 6*z3^2 + 6*z1 - 9*z3",
     "0", "0"],
    ["0", "z1*z3 + z2 - 3*z3", "3*z3^2 + 3*z2 + 2*z3", "-2*z1*z3 - 2*z1 - 1"]]

# 5x6 in 4 variables with quadratic entries, U * diag(h^3, 1, 1, 1, 1) * V
# * F1 with h = z1 - 1 or z1 + 2, keyed by the seed that drew it: the chain
# d_1..d_5 is 1, 1, h, h^2, h^3.  The first two 5x5 minors of seed 2 have
# 133 and 212 terms of total degree 11, and their gcd is h^3.  With the
# syzygy gcd alone that one gcd took 32 s, and most of these chains ran
# for more than 30 s.  problems/chain_5x6.json holds seed 2.
CHAINS_5x6 = {
    2: ("z1 - 1", [
        ["6*z1*z2*z4 + 6*z1*z2 - 6*z2*z4 - 3*z1 - 6*z2 + 3", "0",
         "-6*z1^2*z3*z4 + 9*z1*z3*z4^2 - 6*z1^2*z3 + 15*z1*z3*z4 - 9*z3*z4^2 "
         "+ 6*z1*z3 - 9*z3*z4",
         "3*z1^2*z3*z4 + 3*z1^2*z3 + 3*z1^2*z4 - 3*z1*z3*z4 - 3*z1*z3 "
         "- 3*z1*z4 - z1 + 1",
         "0", "-2*z1*z3 - 3*z1*z4 - 3*z1 + 2*z3 + 3*z4 + 3"],
        ["-6*z1*z2 + 2*z1 + 6*z2 - 2", "0",
         "6*z1^2*z3 - 9*z1*z3*z4 - z1*z2 - 6*z1*z3 + 9*z3*z4 + 2*z1 + z2 - 2",
         "-3*z1^2*z3 - 3*z1^2 + 3*z1*z3 - 3*z1*z4 + 3*z1 + 3*z4",
         "2*z1*z2 - 2*z2", "-z1*z2 + 3*z1*z3 + 3*z1 + z2 - 3*z3 - 3"],
        ["2*z1*z2 - 2*z2", "0", "-2*z1^2*z3 + 3*z1*z3*z4 + 2*z1*z3 - 3*z3*z4",
         "z1^2*z3 + z1^2 - z1*z3 - z1", "0", "-z1 + 1"],
        ["2*z1*z3", "3*z1*z2 - 2*z1*z4", "0", "0", "3*z1*z2 - 3", "0"],
        ["3*z2*z3 + 2", "3*z1*z2 + 1", "-3*z3*z4", "0", "z1*z2", "-3*z2"],
    ]),
    3: ("z1 + 2", [
        ["-3*z1*z2*z4 + 6*z1*z2 - 6*z2*z4 - 2*z1 + 12*z2 - 4", "0",
         "3*z1^2*z3*z4 + z1*z3*z4^2 - 6*z1^2*z3 + 4*z1*z3*z4 + 2*z3*z4^2 "
         "- 12*z1*z3 - 4*z3*z4",
         "z1^2*z3*z4 - 2*z1^2*z3 - z1^2*z4 + 2*z1*z3*z4 + 3*z1^2 - 4*z1*z3 "
         "- 2*z1*z4 + 9*z1 + 6",
         "0", "z1*z3 + 3*z1*z4 - 6*z1 + 2*z3 + 6*z4 - 12"],
        ["-9*z1*z2 - 3*z1 - 18*z2 - 6", "0",
         "9*z1^2*z3 + 3*z1*z3*z4 - 3*z1*z2 + 18*z1*z3 + 6*z3*z4 + z1 - 6*z2 "
         "+ 2",
         "3*z1^2*z3 - 3*z1^2 + 6*z1*z3 - 3*z1*z4 - 6*z1 - 6*z4",
         "z1*z2 + 2*z2", "z1*z2 - 2*z1*z3 + 9*z1 + 2*z2 - 4*z3 + 18"],
        ["-3*z1*z2 - 6*z2", "0", "3*z1^2*z3 + z1*z3*z4 + 6*z1*z3 + 2*z3*z4",
         "z1^2*z3 - z1^2 + 2*z1*z3 - 2*z1", "0", "3*z1 + 6"],
        ["-2*z1*z3", "-z1*z2 - 2*z1*z4", "0", "0", "2*z1*z2 - 2", "0"],
        ["-3*z2*z3 - 3", "3*z1*z2 - 3", "2*z3*z4", "0", "-z1*z2", "z2"],
    ]),
    4: ("z1 + 2", [
        ["-2*z1*z2*z4 + 2*z1*z2 - 4*z2*z4 - 3*z1 + 4*z2 - 6", "0",
         "-2*z1^2*z3*z4 - 2*z1*z3*z4^2 + 2*z1^2*z3 - 2*z1*z3*z4 - 4*z3*z4^2 "
         "+ 4*z1*z3 + 4*z3*z4",
         "-z1^2*z3*z4 + z1^2*z3 + 3*z1^2*z4 - 2*z1*z3*z4 - z1^2 + 2*z1*z3 "
         "+ 6*z1*z4 - 4*z1 - 4",
         "0", "2*z1*z3 + 3*z1*z4 - 3*z1 + 4*z3 + 6*z4 - 6"],
        ["2*z1*z2 - 3*z1 + 4*z2 - 6", "0",
         "2*z1^2*z3 + 2*z1*z3*z4 - z1*z2 + 4*z1*z3 + 4*z3*z4 + 2*z1 - 2*z2 "
         "+ 4",
         "z1^2*z3 - 3*z1^2 + 2*z1*z3 + z1*z4 - 6*z1 + 2*z4", "-3*z1*z2 - 6*z2",
         "-2*z1*z2 + z1*z3 - 3*z1 - 4*z2 + 2*z3 - 6"],
        ["2*z1*z2 + 4*z2", "0", "2*z1^2*z3 + 2*z1*z3*z4 + 4*z1*z3 + 4*z3*z4",
         "z1^2*z3 - 3*z1^2 + 2*z1*z3 - 6*z1", "0", "-3*z1 - 6"],
        ["3*z1*z3", "z1*z2 - 3*z1*z4", "0", "0", "2*z1*z2 - 3", "0"],
        ["z2*z3 + 2", "z1*z2 + 3", "2*z3*z4", "0", "-3*z1*z2", "3*z2"],
    ]),
    5: ("z1 + 2", [
        ["-3*z1*z2*z4 + 2*z1*z2 - 6*z2*z4 - 3*z1 + 4*z2 - 6", "0",
         "9*z1^2*z3*z4 + 6*z1*z3*z4^2 - 6*z1^2*z3 + 14*z1*z3*z4 + 12*z3*z4^2 "
         "- 12*z1*z3 - 8*z3*z4",
         "9*z1^2*z3*z4 - 6*z1^2*z3 - 9*z1^2*z4 + 18*z1*z3*z4 + 7*z1^2 "
         "- 12*z1*z3 - 18*z1*z4 + 11*z1 - 6",
         "0", "-3*z1*z3 - 9*z1*z4 + 6*z1 - 6*z3 - 18*z4 + 12"],
        ["z1*z2 - 2*z1 + 2*z2 - 4", "0",
         "-3*z1^2*z3 - 2*z1*z3*z4 - z1*z2 - 6*z1*z3 - 4*z3*z4 + 2*z1 - 2*z2 "
         "+ 4",
         "-3*z1^2*z3 + 3*z1^2 - 6*z1*z3 - 3*z1*z4 + 6*z1 - 6*z4",
         "z1*z2 + 2*z2", "z1*z2 - z1*z3 + 3*z1 + 2*z2 - 2*z3 + 6"],
        ["z1*z2 + 2*z2", "0", "-3*z1^2*z3 - 2*z1*z3*z4 - 6*z1*z3 - 4*z3*z4",
         "-3*z1^2*z3 + 3*z1^2 - 6*z1*z3 + 6*z1", "0", "3*z1 + 6"],
        ["-z1*z3", "3*z1*z2 + z1*z4", "0", "0", "-2*z1*z2 - 3", "0"],
        ["2*z2*z3 - 2", "-2*z1*z2 - 1", "3*z3*z4", "0", "-z1*z2", "-3*z2"],
    ]),
    6: ("z1 + 2", [
        ["-z1*z2*z4 - 2*z1*z2 - 2*z2*z4 + z1 - 4*z2 + 2", "0",
         "3*z1^2*z3*z4 + 2*z1*z3*z4^2 + 6*z1^2*z3 + 10*z1*z3*z4 + 4*z3*z4^2 "
         "+ 12*z1*z3 + 8*z3*z4",
         "3*z1^2*z3*z4 + 6*z1^2*z3 + z1^2*z4 + 6*z1*z3*z4 + 5*z1^2 "
         "+ 12*z1*z3 + 2*z1*z4 + 13*z1 + 6",
         "0", "-z1*z3 + z1*z4 + 2*z1 - 2*z3 + 2*z4 + 4"],
        ["z1*z2 - 2*z1 + 2*z2 - 4", "0",
         "-3*z1^2*z3 - 2*z1*z3*z4 - 2*z1*z2 - 6*z1*z3 - 4*z3*z4 - z1 - 4*z2 "
         "- 2",
         "-3*z1^2*z3 - z1^2 - 6*z1*z3 - 2*z1*z4 - 2*z1 - 4*z4",
         "-2*z1*z2 - 4*z2", "-3*z1*z2 - 2*z1*z3 - z1 - 6*z2 - 4*z3 - 2"],
        ["z1*z2 + 2*z2", "0", "-3*z1^2*z3 - 2*z1*z3*z4 - 6*z1*z3 - 4*z3*z4",
         "-3*z1^2*z3 - z1^2 - 6*z1*z3 - 2*z1", "0", "-z1 - 2"],
        ["3*z1*z3", "3*z1*z2 + 2*z1*z4", "0", "0", "-2*z1*z2 - 1", "0"],
        ["2*z2*z3 - 1", "2*z1*z2 - 3", "-3*z3*z4", "0", "-2*z1*z2", "-z2"],
    ]),
}


@contextlib.contextmanager
def within(seconds: float):
    """Fail the enclosed block with TimeoutError once it has run for more
    than ``seconds`` of wall-clock time (Unix, main thread)."""
    def expire(signum, frame):
        raise TimeoutError(f"ran for more than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- random generators -----------------------------------------------------

def rand_poly(rng: random.Random, nvars: int = N, max_deg: int = 2,
              max_terms: int = 3, coeff_bound: int = 3,
              allowed_vars=None, nonzero: bool = False) -> Polynomial:
    """Sparse random polynomial with small integer coefficients."""
    allowed = list(range(nvars)) if allowed_vars is None else list(allowed_vars)
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.choice(allowed)] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        if c == 0:
            continue
        mono = tuple(mono)
        terms[mono] = terms.get(mono, 0) + c
    p = Polynomial(nvars, {m: Fraction(c) for m, c in terms.items() if c})
    if nonzero and p.is_zero:
        return Polynomial.constant(nvars, rng.choice([1, -1, 2]))
    return p


def rand_qpoly(rng: random.Random, nvars: int = N, **kwargs) -> Polynomial:
    """rand_poly with each coefficient divided by a random 2..6, so that
    most coefficients are not integers."""
    p = rand_poly(rng, nvars, **kwargs)
    return Polynomial(nvars, {m: c / rng.randint(2, 6)
                              for m, c in p.terms.items()})


def rand_matrix(rng: random.Random, rows: int, cols: int, nvars: int = N,
                max_deg: int = 1, allowed_vars=None) -> PolyMatrix:
    return PolyMatrix([[rand_poly(rng, nvars, max_deg, allowed_vars=allowed_vars)
                        for _ in range(cols)] for _ in range(rows)])


def rand_unimodular(rng: random.Random, size: int, nvars: int = N,
                    ops: int = 3, max_deg: int = 1,
                    allowed_vars=None) -> PolyMatrix:
    """Product of random elementary matrices (unit determinant up to sign)."""
    u = PolyMatrix.identity(size, nvars)
    for _ in range(ops):
        kind = rng.choice(["add", "swap", "negate"])
        i = rng.randrange(size)
        j = rng.randrange(size)
        if kind == "add" and i != j:
            q = rand_poly(rng, nvars, max_deg, max_terms=2,
                          allowed_vars=allowed_vars)
            rows = [list(u.row(k)) for k in range(size)]
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
            u = PolyMatrix(rows)
        elif kind == "swap" and i != j:
            rows = [list(u.row(k)) for k in range(size)]
            rows[i], rows[j] = rows[j], rows[i]
            u = PolyMatrix(rows)
        elif kind == "negate":
            rows = [list(u.row(k)) for k in range(size)]
            rows[i] = [-a for a in rows[i]]
            u = PolyMatrix(rows)
    return u
