"""Seeded inputs of the benchmark, built with polymat's own types.

Every function takes ``pm``, the ``polymat`` package as imported for this
set-up, so that the inputs are instances of the classes the timed phase
uses.

The shape of a factor or equivalence instance -- which entries are nonzero,
which monomials they carry, which elementary row operations build U and V --
is fixed by its structure key.  The seed picks only the nonzero
coefficients.  The cost of polymat's gcd chain depends on the shape far more
than on the coefficients (one shape can take 0.05 s and another 3 s), so
drawing shapes from the seed would let a single seed move a whole run by
tens of percent.  Fixed shapes with seeded coefficients keep every seed's
round equally heavy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

COEFFS = (-3, -2, -1, 1, 2, 3)


class Draw:
    """Two random streams: ``shape`` depends on the structure key alone,
    ``coeff`` on the key and the seed."""

    def __init__(self, key: str, seed: int):
        self.shape = random.Random("shape:" + key)
        self.coeff = random.Random(f"coeff:{seed}:{key}")


def rand_poly(pm, draw: Draw, nvars: int, degree: int, max_terms: int,
              allowed=None, nonzero: bool = False):
    """Sparse polynomial with at most ``max_terms`` terms of degree at most
    ``degree`` in the ``allowed`` variables (zero-based indices)."""
    allowed = list(range(nvars)) if allowed is None else list(allowed)
    terms = {}
    for _ in range(draw.shape.randint(1 if nonzero else 0, max_terms)):
        mono = [0] * nvars
        for _ in range(draw.shape.randint(0, degree)):
            mono[draw.shape.choice(allowed)] += 1
        terms[tuple(mono)] = draw.coeff.choice(COEFFS)
    return pm.Polynomial(nvars, terms)


def unimodular(pm, draw: Draw, size: int, nvars: int, ops: int = 1):
    """Product of ``ops`` elementary row additions with linear multipliers;
    its determinant is 1."""
    one, zero = pm.Polynomial.one(nvars), pm.Polynomial.zero(nvars)
    rows = [[one if i == j else zero for j in range(size)]
            for i in range(size)]
    for _ in range(ops):
        i, j = draw.shape.sample(range(size), 2)
        q = rand_poly(pm, draw, nvars, 1, 2, nonzero=True)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return pm.PolyMatrix(rows)


def linear_factor(pm, draw: Draw, nvars: int):
    """h = z1 - f with f of degree at most 1 in z2..zn."""
    f = rand_poly(pm, draw, nvars, 1, 2, allowed=range(1, nvars))
    return pm.Polynomial.variable(nvars, 0) - f


@dataclass(frozen=True)
class FactorCase:
    """F = U * diag(h,..,h,1,..,1) * V * F1 with r copies of h, so that
    F = G1 * F1 with det G1 = h^r."""

    key: str
    rows: int
    r: int
    matrix: object
    h: object


def _value(p, point) -> Fraction:
    total = Fraction(0)
    for mono, c in p.terms.items():
        term = c
        for x, e in zip(point, mono):
            term *= x ** e
        total += term
    return total


def _rank_at(rows, point) -> int:
    """Rank of the numeric matrix of the entries' values at ``point``."""
    m = [[_value(p, point) for p in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            ratio = m[i][col] / m[rank][col]
            m[i] = [a - ratio * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _full_row_rank(rows, nvars: int) -> bool:
    """Sufficient test: full rank at one of two fixed integer points.

    ``pm.PolyMatrix(rows).rank()`` keeps the same F1 on every seed tried,
    but made the median ``factor`` set-up 0.27 s where this takes 0.16 s,
    and so would make ``setup_s`` follow polymat's rank more than the
    set-up it stands for."""
    rng = random.Random("points")
    return any(_rank_at(rows, [rng.randint(-9, 9) for _ in range(nvars)])
               == len(rows) for _ in range(2))


def factor_case(pm, seed: int, l: int, m: int, nvars: int, degree: int,
                r: int, variant: int = 0) -> FactorCase:
    """F1 is redrawn until it has full row rank, the paper's hypothesis:
    polymat answers a rank-deficient F as well, but then the right factor's
    d_l is 0 and ``factorize --iterate`` never stops extracting factors."""
    key = f"factor:{l}x{m}:n{nvars}:d{degree}:r{r}:v{variant}"
    draw = Draw(key, seed)
    h = linear_factor(pm, draw, nvars)
    one = pm.Polynomial.one(nvars)
    g1 = (unimodular(pm, draw, l, nvars)
          * pm.PolyMatrix.diagonal([h] * r + [one] * (l - r))
          * unimodular(pm, draw, l, nvars))
    while True:
        rows = [[rand_poly(pm, draw, nvars, degree, 2) for _ in range(m)]
                for _ in range(l)]
        if _full_row_rank(rows, nvars):
            return FactorCase(key, l, r, g1 * pm.PolyMatrix(rows), h)


@dataclass(frozen=True)
class EquivCase:
    """Square U * D * V.  Positive: D = diag(h,..,h,1,..,1) with r copies of
    h, asked with that r.  Negative: D = diag(h^2,1,..,1), asked with r = 2;
    h does not divide d_{l-1} = 1, so the answer must be not_equivalent."""

    key: str
    rows: int
    r: int
    negative: bool
    matrix: object
    h: object


def equiv_case(pm, seed: int, l: int, nvars: int, r: int, negative: bool,
               variant: int = 0) -> EquivCase:
    kind = "neg" if negative else f"r{r}"
    key = f"equiv:{l}x{l}:n{nvars}:{kind}:v{variant}"
    draw = Draw(key, seed)
    h = linear_factor(pm, draw, nvars)
    one = pm.Polynomial.one(nvars)
    diag = ([h * h] + [one] * (l - 1) if negative
            else [h] * r + [one] * (l - r))
    f = (unimodular(pm, draw, l, nvars) * pm.PolyMatrix.diagonal(diag)
         * unimodular(pm, draw, l, nvars))
    return EquivCase(key, l, 2 if negative else r, negative, f, h)


def cyclic(pm, n: int) -> list:
    """The cyclic-n ideal: the elementary symmetric sums of z1..zn taken
    cyclically, and z1*...*zn - 1."""
    z = [pm.Polynomial.variable(n, i) for i in range(n)]
    gens = []
    for k in range(1, n):
        total = pm.Polynomial.zero(n)
        for i in range(n):
            term = pm.Polynomial.one(n)
            for j in range(k):
                term = term * z[(i + j) % n]
            total = total + term
        gens.append(total)
    prod = pm.Polynomial.one(n)
    for v in z:
        prod = prod * v
    gens.append(prod - 1)
    return gens


def katsura(pm, n: int) -> list:
    """The katsura-n ideal in the n + 1 variables u_0..u_n (z1..z_{n+1})."""
    nv = n + 1
    u = [pm.Polynomial.variable(nv, i) for i in range(nv)]

    def at(k: int):
        k = abs(k)
        return u[k] if k <= n else pm.Polynomial.zero(nv)

    gens = []
    for m in range(n):
        total = pm.Polynomial.zero(nv)
        for k in range(-n, n + 1):
            total = total + at(k) * at(m - k)
        gens.append(total - u[m])
    linear = u[0]
    for k in range(1, nv):
        linear = linear + u[k] * 2
    gens.append(linear - 1)
    return gens


def equivalence_ideal(pm, seed: int, l: int, nvars: int, r: int,
                      variant: int = 0) -> list:
    """(h, the (l - r)-minors of F) for a positive equivalence case: the
    ideal decide_equivalence tests for the unit ideal."""
    case = equiv_case(pm, seed, l, nvars, r, False, variant)
    return [case.h] + pm.matrix.minor_ideal_generators(case.matrix, l - r)


# A 4x5 matrix in 4 variables whose gcd chain runs into the subresultant
# swell of poly.gcd / gcd_many: gcd_many of its five 4x4 minors runs for
# more than a minute, while the gcd is h = z1 - z4.  It does not depend on
# the seed.
GCD_FAULT_NVARS = 4
GCD_FAULT_H = "z1 - z4"
GCD_FAULT_MATRIX = (
    ("-3*z1^2+3*z1*z4-2*z1+2*z4", "-2*z1+2*z4", "0",
     "2*z1*z2-z1*z4-2*z2*z4+z4^2+2*z1-2*z4", "-2*z1*z2+2*z2*z4+z1-z4"),
    ("-3*z3", "-2", "-3*z4", "-z1-1", "0"),
    ("-z4", "0", "-2*z1-2*z2", "4", "2"),
    ("0", "3*z4+3", "-3", "-2*z3+3", "0"),
)


def gcd_fault_case(pm) -> FactorCase:
    n = GCD_FAULT_NVARS
    rows = [[pm.parse_polynomial(s, n) for s in row]
            for row in GCD_FAULT_MATRIX]
    # h divides the first row, so the multiplicity is at least 1
    return FactorCase("factor:gcd-fault", len(rows), 1, pm.PolyMatrix(rows),
                      pm.parse_polynomial(GCD_FAULT_H, n))
