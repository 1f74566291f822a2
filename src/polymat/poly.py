"""Exact sparse multivariate polynomials over the rationals.

A polynomial in ``n`` variables z1..zn is stored as a map from exponent
tuples to nonzero integer numerators over one positive denominator; its
``Fraction`` coefficients are built on demand.  All arithmetic is exact; the
zero polynomial is the empty map over 1.  Values are immutable after
construction, so they can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import add as _add, le as _le, sub as _sub
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


class DimensionError(ValueError):
    """Operands belong to rings with different numbers of variables."""


class SubstitutionError(ValueError):
    """The replacement polynomial mentions the variable being replaced."""


class InternalError(RuntimeError):
    """A result failed its exact check: a fault of polymat, not of the
    input."""


# ---------------------------------------------------------------------------
# monomial helpers

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(_add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff a | b componentwise."""
    return all(map(_le, a, b))


def mono_div(numerator: Monomial, denominator: Monomial) -> Monomial:
    """numerator / denominator; caller guarantees divisibility."""
    return tuple(map(_sub, numerator, denominator))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


class MonomialOrder:
    """A total, multiplicative well-order on monomials.

    ``kind`` is one of degrevlex, deglex, lex.  ``permutation`` lists the
    variable indices from most to least significant; None means the natural
    order z1 > z2 > ... > zn.
    """

    KINDS = ("degrevlex", "deglex", "lex")

    __slots__ = ("kind", "permutation")

    def __init__(self, kind: str = "degrevlex",
                 permutation: Sequence[int] | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind
        if permutation is not None:
            permutation = tuple(permutation)
            if sorted(permutation) != list(range(len(permutation))):
                raise ValueError("permutation must be a bijection on 0..n-1")
        self.permutation = permutation

    def key(self, mono: Monomial):
        """Sort key: key(a) < key(b) iff a comes before b in the order."""
        if self.permutation is not None:
            if len(self.permutation) != len(mono):
                raise DimensionError("permutation length does not match monomial")
            mono = tuple(mono[i] for i in self.permutation)
        if self.kind == "lex":
            return mono
        deg = sum(mono)
        if self.kind == "deglex":
            return (deg, mono)
        return (deg, tuple(-e for e in reversed(mono)))

    def key_weights(self, nvars: int, width: int) -> tuple[int, ...]:
        """Weights w_i that pack the order key into one int: for a monomial
        whose degree is below 2**width, sum(w_i * mono[i]) orders monomials
        as ``key`` does.  The int holds nvars fields of ``width`` bits, the
        most significant first, each a sum of exponents and so linear in the
        monomial.  Over the permuted exponents e'_1..e'_n they are
        e'_1, .., e'_n for lex; deg, e'_1, .., e'_{n-1} for deglex; and the
        prefix sums deg, deg - e'_n, deg - e'_n - e'_{n-1}, .., e'_1 for
        degrevlex (a key's last component is fixed by the fields before
        it)."""
        perm = self.permutation
        if perm is None:
            perm = range(nvars)
        elif len(perm) != nvars:
            raise DimensionError("permutation length does not match monomial")
        if self.kind == "lex":
            fields = [(j,) for j in range(nvars)]
        elif self.kind == "deglex":
            fields = [range(nvars)] + [(j,) for j in range(nvars - 1)]
        else:
            fields = [range(nvars - t) for t in range(nvars)]
        weights = [0] * nvars
        for t, members in enumerate(fields):
            for j in members:
                weights[perm[j]] += 1 << width * (nvars - 1 - t)
        return tuple(weights)

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind
                and self.permutation == other.permutation)

    def __hash__(self):
        return hash((self.kind, self.permutation))

    def __repr__(self):
        if self.permutation is None:
            return f"MonomialOrder({self.kind!r})"
        return f"MonomialOrder({self.kind!r}, {self.permutation!r})"


DEGREVLEX = MonomialOrder("degrevlex")


class Polynomial:
    """A sparse multivariate polynomial with rational coefficients, stored
    as integer numerators over one positive denominator.

    ``num`` maps monomials to nonzero integers and ``den`` is at least 1,
    with ``gcd(den, *num.values()) == 1``; zero is ``{}`` over 1.  The form
    is unique, so equal polynomials have equal ``num`` and ``den``.
    """

    __slots__ = ("nvars", "num", "den")

    def __init__(self, nvars: int,
                 terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        self.nvars = nvars
        clean: dict[Monomial, Scalar] = {}
        items = (terms.items() if type(terms) is dict
                 or isinstance(terms, Mapping) else terms)
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise DimensionError(
                    f"monomial {mono} has length {len(mono)}, expected {nvars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if type(coeff) is not int:
                coeff = Fraction(coeff)
            c = clean.get(mono, 0) + coeff
            if c:
                clean[mono] = c
            elif mono in clean:
                del clean[mono]
        # over the lcm of the reduced denominators, the numerators and the
        # denominator have no common factor
        d = _int_lcm(*(c.denominator for c in clean.values()))
        self.num = {m: c.numerator * (d // c.denominator)
                    for m, c in clean.items()}
        self.den = d

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 0)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Polynomial":
        # one monomial, valid by construction: no per-monomial checks
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        if type(value) is not int:
            value = Fraction(value)
        return cls._from_ints(nvars, {(0,) * nvars: value.numerator}
                              if value else {}, value.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The polynomial z_{index+1} (index is zero-based)."""
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for nvars={nvars}")
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls._from_ints(nvars, {mono: 1})

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The coefficients as ``Fraction``s: a new map on every call."""
        d = self.den
        if d == 1:
            return {m: Fraction(c) for m, c in self.num.items()}
        return {m: Fraction(c, d) for m, c in self.num.items()}

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_constant(self) -> bool:
        return not any(map(any, self.num))

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self.num.values())), self.den)

    def involves(self, index: int) -> bool:
        return any(m[index] for m in self.num)

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(mono_degree(m) for m in self.num)

    def degree_in(self, index: int) -> int:
        if not self.num:
            return -1
        return max(m[index] for m in self.num)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionError(
                f"mixed variable counts: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self._coerce(other) - self

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, over the lcm of the two denominators."""
        self._check(other)
        d = _int_lcm(self.den, other.den)
        a, b = d // self.den, sign * (d // other.den)
        out = (dict(self.num) if a == 1
               else {m: c * a for m, c in self.num.items()})
        for mono, c in other.num.items():
            c = out.get(mono, 0) + b * c
            if c:
                out[mono] = c
            else:
                del out[mono]
        return Polynomial._from_ints(self.nvars, out, d)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints(
            self.nvars, {m: -c for m, c in self.num.items()}, self.den)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            # a rescaling of num over den, with no product of term dicts
            if not other:
                return Polynomial.zero(self.nvars)
            n = other.numerator
            return Polynomial._from_ints(
                self.nvars, {m: c * n for m, c in self.num.items()},
                self.den * other.denominator)
        other = self._coerce(other)
        self._check(other)
        return Polynomial._from_ints(self.nvars, _times(self.num, other.num),
                                     self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        return Polynomial._from_ints(
            self.nvars, _power(self.num, exponent, {(0,) * self.nvars: 1}),
            self.den ** exponent)

    def mul_term(self, coeff: Scalar, mono: Monomial) -> "Polynomial":
        if type(coeff) is not int:
            coeff = Fraction(coeff)
        if not coeff:
            return Polynomial.zero(self.nvars)
        n = coeff.numerator
        return Polynomial._from_ints(
            self.nvars, {mono_mul(m, mono): c * n for m, c in self.num.items()},
            self.den * coeff.denominator)

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    @classmethod
    def _from_ints(cls, nvars: int, terms: dict[Monomial, int],
                   d: int = 1) -> "Polynomial":
        """terms / d, for an integer term dict with valid monomials of
        length nvars and no zero coefficient, and a nonzero integer d.  The
        polynomial takes the dict over, which must not change afterwards.
        Only when d != 1 are terms and d divided by their gcd, signed so
        that the denominator comes out positive."""
        if d != 1:
            g = _int_gcd(d, *terms.values())
            if d < 0:
                g = -g
            if g != 1:
                terms = {m: c // g for m, c in terms.items()}
                d //= g
        p = cls.__new__(cls)
        p.nvars = nvars
        p.num = terms
        p.den = d
        return p

    # -- leading data ---------------------------------------------------

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Monomial:
        if not self.num:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.num, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = DEGREVLEX) -> Fraction:
        return Fraction(self.num[self.leading_monomial(order)], self.den)

    def leading_term(self, order: MonomialOrder = DEGREVLEX) -> tuple[Monomial, Fraction]:
        m = self.leading_monomial(order)
        return m, Fraction(self.num[m], self.den)

    # -- substitution ---------------------------------------------------

    def coefficients_in(self, index: int) -> list["Polynomial"]:
        """Dense coefficient list of self viewed in the variable z_{index+1}.

        Entry k is the (z_index-free) coefficient of z_index^k; the list is
        empty for the zero polynomial.
        """
        if not self.num:
            return []
        top = self.degree_in(index)
        buckets: list[dict[Monomial, int]] = [dict() for _ in range(top + 1)]
        for mono, coeff in self.num.items():
            k = mono[index]
            rest = tuple(0 if i == index else e for i, e in enumerate(mono))
            buckets[k][rest] = coeff
        return [Polynomial._from_ints(self.nvars, b, self.den)
                for b in buckets]

    def substitute(self, index: int, value: "Polynomial") -> "Polynomial":
        """Ring homomorphism image of self under z_{index+1} -> value."""
        self._check(value)
        if value.involves(index):
            raise SubstitutionError(
                f"replacement for z{index + 1} must not involve z{index + 1}")
        top = self.degree_in(index)
        if top <= 0:  # zero, or free of z_{index+1}
            return self
        # self = sum_k (S_k / d) z^k and value = v / d: Horner's rule on
        # sum_k S_k d^(top-k) v^k stays in Z[z], and scale ends at d^(top+1)
        (f, v), d = _ints((self, value))
        buckets: list[dict] = [{} for _ in range(top + 1)]
        for mono, c in f.items():
            buckets[mono[index]][mono[:index] + (0,) + mono[index + 1:]] = c
        acc, scale, unit = {}, 1, (0,) * self.nvars
        for bucket in reversed(buckets):
            acc = _times(acc, v)
            _add_product(acc, bucket, {unit: scale})
            scale *= d
        return Polynomial._from_ints(self.nvars, acc, scale)

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Rename variables: new z_{k+1} takes the role of old z_{perm[k]+1}."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("perm must be a bijection on 0..nvars-1")
        return Polynomial._from_ints(
            self.nvars, {tuple(m[perm[k]] for k in range(self.nvars)): c
                         for m, c in self.num.items()}, self.den)

    # -- comparisons / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        # hash(n) == hash(Fraction(n)): over 1 the numerators hash as the
        # Fraction coefficients would
        return hash((self.nvars, frozenset(
            (self.num if self.den == 1 else self.terms).items())))

    def __bool__(self):
        return bool(self.num)

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.num:
            return "0"
        terms = self.num if self.den == 1 else self.terms
        parts: list[str] = []
        for mono in sorted(terms, key=DEGREVLEX.key, reverse=True):
            coeff = terms[mono]
            mag = abs(coeff)
            factors = [f"z{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(mono) if e]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"


# ---------------------------------------------------------------------------
# division, normalization, gcd

def divides(d: Polynomial, p: Polynomial,
            order: MonomialOrder = DEGREVLEX) -> tuple[bool, Polynomial | None]:
    """Decide whether d | p; on success also return the exact quotient.

    One integer division of p by the primitive part of d, both cleared by
    one scale, decides (Gauss's lemma); an exact quotient does not depend
    on ``order``."""
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    d._check(p)
    if p.is_zero:
        return True, Polynomial(p.nvars)
    (f, g), _ = _ints((p, d))
    content = _int_gcd(*g.values())
    q = _int_div(f, g if content == 1
                 else {m: c // content for m, c in g.items()})
    if q is None:
        return False, None
    return True, Polynomial._from_ints(p.nvars, q, content)


def _sub_shifted(terms: dict[Monomial, Scalar], coeff: Scalar,
                 shift: Monomial, other: Mapping[Monomial, Scalar]) -> None:
    """terms -= coeff * x^shift * other, in place: one step of a division
    on a private copy of the running remainder."""
    for mono, c in other.items():
        mono = tuple(map(_add, mono, shift))
        v = terms.get(mono, 0) - coeff * c
        if v:
            terms[mono] = v
        else:
            del terms[mono]


def _add_product(terms: dict, a: Mapping, b: Mapping) -> None:
    """terms += a * b, in place, for a and b with no zero coefficient."""
    get = terms.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(_add, m1, m2))  # mono_mul, inlined
            c = get(m, 0) + c1 * c2
            if c:
                terms[m] = c
            else:
                del terms[m]


def _times(a: Mapping, b: Mapping) -> dict:
    """a * b as a new term dict."""
    out: dict = {}
    _add_product(out, a, b)
    return out


def _power(terms: Mapping, e: int, one: dict) -> dict:
    """terms ** e by repeated squaring, from the unit term dict ``one``,
    which the result may be."""
    result = one
    while e:
        if e & 1:
            result = _times(result, terms)
        if e > 1:
            terms = _times(terms, terms)
        e >>= 1
    return result


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    ok, q = divides(d, p)
    if not ok:
        raise ArithmeticError(f"({p}) is not divisible by ({d})")
    return q


def normalized(p: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Canonical associate: integer coefficients with content 1 and a
    positive leading coefficient under the given order."""
    return p if p.is_zero else _primitive(p.nvars, p.num, order)


def _primitive(nvars: int, f: dict, order: MonomialOrder) -> Polynomial:
    """The nonzero integer term dict f over its content, signed so that
    its leading coefficient under ``order`` is positive; f itself, shared,
    when it already is."""
    content = _int_gcd(*f.values())
    if f[max(f, key=order.key)] < 0:
        content = -content
    return Polynomial._from_ints(nvars, f if content == 1 else
                                 {m: c // content for m, c in f.items()})


def _ints(polys: Sequence[Polynomial]) -> tuple[list[dict], int]:
    """The integer term dicts of polys times d, their least common
    denominator, and d.

    A polynomial whose denominator is d hands out its own ``num``, not a
    copy, so the dicts are read-only: a caller that changes one in place
    must copy it first."""
    d = _int_lcm(*[p.den for p in polys])
    if d == 1:
        return [p.num for p in polys], 1
    return [p.num if p.den == d
            else {m: c * (d // p.den) for m, c in p.num.items()}
            for p in polys], d


# GCDHEU retries this many times with a larger evaluation point, and gives
# up once the point passes this many bits, so that a hard input reaches the
# syzygy gcd before it builds huge integers; a pair whose points are
# estimated past the limit gives up before the first evaluation.  The point
# grows about as the product of the degrees of the variables evaluated
# above it: 500 bits for the 5x5 minors of a 5x6 matrix in 4 variables
# with quadratic entries, 80,000 bits (under a second) for a pair of
# degree 22 in 6 variables.
_HEU_RETRIES = 6
_HEU_MAX_BITS = 1 << 17


def _heuristic_gcd(p: Polynomial, q: Polynomial) -> dict | None:
    """gcd up to a unit of nonzero p and q by GCDHEU (Char, Geddes and
    Gonnet, 1989), as an integer term dict, or None when the heuristic
    gives up."""
    f, g = p.num, q.num
    return None if _heu_too_large(f, g) else _heu(f, g, p.nvars - 1)


def _heu_too_large(f: dict, g: dict) -> bool:
    """Whether GCDHEU's evaluation points would pass _HEU_MAX_BITS, judged
    before any evaluation.  A point has about as many bits as the smaller
    of the two largest coefficients, and evaluating z_v at x bits adds
    e * x bits to a term of degree e in z_v.  A quick bound lets one term
    have the largest coefficient and every top degree; only when that
    passes the limit are the terms followed one by one, each level's
    content (at most its smallest coefficient) taken out."""
    degrees = [list(map(max, zip(*p))) for p in (f, g)]
    heights = [max(map(abs, p.values())).bit_length() for p in (f, g)]
    for v in reversed(range(len(degrees[0]))):
        x = min(heights) + 1
        heights = [h + d[v] * x for h, d in zip(heights, degrees)]
    if x <= _HEU_MAX_BITS:
        return False
    sides = [(list(p), [abs(c).bit_length() for c in p.values()])
             for p in (f, g)]
    for v in reversed(range(len(degrees[0]))):
        if not (degrees[0][v] or degrees[1][v]):
            continue
        spans = []
        for monos, bits in sides:
            merged: dict = {}  # the coefficients in z_1..z_v, by their bits
            for m, b in zip(monos, bits):
                merged[m[:v + 1]] = max(merged.get(m[:v + 1], 0), b)
            spans.append(max(merged.values()) - min(merged.values()))
        x = min(spans) + 1
        if x > _HEU_MAX_BITS:
            return True
        for monos, bits in sides:
            bits[:] = [b + m[v] * x for m, b in zip(monos, bits)]
    return False


def _heu(f: dict, g: dict, var: int) -> dict | None:
    """gcd of the nonzero integer polynomials f and g, free of the variables
    after ``var``: evaluate ``var`` at an integer xi, take the gcd of the
    images, and rebuild the candidate from its balanced xi-adic digits.  A
    primitive candidate that divides both primitive parts is the gcd when
    xi >= 2 min(|f|, |g|) + 2 (Liao and Fateman, 1995)."""
    cf, cg = _int_gcd(*f.values()), _int_gcd(*g.values())
    content = _int_gcd(cf, cg)
    f = {m: c // cf for m, c in f.items()}
    g = {m: c // cg for m, c in g.items()}
    while var >= 0 and not any(m[var] for m in chain(f, g)):
        var -= 1
    if var < 0:
        return {next(iter(f)): content}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_RETRIES + 1):
        if xi.bit_length() > _HEU_MAX_BITS:
            return None
        ff, gg = _evaluate(f, var, xi), _evaluate(g, var, xi)
        if ff and gg:
            gamma = _heu(ff, gg, var - 1)
            if gamma is None:
                return None
            h = _interpolate(gamma, var, xi)
            ch = _int_gcd(*h.values())
            h = {m: c // ch for m, c in h.items()}
            if _int_div(f, h) is not None and _int_div(g, h) is not None:
                return {m: c * content for m, c in h.items()}
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(f: dict, var: int, xi: int) -> dict:
    """f with the variable ``var`` set to the integer xi.  Only the powers
    of xi that the terms use are computed and kept: a term of degree e
    holds one power of e * log2(xi) bits."""
    powers: dict = {}
    out: dict = {}
    for m, c in f.items():
        e = m[var]
        if e:
            power = powers.get(e)
            if power is None:
                power = powers[e] = xi ** e
            m = m[:var] + (0,) + m[var + 1:]
            c *= power
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _interpolate(gamma: dict, var: int, xi: int) -> dict:
    """The polynomial in ``var`` whose coefficients are the balanced
    xi-adic digits of gamma's coefficients."""
    half = xi // 2
    out = {}
    for m, c in gamma.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[m[:var] + (e,) + m[var + 1:]] = d
            c = (c - d) // xi
            e += 1
    return out


def _int_div(p: dict, d: dict) -> dict | None:
    """p / d for integer polynomials p and nonzero d, or None when the
    quotient is not an integer polynomial.  The division runs in lex order,
    where a monomial is its own sort key; by one term it is one pass over
    p."""
    if len(d) == 1:
        (lm_d, lc_d), = d.items()
        q = {}
        for m, c in p.items():
            if not mono_divides(lm_d, m):
                return None
            c, rest = divmod(c, lc_d)
            if rest:
                return None
            q[mono_div(m, lm_d)] = c
        return q
    lm_d = max(d)
    lc_d = d[lm_d]
    q = {}
    r = dict(p)
    while r:
        lm_r = max(r)
        if not mono_divides(lm_d, lm_r):
            return None
        c, rest = divmod(r[lm_r], lc_d)
        if rest:
            return None
        m = mono_div(lm_r, lm_d)
        q[m] = c
        _sub_shifted(r, c, m, d)
    return q


def _syzygy_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """gcd up to a unit of nonzero p and q: their syzygy module is free,
    generated by (q/g, -p/g) (Cox, Little and O'Shea, lcm as <p> ∩ <q>)."""
    from .modules import syzygy
    (a, _), = syzygy([(p,), (q,)]).generators
    return exact_div(q, a)


def gcd(p: Polynomial, q: Polynomial,
        order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Greatest common divisor in canonical normalization.

    gcd(p, 0) = normalized(p); gcd(0, 0) = 0; any pair involving a nonzero
    constant has gcd 1 (constants are units over the rationals).  Any other
    pair takes the heuristic evaluation gcd, whose answer is accepted only
    when it divides both inputs exactly, and the syzygy gcd when the
    heuristic gives up; either way the answer is exact.
    """
    if p.is_zero:
        return normalized(q, order)
    if q.is_zero:
        return normalized(p, order)
    p._check(q)
    if p.is_constant or q.is_constant:
        return Polynomial.one(p.nvars)
    h = _heuristic_gcd(p, q)
    if h is None:
        return normalized(_syzygy_gcd(p, q), order)
    return _primitive(p.nvars, h, order)


def gcd_many(polys: Iterable[Polynomial],
             order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """gcd of a nonempty sequence in canonical normalization: 0 when every
    element is zero; ValueError for an empty sequence.

    The running gcd is kept, with no call to ``gcd``, when one exact
    division shows that it divides the next element: it is already
    normalized, and the normalized gcd is unique."""
    g: Polynomial | None = None
    for p in polys:
        if g is None:
            g = normalized(p, order)
        elif g.is_zero or not divides(g, p)[0]:
            g = gcd(g, p, order)
        if g and g.is_constant:
            return Polynomial.one(g.nvars)
    if g is None:
        raise ValueError("gcd of an empty sequence")
    return g
