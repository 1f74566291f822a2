"""Buchberger's algorithm for polynomial ideals and submodules.

One engine computes reduced Groebner bases of submodules of free modules
under a position-over-term order; an ideal is the rank-1 case, its
generators 1-vectors.  Each vector may carry a tag row that every reduction
step updates but that is never reduced itself: with the unit rows as tags,
every basis element comes out as an explicit combination of the original
generators.  Normal forms and a unit-ideal test are built on it.

The engine is fraction-free: it reduces rows of integer coefficients, each
monomial packed into one int, and turns them back into polynomials only at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .poly import (DEGREVLEX, DimensionError, MonomialOrder, Monomial,
                   Polynomial, _ints, mono_lcm)


@dataclass(frozen=True)
class IdealBasis:
    """A Groebner basis; ``cofactors[i][j]`` expresses generators[i] as a
    combination of the original input generators."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool = True
    cofactors: tuple[tuple[Polynomial, ...], ...] | None = None

    @property
    def is_unit(self) -> bool:
        return (len(self.generators) == 1
                and self.generators[0].is_constant
                and not self.generators[0].is_zero)

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero


# Inside the engine a monomial is one int of 2n + 1 fields, each
# ``bits`` wide plus a guard bit above.  From the least significant field
# up: the total degree, the exponents of z1..zn, then the n fields of the
# order key (``MonomialOrder.key_weights``), the most significant last.
# Every field is linear in the exponents, so the order is int comparison, a
# product an addition and an exact quotient a subtraction; a | b when no
# exponent field of (b | guards) - a borrows from its guard bit.  While
# every degree stays below 2**bits no field carries into the next; a step
# that would form a larger monomial raises _Carry, and the computation
# restarts with fields twice as wide.

_HEADROOM_BITS = 12  # field bits beyond those of the input's degrees


class _Carry(Exception):
    """A monomial would reach the packing's degree limit."""


class _Packing(NamedTuple):
    weights: tuple[int, ...]  # the packed z_i
    shifts: tuple[int, ...]   # where the exponent of z_i starts
    field: int                # the mask of one field: the degree field
    guards: int               # the guard bits of the exponent fields
    limit: int                # the degree no monomial may reach

    def pack(self, row: list[dict]) -> list[dict]:
        weights = self.weights
        return [{sum(map(mul, m, weights)): c for m, c in t.items()}
                if t else {} for t in row]

    def unpack(self, mono: int) -> Monomial:
        field = self.field
        return tuple(mono >> s & field for s in self.shifts)


@lru_cache(maxsize=64)
def _packing(order: MonomialOrder, nvars: int, bits: int) -> _Packing:
    width = bits + 1
    shifts = tuple(width * (i + 1) for i in range(nvars))
    low = width * (nvars + 1)
    weights = tuple(k << low | 1 << s | 1 for k, s in
                    zip(order.key_weights(nvars, width), shifts))
    return _Packing(weights, shifts, (1 << width) - 1,
                    sum(1 << s + bits for s in shifts), 1 << bits)


def _packed(order: MonomialOrder, nvars: int, rows: list[list[dict]], run):
    """run(packing) with fields wide enough for the integer term dicts of
    rows, widened and run again while it raises _Carry."""
    top = max((max(map(sum, t)) for row in rows for t in row if t),
              default=0)
    bits = max(1, top.bit_length() + _HEADROOM_BITS)
    while True:
        try:
            return run(_packing(order, nvars, bits))
        except _Carry:
            bits *= 2


def _sub_packed(terms: dict[int, int], coeff: int, shift: int,
                other: dict[int, int]) -> None:
    """terms -= coeff * x^shift * other on packed monomials, in place."""
    for mono, c in other.items():
        mono += shift
        v = terms.get(mono, 0) - coeff * c
        if v:
            terms[mono] = v
        else:
            del terms[mono]


class _Element(NamedTuple):
    """An integer row, its vector with its tag row after it, and the
    position, monomial and coefficient of the vector's leading term; the
    monomial also as exponents, and the largest degree in the row."""

    row: list[dict]
    pos: int
    lm: int
    lc: int
    exps: Monomial
    top: int


def _element(row: list[dict], width: int, packing: _Packing):
    """The element for an integer row whose vector row[:width] is not zero,
    divided by its content, signed to lead with a positive coefficient."""
    for pos in range(width):
        terms = row[pos]
        if terms:
            lm = max(terms)
            g = gcd(*(c for t in row for c in t.values()))
            g = g if terms[lm] > 0 else -g
            if g != 1:
                row = [{m: c // g for m, c in t.items()} for t in row]
            top = max(map(packing.field.__and__, chain.from_iterable(row)))
            return _Element(row, pos, lm, row[pos][lm], packing.unpack(lm),
                            top)


def _reduce(rows: list[dict], width: int, basis: Sequence[_Element],
            packing: _Packing) -> tuple[list[dict], int]:
    """Full (tail-included) remainder of the integer vector ``rows[:width]``
    modulo the basis, times the integer scale returned with it; worked out
    in place on the caller's private dicts.  The tag row ``rows[width:]``
    takes every step too but is never reduced.

    Fraction-free: a step that takes c*x^m off with g first multiplies the
    whole row, remainder included, by lc(g)/gcd(lc(g), c).  Deterministic:
    the reducer is always the first basis element that leads in the current
    position and whose leading monomial divides the current term.  Reducers
    leave earlier positions alone.
    """
    field, guards, limit = packing.field, packing.guards, packing.limit
    remainder = [{} for _ in range(width)]
    scale = 1
    for pos in range(width):
        terms = rows[pos]
        while terms:
            mono = max(terms)
            coeff = terms[mono]
            guarded = mono | guards
            for g in basis:
                if g.pos == pos and (guarded - g.lm) & guards == guards:
                    q = mono - g.lm
                    if (q & field) + g.top >= limit:
                        raise _Carry
                    k = gcd(g.lc, coeff)
                    a = g.lc // k
                    if a != 1:
                        scale *= a
                        for t in chain(remainder, rows):
                            for m, c in t.items():
                                t[m] = c * a
                    step = coeff // k
                    for t, gk in zip(rows, g.row):
                        if gk:
                            _sub_packed(t, step, q, gk)
                    break
            else:
                remainder[pos][mono] = coeff
                del terms[mono]
    return remainder + rows[width:], scale


def _polys(nvars: int, rows: list[dict], denominator: int,
           packing: _Packing) -> list[Polynomial]:
    unpack = packing.unpack
    return [Polynomial._from_ints(
        nvars, {unpack(m): c for m, c in t.items()}, denominator)
        for t in rows]


def _groebner(vectors: Sequence[Sequence[Polynomial]], order: MonomialOrder,
              track: bool = False):
    """Reduced (interreduced, monic) Groebner basis of the submodule that
    the vectors span, as (vector, tag row) pairs, under the
    position-over-term order built on ``order``: earlier positions
    dominate.  With ``track``, vector i carries the i-th unit tag row; a tag
    row is the combination of the input vectors that its vector is.  The
    rows are integer multiples of those over the rationals, so reducers
    and pairs are the same; the final interreduction makes them monic.

    Pair selection follows the normal strategy (minimal lcm in the order),
    pairing only elements that lead in the same position.  The chain
    criterion prunes pairs; the coprime criterion holds for polynomials
    only, so it applies only to 1-vectors.
    """
    if not vectors:
        return []
    width, nvars = len(vectors[0]), vectors[0][0].nvars
    rows = [_ints(v) for v in vectors]
    return _packed(order, nvars, [row for row, _ in rows],
                   lambda packing: _buchberger(rows, width, track, nvars,
                                               packing))


def _buchberger(rows: list[tuple[list[dict], int]], width: int, track: bool,
                nvars: int, packing: _Packing):
    """The body of _groebner on the integer rows of the vectors and their
    denominators, with monomials packed."""
    weights, field, guards = packing.weights, packing.field, packing.guards
    limit = packing.limit
    basis: list[_Element] = []
    # the queue of S-pairs by (packed lcm, i, j); ``pairs`` holds the same
    # pairs for the chain criterion
    pairs: set[tuple[int, int]] = set()
    heap: list = []

    def append(e: _Element):
        j = len(basis)
        for i, b in enumerate(basis):
            if b.pos == e.pos:
                pairs.add((i, j))
                heappush(heap, (sum(map(mul, mono_lcm(b.exps, e.exps),
                                        weights)), i, j))
        basis.append(e)

    for i, (row, d) in enumerate(rows):
        if any(row):
            row = packing.pack(row)
            if track:
                row += [{0: d} if j == i else {} for j in range(len(rows))]
            append(_element(row, width, packing))

    while heap:
        lij, i, j = heappop(heap)
        pairs.remove((i, j))
        fi, fj = basis[i], basis[j]
        if width == 1 and lij == fi.lm + fj.lm:
            continue
        guarded = lij | guards
        if any(k not in (i, j) and g.pos == fi.pos
               and (guarded - g.lm) & guards == guards
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, g in enumerate(basis)):
            continue
        mi, mj = lij - fi.lm, lij - fj.lm
        if (mi & field) + fi.top >= limit or (mj & field) + fj.top >= limit:
            raise _Carry
        k = gcd(fi.lc, fj.lc)
        ci, cj = -(fj.lc // k), fi.lc // k
        s = [{} for _ in fi.row]
        for t, p, q in zip(s, fi.row, fj.row):
            if p:
                _sub_packed(t, ci, mi, p)
            if q:
                _sub_packed(t, cj, mj, q)
        r, _ = _reduce(s, width, basis, packing)
        if any(r[:width]):
            append(_element(r, width, packing))

    # minimalize: drop elements whose leading monomial is divisible by
    # another survivor's leading monomial in the same position
    kept: list[_Element] = []
    for e in sorted(basis, key=lambda e: (e.pos, e.lm)):
        guarded = e.lm | guards
        if not any(g.pos == e.pos and (guarded - g.lm) & guards == guards
                   for g in kept):
            kept.append(e)

    # interreduce tails and make monic; in a minimal basis no other element
    # reduces a leading term, so each keeps its own
    final = []
    for t, e in enumerate(kept):
        r, _ = _reduce([dict(p) for p in e.row], width,
                       kept[:t] + kept[t + 1:], packing)
        final.append((-e.pos, e.lm,
                      _polys(nvars, r, r[e.pos][e.lm], packing)))
    final.sort(key=lambda f: f[:2])
    return [(row[:width], row[width:]) for _, _, row in final]


def _normal_form(v: Sequence[Polynomial], basis, order: MonomialOrder):
    """Remainder of the vector v modulo a Groebner basis of vectors."""
    width, nvars = len(v), v[0].nvars
    row, d = _ints(v)
    rows = [_ints(g)[0] for g in basis if any(g)]

    def run(packing: _Packing):
        items = [_element(packing.pack(g), width, packing) for g in rows]
        r, scale = _reduce(packing.pack(row), width, items, packing)
        return tuple(_polys(nvars, r, d * scale, packing))

    return _packed(order, nvars, rows + [row], run)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX,
               track: bool = False) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pair selection follows the normal strategy (minimal lcm in the order);
    Buchberger's coprime and chain criteria prune useless pairs.
    """
    gens = list(gens)
    if len({g.nvars for g in gens}) > 1:
        raise DimensionError("generators have mixed variable counts")
    final = _groebner([[g] for g in gens], order, track)
    return IdealBasis(tuple(v[0] for v, _ in final), order, reduced=True,
                      cofactors=tuple(tuple(t) for _, t in final)
                      if track else None)


def normal_form(p: Polynomial, basis: IdealBasis | Sequence[Polynomial],
                order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of multivariate division of p by a Groebner basis."""
    if isinstance(basis, IdealBasis):
        gens = basis.generators
        order = basis.order
    else:
        gens = tuple(basis)
        order = order or DEGREVLEX
    return _normal_form([p], [[g] for g in gens], order)[0]


def is_unit_ideal(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX,
                  track: bool = False):
    """Decide whether the generators span the whole ring.

    Returns ``(flag, cofactors)``; when ``track`` is set and the ideal is
    the unit ideal, the cofactors c satisfy sum(c[i] * gens[i]) == 1 exactly.
    """
    basis = buchberger(gens, order, track=track)
    if not basis.is_unit:
        return False, None
    if not track:
        return True, None
    return True, basis.cofactors[0]
