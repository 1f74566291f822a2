"""Buchberger's algorithm for polynomial ideals and submodules.

One engine computes reduced Groebner bases of submodules of free modules
under a position-over-term order; an ideal is the rank-1 case, its
generators 1-vectors.  Each vector may carry a tag row that every reduction
step updates but that is never reduced itself: with the unit rows as tags,
every basis element comes out as an explicit combination of the original
generators.  Normal forms and a unit-ideal test are built on it.

The engine is fraction-free: it reduces rows of integer coefficients and
turns them back into polynomials only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from math import gcd
from typing import NamedTuple, Sequence

from .poly import (DEGREVLEX, DimensionError, MonomialOrder, Monomial,
                   Polynomial, _ints, _OrderKeys, _sub_shifted, mono_div,
                   mono_divides, mono_lcm, mono_mul)


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


class _Element(NamedTuple):
    """An integer row, its vector with its tag row after it, and the
    position, monomial and coefficient of the vector's leading term."""

    row: list[dict]
    pos: int
    lm: Monomial
    lc: int


def _element(row: list[dict], width: int, keys: _OrderKeys):
    """The element for an integer row whose vector row[:width] is not zero,
    divided by its content, signed to lead with a positive coefficient."""
    for pos in range(width):
        terms = row[pos]
        if terms:
            lm = max(terms, key=keys.__getitem__)
            g = gcd(*(c for t in row for c in t.values()))
            g = g if terms[lm] > 0 else -g
            if g != 1:
                row = [{m: c // g for m, c in t.items()} for t in row]
            return _Element(row, pos, lm, row[pos][lm])


def _reduce(rows: list[dict], width: int, basis: Sequence[_Element],
            keys: _OrderKeys) -> tuple[list[dict], int]:
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
    key = keys.__getitem__
    remainder = [{} for _ in range(width)]
    scale = 1
    for pos in range(width):
        terms = rows[pos]
        while terms:
            mono = max(terms, key=key)
            coeff = terms[mono]
            for g in basis:
                if g.pos == pos and mono_divides(g.lm, mono):
                    k = gcd(g.lc, coeff)
                    a = g.lc // k
                    if a != 1:
                        scale *= a
                        for t in chain(remainder, rows):
                            for m, c in t.items():
                                t[m] = c * a
                    q = mono_div(mono, g.lm)
                    for t, gk in zip(rows, g.row):
                        _sub_shifted(t, coeff // k, q, gk)
                    break
            else:
                remainder[pos][mono] = coeff
                del terms[mono]
    return remainder + rows[width:], scale


def _polys(nvars: int, rows: list[dict], denominator: int) -> list[Polynomial]:
    return [Polynomial._from_ints(nvars, t, denominator) for t in rows]


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
    one = (0,) * nvars
    keys = _OrderKeys(order)
    basis: list[_Element] = []
    # the queue of S-pairs by (order key of the lcm, i, j); ``pairs`` holds
    # the same pairs for the chain criterion
    pairs: set[tuple[int, int]] = set()
    heap: list = []

    def append(e: _Element):
        j = len(basis)
        for i, b in enumerate(basis):
            if b.pos == e.pos:
                lij = mono_lcm(b.lm, e.lm)
                pairs.add((i, j))
                heappush(heap, (keys[lij], i, j, lij))
        basis.append(e)

    for i, v in enumerate(vectors):
        row, d = _ints(v)
        if track:
            row += [{one: d} if j == i else {} for j in range(len(vectors))]
        if any(row[:width]):
            append(_element(row, width, keys))

    while heap:
        _, i, j, lij = heappop(heap)
        pairs.remove((i, j))
        fi, fj = basis[i], basis[j]
        if width == 1 and lij == mono_mul(fi.lm, fj.lm):
            continue
        if any(k not in (i, j) and g.pos == fi.pos
               and mono_divides(g.lm, lij)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, g in enumerate(basis)):
            continue
        mi, mj = mono_div(lij, fi.lm), mono_div(lij, fj.lm)
        k = gcd(fi.lc, fj.lc)
        s = [{} for _ in fi.row]
        for t, p, q in zip(s, fi.row, fj.row):
            _sub_shifted(t, -(fj.lc // k), mi, p)
            _sub_shifted(t, fi.lc // k, mj, q)
        r, _ = _reduce(s, width, basis, keys)
        if any(r[:width]):
            append(_element(r, width, keys))

    # minimalize: drop elements whose leading monomial is divisible by
    # another survivor's leading monomial in the same position
    kept: list[_Element] = []
    for e in sorted(basis, key=lambda e: (e.pos, keys[e.lm])):
        if not any(g.pos == e.pos and mono_divides(g.lm, e.lm)
                   for g in kept):
            kept.append(e)

    # interreduce tails and make monic; in a minimal basis no other element
    # reduces a leading term, so each keeps its own
    final = []
    for t, e in enumerate(kept):
        r, _ = _reduce([dict(p) for p in e.row], width,
                       kept[:t] + kept[t + 1:], keys)
        final.append((-e.pos, keys[e.lm], _polys(nvars, r, r[e.pos][e.lm])))
    final.sort(key=lambda f: f[:2])
    return [(row[:width], row[width:]) for _, _, row in final]


def _normal_form(v: Sequence[Polynomial], basis, order: MonomialOrder):
    """Remainder of the vector v modulo a Groebner basis of vectors."""
    keys = _OrderKeys(order)
    items = [_element(_ints(g)[0], len(v), keys) for g in basis if any(g)]
    row, d = _ints(v)
    # _reduce works in place, and _ints may hand out v's own dicts
    r, scale = _reduce([dict(t) for t in row], len(v), items, keys)
    return tuple(_polys(v[0].nvars, r, d * scale))


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
