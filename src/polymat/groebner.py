"""Buchberger's algorithm for polynomial ideals.

Provides reduced Groebner bases, normal forms, a unit-ideal test, and
optional cofactor tracking so that every basis element is expressed as an
explicit combination of the original generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .poly import (DEGREVLEX, DimensionError, MonomialOrder, Polynomial,
                   _OrderKeys, _sub_shifted, mono_div, mono_divides, mono_lcm,
                   mono_mul)


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


class _Tracked:
    """Working pair of a polynomial and its cofactor row."""

    __slots__ = ("poly", "cof", "lm")

    def __init__(self, poly: Polynomial, cof: list[Polynomial] | None,
                 order: MonomialOrder):
        self.poly = poly
        self.cof = cof
        self.lm = poly.leading_monomial(order) if not poly.is_zero else None


def _reduce_full(p: Polynomial, cof: list[Polynomial] | None,
                 basis: Sequence[_Tracked], keys: _OrderKeys):
    """Full (tail-included) remainder of p modulo the basis, worked out on
    private copies of p and of the cofactor row.

    Deterministic: the reducer is always the first basis element whose
    leading monomial divides the current term.
    """
    remainder: dict = {}
    r = dict(p.terms)
    cof_terms = None if cof is None else [dict(c.terms) for c in cof]
    key = keys.__getitem__
    while r:
        lm = max(r, key=key)
        lc = r[lm]
        for g in basis:
            if g.lm is not None and mono_divides(g.lm, lm):
                m = mono_div(lm, g.lm)
                c = lc / g.poly.terms[g.lm]
                _sub_shifted(r, c, m, g.poly.terms)
                if cof_terms is not None and g.cof is not None:
                    for t, gc in zip(cof_terms, g.cof):
                        _sub_shifted(t, c, m, gc.terms)
                break
        else:
            remainder[lm] = lc
            del r[lm]
    if cof_terms is not None:
        cof = [Polynomial(p.nvars, t) for t in cof_terms]
    return Polynomial(p.nvars, remainder), cof


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = DEGREVLEX,
               track: bool = False) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pair selection follows the normal strategy (minimal lcm in the order);
    Buchberger's coprime and chain criteria prune useless pairs.
    """
    gens = list(gens)
    nv = None
    for g in gens:
        if nv is None:
            nv = g.nvars
        elif g.nvars != nv:
            raise DimensionError("generators have mixed variable counts")
    n_orig = len(gens)

    def unit_cof(i: int) -> list[Polynomial] | None:
        if not track:
            return None
        return [Polynomial.constant(nv, 1 if j == i else 0)
                for j in range(n_orig)]

    # the basis, and the queue of its S-pairs by (order key of the lcm, i,
    # j); ``pairs`` holds the same pairs for the chain criterion
    keys = _OrderKeys(order)
    basis: list[_Tracked] = []
    pairs: set[tuple[int, int]] = set()
    heap: list = []

    def append(g: _Tracked):
        for i, b in enumerate(basis):
            lij = mono_lcm(b.lm, g.lm)
            pairs.add((i, len(basis)))
            heappush(heap, (keys[lij], i, len(basis), lij))
        basis.append(g)

    for i, g in enumerate(gens):
        if not g.is_zero:
            append(_Tracked(g, unit_cof(i), order))

    while heap:
        _, i, j, lij = heappop(heap)
        pairs.remove((i, j))
        # coprime criterion
        if lij == mono_mul(basis[i].lm, basis[j].lm):
            continue
        # chain criterion
        if any(k not in (i, j) and mono_divides(basis[k].lm, lij)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis))):
            continue

        fi, fj = basis[i], basis[j]
        mi = mono_div(lij, fi.lm)
        mj = mono_div(lij, fj.lm)
        ci = 1 / fi.poly.terms[fi.lm]
        cj = 1 / fj.poly.terms[fj.lm]
        s = fi.poly.mul_term(ci, mi) - fj.poly.mul_term(cj, mj)
        cof = None
        if track:
            cof = [a.mul_term(ci, mi) - b.mul_term(cj, mj)
                   for a, b in zip(fi.cof, fj.cof)]
        r, cof = _reduce_full(s, cof, basis, keys)
        if not r.is_zero:
            append(_Tracked(r, cof, order))

    # minimalize: drop elements whose leading monomial is divisible by
    # another survivor's leading monomial
    order_idx = sorted(range(len(basis)), key=lambda k: order.key(basis[k].lm))
    kept: list[_Tracked] = []
    for k in order_idx:
        if any(mono_divides(g.lm, basis[k].lm) for g in kept):
            continue
        kept.append(basis[k])

    # interreduce tails and make monic
    final: list[_Tracked] = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        r, cof = _reduce_full(g.poly, g.cof, others, keys)
        lc = r.leading_coefficient(order)
        inv = 1 / lc
        r = r * inv
        if track:
            cof = [c * inv for c in cof]
        final.append(_Tracked(r, cof, order))

    final.sort(key=lambda g: order.key(g.lm))
    return IdealBasis(tuple(g.poly for g in final), order, reduced=True,
                      cofactors=tuple(tuple(g.cof) for g in final) if track else None)


def normal_form(p: Polynomial, basis: IdealBasis | Sequence[Polynomial],
                order: MonomialOrder | None = None) -> Polynomial:
    """Remainder of multivariate division of p by a Groebner basis."""
    if isinstance(basis, IdealBasis):
        gens = basis.generators
        order = basis.order
    else:
        gens = tuple(basis)
        order = order or DEGREVLEX
    tracked = [_Tracked(g, None, order) for g in gens if not g.is_zero]
    r, _ = _reduce_full(p, None, tracked, _OrderKeys(order))
    return r


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
