"""Groebner bases for submodules of free modules and syzygy computation.

Vectors are tuples of polynomials.  The module order is position-over-term:
earlier coordinates dominate, ties broken by the underlying monomial order.
Syzygies are computed by the augmented-identity construction: tag each row
with a unit vector, compute a module Groebner basis, and read the tags off
the elements whose original block vanished.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .poly import (DEGREVLEX, DimensionError, MonomialOrder, Monomial,
                   Polynomial, _OrderKeys, _sub_shifted, mono_div,
                   mono_divides, mono_lcm)

ModuleVector = tuple[Polynomial, ...]


@dataclass(frozen=True)
class ModuleOrder:
    """Position-over-term order; position indices ascending in priority."""

    mono_order: MonomialOrder

    def key(self, pos: int, mono: Monomial):
        return (-pos, self.mono_order.key(mono))


POT_DEGREVLEX = ModuleOrder(DEGREVLEX)


@dataclass(frozen=True)
class ModuleBasis:
    """An interreduced, monic module Groebner basis."""

    generators: tuple[ModuleVector, ...]
    ambient: int
    order: ModuleOrder = POT_DEGREVLEX


def _check_rows(rows: Sequence[ModuleVector]):
    if not rows:
        raise ValueError("need at least one vector")
    m = len(rows[0])
    nv = rows[0][0].nvars
    for v in rows:
        if len(v) != m:
            raise DimensionError("vectors of mixed length")
        for p in v:
            if p.nvars != nv:
                raise DimensionError("entries with mixed variable counts")
    return m, nv


def mv_is_zero(v: ModuleVector) -> bool:
    return all(p.is_zero for p in v)


def mv_sub(a: ModuleVector, b: ModuleVector) -> ModuleVector:
    return tuple(x - y for x, y in zip(a, b))


def mv_mul_term(v: ModuleVector, coeff, mono: Monomial) -> ModuleVector:
    return tuple(p.mul_term(coeff, mono) for p in v)


def mv_scale(v: ModuleVector, c) -> ModuleVector:
    return tuple(p * c for p in v)


def _leading(v: ModuleVector, order: ModuleOrder):
    """Leading (position, monomial, coefficient) of a nonzero vector: the
    leading term of its first nonzero position."""
    for pos, p in enumerate(v):
        if p.terms:
            mono = p.leading_monomial(order.mono_order)
            return pos, mono, p.terms[mono]
    raise ValueError("zero vector has no leading term")


def _reduce_vector(v: ModuleVector, basis: Sequence[tuple], nvars: int,
                   keys: _OrderKeys):
    """Full reduction of v by basis items (vector, (pos, mono, coeff)),
    worked out on a private copy of each position."""
    key = keys.__getitem__
    r = [dict(p.terms) for p in v]
    remainder = [dict() for _ in v]
    for pos, terms in enumerate(r):  # reducers leave earlier positions alone
        while terms:
            mono = max(terms, key=key)
            coeff = terms[mono]
            for g, (gp, gm, gc) in basis:
                if gp == pos and mono_divides(gm, mono):
                    q = mono_div(mono, gm)
                    c = coeff / gc
                    for t, gk in zip(r, g):
                        _sub_shifted(t, c, q, gk.terms)
                    break
            else:
                remainder[pos][mono] = coeff
                del terms[mono]
    return tuple(Polynomial(nvars, d) for d in remainder)


def module_groebner(vectors: Sequence[ModuleVector], ambient: int,
                    order: ModuleOrder = POT_DEGREVLEX) -> tuple[ModuleVector, ...]:
    """Reduced (interreduced, monic) module Groebner basis.

    Only the chain criterion is used to discard S-pairs; the coprime
    criterion is not valid for module leading terms.
    """
    items = [v for v in vectors if not mv_is_zero(v)]
    if not items:
        return ()
    nvars = items[0][0].nvars
    # the basis, and the queue of its S-pairs as in groebner.buchberger
    keys = _OrderKeys(order.mono_order)
    basis: list[tuple] = []
    pairs: set[tuple[int, int]] = set()
    heap: list = []

    def lead(i):
        return basis[i][1]

    def append(v: ModuleVector):
        lv = _leading(v, order)
        for i, (_, (pi, mi, _)) in enumerate(basis):
            if pi == lv[0]:
                lij = mono_lcm(mi, lv[1])
                pairs.add((i, len(basis)))
                heappush(heap, (keys[lij], i, len(basis), lij))
        basis.append((v, lv))

    for v in items:
        append(v)

    while heap:
        _, i, j, lij = heappop(heap)
        pairs.remove((i, j))
        pos = lead(i)[0]
        # chain criterion (valid in modules)
        if any(k not in (i, j) and lead(k)[0] == pos
               and mono_divides(lead(k)[1], lij)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k in range(len(basis))):
            continue
        (vi, (pi, mi, ci)) = basis[i]
        (vj, (pj, mj, cj)) = basis[j]
        s = mv_sub(mv_mul_term(vi, 1 / ci, mono_div(lij, mi)),
                   mv_mul_term(vj, 1 / cj, mono_div(lij, mj)))
        r = _reduce_vector(s, basis, nvars, keys)
        if not mv_is_zero(r):
            append(r)

    # minimalize
    idx = sorted(range(len(basis)),
                 key=lambda k: (lead(k)[0], order.mono_order.key(lead(k)[1])))
    kept: list[tuple] = []
    for k in idx:
        pk, mk, _ = lead(k)
        if any(gp == pk and mono_divides(gm, mk) for _, (gp, gm, _) in kept):
            continue
        kept.append(basis[k])

    # interreduce tails, make monic
    final = []
    for t, (v, (p, mo, _c)) in enumerate(kept):
        others = kept[:t] + kept[t + 1:]
        r = _reduce_vector(v, others, nvars, keys)
        _, _, lc = _leading(r, order)
        final.append((mv_scale(r, 1 / lc), (p, mo)))
    final.sort(key=lambda item: order.key(item[1][0], item[1][1]))
    return tuple(v for v, _ in final)


def module_normal_form(v: ModuleVector, basis: ModuleBasis) -> ModuleVector:
    if len(v) != basis.ambient:
        raise DimensionError("vector length does not match ambient rank")
    nvars = v[0].nvars
    items = [(g, _leading(g, basis.order)) for g in basis.generators]
    return _reduce_vector(v, items, nvars, _OrderKeys(basis.order.mono_order))


def module_basis(rows: Sequence[ModuleVector],
                 order: ModuleOrder = POT_DEGREVLEX) -> ModuleBasis:
    m, _ = _check_rows(rows)
    return ModuleBasis(module_groebner(rows, m, order), m, order)


def module_membership(v: ModuleVector, basis: ModuleBasis) -> bool:
    return mv_is_zero(module_normal_form(v, basis))


def module_equal(a: Sequence[ModuleVector] | ModuleBasis,
                 b: Sequence[ModuleVector] | ModuleBasis) -> bool:
    """Equality of the generated submodules.

    Reduced monic module Groebner bases are unique for a fixed order, so two
    generator sets span the same module iff their canonical bases coincide.
    """
    ba = a if isinstance(a, ModuleBasis) else module_basis(list(a))
    bb = b if isinstance(b, ModuleBasis) else module_basis(list(b))
    if ba.ambient != bb.ambient:
        raise DimensionError("ambient ranks differ")
    return ba.generators == bb.generators


def syzygy(rows: Sequence[ModuleVector],
           order: ModuleOrder = POT_DEGREVLEX) -> ModuleBasis:
    """Generators of all coefficient vectors annihilating the given rows:
    every returned g satisfies sum(g[i] * rows[i]) == 0 exactly."""
    m, nvars = _check_rows(rows)
    l = len(rows)
    zero = Polynomial.zero(nvars)
    one = Polynomial.one(nvars)
    augmented = []
    for i, v in enumerate(rows):
        tag = tuple(one if k == i else zero for k in range(l))
        augmented.append(tuple(v) + tag)
    basis = module_groebner(augmented, m + l, order)
    tags = [g[m:] for g in basis if all(g[k].is_zero for k in range(m))]
    return ModuleBasis(module_groebner(tags, l, order), l, order)


def rank_of_module(rows: Sequence[ModuleVector]) -> int:
    """Rank of the stacked coefficient matrix over the fraction field."""
    from .matrix import PolyMatrix
    _check_rows(rows)
    return PolyMatrix([list(v) for v in rows]).rank()


def module_quotient_by_poly(rows: Sequence[ModuleVector],
                            d: Polynomial) -> tuple[ModuleVector, ...]:
    """Generators of the quotient module {v : d*v in <rows>}."""
    if d.is_zero:
        raise ZeroDivisionError("quotient by the zero polynomial")
    m, nvars = _check_rows(rows)
    if d.is_constant:
        return module_groebner(rows, m)
    zero = Polynomial.zero(nvars)
    stacked = list(rows)
    for j in range(m):
        stacked.append(tuple(d if k == j else zero for k in range(m)))
    syz = syzygy(stacked)
    k = len(rows)
    projections = [g[k:] for g in syz.generators
                   if not all(p.is_zero for p in g[k:])]
    return module_groebner(projections, m)
