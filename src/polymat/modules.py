"""Submodules of free modules: Groebner bases (from the Buchberger engine
in ``groebner``), membership, equality, quotients and syzygies.

Vectors are tuples of polynomials.  The module order is position-over-term:
earlier coordinates dominate, ties broken by the underlying monomial order.
Syzygies are computed by the augmented-identity construction: extend each
row by a unit vector in extra positions (reduced like the others, unlike a
tag row), compute a module Groebner basis, and read the extra positions off
the elements whose original block vanished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groebner import _groebner, _normal_form
from .poly import DEGREVLEX, DimensionError, MonomialOrder, Polynomial

ModuleVector = tuple[Polynomial, ...]


@dataclass(frozen=True)
class ModuleOrder:
    """Position-over-term order; position indices ascending in priority."""

    mono_order: MonomialOrder


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


def module_groebner(vectors: Sequence[ModuleVector], ambient: int,
                    order: ModuleOrder = POT_DEGREVLEX) -> tuple[ModuleVector, ...]:
    """Reduced (interreduced, monic) module Groebner basis, from the engine
    of ``groebner.buchberger``; the coprime criterion applies to 1-vectors
    only."""
    if any(len(v) != ambient for v in vectors):
        raise DimensionError("vector length does not match ambient rank")
    return tuple(tuple(v) for v, _ in _groebner(vectors, order.mono_order))


def module_normal_form(v: ModuleVector, basis: ModuleBasis) -> ModuleVector:
    if len(v) != basis.ambient:
        raise DimensionError("vector length does not match ambient rank")
    return _normal_form(v, basis.generators, basis.order.mono_order)


def module_basis(rows: Sequence[ModuleVector],
                 order: ModuleOrder = POT_DEGREVLEX) -> ModuleBasis:
    m, _ = _check_rows(rows)
    return ModuleBasis(module_groebner(rows, m, order), m, order)


def module_membership(v: ModuleVector, basis: ModuleBasis) -> bool:
    return not any(module_normal_form(v, basis))


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
    # the original block is an elimination block of the position-over-term
    # order, so these tag parts are already the reduced syzygy basis
    tags = tuple(g[m:] for g in basis if all(g[k].is_zero for k in range(m)))
    return ModuleBasis(tags, l, order)


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
