"""Zero-left-prime tests, ZLP extraction from a full-row-rank matrix, and a
staged, budgeted completion of a ZLP matrix to a unimodular one.

The completion is a deterministic search over exact column operations: it
hunts for constant pivots, reduces degrees by leading-term division, and
falls back to cofactor-driven moves.  It either returns a certified
unimodular completion or gives up, when its budget is spent or a row stalls
that it cannot clear; giving up is inconclusive, never a refutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .groebner import is_unit_ideal
from .matrix import PolyMatrix, ShapeError, all_minors
from .modules import module_quotient_by_poly
from .poly import (DEGREVLEX, InternalError, Polynomial, exact_div, gcd_many,
                   mono_div, mono_divides)

DEFAULT_MAX_OPS = 200
DEFAULT_MAX_DEGREE = 12

COMPLETED = "completed"
FAILED_DEPTH_LIMIT = "failed-depth-limit"


class NotFullRankError(ValueError):
    """The matrix does not have full row rank."""


class HypothesisError(ValueError):
    """The reduced-minor unit-ideal hypothesis does not hold."""


class FactorizationIncompleteError(RuntimeError):
    """The generator selection step could not produce a square factor."""


@dataclass(frozen=True)
class CompletionResult:
    status: str
    matrix: PolyMatrix | None = None
    ops_used: int = 0
    inverse: PolyMatrix | None = None

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED


def is_zlp(matrix: PolyMatrix) -> bool:
    """True iff the maximal minors generate the unit ideal.

    Raises NotFullRankError when the matrix is rank deficient, since the
    property is only defined for full-row-rank matrices.
    """
    r, l = matrix.shape
    if r > l:
        raise ShapeError("expected at least as many columns as rows")
    if matrix.rank() < r:
        raise NotFullRankError("matrix does not have full row rank")
    flag, _ = is_unit_ideal(all_minors(matrix, r))
    return flag


def zlp_factorize(h0: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """Split a full-row-rank matrix as h0 = h1 * h2 with h2 zero left prime.

    Requires that the maximal reduced minors of h0 generate the unit ideal.
    The ZLP factor is recovered from the quotient of the row module by the
    maximal-minor gcd d; the square factor is then solved for exactly.
    """
    r = h0.rows
    if h0.rank() < r:
        raise NotFullRankError("matrix does not have full row rank")
    minors = all_minors(h0, r)
    if is_unit_ideal(minors)[0]:
        return PolyMatrix.identity(r, h0.nvars), h0
    # d is not constant here, or the reduced minors would span the same
    # (non-unit) ideal as the minors
    d = gcd_many(minors)
    if not is_unit_ideal([exact_div(p, d) for p in minors])[0]:
        raise HypothesisError(
            "maximal reduced minors do not generate the unit ideal")
    if r == 1:
        # the gcd of the single row's entries
        return PolyMatrix([[d]]), h0.map(lambda p: exact_div(p, d))
    h2 = _zlp_subset(
        module_quotient_by_poly([h0.row(i) for i in range(r)], d), r)
    if h2 is None:
        raise FactorizationIncompleteError(
            "quotient module did not yield a square generating set")
    h1 = _solve_left_factor(h0, h2)
    if h1 * h2 != h0:
        raise InternalError("left factor times ZLP factor is not h0")
    return h1, h2


def _zlp_subset(generators, r: int) -> PolyMatrix | None:
    """The first r generators, in lexicographic subset order, whose maximal
    minors generate the unit ideal, or None.  When the generators span
    {v : d*v in <h0>}, h0 of rank r whose maximal reduced minors generate
    the unit ideal, these are the first r that span it."""
    for subset in combinations(generators, r):
        stack = PolyMatrix([list(v) for v in subset])
        if is_unit_ideal(all_minors(stack, r))[0]:
            return stack
    return None


def _solve_left_factor(h0: PolyMatrix, h2: PolyMatrix) -> PolyMatrix:
    """The unique h1 with h0 = h1 * h2: on the pivot columns J of the
    full-row-rank h2, h1 = h0[:, J] * adj(h2[:, J]) / det(h2[:, J])."""
    # Bareiss on h2 runs as on h2[:, J]: its last pivot is the signed det
    cols, last, sign = h2._eliminate()
    square = h2.submatrix(range(h2.rows), cols)
    det = last if sign > 0 else -last
    numerator = h0.submatrix(range(h0.rows), cols) * square._adjugate()
    try:
        return numerator.map(lambda p: exact_div(p, det))
    except ArithmeticError as exc:
        raise FactorizationIncompleteError(
            "left factor is not polynomial") from exc


class _GiveUp(Exception):
    """The completion search stops: its op or degree budget is spent, or a
    row stalls that the staged search cannot clear."""


class _OpTracker:
    """Applies exact column operations to M and to B, starting from H and
    the identity, while maintaining A with the invariant M * A == H; at the
    end A is the completed unimodular matrix and B == A^-1.  An op that
    crosses the budget is counted, then raises _GiveUp."""

    def __init__(self, h: PolyMatrix, max_ops: int, max_degree: int):
        self.m = [list(h.row(i)) for i in range(h.rows)]
        self.a = [list(PolyMatrix.identity(h.cols, h.nvars).row(i))
                  for i in range(h.cols)]
        self.b = [list(row) for row in self.a]
        self.m_and_b = self.m + self.b
        self.max_ops = max_ops
        self.max_degree = max_degree
        self.ops = 0

    def _charge(self) -> None:
        self.ops += 1
        if self.ops > self.max_ops:
            raise _GiveUp

    def _check_degree(self) -> None:
        if any(p.total_degree() > self.max_degree
               for row in chain(self.m, self.a) for p in row):
            raise _GiveUp

    def swap(self, s: int, t: int) -> None:
        if s == t:
            return
        self._charge()
        for row in self.m_and_b:
            row[s], row[t] = row[t], row[s]
        self.a[s], self.a[t] = self.a[t], self.a[s]

    def scale(self, t: int, c) -> None:
        """Multiply column t of M by the nonzero constant c."""
        self._charge()
        for row in self.m_and_b:
            row[t] = row[t] * c
        inv = 1 / c
        self.a[t] = [p * inv for p in self.a[t]]

    def add_multiple(self, t: int, s: int, q: Polynomial) -> None:
        """Column t of M += q * column s; row s of A -= q * row t."""
        if q.is_zero:
            return
        self._charge()
        for row in self.m_and_b:
            row[t] = row[t] + q * row[s]
        self.a[s] = [p - q * pt for p, pt in zip(self.a[s], self.a[t])]
        self._check_degree()

    def block_transform(self, s: int, t: int, x11, x12, x21, x22,
                        y11, y12, y21, y22) -> None:
        """Right-multiply M by the identity with [[x11,x12],[x21,x22]]
        embedded at columns (s, t); Y must be the exact inverse block."""
        self._charge()
        for row in self.m_and_b:
            ms, mt = row[s], row[t]
            row[s] = ms * x11 + mt * x21
            row[t] = ms * x12 + mt * x22
        ra, rb = self.a[s], self.a[t]
        self.a[s] = [y11 * p + y12 * q for p, q in zip(ra, rb)]
        self.a[t] = [y21 * p + y22 * q for p, q in zip(ra, rb)]
        self._check_degree()


def complete_to_unimodular(h: PolyMatrix,
                           max_ops: int = DEFAULT_MAX_OPS,
                           max_degree: int = DEFAULT_MAX_DEGREE) -> CompletionResult:
    """Extend a ZLP r x l matrix to an l x l unimodular matrix having the
    input as its first r rows.

    Staged search: (1) exact column reduction hunting for constant pivots,
    (2) on a stall, a direct two-column completion from unit-ideal cofactors
    or a cofactor-combination column update, then stage 1 again.  Returns
    FAILED_DEPTH_LIMIT when the op or degree budget is spent, or when a row
    stalls that the staged search cannot clear.  A completed result carries
    the inverse of its matrix as well.
    """
    if not is_zlp(h):
        raise HypothesisError("input is not zero left prime")
    return _complete(h, max_ops, max_degree)


def _complete(h: PolyMatrix, max_ops: int,
              max_degree: int) -> CompletionResult:
    """complete_to_unimodular of an h already known to be ZLP."""
    r, l = h.shape
    if r == l:
        return CompletionResult(COMPLETED, h, 0, h.inverse_unimodular())
    work = _OpTracker(h, max_ops, max_degree)
    order = DEGREVLEX
    try:
        for i in range(r):
            augmented = False
            while True:
                row = work.m[i]
                # stage 1a: a constant pivot among the free columns
                const_col = next((j for j in range(i, l)
                                  if row[j].is_constant
                                  and not row[j].is_zero), None)
                if const_col is not None:
                    work.swap(i, const_col)
                    value = work.m[i][i].constant_value()
                    if value != 1:
                        work.scale(i, 1 / value)
                    for j in range(l):
                        if j != i:
                            work.add_multiple(j, i, -work.m[i][j])
                    break  # pivot row established
                # stage 1b: leading-term division sweep within the row
                nonzero = [j for j in range(i, l) if not row[j].is_zero]
                if not nonzero:
                    raise InternalError(
                        "a full-rank row has no nonzero entry")
                pivot = min(nonzero, key=lambda j: (
                    row[j].total_degree(),
                    order.key(row[j].leading_monomial(order)), j))
                lm_p, lc_p = row[pivot].leading_term(order)
                progress = False
                for j in nonzero:
                    if j == pivot:
                        continue
                    while not row[j].is_zero:
                        lm_j, lc_j = row[j].leading_term(order)
                        if not mono_divides(lm_p, lm_j):
                            break
                        step = Polynomial(
                            h.nvars, {mono_div(lm_j, lm_p): lc_j / lc_p})
                        work.add_multiple(j, pivot, -step)
                        progress = True
                if progress:
                    continue
                # stage 2: cofactor-driven moves on the stalled row
                avail = [j for j in range(i, l) if not row[j].is_zero]
                entries = [row[j] for j in avail]
                unit, cof = is_unit_ideal(entries, track=True)
                if unit and len(avail) == 2:
                    (a, b), (p, q), (s, t) = entries, cof, avail
                    work.block_transform(s, t, p, -b, q, a, a, b, -q, p)
                    continue
                # one cofactor move per row; give up when it cannot help
                moves = [(j, c) for j, c in zip(avail, cof)
                         if j != avail[0] and not c.is_zero] if unit else []
                if augmented or not moves:
                    raise _GiveUp
                augmented = True
                for j, c in moves:
                    work.add_multiple(avail[0], j, c)
    except _GiveUp:
        return CompletionResult(FAILED_DEPTH_LIMIT, None, work.ops)

    completed = PolyMatrix(work.a)
    if (any(completed.row(i) != h.row(i) for i in range(r))
            or not completed.is_unimodular()):
        raise InternalError("completion is not a unimodular extension")
    return CompletionResult(COMPLETED, completed, work.ops, PolyMatrix(work.b))
