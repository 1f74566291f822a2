"""Dense matrices of polynomials.

One fraction-free (Bareiss) elimination gives rank, determinant and the
pivot columns that column reduced minors are taken on; an elimination of
the matrix's value at a random point, modulo a prime, gives pivot columns
that can only undercount the rank.  Also minor enumeration with the gcd
chain d_i and reduced minors, Fitting ideals of a presentation matrix,
adjugates and unimodularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import prod
from random import Random
from typing import Callable, Iterator, Sequence

from .groebner import IdealBasis, buchberger
from .poly import (DEGREVLEX, DimensionError, InternalError, MonomialOrder,
                   Polynomial, _add_product, _int_div, _ints, _times,
                   exact_div, gcd_many)


class ShapeError(ValueError):
    """Matrix shapes incompatible with the requested operation."""


# The prime modulo which ranks at a point are taken, and the number of
# seeded points a caller may try.
_PRIME = (1 << 61) - 1
_POINTS = 3


@cache
def seeded_points(nvars: int) -> tuple[tuple[int, ...], ...]:
    """_POINTS points modulo _PRIME, drawn one after the other from
    random.Random(1)."""
    rng = Random(1)
    return tuple(tuple(rng.randrange(_PRIME) for _ in range(nvars))
                 for _ in range(_POINTS))


class PolyMatrix:
    """An l x m matrix of polynomials sharing one ambient variable count."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        if not entries or not entries[0]:
            raise ShapeError("matrix must have at least one row and column")
        rows = len(entries)
        cols = len(entries[0])
        nvars = entries[0][0].nvars
        grid = []
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged rows")
            for p in row:
                if p.nvars != nvars:
                    raise DimensionError("entries have mixed variable counts")
            grid.append(tuple(row))
        self.rows = rows
        self.cols = cols
        self.nvars = nvars
        self.entries = tuple(grid)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int, nvars: int) -> "PolyMatrix":
        one = Polynomial.one(nvars)
        zero = Polynomial.zero(nvars)
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, nvars: int) -> "PolyMatrix":
        zero = Polynomial.zero(nvars)
        return cls([[zero] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, diag: Sequence[Polynomial]) -> "PolyMatrix":
        n = len(diag)
        zero = Polynomial.zero(diag[0].nvars)
        return cls([[diag[i] if i == j else zero for j in range(n)]
                    for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        return cls(rows)

    # -- basic access -----------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Polynomial, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Polynomial, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix)
                and self.shape == other.shape
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def map(self, fn: Callable[[Polynomial], Polynomial]) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries])

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in col_idx]
                           for i in row_idx])

    def vstack(self, other: "PolyMatrix") -> "PolyMatrix":
        if other.cols != self.cols:
            raise ShapeError("column counts differ")
        return PolyMatrix(list(self.entries) + list(other.entries))

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return self.map(lambda p: p * other)
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.shape} by {other.shape}")
        if self.nvars != other.nvars:
            raise DimensionError("matrices have mixed variable counts")
        # rows of self and columns of other cleared by scales of their own
        cols = [_ints(other.column(j)) for j in range(other.cols)]
        out = []
        for row, s in map(_ints, self.entries):
            out_row = []
            for col, t in cols:
                acc: dict = {}
                for a, b in zip(row, col):
                    if a and b:
                        _add_product(acc, a, b)
                out_row.append(Polynomial._from_ints(self.nvars, acc, s * t))
            out.append(out_row)
        return PolyMatrix(out)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ShapeError("shape mismatch")
        return PolyMatrix([[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.shape != other.shape:
            raise ShapeError("shape mismatch")
        return PolyMatrix([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def substitute(self, index: int, value: Polynomial) -> "PolyMatrix":
        """Entrywise substitution z_{index+1} -> value."""
        return self.map(lambda p: p.substitute(index, value))

    def permute_variables(self, perm: Sequence[int]) -> "PolyMatrix":
        return self.map(lambda p: p.permute_variables(perm))

    # -- elimination ------------------------------------------------------

    def _eliminate(self, reverse: bool = False
                   ) -> tuple[list[int], Polynomial, int]:
        """Fraction-free (Bareiss) elimination column by column, from the
        right when asked.  Returns the pivot columns in the order found (the
        greedy, lexicographically first or last, independent set), the last
        pivot and the sign of the row swaps.

        Each row is first cleared of denominators by its own integer scale,
        which leaves the zero pattern of every step alone; the steps then
        stay in Z[z], since each entry they make is a minor of the scaled
        matrix (Bareiss, 1968), and the last pivot is divided by the scales
        of its rows on the way out."""
        m, scales = map(list, zip(*map(_ints, self.entries)))
        nrows = self.rows
        order = list(range(self.cols))
        if reverse:
            order.reverse()
        pivots: list[int] = []
        sign = 1
        prev = {(0,) * self.nvars: 1}
        for k, c in enumerate(order):
            r = len(pivots)
            pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                m[r], m[pivot_row] = m[pivot_row], m[r]
                scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
                sign = -sign
            p = m[r][c]
            rest = order[k + 1:]  # columns passed are zero below row r
            for i in range(r + 1, nrows):
                # m_ij <- (p * m_ij - m_ic * m_rj) / prev
                neg = {mono: -v for mono, v in m[i][c].items()}
                for j in rest:
                    acc = _times(p, m[i][j])
                    _add_product(acc, neg, m[r][j])
                    q = _int_div(acc, prev)
                    if q is None:
                        raise InternalError("inexact Bareiss step")
                    m[i][j] = q
                m[i][c] = {}
            prev = p
            pivots.append(c)
            if len(pivots) == nrows:
                break
        return (pivots, Polynomial._from_ints(self.nvars, prev,
                                              prod(scales[:len(pivots)])),
                sign)

    def determinant(self) -> Polynomial:
        """Exact determinant by fraction-free Bareiss elimination."""
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        pivots, last, sign = self._eliminate()
        if len(pivots) < self.rows:
            return Polynomial.zero(self.nvars)
        return last if sign > 0 else -last

    def rank(self) -> int:
        """Rank over the fraction field (fraction-free elimination)."""
        return len(self._eliminate()[0])

    def _modular_pivots(self, point: Sequence[int], reverse: bool = False
                        ) -> list[int]:
        """The greedy pivot columns, in the order found (from the right
        when asked), of the matrix's value at a point modulo _PRIME, each
        row cleared of denominators by its own scale.

        A minor that is nonzero there is a nonzero polynomial, so the
        columns found are independent and at most the rank in number.
        They are fewer only where the minors of the rank's size vanish
        modulo _PRIME at the point.  For a minor that is nonzero modulo
        _PRIME a uniform point does so with probability at most its degree
        over _PRIME (Schwartz, 1980), but a minor whose integer
        coefficients are all multiples of _PRIME vanishes at every point:
        a caller that needs the rank falls back to the exact elimination
        when the columns found fail its check."""
        def value(terms: dict) -> int:
            total = 0
            for mono, c in terms.items():
                for x, e in zip(point, mono):
                    if e:
                        c = c * pow(x, e, _PRIME)
                total += c
            return total % _PRIME

        m = [[value(t) for t in _ints(row)[0]] for row in self.entries]
        order = range(self.cols)[::-1] if reverse else range(self.cols)
        pivots: list[int] = []
        for col in order:
            rank = len(pivots)
            pivot = next((i for i in range(rank, self.rows) if m[i][col]),
                         None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            p, top = m[rank][col], m[rank]
            for i in range(rank + 1, self.rows):
                q = m[i][col]
                if q:
                    m[i] = [(p * a - q * b) % _PRIME
                            for a, b in zip(m[i], top)]
            pivots.append(col)
            if len(pivots) == self.rows:
                break
        return pivots

    def _adjugate(self) -> "PolyMatrix":
        """The adjugate of a square matrix, entry (i, j) the signed minor
        that drops row j and column i."""
        n = self.rows
        if n == 1:
            return PolyMatrix([[Polynomial.one(self.nvars)]])
        # in reversed subset order, the k-th (n-1)-subset drops index k
        minors = all_minors(self, n - 1, reverse_subsets=True)
        return PolyMatrix([[-minors[j * n + i] if (i + j) % 2
                            else minors[j * n + i] for j in range(n)]
                           for i in range(n)])

    # -- unimodularity ------------------------------------------------------

    def is_unimodular(self) -> bool:
        if not self.is_square:
            raise ShapeError("unimodularity is defined for square matrices")
        det = self.determinant()
        return det.is_constant and not det.is_zero

    def inverse_unimodular(self) -> "PolyMatrix":
        """Exact inverse; requires a nonzero constant determinant."""
        if not self.is_square:
            raise ShapeError("inverse of a non-square matrix")
        det = self.determinant()
        if not det.is_constant or det.is_zero:
            raise ValueError("matrix is not unimodular; no polynomial inverse")
        result = self._adjugate() * (1 / det.constant_value())
        if result * self != PolyMatrix.identity(self.rows, self.nvars):
            raise InternalError("adjugate inverse fails its check")
        return result

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(p) for p in row)
                               for row in self.entries) + "]"

    def __repr__(self) -> str:
        return f"<PolyMatrix {self.rows}x{self.cols} {self}>"


# ---------------------------------------------------------------------------
# minors and reduced minors

@dataclass(frozen=True)
class MinorReport:
    """All i x i minors of a matrix, their gcd d, and the reduced minors b
    with minor_j = d * b_j exactly (all zero minors give d = 0)."""

    size: int
    minors: tuple[Polynomial, ...]
    d: Polynomial
    reduced: tuple[Polynomial, ...]


def all_minors(matrix: PolyMatrix, size: int, reverse_subsets: bool = False,
               lazy: bool = False) -> list[Polynomial] | Iterator[Polynomial]:
    """Every size x size minor, row subsets outer and column subsets inner,
    both in lexicographic subset order (reversed when asked); when lazy,
    an iterator that expands each minor only when it is reached."""
    if not 1 <= size <= min(matrix.rows, matrix.cols):
        raise ShapeError(f"minor size {size} out of range for {matrix.shape}")
    row_subsets = list(combinations(range(matrix.rows), size))
    col_subsets = list(combinations(range(matrix.cols), size))
    if reverse_subsets:
        row_subsets.reverse()
        col_subsets.reverse()
    # rows cleared of denominators one by one, and their negations for the
    # odd cofactors; a minor comes out divided by its rows' scales
    ints, scales = zip(*map(_ints, matrix.entries))
    negs = [[{m: -c for m, c in t.items()} for t in row] for row in ints]
    memo: dict[tuple, dict] = {}

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        if len(rows) == 1:
            return ints[rows[0]][cols[0]]
        key = (rows, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        first = rows[0]
        rest = rows[1:]
        acc: dict = {}
        for t, c in enumerate(cols):
            entry = (negs if t % 2 else ints)[first][c]
            if entry:
                _add_product(acc, entry, det(rest, cols[:t] + cols[t + 1:]))
        memo[key] = acc
        return acc

    nvars = matrix.nvars
    minors = (Polynomial._from_ints(nvars, det(r, c),
                                    prod(scales[i] for i in r))
              for r in row_subsets for c in col_subsets)
    return minors if lazy else list(minors)


def minors_report(matrix: PolyMatrix, size: int) -> MinorReport:
    minors = all_minors(matrix, size)
    if all(p.is_zero for p in minors):
        zero = Polynomial.zero(matrix.nvars)
        return MinorReport(size, tuple(minors), zero, tuple(minors))
    d = gcd_many(minors)
    reduced = tuple(exact_div(p, d) for p in minors)
    return MinorReport(size, tuple(minors), d, reduced)


def gcd_chain(matrix: PolyMatrix) -> list[Polynomial]:
    """[d_0, d_1, ..., d_k] for k = min(rows, cols); d_0 = 1 by convention
    and d_i = 0 when every i x i minor vanishes.  The minors of each size
    are expanded as the gcd reaches them, and none after it is constant."""
    return [Polynomial.one(matrix.nvars)] + [
        gcd_many(all_minors(matrix, i, lazy=True))
        for i in range(1, min(matrix.rows, matrix.cols) + 1)]


def column_reduced_minors(matrix: PolyMatrix,
                          reverse_subsets: bool = False) -> list[Polynomial]:
    """Reduced maximal minors of the first full-column-rank r-column
    submatrix, r the rank (the last one when asked); empty for the zero
    matrix.

    The result does not depend on the submatrix choice except for signs,
    which the tests assert.
    """
    pivots = matrix._eliminate(reverse_subsets)[0]
    if not pivots:
        return []
    return list(_reduced_minors_on(matrix, pivots))


def _reduced_minors_on(matrix: PolyMatrix,
                       cols: Sequence[int]) -> tuple[Polynomial, ...]:
    """Reduced maximal minors of the submatrix on the given independent
    columns, taken in increasing order."""
    sub = matrix.submatrix(range(matrix.rows), sorted(cols))
    return minors_report(sub, len(cols)).reduced


def row_reduced_minors(matrix: PolyMatrix) -> list[Polynomial]:
    """Mirror of column_reduced_minors acting on rows."""
    return column_reduced_minors(matrix.transpose())


def minor_ideal_generators(matrix: PolyMatrix, size: int) -> list[Polynomial]:
    """Nonzero generators of the ideal of size x size minors; the empty list
    when the size exceeds the shape or all minors vanish."""
    if size <= 0:
        return [Polynomial.one(matrix.nvars)]
    if size > min(matrix.rows, matrix.cols):
        return []
    return [p for p in all_minors(matrix, size) if not p.is_zero]


def fitting_ideal(presentation: PolyMatrix, j: int,
                  order: MonomialOrder = DEGREVLEX) -> IdealBasis:
    """The j-th Fitting ideal of the module presented by the given matrix
    (rows are relations among ``cols`` generators).

    Follows the usual conventions: the whole ring for j >= cols, zero for
    j < max(cols - rows, 0).
    """
    size = presentation.cols - j
    if size <= 0:
        return buchberger([Polynomial.one(presentation.nvars)], order)
    gens = minor_ideal_generators(presentation, size)
    return buchberger(gens, order)
