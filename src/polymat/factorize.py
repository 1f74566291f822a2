"""Top-level procedures: extraction of powers of a linear factor
h = z1 - f(z2..zn) from a polynomial matrix, and the decision whether a
square matrix is equivalent to diag(h,..,h,1,..,1).

Every positive outcome carries witness matrices that are re-verified by
exact multiplication before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .completion import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_OPS,
                         FAILED_DEPTH_LIMIT, CompletionResult, _complete,
                         _zlp_subset)
from .groebner import buchberger, is_unit_ideal, normal_form
from .matrix import (PolyMatrix, ShapeError, _reduced_minors_on, all_minors,
                     minor_ideal_generators)
from .modules import syzygy
from .poly import (DEGREVLEX, InternalError, MonomialOrder, Polynomial,
                   divides, exact_div, gcd_many)

FACTORED = "factored"
NO_FACTORIZATION = "no_factorization"
UNABLE_TO_JUDGE = "unable_to_judge"
COMPLETION_NOT_FOUND = "completion_not_found"

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"


class NotInClassError(ValueError):
    """The linear polynomial does not divide the maximal-minor gcd."""


class PivotError(ValueError):
    """The supposed linear factor is not of the form z_i - f with f free
    of z_i."""


def _checked(ok: bool) -> None:
    if not ok:
        raise InternalError("witness matrices failed their exact check")


def _unit_times_power(p: Polynomial, h: Polynomial, r: int) -> bool:
    """True iff p is a nonzero constant multiple of h^r."""
    for _ in range(r):
        ok, p = divides(h, p)
        if not ok:
            return False
    return p.is_constant and not p.is_zero


@dataclass(frozen=True)
class FactorizationOutcome:
    variant: str
    r: int
    h: Polynomial
    g1: PolyMatrix | None = None
    f1: PolyMatrix | None = None
    certificate: tuple[Polynomial, ...] = ()
    cofactors: tuple[Polynomial, ...] | None = None

    @property
    def factored(self) -> bool:
        return self.variant == FACTORED


@dataclass(frozen=True)
class EquivalenceOutcome:
    variant: str
    r: int
    h: Polynomial
    u: PolyMatrix | None = None
    d: PolyMatrix | None = None
    v: PolyMatrix | None = None
    certificate: tuple[Polynomial, ...] = ()

    @property
    def equivalent(self) -> bool:
        return self.variant == EQUIVALENT


def split_pivot(h: Polynomial, var_index: int = 0) -> Polynomial:
    """Check h == z_{var_index+1} - f with f free of that variable and
    return f."""
    coeffs = h.coefficients_in(var_index)
    if len(coeffs) != 2 or coeffs[1] != 1:
        raise PivotError(
            f"expected a monic linear polynomial in z{var_index + 1}")
    return -coeffs[0]


def classify(matrix: PolyMatrix, h: Polynomial) -> int:
    """The multiplicity r with which h can possibly be extracted: the rank
    drop l - rank F(z1 -> f) of the matrix after substituting z1 -> f.

    As h is linear and monic in z1, h divides an i x i minor iff the minor
    vanishes at z1 = f, so h | d_i iff rank F(z1 -> f) < i: r is the
    unique index with h | d_{l-r+1} but h not | d_{l-r}.  Raises
    NotInClassError when r == 0, that is when h does not divide d_l.
    """
    return _substituted(matrix, h)[1]


def _substituted(matrix: PolyMatrix, h: Polynomial, reverse: bool = False
                 ) -> tuple[PolyMatrix, int, list[int]]:
    """F(z1 -> f), the multiplicity r of classify and the pivot columns of
    F(z1 -> f) (taken from the right when asked), from one elimination."""
    f = split_pivot(h)
    l = matrix.rows
    if l > matrix.cols:
        raise ShapeError("expected at least as many columns as rows")
    fbar = matrix.substitute(0, f)
    pivots = fbar._eliminate(reverse)[0]
    r = l - len(pivots)
    if r == 0:
        raise NotInClassError(
            "h does not divide the gcd of the maximal minors")
    return fbar, r, pivots


def _extract_rows(matrix: PolyMatrix, h: Polynomial, count: int) -> PolyMatrix:
    """Divide the first ``count`` rows exactly by h."""
    rows = []
    for i in range(matrix.rows):
        if i < count:
            rows.append([exact_div(p, h) for p in matrix.row(i)])
        else:
            rows.append(list(matrix.row(i)))
    return PolyMatrix(rows)


def _diagonal_target(h: Polynomial, r: int, l: int) -> PolyMatrix:
    one = Polynomial.one(h.nvars)
    return PolyMatrix.diagonal([h] * r + [one] * (l - r))


def _cramer_vector(reduced: Sequence[Polynomial]) -> PolyMatrix:
    """The annihilator for r = 1, by Cramer's rule: the l - 1 pivot columns
    of F(z1 -> f) have rank l - 1, so entry t is (-1)^t times their reduced
    maximal minor that omits row t, the (l-1-t)-th in lexicographic subset
    order.  The vector is primitive and spans the syzygy module, which is
    free of rank one; made monic in its first nonzero entry under
    degrevlex, it is the one generator of the reduced syzygy basis."""
    signed = [-p if t % 2 else p for t, p in enumerate(reversed(reduced))]
    lead = next(p for p in signed if not p.is_zero).leading_coefficient()
    return PolyMatrix([[p * (1 / lead) for p in signed]])


def _annihilator(fbar: PolyMatrix, r: int,
                 reverse_tie_break: bool) -> PolyMatrix | None:
    """The annihilator for r > 1: a ZLP stack of r syzygy generators of the
    substituted matrix's rows, or None when no r of them are ZLP.  It is
    the pivot pick (the first r pivot columns of the transposed stack, from
    the end when asked) when that is ZLP, else the first ZLP r-subset in
    lexicographic order.  Under the reduced-minor hypothesis the caller
    checked, the syzygy module is {v : d*v in <pick>}, d the gcd of the
    pick's maximal minors, and its ZLP r-subsets are the ones that span
    it."""
    gens = syzygy([fbar.row(i) for i in range(fbar.rows)]).generators
    chosen = (PolyMatrix([list(g) for g in gens]).transpose()
              ._eliminate(reverse_tie_break)[0][:r] if gens else [])
    if len(chosen) != r:
        raise InternalError("syzygy rank does not match the multiplicity")
    pick = PolyMatrix([list(gens[k]) for k in chosen])
    if is_unit_ideal(all_minors(pick, r))[0]:
        return pick
    return _zlp_subset(gens, r)


def _completion(fbar: PolyMatrix, h_zlp: PolyMatrix | None,
                max_ops: int | None, max_degree: int | None
                ) -> CompletionResult:
    """The search for a unimodular completion of the ZLP annihilator h_zlp
    of F(z1 -> f), under the given budgets (None: the default).  h_zlp is
    the Cramer vector of the reduced minors for r = 1 and a stack of the
    syzygy basis for r > 1; None, no ZLP r-subset of that basis, is
    inconclusive, like a search that gives up.  A stack that does not
    annihilate F(z1 -> f) is an internal fault."""
    if h_zlp is None:
        return CompletionResult(FAILED_DEPTH_LIMIT)
    if any(not p.is_zero for row in (h_zlp * fbar).entries for p in row):
        raise InternalError("annihilator does not annihilate F(z1 -> f)")
    return _complete(h_zlp,
                     DEFAULT_MAX_OPS if max_ops is None else max_ops,
                     DEFAULT_MAX_DEGREE if max_degree is None else max_degree)


def factorize(matrix: PolyMatrix, h: Polynomial,
              order: MonomialOrder = DEGREVLEX,
              max_ops: int | None = None, max_degree: int | None = None,
              reverse_tie_break: bool = False) -> FactorizationOutcome:
    """Extract the full power h^r from the matrix when possible.

    Returns FACTORED with witnesses g1 (square, det a constant multiple of
    h^r) and f1 with matrix == g1 * f1 exactly; NO_FACTORIZATION (r == 1,
    provably none exists); UNABLE_TO_JUDGE (1 < r < l, the sufficient
    condition failed); or COMPLETION_NOT_FOUND, which is inconclusive: for
    r > 1 no r-subset of the syzygy basis of F(z1 -> f) is ZLP, or the
    completion's op or degree budget is spent, or a row stalls that its
    staged search cannot clear.

    The matrix completed is, for r = 1, the Cramer vector of the reduced
    minors the hypothesis check computed, ZLP once they generate the unit
    ideal; the syzygy basis of F(z1 -> f) serves r > 1.
    """
    l = matrix.rows
    fbar, r, pivots = _substituted(matrix, h, reverse_tie_break)

    if r == l:
        f1 = _extract_rows(matrix, h, l)
        g1 = _diagonal_target(h, l, l)
        _checked(verify_factorization(matrix, g1, f1, h, l))
        return FactorizationOutcome(FACTORED, l, h, g1, f1)

    reduced = _reduced_minors_on(fbar, pivots)
    basis = buchberger(reduced, order, track=True)
    if not basis.is_unit:
        variant = NO_FACTORIZATION if r == 1 else UNABLE_TO_JUDGE
        return FactorizationOutcome(variant, r, h,
                                    certificate=basis.generators)
    cof = basis.cofactors[0]

    # the reduced minors generate the unit ideal: the Cramer vector is ZLP
    h_zlp = (_cramer_vector(reduced) if r == 1
             else _annihilator(fbar, r, reverse_tie_break))
    result = _completion(fbar, h_zlp, max_ops, max_degree)
    if not result.completed:
        return FactorizationOutcome(COMPLETION_NOT_FOUND, r, h,
                                    certificate=basis.generators,
                                    cofactors=tuple(cof))
    f1 = _extract_rows(result.matrix * matrix, h, r)
    g1 = result.inverse * _diagonal_target(h, r, l)
    _checked(verify_factorization(matrix, g1, f1, h, r))
    return FactorizationOutcome(FACTORED, r, h, g1, f1,
                                certificate=basis.generators,
                                cofactors=tuple(cof))


def factorize_general_variable(matrix: PolyMatrix, var_index: int,
                               f_i: Polynomial,
                               order: MonomialOrder = DEGREVLEX,
                               max_ops: int | None = None,
                               max_degree: int | None = None,
                               reverse_tie_break: bool = False
                               ) -> FactorizationOutcome:
    """Factor with respect to h = z_{var_index+1} - f_i by letting that
    variable play the distinguished role (a variable swap on both ends)."""
    if f_i.involves(var_index):
        raise PivotError(
            f"f must not involve z{var_index + 1}")
    n = matrix.nvars
    perm = list(range(n))
    perm[0], perm[var_index] = perm[var_index], perm[0]

    h_orig = Polynomial.variable(n, var_index) - f_i
    if var_index == 0:
        return factorize(matrix, h_orig, order, max_ops, max_degree,
                         reverse_tie_break)

    swapped = matrix.permute_variables(perm)
    h_swapped = Polynomial.variable(n, 0) - f_i.permute_variables(perm)
    out = factorize(swapped, h_swapped, order, max_ops, max_degree,
                    reverse_tie_break)

    def back(p: Polynomial) -> Polynomial:
        return p.permute_variables(perm)

    def back_m(mat: PolyMatrix | None) -> PolyMatrix | None:
        return None if mat is None else mat.permute_variables(perm)

    return FactorizationOutcome(
        out.variant, out.r, h_orig, back_m(out.g1), back_m(out.f1),
        certificate=tuple(back(p) for p in out.certificate),
        cofactors=None if out.cofactors is None
        else tuple(back(p) for p in out.cofactors))


def fitting_sufficient_check(matrix: PolyMatrix, h: Polynomial):
    """Sufficient criterion via Fitting ideals of the substituted row module.

    True iff the presentation matrix (stacked syzygy generators) has all
    2 x 2 minors zero and its entry ideal is principal with a nonzero
    generator; truth implies the factorization exists.
    """
    fbar = _substituted(matrix, h)[0]  # membership check
    basis = syzygy([fbar.row(i) for i in range(fbar.rows)])
    if not basis.generators:
        return False, {"reason": "substituted matrix has full row rank"}
    pres = PolyMatrix([list(g) for g in basis.generators])
    if pres.rows >= 2:
        second_fitting_zero = all(p.is_zero for p in all_minors(pres, 2))
    else:
        second_fitting_zero = True
    entries = [p for row in pres.entries for p in row if not p.is_zero]
    if not entries:
        return False, {"reason": "zero presentation matrix"}
    g = gcd_many(entries)
    entry_basis = buchberger(entries)
    principal = normal_form(g, entry_basis).is_zero
    ok = second_fitting_zero and principal
    details = {
        "presentation_rows": pres.rows,
        "second_fitting_zero": second_fitting_zero,
        "entry_gcd": g,
        "principal": principal,
    }
    return ok, details


def decide_equivalence(matrix: PolyMatrix, h: Polynomial, r: int,
                       max_ops: int | None = None,
                       max_degree: int | None = None) -> EquivalenceOutcome:
    """Decide whether a square matrix with determinant a constant multiple
    of h^r is equivalent to diag(h,..,h,1,..,1) (r copies of h), producing
    unimodular witnesses u, v with matrix == u * d * v exactly.

    Returns EQUIVALENT with the witnesses, NOT_EQUIVALENT with a
    certificate, or COMPLETION_NOT_FOUND, which is inconclusive for the
    same causes as in factorize: for r > 1 no r-subset of the syzygy basis
    of F(z1 -> f) is ZLP, or the completion's op or degree budget is spent,
    or a row stalls that its staged search cannot clear.  As in factorize,
    r = 1 completes the Cramer vector of the reduced minors of F(z1 -> f)
    on its pivot columns, and the syzygy basis serves r > 1."""
    if not matrix.is_square:
        raise ShapeError("equivalence target requires a square matrix")
    l = matrix.rows
    if not 1 <= r <= l:
        raise ValueError(f"r must lie in 1..{l}")
    split_pivot(h)  # a PivotError comes before the determinant's ValueError
    if not _unit_times_power(matrix.determinant(), h, r):
        raise ValueError("determinant is not a constant multiple of h^r")

    d_target = _diagonal_target(h, r, l)

    # h | d_i iff rank F(z1 -> f) < i, as in classify; h | det gives a drop
    fbar, drop, pivots = _substituted(matrix, h)
    if drop < r:
        # h fails to divide d_{l-r+1}; that gcd is the counter-witness
        upper = gcd_many(all_minors(matrix, l - r + 1))
        return EquivalenceOutcome(NOT_EQUIVALENT, r, h, certificate=(upper,))
    if r == l:
        v = _extract_rows(matrix, h, l)
        u = PolyMatrix.identity(l, matrix.nvars)
        _checked(verify_equivalence(matrix, u, d_target, v))
        return EquivalenceOutcome(EQUIVALENT, r, h, u, d_target, v)

    gens = [h] + minor_ideal_generators(matrix, l - r)
    basis = buchberger(gens)
    if not basis.is_unit:
        return EquivalenceOutcome(NOT_EQUIVALENT, r, h,
                                  certificate=basis.generators)

    # (h) + I_{l-1}(F) = (1) gives I_{l-1}(F(z1 -> f)) = (1), and every
    # (l-1)-minor of F(z1 -> f) is a multiple of an entry of the primitive
    # kernel vector: for r = 1 the Cramer vector is ZLP
    h_zlp = (_cramer_vector(_reduced_minors_on(fbar, pivots)) if r == 1
             else _annihilator(fbar, r, False))
    result = _completion(fbar, h_zlp, max_ops, max_degree)
    if not result.completed:
        return EquivalenceOutcome(COMPLETION_NOT_FOUND, r, h,
                                  certificate=basis.generators)
    v = _extract_rows(result.matrix * matrix, h, r)
    u = result.inverse
    _checked(verify_equivalence(matrix, u, d_target, v))
    return EquivalenceOutcome(EQUIVALENT, r, h, u, d_target, v,
                              certificate=basis.generators)


def verify_factorization(matrix: PolyMatrix, g1: PolyMatrix, f1: PolyMatrix,
                         h: Polynomial | None = None,
                         r: int | None = None) -> bool:
    """Exact witness check: matrix == g1 * f1, and when h and r are given,
    det(g1) is a nonzero constant multiple of h^r."""
    try:
        if g1 * f1 != matrix:
            return False
    except ShapeError:
        return False
    if h is None or r is None:
        return True
    return _unit_times_power(g1.determinant(), h, r)


def verify_equivalence(matrix: PolyMatrix, u: PolyMatrix, d: PolyMatrix,
                       v: PolyMatrix) -> bool:
    """Exact witness check: matrix == u * d * v with u, v unimodular."""
    try:
        if u * d * v != matrix:
            return False
        return u.is_unimodular() and v.is_unimodular()
    except ShapeError:
        return False
