"""Top-level procedures: extraction of powers of a linear factor
h = z1 - f(z2..zn) from a polynomial matrix, and the decision whether a
square matrix is equivalent to diag(h,..,h,1,..,1).

Every positive outcome carries witness matrices that are re-verified by
exact multiplication before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, NamedTuple, Sequence

from .completion import (DEFAULT_MAX_DEGREE, DEFAULT_MAX_OPS, _complete,
                         _zlp_subset)
from .groebner import buchberger, is_unit_ideal, normal_form
from .matrix import (PolyMatrix, ShapeError, _reduced_minors_on, all_minors,
                     seeded_points)
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
    NotInClassError when r == 0, that is when h does not divide d_l.  The
    rank is taken at a seeded point, with no elimination of F(z1 -> f)
    unless every point fails, and proved exact by a Cramer stack of its
    minors (see _substituted).
    """
    return _substituted(matrix, h).r


class _Substitution(NamedTuple):
    """F(z1 -> f), the multiplicity r of classify, the reduced maximal
    minors of F(z1 -> f)[:, J], J its pivot columns, and an iterator over
    their Cramer stacks (see _cramer_stacks)."""

    fbar: PolyMatrix
    r: int
    reduced: tuple[Polynomial, ...]
    stacks: Iterator[tuple[PolyMatrix, bool]]


def _substituted(matrix: PolyMatrix, h: Polynomial, reverse: bool = False,
                 short_of: int = 0) -> _Substitution:
    """F(z1 -> f) with r, the reduced minors on J (taken from the right
    when asked) and the Cramer stacks, the first of which annihilates F(z1
    -> f).  A drop short of ``short_of`` comes back as it is, with no minors
    or stacks: a point can only overstate the drop, so the true one is
    short of that as well.

    r = l exactly when every entry of F(z1 -> f) vanishes.  Otherwise J is
    found at a seeded point modulo a prime, where the rank can only drop.
    The first stack annihilating F(z1 -> f) proves it does not there: its
    rows are independent and b_I != 0, so rank F(z1 -> f) is l - r
    exactly.  A point where that fails, or where every entry vanishes,
    moves on to the next seeded point.  When every point fails, as it does
    when a minor the rank needs has all its integer coefficients multiples
    of the prime, J comes from the exact elimination, whose first stack
    must annihilate F(z1 -> f)."""
    f = split_pivot(h)
    l = matrix.rows
    if l > matrix.cols:
        raise ShapeError("expected at least as many columns as rows")
    fbar = matrix.substitute(0, f)
    if all(p.is_zero for row in fbar.entries for p in row):
        return _Substitution(fbar, l, (), iter(()))

    def tries() -> Iterator[list[int]]:
        for point in seeded_points(matrix.nvars):
            yield fbar._modular_pivots(point, reverse)
        yield fbar._eliminate(reverse)[0]

    for pivots in tries():
        if len(pivots) == l:
            raise NotInClassError(
                "h does not divide the gcd of the maximal minors")
        if l - len(pivots) < short_of:
            return _Substitution(fbar, l - len(pivots), (), iter(()))
        if not pivots:
            continue
        reduced = _reduced_minors_on(fbar, pivots)
        stacks = _cramer_stacks(reduced, l, len(pivots))
        first = next(stacks)
        if _annihilates(first[0], fbar):
            return _Substitution(fbar, l - len(pivots), reduced,
                                 chain([first], stacks))
    raise InternalError("the Cramer stack of the exact pivots does not "
                        "annihilate F(z1 -> f)")


def _annihilates(stack: PolyMatrix, fbar: PolyMatrix) -> bool:
    return all(p.is_zero for row in (stack * fbar).entries for p in row)


def _cramer_stacks(reduced: Sequence[Polynomial], l: int, k: int
                   ) -> Iterator[tuple[PolyMatrix, bool]]:
    """For each row set I, in lexicographic order, whose reduced minor b_I
    of the l x k pivot columns is nonzero: the stack of the Cramer vectors
    of the row sets I + {i}, i outside I, and whether the stack is ZLP.

    Entry t of the vector for row i is (-1)^p b_{(I + {i}) - {t}}, p the
    place of t in I + {i}, so that it annihilates the pivot columns.  It is
    divided by the gcd e_i of its entries (1 for r = l - k = 1, where the
    entries are all the b_S) and by the degrevlex leading coefficient of
    its first nonzero entry.  The r-minors of the stack are
    b_I^(r-1) / prod e_i times the b_S, up to sign, so when the b_S
    generate the unit ideal the stack is ZLP iff that factor is a
    constant: iff (r - 1) deg b_I == sum deg e_i.  For r = 1 the vector is
    the one generator of the reduced syzygy basis."""
    r = l - k
    minors = dict(zip(combinations(range(l), k), reduced))
    nvars = reduced[0].nvars
    zero = Polynomial.zero(nvars)
    for rows, b in minors.items():
        if b.is_zero:
            continue
        stack, degree = [], 0
        for i in (i for i in range(l) if i not in rows):
            support = sorted(rows + (i,))
            vector = [zero] * l
            for place, t in enumerate(support):
                p = minors[tuple(s for s in support if s != t)]
                vector[t] = -p if place % 2 else p
            if r > 1:
                e = gcd_many(p for p in vector if not p.is_zero)
                if not e.is_constant:
                    degree += e.total_degree()
                    vector = [exact_div(p, e) for p in vector]
            lead = next(p for p in vector if not p.is_zero
                        ).leading_coefficient()
            if lead != 1:
                scale = 1 / lead
                vector = [p * scale for p in vector]
            stack.append(vector)
        yield PolyMatrix(stack), (r - 1) * b.total_degree() == degree


def _diagonal_target(h: Polynomial, r: int, l: int) -> PolyMatrix:
    one = Polynomial.one(h.nvars)
    return PolyMatrix.diagonal([h] * r + [one] * (l - r))


def _annihilator(fbar: PolyMatrix, r: int,
                 reverse_tie_break: bool) -> PolyMatrix | None:
    """The fallback when no Cramer stack is ZLP: a ZLP stack of r syzygy
    generators of the substituted matrix's rows, or None when no r of them
    are ZLP.  It is the pivot pick (the first r pivot columns of the
    transposed stack, from the end when asked) when that is ZLP, else the
    first ZLP r-subset in lexicographic order.  Under the reduced-minor
    hypothesis the caller checked, the syzygy module is {v : d*v in
    <pick>}, d the gcd of the pick's maximal minors, and its ZLP r-subsets
    are the ones that span it."""
    gens = syzygy([fbar.row(i) for i in range(fbar.rows)]).generators
    chosen = (PolyMatrix([list(g) for g in gens]).transpose()
              ._eliminate(reverse_tie_break)[0][:r] if gens else [])
    if len(chosen) != r:
        raise InternalError("syzygy rank does not match the multiplicity")
    pick = PolyMatrix([list(gens[k]) for k in chosen])
    if is_unit_ideal(all_minors(pick, r))[0]:
        return pick
    return _zlp_subset(gens, r)


def _zlp_stack(fbar: PolyMatrix, r: int,
               stacks: Iterator[tuple[PolyMatrix, bool]],
               reverse_tie_break: bool) -> PolyMatrix | None:
    """The ZLP annihilator of F(z1 -> f) to complete, once the reduced
    minors generate the unit ideal: the first ZLP Cramer stack, else the
    syzygy fallback (None when that finds none either).  The first stack
    was checked to annihilate F(z1 -> f) already; any other is checked
    here, and one that does not is an internal fault."""
    for place, (stack, zlp) in enumerate(stacks):
        if zlp:
            break
    else:
        place, stack = -1, _annihilator(fbar, r, reverse_tie_break)
        if stack is None:
            return None
    if place and not _annihilates(stack, fbar):
        raise InternalError("annihilator does not annihilate F(z1 -> f)")
    return stack


def _split_off(matrix: PolyMatrix, h: Polynomial, sub: _Substitution,
               reverse_tie_break: bool, max_ops: int | None,
               max_degree: int | None
               ) -> tuple[PolyMatrix, PolyMatrix] | None:
    """Split h^r off the matrix: (A^-1, A * matrix with its first r rows
    divided by h), for A unimodular whose first r rows are the ZLP
    annihilator of F(z1 -> f) from _zlp_stack, completed under the given
    budgets (None: the default); A is the identity for r == l.  None when
    no annihilator is ZLP or the completion gives up, which is
    inconclusive."""
    l, r = matrix.rows, sub.r
    if r == l:
        inverse, product = PolyMatrix.identity(l, matrix.nvars), matrix
    else:
        stack = _zlp_stack(sub.fbar, r, sub.stacks, reverse_tie_break)
        if stack is None:
            return None
        result = _complete(
            stack, DEFAULT_MAX_OPS if max_ops is None else max_ops,
            DEFAULT_MAX_DEGREE if max_degree is None else max_degree)
        if not result.completed:
            return None
        inverse, product = result.inverse, result.matrix * matrix
    return inverse, PolyMatrix([[exact_div(p, h) for p in row] if i < r
                                else row
                                for i, row in enumerate(product.entries)])


def factorize(matrix: PolyMatrix, h: Polynomial,
              order: MonomialOrder = DEGREVLEX,
              max_ops: int | None = None, max_degree: int | None = None,
              reverse_tie_break: bool = False) -> FactorizationOutcome:
    """Extract the full power h^r from the matrix when possible.

    Returns FACTORED with witnesses g1 (square, det a constant multiple of
    h^r) and f1 with matrix == g1 * f1 exactly; NO_FACTORIZATION (r == 1,
    provably none exists); UNABLE_TO_JUDGE (1 < r < l, the sufficient
    condition failed); or COMPLETION_NOT_FOUND, which is inconclusive: for
    r > 1 neither a Cramer stack of the reduced minors nor an r-subset of
    the syzygy basis of F(z1 -> f) is ZLP, or the completion's op or
    degree budget is spent, or a row stalls that its staged search cannot
    clear.

    r and the pivot columns J come from a point and are proved exact by
    the first Cramer stack of the reduced maximal minors of F(z1 -> f)[:,
    J] (see _substituted), before any answer.  Those minors are the ones
    the hypothesis check tests for the unit ideal; the matrix completed is
    the first ZLP Cramer stack on them, which for r = 1 is their signed
    vector, and the syzygy basis of F(z1 -> f) only when no stack is ZLP.
    """
    l = matrix.rows
    sub = _substituted(matrix, h, reverse_tie_break)
    r, certificate, cofactors = sub.r, (), None
    if r < l:
        basis = buchberger(sub.reduced, order, track=True)
        if not basis.is_unit:
            variant = NO_FACTORIZATION if r == 1 else UNABLE_TO_JUDGE
            return FactorizationOutcome(variant, r, h,
                                        certificate=basis.generators)
        certificate, cofactors = basis.generators, tuple(basis.cofactors[0])

    split = _split_off(matrix, h, sub, reverse_tie_break, max_ops, max_degree)
    if split is None:
        return FactorizationOutcome(COMPLETION_NOT_FOUND, r, h,
                                    certificate=certificate,
                                    cofactors=cofactors)
    inverse, f1 = split
    g1 = inverse * _diagonal_target(h, r, l)
    _checked(verify_factorization(matrix, g1, f1, h, r))
    return FactorizationOutcome(FACTORED, r, h, g1, f1, certificate,
                                cofactors)


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
    fbar = _substituted(matrix, h).fbar  # membership check
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

    Returns EQUIVALENT with the witnesses, NOT_EQUIVALENT with the
    certificate d_{l-r+1}, or COMPLETION_NOT_FOUND, which is inconclusive
    for the same causes as in factorize.  The certificate of those two is
    (1,), the reduced basis of (h) + I_{l-r}(F), for r < l and () for r = l.

    The paper's criterion is h | d_{l-r+1} and (h) + I_{l-r}(F) = (1);
    under det F = c*h^r the second part always holds.  For q in K̄^(n-1),
    F on the line t -> (f(q) + t, q), where h is t, has determinant c*t^r,
    so at most r invariant factors of its Smith form over K̄[t] vanish at
    t = 0: rank F(f(q), q) >= l - r.  The (l-r)-minors of F(z1 -> f) thus
    have no common zero, and the Nullstellensatz gives I_{l-r}(F(z1 -> f))
    = (1), which is (h) + I_{l-r}(F) = (1) as z1 -> f maps K[z]/(h) onto
    K[z2..zn].  Each such minor is a multiple of a reduced minor b_S of
    F(z1 -> f) on its pivot columns, so the b_S generate (1) too, as the
    degree test of _cramer_stacks needs.  The answer is NOT_EQUIVALENT iff
    the rank drop of F(z1 -> f) is below r; otherwise the drop is r,
    proved by the first Cramer stack (see _substituted), and the first ZLP
    stack is completed, the syzygy basis only when none is."""
    if not matrix.is_square:
        raise ShapeError("equivalence target requires a square matrix")
    l = matrix.rows
    if not 1 <= r <= l:
        raise ValueError(f"r must lie in 1..{l}")
    split_pivot(h)  # a PivotError comes before the determinant's ValueError
    if not _unit_times_power(matrix.determinant(), h, r):
        raise ValueError("determinant is not a constant multiple of h^r")

    sub = _substituted(matrix, h, short_of=r)
    if sub.r < r:
        # h fails to divide d_{l-r+1}; that gcd is the counter-witness
        upper = gcd_many(all_minors(matrix, l - r + 1, lazy=True))
        return EquivalenceOutcome(NOT_EQUIVALENT, r, h, certificate=(upper,))
    certificate = (Polynomial.one(matrix.nvars),) if r < l else ()
    split = _split_off(matrix, h, sub, False, max_ops, max_degree)
    if split is None:
        return EquivalenceOutcome(COMPLETION_NOT_FOUND, r, h,
                                  certificate=certificate)
    u, v = split
    d = _diagonal_target(h, r, l)
    _checked(verify_equivalence(matrix, u, d, v))
    return EquivalenceOutcome(EQUIVALENT, r, h, u, d, v, certificate)


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
