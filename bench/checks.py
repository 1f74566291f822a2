"""Checks of polymat's answers, made with sympy apart from polymat.

They run after the timed phase.  Every check returns None for a correct
answer and a one-line reason otherwise.  Witnesses are multiplied out and
their determinants taken in sympy's sparse polynomial ring; multiplicities
come from sympy's rank of F(z1 -> f); Groebner bases are compared with
``sympy.groebner(..., order='grevlex')``; gcd chains with sympy's gcd.
"""

from __future__ import annotations

import json
from functools import lru_cache, reduce
from itertools import combinations

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grevlex
from sympy.polys.rings import ring

FACTORED = "factored"
UNABLE_TO_JUDGE = "unable_to_judge"
EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"


class Algebra:
    """QQ[z1..zn] with the grevlex order, z1 > z2 > ... > zn."""

    def __init__(self, nvars: int):
        names = ",".join(f"z{i + 1}" for i in range(nvars))
        self.ring, *self.gens = ring(names, QQ, grevlex)
        self.domain = self.ring.to_domain()

    def poly(self, p):
        """A polymat Polynomial, read from its term map."""
        return self.ring.from_dict({m: QQ(c.numerator, c.denominator)
                                    for m, c in p.terms.items()})

    def parse(self, text: str):
        """A polynomial in polymat's printed syntax."""
        return self.ring.from_expr(sympy.sympify(text.replace("^", "**")))

    def matrix(self, rows) -> DomainMatrix:
        """A matrix given as rows of polymat Polynomials or of strings."""
        conv = [[self.parse(p) if isinstance(p, str) else self.poly(p)
                 for p in row] for row in rows]
        return DomainMatrix(conv, (len(conv), len(conv[0])), self.domain)

    def pm_matrix(self, m) -> DomainMatrix:
        return self.matrix(m.entries)

    def substitute_pivot(self, m: DomainMatrix, h) -> DomainMatrix:
        """m with z1 -> f, where h = z1 - f."""
        f = self.gens[0] - h
        rows = [[p.compose(self.gens[0], f) for p in row]
                for row in m.to_list()]
        return DomainMatrix(rows, m.shape, self.domain)

    def rank_drop(self, m: DomainMatrix, h) -> int:
        return m.shape[0] - self.substitute_pivot(m, h).rank()


@lru_cache(maxsize=None)
def algebra(nvars: int) -> Algebra:
    return Algebra(nvars)


def _const_times_power(det, h, r: int) -> bool:
    """det is a nonzero constant times h^r."""
    if not det:
        return False
    hr = h ** r
    return det == hr.mul_ground(det.LC / hr.LC)


def _nonzero_constant(p) -> bool:
    return bool(p) and p.is_ground


def _monic_key(p):
    return tuple(sorted(p.monic().items())) if p else ()


def _diagonal(alg: Algebra, h, r: int, l: int) -> DomainMatrix:
    one, zero = alg.ring.one, alg.ring.zero
    rows = [[(h if i < r else one) if i == j else zero for j in range(l)]
            for i in range(l)]
    return DomainMatrix(rows, (l, l), alg.domain)


def _factor_answer(alg, fs, h, lower_r, variant, r, g1, f1):
    """Shared by the library and the CLI checks of a factorization.  ``g1``
    and ``f1`` are DomainMatrix witnesses or None."""
    l = fs.shape[0]
    true_r = alg.rank_drop(fs, h)
    if r != true_r:
        return f"reports r = {r}, the rank of F(z1 -> f) gives {true_r}"
    if true_r < lower_r:
        return f"r = {true_r} is below the construction's {lower_r}"
    if variant == FACTORED:
        if g1 is None or f1 is None:
            return "factored without witnesses"
        if g1 * f1 != fs:
            return "G1 * F1 != F"
        if not _const_times_power(g1.det(), h, r):
            return f"det G1 is not a nonzero constant times h^{r}"
        return None
    if variant == UNABLE_TO_JUDGE and 1 < r < l:
        return None
    return f"{variant} is not an allowed answer for r = {r}, l = {l}"


def check_factorization(case, out):
    """``case`` is a families.FactorCase, ``out`` a FactorizationOutcome."""
    alg = algebra(case.matrix.nvars)
    g1 = alg.pm_matrix(out.g1) if out.g1 is not None else None
    f1 = alg.pm_matrix(out.f1) if out.f1 is not None else None
    return _factor_answer(alg, alg.pm_matrix(case.matrix), alg.poly(case.h),
                          case.r, out.variant, out.r, g1, f1)


def _equivalence_answer(alg, fs, h, r, negative, variant, u, d, v):
    if negative:
        return (None if variant == NOT_EQUIVALENT
                else f"{variant} for a diag(h^2,1,..,1) matrix asked r = 2")
    if variant != EQUIVALENT:
        return f"{variant} for a matrix equivalent by construction"
    if d != _diagonal(alg, h, r, fs.shape[0]):
        return "D is not diag(h,..,h,1,..,1)"
    if u * d * v != fs:
        return "U * D * V != F"
    if not (_nonzero_constant(u.det()) and _nonzero_constant(v.det())):
        return "U or V is not unimodular"
    return None


def check_equivalence(case, out):
    """``case`` is a families.EquivCase, ``out`` an EquivalenceOutcome."""
    alg = algebra(case.matrix.nvars)
    mats = [alg.pm_matrix(x) if x is not None else None
            for x in (out.u, out.d, out.v)]
    return _equivalence_answer(alg, alg.pm_matrix(case.matrix),
                               alg.poly(case.h), case.r, case.negative,
                               out.variant, *mats)


def _sympy_basis(alg: Algebra, polys) -> set:
    nonzero = [p for p in polys if p]
    if not nonzero:
        return set()
    basis = sympy.groebner([p.as_expr() for p in nonzero], *alg.ring.symbols,
                           order="grevlex", domain=QQ)
    return {_monic_key(alg.ring.from_expr(e)) for e in basis.exprs}


def check_groebner(payload, basis):
    """``payload`` is (gens, track); ``basis`` an IdealBasis."""
    gens, track = payload
    alg = algebra(gens[0].nvars)
    sgens = [alg.poly(g) for g in gens]
    got = [alg.poly(g) for g in basis.generators]
    if {_monic_key(g) for g in got} != _sympy_basis(alg, sgens):
        return "basis differs from sympy's reduced grevlex basis"
    if len(got) != len(set(_monic_key(g) for g in got)):
        return "basis repeats an element"
    if track:
        for g, row in zip(got, basis.cofactors):
            combo = sum((alg.poly(c) * s for c, s in zip(row, sgens)),
                        alg.ring.zero)
            if combo != g:
                return "cofactors do not reproduce a basis element"
    return None


# -- command-line documents ----------------------------------------------

def _gcd_of_minors(fs: DomainMatrix, size: int):
    l, m = fs.shape
    minors = [fs.extract(list(rows), list(cols)).det()
              for rows in combinations(range(l), size)
              for cols in combinations(range(m), size)]
    return reduce(lambda a, b: a.gcd(b), minors)


def _cli_analyze(alg, problem, doc):
    fs = alg.matrix(problem["matrix"])
    if doc["rank"] != fs.rank():
        return f"rank {doc['rank']}, sympy gives {fs.rank()}"
    for size, text in enumerate(doc["d_chain"], start=1):
        if _monic_key(alg.parse(text)) != _monic_key(_gcd_of_minors(fs, size)):
            return f"d_{size} differs from sympy's gcd of the minors"
    return None


def _cli_groebner(alg, problem, doc):
    if "polys" in problem:
        gens = [alg.parse(s) for s in problem["polys"]]
    else:
        gens = [alg.parse(s) for row in problem["matrix"] for s in row]
    got = [alg.parse(s) for s in doc["basis"]]
    if {_monic_key(g) for g in got} != _sympy_basis(alg, gens):
        return "basis differs from sympy's reduced grevlex basis"
    if doc["unit_ideal"] != (len(got) == 1 and got[0].is_ground):
        return "unit_ideal flag disagrees with the basis"
    return None


def _doc_matrix(alg, grid):
    return None if grid is None else alg.matrix(grid)


def _cli_factorize(alg, problem, doc):
    fs = alg.matrix(problem["matrix"])
    h = alg.parse(problem["h"])
    reason = _factor_answer(alg, fs, h, problem.get("r", 1), doc["outcome"],
                            doc["r"], _doc_matrix(alg, doc["g1"]),
                            _doc_matrix(alg, doc["f1"]))
    if reason or doc["outcome"] != FACTORED:
        return reason
    if doc["verified"] is not True:
        return "witnesses not reported as verified"
    current = fs
    for step in doc["chain"]:
        g1, f1 = alg.matrix(step["g1"]), alg.matrix(step["f1"])
        if g1 * f1 != current:
            return "a chain step's G1 * F1 differs from the previous F1"
        current = f1
    if alg.matrix(doc["f_final"]) != current:
        return "f_final is not the last step's F1"
    if alg.matrix(doc["g_total"]) * current != fs:
        return "g_total * f_final != F"
    return None


def _cli_equivalence(alg, problem, doc):
    fs = alg.matrix(problem["matrix"])
    h = alg.parse(problem["h"])
    mats = [_doc_matrix(alg, doc[k]) for k in ("u", "d", "v")]
    reason = _equivalence_answer(alg, fs, h, problem["r"],
                                 problem.get("negative", False),
                                 doc["outcome"], *mats)
    if reason is None and doc["outcome"] == EQUIVALENT \
            and doc["verified"] is not True:
        return "witnesses not reported as verified"
    return reason


_CLI = {"analyze": _cli_analyze, "groebner": _cli_groebner,
        "factorize": _cli_factorize, "equivalence": _cli_equivalence}


def check_cli(payload, result):
    """``payload`` is (command, problem dict); ``result`` (code, stdout)."""
    command, problem = payload
    code, stdout = result
    doc = json.loads(stdout)
    if "error" in doc:
        return f"exit {code}: {doc['error']['message']}"
    expected_code = 2 if doc.get("outcome") == UNABLE_TO_JUDGE else 0
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    return _CLI[command](algebra(problem["nvars"]), problem, doc)


CHECKS = {
    "factorize": check_factorization,
    "equivalence": check_equivalence,
    "groebner": check_groebner,
    "cli": check_cli,
}
