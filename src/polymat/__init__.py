"""Exact computer algebra for multivariate polynomial matrices.

Decides when a polynomial matrix F splits as F = G1 * F1 with det(G1) a
power of a linear polynomial h = z_i - f, when a square matrix is
equivalent to diag(h,..,h,1,..,1), and produces exact witness matrices for
every positive answer.
"""

from .completion import (CompletionResult, FactorizationIncompleteError,
                         HypothesisError, NotFullRankError,
                         complete_to_unimodular, is_zlp, zlp_factorize)
from .factorize import (EquivalenceOutcome, FactorizationOutcome,
                        InternalError, NotInClassError, PivotError, classify,
                        decide_equivalence, factorize,
                        factorize_general_variable, fitting_sufficient_check,
                        verify_equivalence, verify_factorization)
from .groebner import IdealBasis, buchberger, is_unit_ideal, normal_form
from .matrix import (MinorReport, PolyMatrix, ShapeError, all_minors,
                     column_reduced_minors, fitting_ideal, gcd_chain,
                     minors_report, row_reduced_minors)
from .modules import (ModuleBasis, ModuleVector, module_equal,
                      module_membership, module_quotient_by_poly,
                      rank_of_module, syzygy)
from .parsing import ParseError, parse_polynomial
from .poly import (DEGREVLEX, DimensionError, MonomialOrder, Polynomial,
                   SubstitutionError, divides, exact_div, gcd, gcd_many,
                   normalized)

__version__ = "0.1.0"
