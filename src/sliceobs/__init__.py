"""Sliceness obstructions for the closures of (sigma_1 sigma_2^-1)^n
via metabelian twisted Alexander polynomials.

The package is exact end to end: Laurent polynomials over Z,
fraction-free determinants and Smith forms, prime-field factorization,
and the Q/Z linking form of the 3-fold branched cover all use integer
or rational arithmetic only.
"""

from .blanchfield import (CoverHomology, LinkingForm, SymmetryAction,
                          cover_homology_snf, linking_form, linking_template,
                          symmetry_action)
from .braids import (BraidWord, WirtingerPresentation, family_braid,
                     family_is_knot, wirtinger_of_closure)
from .ffpoly import (FactorizationResult, degree_sequence, factor,
                     is_irreducible, norm_obstructed,
                     primitive_root_of_unity)
from .laurent import LaurentPolynomial
from .linalg import (Matrix, det_bareiss, det_gf, involution,
                     smith_normal_form)
from .metabolizers import (Character, Submodule, character_for,
                           enumerate_metabolizers, is_metabolizer,
                           orbit_decomposition)
from .report import ObstructionReport, obstruct, verify_table
from .seifert import SeifertData, alexander_polynomial, p_n, seifert_matrix
from .twisted import (TwistedPolynomial, TwistedRep, period_shift,
                      propagate, seed_tuples, twisted_polynomial)

__version__ = "1.0.0"

__all__ = [
    "CoverHomology", "LinkingForm", "SymmetryAction", "cover_homology_snf",
    "linking_form", "linking_template", "symmetry_action",
    "BraidWord", "WirtingerPresentation", "family_braid", "family_is_knot",
    "wirtinger_of_closure",
    "FactorizationResult", "degree_sequence", "factor",
    "is_irreducible", "norm_obstructed", "primitive_root_of_unity",
    "LaurentPolynomial",
    "Matrix", "det_bareiss", "det_gf", "involution", "smith_normal_form",
    "Character", "Submodule", "character_for", "enumerate_metabolizers",
    "is_metabolizer", "orbit_decomposition",
    "ObstructionReport", "obstruct", "verify_table",
    "SeifertData", "alexander_polynomial", "p_n", "seifert_matrix",
    "TwistedPolynomial", "TwistedRep", "period_shift", "propagate",
    "seed_tuples", "twisted_polynomial",
    "__version__",
]
