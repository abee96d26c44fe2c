"""Sliceness obstructions for the closures of (sigma_1 sigma_2^-1)^n
via metabelian twisted Alexander polynomials.

The package is exact end to end: Laurent polynomials over Z,
fraction-free determinants and Smith forms, prime-field factorization,
and the Q/Z linking form of the 3-fold branched cover all use integer
or rational arithmetic only.

The package level holds the entry points its users call; everything
else is imported from its submodule (`sliceobs.report`,
`sliceobs.blanchfield`, ...).
"""

from .blanchfield import cover_homology_snf, linking_form
from .ffpoly import is_irreducible
from .linalg import det_gf
from .report import obstruct, verify_table
from .seifert import alexander_polynomial, p_n

__version__ = "1.0.0"

__all__ = [
    "obstruct", "verify_table", "linking_form", "cover_homology_snf",
    "alexander_polynomial", "p_n", "is_irreducible", "det_gf",
    "__version__",
]
