"""Exact-arithmetic toolkit for Riordan arrays and Hankel determinants.

Everything here works over Python integers and :class:`fractions.Fraction`;
no floating point is used anywhere, so every identity check is an exact
equality.
"""

from .errors import (
    CrossCheckFailed,
    IndexOutOfTriangle,
    InsufficientOrder,
    InsufficientTerms,
    IntegralityViolation,
    NonIntegerResult,
    NonUnitConstant,
    NonzeroInnerConstant,
    NotRevertible,
    RiordanKitError,
    SingularDiagonal,
    SingularLeadingMinor,
    SingularSystem,
    UnsupportedParameter,
    ZeroConstantDivisor,
)
from .series import Series, one, poly, rational, x
from .sequences import (
    b_seq,
    bessel_moments,
    catalan_sum,
    central,
    closed_ht,
    family_terms,
    gen_catalan,
    gen_pell,
    interleaved_pell,
    triangle_T,
    triangle_rows,
)
from .riordan import RiordanArray, binomial, binomial_power, l_catalan, l_central
from .hankel import binomial_transform, hankel_matrix, hankel_transform, ldl
from .production import a_p, matrix_from_production, p_catalan, production_matrix
from .berlekamp import bm_triangle, catalan_bm_term, char_poly, solve_bm

__version__ = "0.1.0"

__all__ = [
    "CrossCheckFailed",
    "IndexOutOfTriangle",
    "InsufficientOrder",
    "InsufficientTerms",
    "IntegralityViolation",
    "NonIntegerResult",
    "NonUnitConstant",
    "NonzeroInnerConstant",
    "NotRevertible",
    "RiordanKitError",
    "SingularDiagonal",
    "SingularLeadingMinor",
    "SingularSystem",
    "UnsupportedParameter",
    "ZeroConstantDivisor",
    "Series",
    "one",
    "poly",
    "rational",
    "x",
    "b_seq",
    "bessel_moments",
    "catalan_sum",
    "central",
    "closed_ht",
    "family_terms",
    "gen_catalan",
    "gen_pell",
    "interleaved_pell",
    "triangle_T",
    "triangle_rows",
    "RiordanArray",
    "binomial",
    "binomial_power",
    "l_catalan",
    "l_central",
    "binomial_transform",
    "hankel_matrix",
    "hankel_transform",
    "ldl",
    "a_p",
    "matrix_from_production",
    "p_catalan",
    "production_matrix",
    "bm_triangle",
    "catalan_bm_term",
    "char_poly",
    "solve_bm",
    "__version__",
]
