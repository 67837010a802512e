"""Production (Stieltjes) matrices of lower-triangular arrays.

If A is lower-triangular with rows row_0, row_1, ..., its production
matrix P satisfies row_(n+1) = row_n * P.  Extraction inverts that
relation: P = A^(-1) * (A with its first row removed), truncated to the
block the finite input can certify, and found by forward substitution
rather than by forming the inverse.  The substitution runs column by
column on int numerators over one denominator per column, and builds a
Fraction only for a nonzero entry of P that is not an integer: O(N) int
steps per nonzero entry, so O(N^2) for the tridiagonal P of a Hankel
factor.  Rebuilding the array from P runs the relation forwards, one
row product by P per row (``linalg.row_orbit``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd

from . import riordan, series
from .errors import CrossCheckFailed, SingularDiagonal, UnsupportedParameter
from .linalg import pad_square, row_orbit
from .riordan import RiordanArray
from .series import _integer_row


def production_matrix(a_rows):
    """Production matrix of a lower-triangular array given with N+1 rows.

    Consumes an (N+1) x (N+1) block and returns the reliable N x N block
    of P; entries beyond that would need more of A than was supplied.
    P solves L P = S, with L the leading N x N block and S rows 1..N.

    Each of the first N columns of the block is held as int numerators
    over one denominator, and column j of P is L^-1 (column j of S) by a
    forward substitution on int residuals over one running denominator.
    A nonzero residual at row i gives P[i][j]; it is eliminated from the
    rows below by one integer combination of the residuals with column i
    of L, the denominator taking up the reduced pivot.  A zero residual is
    an exact zero entry and costs one test, so the work is O(N) per
    nonzero entry of P: O(N^2) for a banded P such as the tridiagonal
    one of a Hankel factor, O(N^3) for a dense Hessenberg P.  Entries are
    ints where the value is an integer (zeros included) and Fractions
    otherwise.
    """
    full = pad_square(a_rows)
    n = len(full) - 1
    if n < 1:
        raise ValueError("need at least two rows to extract a production matrix")
    for i in range(n):
        if full[i][i] == 0:
            raise SingularDiagonal(f"zero diagonal entry at index {i}")
    cols = _columns(full, n)
    p = [[0] * n for _ in range(n)]
    for j, (col, den) in enumerate(cols):
        # Row i of S minus the rows of L P eliminated so far is res[i] / den.
        res = col[1:]
        for i in range(n):
            t = res[i]
            if not t:
                continue
            lower, li = cols[i]
            c = lower[i]
            # P[i][j] = (t / den) / (c / li).
            q, rem = divmod(t * li, den * c)
            p[i][j] = Fraction(t * li, den * c) if rem else q
            g = gcd(t, c)
            a, b = c // g, t // g
            if a < 0:
                a, b = -a, -b
            den *= a
            res[i + 1 :] = [
                a * x - b * y for x, y in zip(res[i + 1 :], lower[i + 1 : n])
            ]
    return p


def _columns(full, n):
    """The first n columns of the square block as (int numerators, den).

    No solve reads row 0 of a column k > 0, so it is held as an int zero.
    """
    return [
        _integer_row((0,) + col[1:] if k else col)
        for k, col in enumerate(islice(zip(*full), n))
    ]


def matrix_from_production(p, dim: int):
    """Rebuild the array from its production matrix: row_0 = e_0,
    row_(n+1) = row_n * P; returns a dim x dim block.

    P is read as its leading dim x dim block, zero-padded where its rows
    are short or too few.  Entries are ints where the value is an integer,
    as ``linalg.mat_mul`` gives them.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return row_orbit([1] + [0] * (dim - 1), pad_square(p, dim), dim)


def p_catalan(r: int, dim: int):
    """The structured production matrix of the Catalan-family array:
    row 0 is (0, r, 0, ...); row i >= 1 has ones in columns 1..i and r in
    column i+1."""
    if r < 1:
        raise UnsupportedParameter("r must be at least 1")
    m = [[0] * dim for _ in range(dim)]
    if dim > 1:
        m[0][1] = r
    for i in range(1, dim):
        for j in range(1, i + 1):
            m[i][j] = 1
        if i + 1 < dim:
            m[i][i + 1] = r
    return m


@lru_cache(maxsize=None)
def a_p(r: int, order: int) -> RiordanArray:
    """The array (1, (1+(r-1)x-s)/2) with s as in ``riordan._central_root``:
    the inverse of (1, x(1-x)/(r-(r-1)x)), generated by ``p_catalan(r)``,
    whose rule is Z = (0), A = (r, 1, 1, ...).
    """
    riordan._check_central(r, order)
    return riordan._named(_ap_series, (r,), order, ((0,), (r,), 1), (_ap_inverse, r))


def _ap_series(r: int, order: int):
    s, _ = riordan._central_root(r, order)
    return series.one(order), (series.poly([1, r - 1], order) - s) / 2


def _ap_inverse(r: int, order: int) -> RiordanArray:
    """(1, x(1-x)/(r-(r-1)x)): the inverse of ``a_p``."""
    return RiordanArray(
        series.one(order), series.rational([0, 1, -1], [r, -(r - 1)], order)
    )


def stieltjes_bridge(r: int, order: int):
    """Expand A_P(r) * B * (1, x/r) and insist it equals the Catalan array.

    Returns the ragged matrix rows; the equality is the bridge between the
    production-matrix picture and the LDL^T factor of the Catalan family.
    The two matrices are compared: column 0 is d and column 1 is d * h,
    and d(0) != 0, so equal matrices mean equal arrays.
    """
    ap = a_p(r, order)  # before Fraction(1, r): a_p rejects r < 1
    scale = RiordanArray(series.one(order), series.poly([0, Fraction(1, r)], order))
    rows = ap.multiply(riordan.binomial(order)).multiply(scale).to_matrix(order)
    if rows != riordan.l_catalan(r, order).to_matrix(order):
        raise CrossCheckFailed("bridge product does not match the Catalan array")
    return rows
