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

from itertools import islice
from math import gcd

from . import riordan
from .errors import CrossCheckFailed, SingularDiagonal, UnsupportedParameter
from .linalg import pad_square, row_orbit
from .riordan import a_p
from .series import _integer_row, _ratio


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
    # Each of the first n columns as (int numerators, den); no solve reads
    # row 0 of a column k > 0, so it is held as an int zero.
    cols = [
        _integer_row((0,) + col[1:] if k else col)
        for k, col in enumerate(islice(zip(*full), n))
    ]
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
            g = gcd(t, c)
            a, b = c // g, t // g
            if a < 0:
                a, b = -a, -b
            den *= a
            # P[i][j] = (t / den) / (c / li) = b li / (a den), over the new den.
            p[i][j] = _ratio(b * li, den)
            if a == 1:
                res[i + 1 :] = [x - b * y for x, y in zip(res[i + 1 :], lower[i + 1 : n])]
            else:
                res[i + 1 :] = [
                    a * x - b * y for x, y in zip(res[i + 1 :], lower[i + 1 : n])
                ]
    return p


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
    """The structured production matrix of the Catalan-family array, the
    P of ``a_p``'s rule Z = (0), A = (r, 1, 1, ...): row 0 is
    (0, r, 0, ...); row i >= 1 has ones in columns 1..i and r in column
    i+1."""
    if r < 1:
        raise UnsupportedParameter("r must be at least 1")
    return riordan.rule_matrix((0,), (r,), 1, dim)


def stieltjes_bridge(r: int, order: int):
    """Expand A_P(r) * B * (1, x/r) and insist it equals the Catalan array.

    Returns the ragged matrix rows; the equality is the bridge between the
    production-matrix picture and the LDL^T factor of the Catalan family.
    The factor (1, x/r) divides column k by r^k, so the rows are those of
    A_P(r) * B with each column divided.  The two matrices are compared:
    column 0 is d and column 1 is d * h, and d(0) != 0, so equal matrices
    mean equal arrays.
    """
    ap_b = a_p(r, order).multiply(riordan.binomial(order)).to_matrix(order)
    powers = [r**k for k in range(order)]
    rows = [[_ratio(v, p) for v, p in zip(row, powers)] for row in ap_b]
    if rows != riordan.l_catalan(r, order).to_matrix(order):
        raise CrossCheckFailed("bridge product does not match the Catalan array")
    return rows
