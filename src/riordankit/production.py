"""Production (Stieltjes) matrices of lower-triangular arrays.

If A is lower-triangular with rows row_0, row_1, ..., its production
matrix P satisfies row_(n+1) = row_n * P.  Extraction inverts that
relation: P = A^(-1) * (A with its first row removed), truncated to the
block the finite input can certify, and found by forward substitution
rather than by forming the inverse.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import riordan, series
from .errors import CrossCheckFailed, SingularDiagonal, UnsupportedParameter
from .linalg import pad_square
from .riordan import RiordanArray


def production_matrix(a_rows):
    """Production matrix of a lower-triangular array given with N+1 rows.

    Consumes an (N+1) x (N+1) block and returns the reliable N x N block
    of P; entries beyond that would need more of A than was supplied.
    P solves L P = S, with L the leading N x N block and S rows 1..N, by
    one forward substitution, row i of P being
    (S_i - sum_(k<i) L[i][k] P_k) / L[i][i]; zero entries of L and of P
    are skipped, so a banded P costs O(N^2).
    """
    full = pad_square(a_rows)
    n = len(full) - 1
    if n < 1:
        raise ValueError("need at least two rows to extract a production matrix")
    for i in range(n):
        if full[i][i] == 0:
            raise SingularDiagonal(f"zero diagonal entry at index {i}")
    p = []
    nonzero = []
    for i in range(n):
        row = full[i + 1][:n]
        li = full[i]
        for k in range(i):
            lik = li[k]
            if lik:
                for j, v in nonzero[k]:
                    row[j] -= lik * v
        if li[i] != 1:
            scale = Fraction(1) / li[i]
            row = [v * scale for v in row]
        p.append(row)
        nonzero.append([(j, v) for j, v in enumerate(row) if v])
    return p


def matrix_from_production(p, dim: int):
    """Rebuild the array from its production matrix: row_0 = e_0,
    row_(n+1) = row_n * P; returns a dim x dim block."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    size = len(p)
    rows = [[Fraction(0)] * dim]
    rows[0][0] = Fraction(1)
    for _ in range(dim - 1):
        prev = rows[-1]
        nxt = [Fraction(0)] * dim
        for k in range(min(len(prev), size)):
            if prev[k]:
                pk = p[k]
                for j in range(min(dim, len(pk))):
                    if pk[j]:
                        nxt[j] += prev[k] * pk[j]
        rows.append(nxt)
    return rows


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
    the inverse of (1, x(1-x)/(r-(r-1)x)), generated by ``p_catalan(r)``.
    """
    s, _ = riordan._central_root(r, order)
    h = (series.poly([1, r - 1], order) - s) / 2
    return RiordanArray(series.one(order), h)


def stieltjes_bridge(r: int, order: int):
    """Expand A_P(r) * B * (1, x/r) and insist it equals the Catalan array.

    Returns the ragged matrix rows; the equality is the bridge between the
    production-matrix picture and the LDL^T factor of the Catalan family.
    """
    ap = a_p(r, order)  # before Fraction(1, r): a_p rejects r < 1
    scale = RiordanArray(series.one(order), series.poly([0, Fraction(1, r)], order))
    bridged = ap.multiply(riordan.binomial(order)).multiply(scale)
    if bridged != riordan.l_catalan(r, order):
        raise CrossCheckFailed("bridge product does not match the Catalan array")
    return bridged.to_matrix(order)
