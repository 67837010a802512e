"""Exact dense matrix helpers shared by the Hankel, production, and
linear-recurrence modules.

Matrices are plain lists of row lists with int or Fraction entries.
Triangular arrays are often kept ragged (row n holds n+1 entries);
``pad_square`` turns those into full square matrices when needed.
``_bareiss_step`` is the row update of every elimination, the dense LDL^T
in ``hankel`` included, and ``mat_mul`` the one matrix product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegralityViolation, SingularDiagonal, SingularSystem


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def pad_square(rows, dim: int | None = None):
    """Zero-pad ragged rows on the right, and missing rows below, to dim x dim."""
    if dim is None:
        dim = len(rows)
    out = []
    for i in range(dim):
        row = list(rows[i][:dim]) if i < len(rows) else []
        row += [0] * (dim - len(row))
        out.append(row)
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                if bk[j]:
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v)) if row[j]) for row in a]


def as_int(value) -> int:
    """Exact conversion to int; a proper fraction is a bug, not a rounding."""
    if isinstance(value, int):
        return value
    f = Fraction(value)
    if f.denominator != 1:
        raise IntegralityViolation(f"expected an integer, got {f}")
    return f.numerator


def int_rows(rows):
    return [[as_int(e) for e in row] for row in rows]


def _exact_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    return a / b


def _bareiss_step(m, k, prev):
    """Step k of the fraction-free (Bareiss) elimination of m, in place:
    each row below the pivot m[k][k] takes its entries after column k to
    (pivot * row[j] - row[k] * m[k][j]) / prev, exactly.  With no row swap
    before it, that is det m[{0..k, i}, {0..k, j}] (Sylvester's identity;
    Bareiss, *Math. Comp.* 22, 1968); column k is left as it is, so below
    the pivot it holds det m[{0..k-1, i}, {0..k}]."""
    top = m[k]
    pivot = top[k]
    for row in m[k + 1 :]:
        lead = row[k]
        for j in range(k + 1, len(row)):
            row[j] = _exact_div(pivot * row[j] - lead * top[j], prev)


def _eliminate(m, steps):
    """Fraction-free (Bareiss) elimination of m in place, over its first
    ``steps`` columns; m may be rectangular, and every later column is
    carried along.  Entries below the pivots are not zeroed.  A zero pivot
    swaps in a lower row, flipping the sign, or ends the pass when there
    is none.  Returns (sign, completed steps).
    """
    sign = 1
    prev = 1
    for k in range(steps):
        if m[k][k] == 0:
            for i in range(k + 1, len(m)):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return sign, k
        _bareiss_step(m, k, prev)
        prev = m[k][k]
    return sign, steps


def bareiss_det(m):
    """Fraction-free determinant.

    Integer matrices stay integer throughout: every interior division in
    the Bareiss recurrence is exact by construction.  Row swaps flip the
    sign; a fully zero pivot column means the determinant is zero.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign, done = _eliminate(a, n - 1)
    return sign * a[n - 1][n - 1] if done == n - 1 else 0


def solve(a, b):
    """Solve a x = b exactly: fraction-free forward elimination, then
    back-substitution over Fractions.  Raises SingularSystem if singular."""
    n = len(a)
    m = [list(a[i]) + [b[i]] for i in range(n)]
    if _eliminate(m, n)[1] < n:
        raise SingularSystem(n)
    xs = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(m[i][n])
        for j in range(i + 1, n):
            s -= m[i][j] * xs[j]
        xs[i] = s / m[i][i]
    return xs


def lower_tri_inverse(l):
    """Inverse of a square lower-triangular matrix by forward substitution."""
    n = len(l)
    for i in range(n):
        if l[i][i] == 0:
            raise SingularDiagonal(f"zero diagonal entry at index {i}")
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = Fraction(1, 1) / l[j][j]
        for i in range(j + 1, n):
            s = Fraction(0)
            for k in range(j, i):
                if l[i][k] and inv[k][j]:
                    s += l[i][k] * inv[k][j]
            inv[i][j] = -s / l[i][i]
    return inv
