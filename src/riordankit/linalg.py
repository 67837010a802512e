"""Exact dense matrix helpers shared by the Hankel, production, and
linear-recurrence modules.

Matrices are plain lists of row lists with int or Fraction entries.
Triangular arrays are often kept ragged (row n holds n+1 entries);
``pad_square`` turns those into full square matrices when needed.
``_bareiss_step`` is the row update of every elimination, the dense LDL^T
in ``hankel`` included, and ``mat_mul`` the one matrix product.

``mat_mul`` multiplies int numerators, after the (numerators,
denominator) layout of ``series`` and FLINT's ``fmpq_mat``: each column
of B over one denominator, one Fraction at most per output entry.  Its
entries are ints where the value is an integer (zeros included) and
Fractions otherwise, whatever the entry types of A and B, as for
``hankel.ldl``'s unit factor and ``production.production_matrix``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
    """The exact product A B of an m x n and an n x p matrix of int or
    Fraction entries.

    Each column of B is put over one denominator, and the numerators are
    multiplied as ints, skipping zero entries (see ``_mul_cleared``); each
    output entry is one int numerator over one denominator.  An entry is
    an int where its value is an integer, zeros included, and a Fraction
    otherwise.  Raises ValueError unless every row of B has p entries and
    every row of A has n.
    """
    return _mul_cleared(a, _clear_columns(b))


def row_orbit(row, b, count):
    """The first ``count`` rows of row, row B, row B^2, ... for a square B,
    entries as ``mat_mul`` gives them; B is put over column denominators
    once, not once per row."""
    cleared = _clear_columns(b)
    rows = [row]
    for _ in range(count - 1):
        rows += _mul_cleared(rows[-1:], cleared)
    return rows


def _clear_columns(b):
    """B for ``_mul_cleared``: each column as int numerators over its least
    common denominator, kept as the nonzero (column, numerator) pairs of
    each row, the column denominators, and whether all of them are 1."""
    cols = [_over_one_den(col) for col in zip(*b)]
    if any(len(row) != len(cols) for row in b):
        raise ValueError("the right factor must be a rectangular matrix")
    nums = [num for num, _ in cols]
    rows = [
        [(j, col[i]) for j, col in enumerate(nums) if col[i]]
        for i in range(len(b))
    ]
    dens = [den for _, den in cols]
    return rows, dens, all(den == 1 for den in dens)


def _over_one_den(values):
    """int or Fraction values as (int numerators, their least common
    denominator)."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


def _mul_cleared(a, cleared):
    """A times a B cleared once by ``_clear_columns``, as ``mat_mul``.

    The int entries of a row of A add into one int sum per output entry.
    Its Fraction entries add into a second sum, kept over the least common
    denominator of the entries that reach that output entry, one small gcd
    per product, rather than of the whole row: the column denominators of
    a Hankel unit factor are near coprime, so a row's common one would
    swell every numerator.
    """
    b_rows, dens, integral = cleared
    out = []
    for row in a:
        if len(row) != len(b_rows):
            raise ValueError("each row of the left factor must have one "
                             "entry per row of the right factor")
        whole = [0] * len(dens)
        acc = [0] * len(dens)
        acc_dens = [1] * len(dens)
        exact = integral
        for x, pairs in zip(row, b_rows):
            if not x:
                continue
            n, b = x.numerator, x.denominator
            if b == 1:
                for j, y in pairs:
                    whole[j] += n * y
                continue
            exact = False
            for j, y in pairs:
                d = acc_dens[j]
                if d % b:
                    g = gcd(d, b)
                    acc[j] = acc[j] * (b // g) + n * y * (d // g)
                    acc_dens[j] = d * (b // g)
                else:
                    acc[j] += n * y * (d // b)
        if exact:
            out.append(whole)
        else:
            out.append([
                _ratio(w * e + t, e * d)
                for w, t, e, d in zip(whole, acc, acc_dens, dens)
            ])
    return out


def _ratio(t, d):
    """t / d for ints t and d != 0: an int where it divides, else one Fraction."""
    if d == 1 or not t:
        return t
    q, rem = divmod(t, d)
    return Fraction(t, d) if rem else q


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


def _leading_minors(m):
    """The determinants of the leading 1 x 1 ... n x n blocks of square m.

    One swap-free Bareiss pass reads them all off its pivots: with no swap
    before step k, pivot k is the leading (k+1) x (k+1) minor.  After a
    zero pivot the pass cannot go on without a swap, so every larger
    minor is one ``bareiss_det`` of its block.  O(n^3) while the pivots
    are nonzero, against O(n^4) for n calls of ``bareiss_det``.
    """
    a = [list(row) for row in m]
    out = []
    prev = 1
    for k in range(len(a)):
        pivot = a[k][k]
        out.append(pivot)
        if not pivot:
            out += [
                bareiss_det([row[:j] for row in m[:j]]) for j in range(k + 2, len(a) + 1)
            ]
            break
        _bareiss_step(a, k, prev)
        prev = pivot
    return out


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
