"""Hankel matrices, exact LDL^T, and the Hankel transform.

The Hankel transform of a sequence is the sequence of determinants of its
leading Hankel blocks.  One O(n^2) pass over the sequence as a moment
sequence, Chebyshev's algorithm, gives the LDL^T factors of every Hankel
matrix, the transform (the partial products of the diagonal) and the
J-fraction of the monic orthogonal polynomials.  The fraction-free Bareiss
elimination is the independent route: ``method="bareiss"`` and the
``spot`` check against the moment pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CrossCheckFailed, InsufficientTerms, SingularLeadingMinor
from .linalg import _eliminate, as_int, bareiss_det

__all__ = [
    "hankel_matrix",
    "bareiss_det",
    "ldl",
    "LDLDecomp",
    "hankel_transform",
    "binomial_transform",
]


def hankel_matrix(a, m: int):
    """The m x m Hankel matrix [a_(i+j)]; needs 2m-1 terms."""
    if m < 1:
        raise ValueError("matrix dimension must be at least 1")
    if len(a) < 2 * m - 1:
        raise InsufficientTerms(f"need {2 * m - 1} terms for a {m} x {m} Hankel matrix")
    return [[a[i + j] for j in range(m)] for i in range(m)]


@dataclass
class LDLDecomp:
    """Unit lower-triangular factor (ragged rows) and diagonal of H = L D L^T."""

    l: list
    d: list

    def reconstruct(self):
        """Multiply the factors back into a full square matrix."""
        n = len(self.d)
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                top = min(i, j)
                s = Fraction(0)
                for k in range(top + 1):
                    s += self.l[i][k] * self.d[k] * self.l[j][k]
                out[i][j] = s
        return out


def _chebyshev(a):
    """Chebyshev's algorithm on the terms a_0..a_(N-1) read as moments.

    With pi_k the monic orthogonal polynomials of the moment functional
    x^l -> a_l, row k of ``sigma`` holds sigma_(k,l) = <pi_k, x^l> for
    l = k..N-1-k, stored from l = k on (``sigma[k][j]`` is sigma_(k,k+j)).
    sigma_(k,k) is the LDL^T diagonal entry D[k] of every Hankel matrix of
    the sequence, sigma_(k,l) / sigma_(k,k) is its unit-factor entry L[l][k],
    and (alpha_k, beta_k) is the J-fraction of the three-term recurrence
    pi_(k+1) = (x - alpha_k) pi_k - beta_k pi_(k-1), with beta_0 = a_0.

    Returns (sigma, alpha, beta, completed steps): the pass ends at the
    first zero sigma_(k,k), where the leading (k+1)-minor vanishes, so
    ``sigma`` has one row more than the steps completed then.  Each row is
    two entries shorter than the one before it: N terms give (N+1) // 2
    rows, and alpha_k needs sigma_(k,k+1), so an odd N gives one alpha
    fewer than beta.  Gautschi, *Orthogonal Polynomials* (2004), 2.1.7.
    """
    row = [Fraction(v) for v in a]
    sigma, alpha, beta = [row], [], []
    prev = None
    while row and row[0] != 0:
        beta.append(row[0] / prev[0] if prev else row[0])
        if len(row) > 1:
            alpha.append(row[1] / row[0] - (prev[1] / prev[0] if prev else 0))
        if len(row) < 3:
            return sigma, alpha, beta, len(sigma)
        ak, bk = alpha[-1], beta[-1]
        if prev:
            nxt = [
                row[j + 2] - ak * row[j + 1] - bk * prev[j + 2]
                for j in range(len(row) - 2)
            ]
        else:
            nxt = [row[j + 2] - ak * row[j + 1] for j in range(len(row) - 2)]
        prev, row = row, nxt
        sigma.append(row)
    return sigma, alpha, beta, len(sigma) - 1


def _is_hankel(h) -> bool:
    n = len(h)
    return all(h[i][j] == h[i + 1][j - 1] for i in range(n - 1) for j in range(1, n))


def ldl(h) -> LDLDecomp:
    """Exact LDL^T of a symmetric matrix with nonzero leading minors.

    D[k] is the ratio of consecutive leading principal minors, so a zero
    D[k] pinpoints the first vanishing minor; that raises
    SingularLeadingMinor(k) rather than silently producing zeros.  A Hankel
    matrix is factored by the moment pass over its first row and last
    column, any other symmetric matrix by dense elimination.
    """
    n = len(h)
    for i in range(n):
        for j in range(i):
            if h[i][j] != h[j][i]:
                raise ValueError("matrix is not symmetric")
    if not h or not _is_hankel(h):
        return _ldl_dense(h)
    sigma, _, _, done = _chebyshev(list(h[0]) + [h[i][n - 1] for i in range(1, n)])
    if done < n:
        raise SingularLeadingMinor(done)
    d = [sigma[k][0] for k in range(n)]
    l = [
        [sigma[k][i - k] / d[k] for k in range(i)] + [Fraction(1)] for i in range(n)
    ]
    return LDLDecomp(l=l, d=d)


def _ldl_dense(h) -> LDLDecomp:
    """LDL^T of a symmetric matrix by Gaussian elimination, O(n^3)."""
    n = len(h)
    l = []
    d = []
    for i in range(n):
        row = []
        for j in range(i):
            s = Fraction(h[i][j])
            for k in range(j):
                s -= row[k] * l[j][k] * d[k]
            row.append(s / d[j])
        s = Fraction(h[i][i])
        for k in range(i):
            s -= row[k] * row[k] * d[k]
        if s == 0:
            raise SingularLeadingMinor(i)
        row.append(Fraction(1))
        l.append(row)
        d.append(s)
    return LDLDecomp(l=l, d=d)


def hankel_transform(a, count: int, method: str = "spot"):
    """First ``count`` Hankel determinants of the sequence.

    Methods: ``ldl`` (partial products of the LDL^T diagonal, from the
    moment pass), ``bareiss`` (an independent fraction-free determinant per
    order, the only route that reports a vanishing minor as a value), or
    ``both`` and the default ``spot``, which are the same: the moment pass,
    checked at every order against the pivots of one Bareiss pass over the
    whole matrix, which are the leading minors.  Integer terms give
    integers (a proper fraction raises IntegralityViolation); other exact
    terms give their exact values.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if len(a) < 2 * count - 1:
        raise InsufficientTerms(
            f"need {2 * count - 1} terms for {count} Hankel determinants"
        )
    if method not in ("ldl", "bareiss", "both", "spot"):
        raise ValueError(f"unknown method {method!r}")
    if method == "bareiss":
        return [bareiss_det(hankel_matrix(a, n + 1)) for n in range(count)]
    terms = a[: 2 * count - 1]
    sigma, _, _, done = _chebyshev(terms)
    if done < count:
        raise SingularLeadingMinor(done)
    integral = all(isinstance(v, int) for v in terms)
    values = []
    acc = Fraction(1)
    for n in range(count):
        acc *= sigma[n][0]
        values.append(as_int(acc) if integral else acc)
    if method == "ldl":
        return values
    # No leading minor vanishes, so the Bareiss pass never swaps.
    h = hankel_matrix(a, count)
    _eliminate(h, count)
    for n in range(count):
        reference = h[n][n]
        if reference != values[n]:
            raise CrossCheckFailed(
                f"determinant paths disagree at order {n}: "
                f"{values[n]} (LDL) vs {reference} (Bareiss)"
            )
    return values


def binomial_transform(a, k: int = 1):
    """Apply the binomial transform k times; negative k applies the inverse.

    One forward step maps a to b_n = sum_j C(n, j) a_j; the inverse step
    carries the alternating sign (-1)^(n-j).
    """
    out = list(a)
    for _ in range(abs(k)):
        if k > 0:
            out = [
                sum(comb(n, j) * out[j] for j in range(n + 1))
                for n in range(len(out))
            ]
        else:
            out = [
                sum((-1) ** (n - j) * comb(n, j) * out[j] for j in range(n + 1))
                for n in range(len(out))
            ]
    return out
