"""Hankel matrices, exact LDL^T, and the Hankel transform.

The Hankel transform of a sequence is the sequence of determinants of its
leading Hankel blocks.  Two independent determinant routes are kept: the
fraction-free Bareiss elimination and the product of the LDL^T diagonal,
whose partial products are exactly the leading principal minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InsufficientTerms, SingularLeadingMinor
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


def ldl(h) -> LDLDecomp:
    """Exact LDL^T of a symmetric matrix with nonzero leading minors.

    D[k] is the ratio of consecutive leading principal minors, so a zero
    D[k] pinpoints the first vanishing minor; that raises
    SingularLeadingMinor(k) rather than silently producing zeros.
    """
    n = len(h)
    for i in range(n):
        for j in range(i):
            if h[i][j] != h[j][i]:
                raise ValueError("matrix is not symmetric")
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

    Methods: ``ldl`` (partial products of the LDL^T diagonal), ``bareiss``
    (an independent fraction-free determinant per order, the only route
    that reports a vanishing minor as a value), or ``both`` and the default
    ``spot``, which are the same: LDL, checked at every order against the
    pivots of one Bareiss pass over the whole matrix, which are the leading
    minors.
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
    h = hankel_matrix(a, count)
    dec = ldl(h)
    values = []
    acc = Fraction(1)
    for n in range(count):
        acc *= dec.d[n]
        values.append(as_int(acc))
    if method == "ldl":
        return values
    # LDL succeeded, so no leading minor vanishes and the pass never swaps.
    _eliminate(h, count)
    for n in range(count):
        reference = h[n][n]
        if reference != values[n]:
            raise RuntimeError(
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
