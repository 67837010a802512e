"""Hankel matrices, exact LDL^T, and the Hankel transform.

The Hankel transform of a sequence is the sequence of determinants of its
leading Hankel blocks.  One O(n^2) pass over the sequence as a moment
sequence, Chebyshev's algorithm, gives the LDL^T factors of every Hankel
matrix, the transform (the partial products of the diagonal) and the
J-fraction of the monic orthogonal polynomials.  The pass runs on int
numerators over one denominator per row, in the layout of FLINT's
``fmpq_poly``.  The default ``spot`` transform certifies it in O(n^2)
mod a 61-bit prime.  The fraction-free Bareiss elimination is the
independent exact route: it is ``method="bareiss"``, and ``spot`` falls
back to it when the prime divides a pivot or a denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import CrossCheckFailed, InsufficientTerms, SingularLeadingMinor
from .linalg import _eliminate, as_int, bareiss_det
from .series import _integer_row

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
    l = k..N-1-k, stored from l = k on as (numerators, denominator):
    sigma_(k,k+j) is ``num[j] / den``, with den > 0 and one gcd taken out
    per row.  sigma_(k,k) is the LDL^T diagonal entry D[k] of every Hankel
    matrix of the sequence, sigma_(k,l) / sigma_(k,k) is its unit-factor
    entry L[l][k], and (alpha_k, beta_k), Fractions, is the J-fraction of
    the three-term recurrence pi_(k+1) = (x - alpha_k) pi_k - beta_k pi_(k-1),
    with beta_0 = a_0.

    Returns (sigma, alpha, beta, completed steps): the pass ends at the
    first zero sigma_(k,k), where the leading (k+1)-minor vanishes, so
    ``sigma`` has one row more than the steps completed then.  Each row is
    two entries shorter than the one before it: N terms give (N+1) // 2
    rows, and alpha_k needs sigma_(k,k+1), so an odd N gives one alpha
    fewer than beta.  Gautschi, *Orthogonal Polynomials* (2004), 2.1.7.

    With row k = N/D and row k-1 = P/E, the step
    sigma_(k+1,l) = sigma_(k,l+1) - alpha_k sigma_(k,l) - beta_k sigma_(k-1,l)
    multiplied through by D N_0 P_0 is an integer combination of N and P
    (E cancels).  A row (1, 0, 0, ...) over 1 before row 0 turns the
    general step into the first one.
    """
    num, den = _integer_row(a)
    sigma, alpha, beta = [(num, den)], [], []
    low, low_den = [1] + [0] * len(num), 1
    while num and num[0] != 0:
        n0, p0 = num[0], low[0]
        beta.append(Fraction(n0 * low_den, den * p0))
        if len(num) > 1:
            alpha.append(Fraction(num[1], n0) - Fraction(low[1], p0))
        if len(num) < 3:
            return sigma, alpha, beta, len(sigma)
        c0, c1, c2 = n0 * p0, num[1] * p0 - low[1] * n0, n0 * n0
        nxt = [
            c0 * num[j + 2] - c1 * num[j + 1] - c2 * low[j + 2]
            for j in range(len(num) - 2)
        ]
        scale = den * c0
        g = gcd(scale, *nxt) if scale > 0 else -gcd(scale, *nxt)
        low, low_den = num, den
        num, den = [c // g for c in nxt], scale // g
        sigma.append((num, den))
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
    d = [Fraction(num[0], den) for num, den in sigma[:n]]
    nums = [num for num, _ in sigma[:n]]
    l = [
        [Fraction(nums[k][i - k], nums[k][0]) for k in range(i)] + [Fraction(1)]
        for i in range(n)
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
    ``both`` and the default ``spot``, which are the same: the moment pass
    with an O(n^2) certificate mod the prime 2^61 - 1 (see ``_certify``).
    Should a residue the certificate divides by vanish mod that prime, the
    determinants are checked against the pivots of one exact Bareiss pass
    instead, which are the leading minors.  Integer terms give integers (a
    proper fraction raises IntegralityViolation); other exact terms give
    their exact values.
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
    values = []
    acc = Fraction(1)
    for num, den in sigma[:count]:
        acc *= Fraction(num[0], den)
        values.append(acc)
    if method != "ldl" and not _certify(terms, sigma, count):
        # No leading minor vanishes, so the Bareiss pass never swaps.
        h = hankel_matrix(a, count)
        _eliminate(h, count)
        for n in range(count):
            if h[n][n] != values[n]:
                raise CrossCheckFailed(
                    f"determinant paths disagree at order {n}: "
                    f"{values[n]} (LDL) vs {h[n][n]} (Bareiss)"
                )
    if all(isinstance(v, int) for v in terms):
        return [as_int(v) for v in values]
    return values


# The certificate works mod the Mersenne prime 2^61 - 1 with the vector
# v_j = _BASE^j; a fixed base keeps every result and message reproducible.
_PRIME = (1 << 61) - 1
_BASE = 0x9E3779B97F4A7C15 % _PRIME


def _residue(x):
    """x mod _PRIME for an exact number; None if its denominator is 0 there."""
    if isinstance(x, int):
        return x % _PRIME
    x = Fraction(x)
    unit = x.denominator % _PRIME
    return x.numerator * pow(unit, -1, _PRIME) % _PRIME if unit else None


def _hankel_times(terms, v):
    """H v mod _PRIME for the Hankel matrix of the terms, or None."""
    h = [_residue(x) for x in terms]
    if None in h:
        return None
    n = len(v)
    return [sum(h[i + j] * v[j] for j in range(n)) % _PRIME for i in range(n)]


def _certify(terms, sigma, n):
    """Freivalds' check of the first n rows of the moment pass, in O(n^2).

    With U[k][l] = sigma_(k,l) (k <= l < n) and D the diagonal of U, the
    Hankel matrix is H = U^T D^-1 U, so H v and U^T (D^-1 (U v)) must
    agree mod the prime.  That certifies the pivots D, whose partial
    products are the determinants.  A disagreement raises CrossCheckFailed.
    Returns False, having checked nothing, when a residue that must be a
    unit (a row denominator, a pivot numerator, a denominator of a term)
    is 0 mod the prime.
    """
    v = [pow(_BASE, j, _PRIME) for j in range(n)]
    hv = _hankel_times(terms, v)
    rows = [[c % _PRIME for c in num[: n - k]] for k, (num, _) in enumerate(sigma[:n])]
    dens = [den % _PRIME for _, den in sigma[:n]]
    if hv is None or 0 in dens or any(row[0] == 0 for row in rows):
        return False
    # (D^-1 U v)_k is sum_j num_k[j] v_(k+j) / num_k[0], and U^T adds it
    # times num_k[j] / den_k to entry k+j.
    udu = [0] * n
    for k, row in enumerate(rows):
        t = sum(c * v[k + j] for j, c in enumerate(row))
        t = t * pow(row[0] * dens[k], -1, _PRIME) % _PRIME
        for j, c in enumerate(row):
            udu[k + j] += c * t
    for i in range(n):
        if hv[i] != udu[i] % _PRIME:
            raise CrossCheckFailed(
                f"moment pass fails its certificate at row {i}: "
                "H v != U^T D^-1 U v mod 2^61-1"
            )
    return True


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
