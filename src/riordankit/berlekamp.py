"""Minimal linear recurrences from Hankel systems, and their triangles.

For a sequence a and window size d, solve

    H_d * g = (a_d, ..., a_(2d-1))^T

with H_d the d x d Hankel block.  Row n of the recurrence triangle is the
solution at window n+1; the monic characteristic polynomial, the companion
matrix, and two cross-checks against Riordan machinery follow from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from . import riordan, sequences, series
from .errors import CrossCheckFailed, InsufficientTerms, SingularSystem
from .hankel import _chebyshev, hankel_matrix
from .linalg import _back_substitute, _eliminate, solve


def _window_terms(a, d: int):
    if d < 1:
        raise ValueError("window size must be at least 1")
    if len(a) < 2 * d:
        raise InsufficientTerms(f"need {2 * d} terms for window size {d}")


def solve_bm(a, d: int):
    """Recurrence coefficients g for window size d; needs 2d terms."""
    _window_terms(a, d)
    return solve(hankel_matrix(a, d), list(a[d : 2 * d]))


def _orthogonal_polys(alpha, beta, count):
    """The monic orthogonal polynomials pi_1..pi_count of the moment pass,
    by pi_(k+1) = (x - alpha_k) pi_k - beta_k pi_(k-1), each as ascending
    int numerators over one positive denominator (the last numerator),
    with one gcd taken out per polynomial."""
    polys = []
    before, before_den = [], 1
    pi, den = [1], 1
    for k in range(count):
        scales = (Fraction(1, den), alpha[k] / den, beta[k] / before_den)
        common = lcm(*(s.denominator for s in scales))
        c0, c1, c2 = (s.numerator * (common // s.denominator) for s in scales)
        nxt = [0] + [c0 * c for c in pi]
        for i, c in enumerate(pi):
            nxt[i] -= c1 * c
        for i, c in enumerate(before):
            nxt[i] -= c2 * c
        g = gcd(*nxt)
        before, before_den = pi, den
        pi, den = [c // g for c in nxt], nxt[-1] // g
        polys.append((pi, den))
    return polys


def bm_triangle(a, count: int):
    """Rows of solutions for window sizes 1..count.

    On a singular window the error carries the failing size and the rows
    already computed, which is usually the interesting diagnostic.

    The characteristic polynomial of window d is the monic orthogonal
    polynomial pi_d of the moment pass, so row d-1 is -(the coefficients of
    pi_d below x^d), built up by the three-term recurrence.  The pass stops
    at the first vanishing leading minor, which is the first singular
    window.
    """
    if count < 0:
        raise ValueError("count must not be negative")
    windows = min(count, len(a) // 2)
    _, alpha, beta, solved = _chebyshev(a[: 2 * windows])
    rows = [
        [Fraction(-c, den) for c in pi[:-1]]
        for pi, den in _orthogonal_polys(alpha, beta, solved)
    ]
    if solved < windows:
        raise SingularSystem(solved + 1, partial=rows)
    if windows < count:
        d = windows + 1
        raise InsufficientTerms(f"need {2 * d} terms for window size {d}")
    return rows


def char_poly(a, d: int):
    """Ascending coefficients of the monic polynomial x^d - sum g_(i+1) x^i.

    That is pi_d of the moment pass when no leading minor of H_d vanishes;
    otherwise window d alone is solved (``solve_bm``), since H_d may be
    invertible after a singular H_k, k < d.
    """
    _window_terms(a, d)
    _, alpha, beta, done = _chebyshev(a[: 2 * d])
    if done < d:
        return [-c for c in solve_bm(a, d)] + [Fraction(1)]
    pi, den = _orthogonal_polys(alpha, beta, d)[-1]
    return [Fraction(c, den) for c in pi]


def companion_check(a, d: int):
    """The matrix H_d^(-1) H'_d with H'(i,j) = a_(i+j+1).

    Structure is asserted before returning: ones on the sub-diagonal and
    zeros elsewhere.  The last column solves H_d g = (a_d, ..., a_(2d-1)),
    so it holds the recurrence coefficients of ``solve_bm``.
    """
    if len(a) < 2 * d:
        raise InsufficientTerms(f"need {2 * d} terms for window size {d}")
    h = hankel_matrix(a, d)
    block = [h[i] + [a[i + j + 1] for j in range(d)] for i in range(d)]
    if _eliminate(block, d)[1] < d:
        raise SingularSystem(d)
    cols = [_back_substitute(block, d, d + j) for j in range(d)]
    m = [[cols[j][i] for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d - 1):
            expected = Fraction(1 if i == j + 1 else 0)
            if m[i][j] != expected:
                raise CrossCheckFailed(f"companion structure broken at ({i}, {j})")
    return m


def catalan_bm_term(n: int, k: int):
    """Closed form for the Catalan recurrence triangle:
    (-1)^(n-k) (C(n+k+1, 2k) - C(0, n-k+1))."""
    def c(p, q):
        return comb(p, q) if 0 <= q <= p else 0

    return (-1) ** (n - k) * (c(n + k + 1, 2 * k) - c(0, n - k + 1))


def coefficient_riordan_check(r: int, count: int):
    """Triangle whose row d holds the ascending characteristic coefficients
    of the generalized Catalan family at window d.

    Asserted equal to the expansion of (1/(1+rx), x/(1+(r+1)x+rx^2)), the
    inverse of the Catalan-family array.
    """
    terms = [sequences.gen_catalan(n, r) for n in range(2 * max(count - 1, 1))]
    rows = [[Fraction(1)]]
    for d in range(1, count):
        rows.append(char_poly(terms, d))
    if rows != riordan.coefficient_array(r, count + 1).to_matrix(count):
        raise CrossCheckFailed("characteristic rows do not match the inverse array")
    return rows


def bm_gf_check(r: int, count: int):
    """Expand the bivariate generating function

        (r(1+x) + xy) / ((1-xy)(1+(r+1)x+rx^2-xy))

    and assert its coefficient rows reproduce the recurrence triangle of
    the generalized Catalan family.  Returns the table."""
    num = [[r], [r, 1]]
    den = series.poly2_mul([[1], [0, -1]], [[1], [r + 1, -1], [r]])
    table = series.bivariate_expand(num, den, count)
    terms = [sequences.gen_catalan(n, r) for n in range(2 * count)]
    expected = bm_triangle(terms, count)
    if table.rows != expected:
        raise CrossCheckFailed("generating function rows do not match the solved rows")
    return table
