"""Minimal linear recurrences from Hankel systems, and their triangles.

For a sequence a and window size d, solve

    H_d * g = (a_d, ..., a_(2d-1))^T

with H_d the d x d Hankel block.  Row n of the recurrence triangle is the
solution at window n+1.  The triangle, the monic characteristic
polynomial, the companion matrix, and two cross-checks against Riordan
machinery read it off the steps of the moment pass (``hankel._chebyshev``)
as they come; ``char_poly`` reads on through vanishing minors, and
``solve_bm`` solves one window by elimination, as the oracle.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import comb, gcd

from . import riordan, sequences, series
from .errors import CrossCheckFailed, InsufficientTerms, SingularSystem
from .hankel import _chebyshev, hankel_matrix
from .linalg import solve
from .series import _normal, _ratio


def _window_terms(a, d: int):
    if d < 1:
        raise ValueError("window size must be at least 1")
    if len(a) < 2 * d:
        raise InsufficientTerms(f"need {2 * d} terms for window size {d}")


def solve_bm(a, d: int):
    """Recurrence coefficients g for window size d; needs 2d terms."""
    _window_terms(a, d)
    return solve(hankel_matrix(a, d), list(a[d : 2 * d]))


def _orthogonal_polys(steps):
    """Yields the monic orthogonal polynomials pi_(s_1), pi_(s_2), ... that
    the steps (Q, g, D, E) of the moment pass give, by M = Q[-1] and
    D M pi_(s_(j+1)) = D Q(x) pi_(s_j) - g E pi_(s_(j-1)), each as ascending
    int numerators over one positive denominator (the last numerator),
    with one gcd taken out per polynomial.

    A J-fraction step, Q = (q0, q1), is one pass over the coefficients,
    (q1 x + q0) pi_(s_j) - g pi_(s_(j-1)), without the multiplication by
    q1 when q1 = 1, as on every step of an integer J-fraction, and the gcd
    is found by ``series._normal``."""
    before, before_den = (), 1
    pi, den = (1,), 1
    for q, g, d, e in steps:
        # One gcd keeps the multipliers small: pi is normalised anyway.
        m, g = d * before_den, g * e * den
        if m != 1:
            q = [c * m for c in q]
        h = gcd(g, *q)
        if h != 1:
            q, g = [c // h for c in q], g // h
        if len(q) == 2:
            q0, q1 = q
            terms = zip((0, *pi), (*pi, 0), chain(before, repeat(0)))
            if q1 == 1:
                nxt = [x + q0 * y - g * z for x, y, z in terms]
            else:
                nxt = [q1 * x + q0 * y - g * z for x, y, z in terms]
        else:
            nxt = [0] * (len(q) - 1) + [q[-1] * x for x in pi]
            for i, c in enumerate(q[:-1]):
                if c:
                    nxt[i : i + len(pi)] = [v + c * x for v, x in zip(nxt[i:], pi)]
            nxt[: len(before)] = [v - g * x for v, x in zip(nxt, before)]
        before, before_den = pi, den
        pi, den = _normal(nxt, nxt[-1])
        yield pi, den


def bm_triangle(a, count: int):
    """Rows of solutions for window sizes 1..count.

    On a singular window the error carries the failing size and the rows
    already computed, which is usually the interesting diagnostic.

    The characteristic polynomial of window d is the monic orthogonal
    polynomial pi_d of the moment pass, so row d-1 is -(the coefficients of
    pi_d below x^d).  Each J-fraction step of the pass gives one more
    window, and the pass stops at the first block step, whose row has the
    first leading zero: the first vanishing leading minor, which is the
    first singular window.  An entry is an int where its value is an
    integer and a Fraction otherwise.
    """
    if count < 0:
        raise ValueError("count must not be negative")
    windows = min(count, len(a) // 2)
    steps = []
    for _, step in _chebyshev(a[: 2 * windows]):
        if step is None or len(step[0]) > 2:
            break
        steps.append(step)
    rows = [[_ratio(-c, den) for c in pi[:-1]] for pi, den in _orthogonal_polys(steps)]
    if len(rows) < windows:
        raise SingularSystem(len(rows) + 1, partial=rows)
    if windows < count:
        _window_terms(a, windows + 1)
    return rows


def char_poly(a, d: int):
    """Ascending coefficients of the monic polynomial x^d - sum g_(i+1) x^i.

    That is pi_d of the moment pass, which exists when H_d is invertible,
    also after a singular H_k, k < d: the pass runs through vanishing
    minors.  A singular H_d raises SingularSystem(d).  Coefficients are
    ints where their value is an integer and Fractions otherwise.
    """
    _window_terms(a, d)
    pi = ()
    for pi, den in _orthogonal_polys(step for _, step in _chebyshev(a[: 2 * d]) if step):
        pass
    if len(pi) != d + 1:
        raise SingularSystem(d)
    return [_ratio(c, den) for c in pi]


def companion_check(a, d: int):
    """The matrix H_d^(-1) H'_d with H'(i,j) = a_(i+j+1): ones on the
    sub-diagonal and, in the last column, g = -(the coefficients of
    ``char_poly(a, d)`` below x^d), the recurrence of ``solve_bm``.

    g is asserted to solve the window equations
    sum_k a_(i+k) g_k = a_(i+d), i < d, before returning; with the ones
    that is H_d C = H'_d, since column j < d-1 of H'_d is column j+1 of H_d.
    """
    g = [-c for c in char_poly(a, d)[:-1]]
    if any(sum(a[i + k] * g[k] for k in range(d)) != a[i + d] for i in range(d)):
        raise CrossCheckFailed("companion column does not solve its windows")
    return [
        [1 if i == j + 1 else 0 for j in range(d - 1)] + [g[i]]
        for i in range(d)
    ]


def catalan_bm_term(n: int, k: int):
    """Closed form for the Catalan recurrence triangle:
    (-1)^(n-k) (C(n+k+1, 2k) - C(0, n-k+1))."""
    def c(p, q):
        return comb(p, q) if 0 <= q <= p else 0

    return (-1) ** (n - k) * (c(n + k + 1, 2 * k) - c(0, n - k + 1))


def coefficient_riordan_check(r: int, count: int):
    """Triangle whose row d holds the ascending characteristic coefficients
    of the generalized Catalan family at window d.

    Row d is pi_d of the moment pass, so all rows come from one
    ``bm_triangle`` call.  Asserted equal to the expansion of
    (1/(1+rx), x/(1+(r+1)x+rx^2)), the inverse of the Catalan-family array.
    """
    terms = sequences.family_terms("catalan", 2 * max(count - 1, 1), r)
    rows = [[1]] + [
        [-c for c in row] + [1] for row in bm_triangle(terms, max(count - 1, 0))
    ]
    if rows != riordan.coefficient_array(r, count + 1).to_matrix(count):
        raise CrossCheckFailed("characteristic rows do not match the inverse array")
    return rows


def _bm_gf(r: int):
    """(num, den) of (r(1+x) + xy) / ((1-xy)(1+(r+1)x+rx^2-xy)) as grids
    of x-rows for ``series.bivariate_expand``, the denominator multiplied
    out: 1 + (r+1-2y)x + (r-(r+1)y+y^2)x^2 - ryx^3."""
    return [[r], [r, 1]], [[1], [r + 1, -2], [r, -r - 1, 1], [0, -r]]


def bm_gf_check(r: int, count: int):
    """Expand the bivariate generating function ``_bm_gf(r)`` and assert
    its coefficient rows reproduce the recurrence triangle of the
    generalized Catalan family.  Returns the table."""
    table = series.bivariate_expand(*_bm_gf(r), count)
    terms = sequences.family_terms("catalan", 2 * count, r)
    expected = bm_triangle(terms, count)
    if table.rows != expected:
        raise CrossCheckFailed("generating function rows do not match the solved rows")
    return table
