"""Deliberately naive reference implementations used as test oracles.

Everything here trades speed for obviousness: cofactor determinants,
direct summation formulas, point-evaluation of polynomials, untruncated
Horner composition, coefficient-by-coefficient series reversion, the
moment pass on Fractions, and the named Riordan arrays as group inverses
of their rational partners or rebuilt from their production matrix.  The
library must agree with these on every tested input.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from riordankit import production, riordan, series


def det_cofactor(m):
    """Textbook cofactor expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += sign * m[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def naive_hankel_transform(terms, count):
    out = []
    for n in range(count):
        block = [
            [terms[i + j] for j in range(n + 1)] for i in range(n + 1)
        ]
        out.append(det_cofactor(block))
    return out


def fraction_chebyshev(a):
    """Chebyshev's algorithm on Fractions: (sigma, alpha, beta, completed
    steps) as ``hankel._chebyshev`` returns them, with each sigma row a list
    of Fractions, sigma[k][j] = sigma_(k,k+j)."""
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


def naive_binomial_transform(terms):
    return [
        sum(comb(n, k) * terms[k] for k in range(n + 1)) for n in range(len(terms))
    ]


def poly_eval(coeffs, t):
    """Evaluate an ascending-coefficient polynomial at t."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def naive_compose(f, g, n):
    """f(g(x)) to n terms by Horner, every product carried to n terms.

    Coefficient lists in, a list of exactly n Fractions out; g[0] must be 0.
    """
    out = [Fraction(0)] * n
    for k in range(min(len(f), n) - 1, -1, -1):
        prod = [Fraction(0)] * n
        for i, oi in enumerate(out):
            for j in range(min(len(g), n - i)):
                prod[i + j] += oi * g[j]
        prod[0] += f[k]
        out = prod
    return out


def naive_revert(f):
    """Compositional inverse of f (f[0] = 0, f[1] != 0), same length.

    Solved coefficient by coefficient: in f(g(x)) = x only the linear term
    of f touches the newest unknown g[m], so g[m] = -[x^m] f(g) / f[1]
    with g[m] still 0.
    """
    n = len(f)
    g = [Fraction(0)] * n
    g[1] = 1 / Fraction(f[1])
    for m in range(2, n):
        g[m] = -naive_compose(f, g, m + 1)[m] / f[1]
    return g


def central_by_inverse(r, order):
    """``l_central`` as the inverse of ((1-rx^2)/q, x/q), q = 1+(r+1)x+rx^2."""
    q = [1, r + 1, r]
    return riordan.RiordanArray(
        series.rational([1, 0, -r], q, order), series.rational([0, 1], q, order)
    ).inverse()


def catalan_by_inverse(r, order):
    """``l_catalan`` as the inverse of ``coefficient_array``."""
    return riordan.coefficient_array(r, order).inverse()


def ap_by_inverse(r, order):
    """``a_p`` as the inverse of (1, x(1-x)/(r-(r-1)x))."""
    return riordan.RiordanArray(
        series.one(order), series.rational([0, 1, -1], [r, -(r - 1)], order)
    ).inverse()


def ap_rows_by_production(r, dim):
    """Leading dim x dim block of ``a_p`` rebuilt from ``p_catalan``."""
    return production.matrix_from_production(production.p_catalan(r, dim), dim)
