"""Deliberately naive reference implementations used as test oracles.

Everything here trades speed for obviousness: cofactor determinants,
direct summation formulas, point-evaluation of polynomials, untruncated
Horner composition, coefficient-by-coefficient series reversion, the
series kernels and the bivariate expander on Fraction coefficients, the
moment pass on Fractions through vanishing minors, the characteristic
rows one window at a time,
the named Riordan arrays as group inverses of their rational partners
or rebuilt from their production matrix, the production matrix by a
forward substitution on Fraction rows, the dense LDL^T by Gaussian
elimination on Fractions, the certificate's Hankel product H v as a
plain sum, and the matrix product as the Fraction triple loop.  The
library must agree with these on every tested input.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from riordankit import berlekamp, hankel, production, riordan, sequences, series
from riordankit.errors import (
    InsufficientOrder,
    NonUnitConstant,
    NonzeroInnerConstant,
    NotRevertible,
    SingularDiagonal,
    SingularLeadingMinor,
    ZeroConstantDivisor,
)
from riordankit.linalg import pad_square


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
    """Chebyshev's algorithm on Fractions, carried through vanishing
    minors one window equation at a time: (rows, steps) as
    ``hankel._chebyshev`` returns them, with rows[j][i] = sigma_(s_j+i) a
    Fraction and step j as (q, gamma), Fractions, for
    pi_(s_(j+1)) = q(x) pi_(s_j) - gamma pi_(s_(j-1)), q monic of degree
    k_j + 1.  With every k_j = 0, q = (-alpha_j, 1) and gamma = beta_j."""
    row = [Fraction(v) for v in a]
    rows, steps = [row], []
    prev, kp = [Fraction(1)] + [Fraction(0)] * len(row), 0
    while True:
        k = next((i for i, v in enumerate(row) if v), len(row))
        if len(row) < 2 * k + 2:
            return rows, steps
        c = row[k]
        gamma = c / prev[kp]
        q = [Fraction(0)] * (k + 1) + [Fraction(1)]
        # Window equation at l = s_j + t: sum_i q_i sigma_(l+i) = gamma
        # times the previous row's sigma_l.
        for t in range(k + 1):
            known = sum(q[i] * row[t + i] for i in range(k - t + 1, k + 2))
            q[k - t] = (gamma * prev[kp + 1 + t] - known) / c
        steps.append((q, gamma))
        if len(row) < 2 * k + 3:
            return rows, steps
        nxt = [
            sum(q[i] * row[j + k + 1 + i] for i in range(k + 2))
            - gamma * prev[j + k + kp + 2]
            for j in range(len(row) - 2 * k - 2)
        ]
        prev, kp, row = row, k, nxt
        rows.append(row)


def _fmul(a, b, n):
    out = [Fraction(0)] * n
    for i in range(min(len(a), n)):
        if a[i]:
            for j in range(min(len(b), n - i)):
                if b[j]:
                    out[i + j] += a[i] * b[j]
    return out


def _fdiv(a, b, n):
    if not b or b[0] == 0:
        raise ZeroConstantDivisor("cannot divide by a series with zero constant term")
    q = []
    for i in range(n):
        s = a[i] if i < len(a) else Fraction(0)
        for k in range(1, min(i, len(b) - 1) + 1):
            s -= b[k] * q[i - k]
        q.append(s / b[0])
    return q


class FractionSeries:
    """``series.Series`` on Fraction coefficients, a gcd in every
    multiply-add: the reference the int-numerator kernels must match by
    ``repr`` of ``coeffs``, and by error type and message."""

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @property
    def order(self):
        return len(self.coeffs)

    def truncate(self, n):
        if n > self.order:
            raise InsufficientOrder(f"order {self.order} series cannot supply {n} terms")
        return FractionSeries(self.coeffs[:n])

    def __add__(self, other):
        return FractionSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FractionSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FractionSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FractionSeries):
            n = min(self.order, other.order)
            return FractionSeries(_fmul(self.coeffs, other.coeffs, n))
        return FractionSeries([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, FractionSeries):
            n = min(self.order, other.order)
            return FractionSeries(_fdiv(self.coeffs, other.coeffs, n))
        inv = 1 / Fraction(other)
        return FractionSeries([c * inv for c in self.coeffs])

    def __rtruediv__(self, other):
        num = [Fraction(other)] + [Fraction(0)] * (self.order - 1)
        return FractionSeries(_fdiv(num, self.coeffs, self.order))

    def div_x(self, k=1):
        if any(self.coeffs[i] for i in range(min(k, self.order))):
            raise ValueError(f"cannot divide by x^{k}: low-order coefficient nonzero")
        return FractionSeries(self.coeffs[k:])

    def sqrt(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise NonUnitConstant("series square root requires constant term 1")
        s = [Fraction(1)]
        for i in range(1, self.order):
            t = self.coeffs[i] - sum(s[k] * s[i - k] for k in range(1, i))
            s.append(t / 2)
        return FractionSeries(s)

    def compose(self, inner):
        if not inner.coeffs or inner.coeffs[0] != 0:
            raise NonzeroInnerConstant("composition requires inner constant term 0")
        n = min(self.order, inner.order)
        return FractionSeries(naive_compose(self.coeffs, inner.coeffs, n))

    def revert(self):
        f = self.coeffs
        if len(f) < 2 or f[0] != 0 or f[1] == 0:
            raise NotRevertible("reversion requires f(0) = 0 and f'(0) != 0")
        phi = _fdiv([Fraction(1)], f[1:], len(f) - 1)
        power, g = phi, [Fraction(0), phi[0]]
        for m in range(2, len(f)):
            power = _fmul(power, phi, len(f) - 1)
            g.append(power[m - 1] / m)
        return FractionSeries(g)


def _ymul(p, q, cap):
    return _fmul(p, q, min(len(p) + len(q) - 1, cap) if p and q else 0)


def _ysub(p, q):
    out = list(p) + [Fraction(0)] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] -= c
    return out


def fraction_bivariate_rows(num, den, order_x):
    """Rows of ``series.bivariate_expand`` on Fraction y-polynomials."""
    num = [[Fraction(c) for c in row] for row in num]
    den = [[Fraction(c) for c in row] for row in den]
    inv0 = _fdiv([Fraction(1)], den[0], order_x)
    q = []
    for n in range(order_x):
        t = num[n] if n < len(num) else []
        for i in range(1, min(n, len(den) - 1) + 1):
            t = _ysub(t, _ymul(den[i], q[n - i], order_x))
        q.append(_ymul(t, inv0, order_x))
    rows = []
    for n, qn in enumerate(q):
        last = max((i for i, c in enumerate(qn) if c), default=0)
        width = max(n + 1, last + 1)
        rows.append(qn[:width] + [Fraction(0)] * (width - len(qn[:width])))
    return rows


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


def characteristic_rows_by_window(r, count):
    """``coefficient_riordan_check`` rows by one ``char_poly`` per window."""
    terms = [sequences.gen_catalan(n, r) for n in range(2 * max(count - 1, 1))]
    return [[Fraction(1)]] + [berlekamp.char_poly(terms, d) for d in range(1, count)]


def fraction_production_matrix(a_rows):
    """``production.production_matrix`` by forward substitution on rows:
    row i of P is (S_i - sum_(k<i) L[i][k] P_k) / L[i][i], one Fraction
    operation per entry, zero entries of L and of P skipped."""
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


def fraction_ldl(h):
    """``hankel._ldl_dense`` by Gaussian elimination on Fractions, O(n^3):
    row i of L and D[i] from h[i] minus the rows above, SingularLeadingMinor(i)
    at the first zero D[i]; L holds ints where the entry is an integer."""
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
        l.append(row)
        d.append(s)
    l = [[v.numerator if v.denominator == 1 else v for v in row] + [1] for row in l]
    return hankel.LDLDecomp(l=l, d=d)


def quadratic_hankel_times(terms, v):
    """H v mod 2^61 - 1 by the O(n^2) sum over the Hankel matrix of the
    terms, or None when a term's denominator vanishes mod that prime."""
    h = [hankel._residue(x) for x in terms]
    if None in h:
        return None
    n = len(v)
    return [sum(h[i + j] * v[j] for j in range(n)) % hankel._PRIME for i in range(n)]


def fraction_mat_mul(a, b):
    """``linalg.mat_mul`` as the plain triple loop on Fractions, no zero
    skipped: entry (i, j) is sum_k A[i][k] B[k][j] for B with len(b[0])
    columns."""
    cols = len(b[0]) if b else 0
    return [
        [sum((Fraction(row[k]) * b[k][j] for k in range(len(b))), Fraction(0))
         for j in range(cols)]
        for row in a
    ]
