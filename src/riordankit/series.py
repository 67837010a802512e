"""Truncated formal power series over exact rationals.

Integers are Python ints and rationals are ``fractions.Fraction``, so every
coefficient is exact and automatically in lowest terms.  A series of order N
stores the coefficients of x^0 .. x^(N-1); binary operations truncate to the
shorter operand's order and never pad, so a result is only as long as both
inputs can justify.

The module also provides a small bivariate expander for rational generating
functions in x and y, used for triangles read off as ``[x^n y^k]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InsufficientOrder,
    NonUnitConstant,
    NonzeroInnerConstant,
    NotRevertible,
    ZeroConstantDivisor,
)

_ZERO = Fraction(0)


def _mul_lists(a, b, n):
    """Cauchy product of coefficient lists, truncated to n terms."""
    out = [_ZERO] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if not ai:
            continue
        for j in range(min(len(b), n - i)):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _div_lists(a, b, n):
    """Quotient a/b to n terms; requires b[0] != 0."""
    if not b or b[0] == 0:
        raise ZeroConstantDivisor("cannot divide by a series with zero constant term")
    b0 = b[0]
    q = []
    for i in range(n):
        s = a[i] if i < len(a) else _ZERO
        for k in range(1, min(i, len(b) - 1) + 1):
            bk = b[k]
            if bk:
                s -= bk * q[i - k]
        q.append(s / b0)
    return q


def _compose_lists(f, g, n):
    """f(g(x)) to n terms via Horner; requires g[0] == 0."""
    out = [_ZERO]
    for k in range(min(len(f), n) - 1, -1, -1):
        # After f[k] is added, the running value is multiplied by g k more
        # times.  Since g(0) = 0 each product raises the lowest degree by at
        # least one, so only its first n - k terms can reach x^(n-1).
        out = _mul_lists(out, g, n - k)
        out[0] += f[k]
    return out[:n]


class Series:
    """An exactly truncated power series; treat instances as immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"Series([{head}{tail}], order={self.order})"

    def truncate(self, n: int) -> "Series":
        """First n coefficients as a new series; n may not exceed the order."""
        if n > self.order:
            raise InsufficientOrder(f"order {self.order} series cannot supply {n} terms")
        return Series(self.coeffs[:n])

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(_mul_lists(self.coeffs, other.coeffs, n))
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(_div_lists(self.coeffs, other.coeffs, n))
        if isinstance(other, (int, Fraction)):
            inv = 1 / Fraction(other)
            return Series([c * inv for c in self.coeffs])
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            num = [Fraction(other)] + [_ZERO] * (self.order - 1)
            return Series(_div_lists(num, self.coeffs, self.order))
        return NotImplemented

    def div_x(self, k: int = 1) -> "Series":
        """Divide by x^k; the first k coefficients must be exactly zero."""
        if any(self.coeffs[i] for i in range(min(k, self.order))):
            raise ValueError(f"cannot divide by x^{k}: low-order coefficient nonzero")
        return Series(self.coeffs[k:])

    def sqrt(self) -> "Series":
        """Square root with constant term 1 (the positive branch)."""
        if not self.coeffs or self.coeffs[0] != 1:
            raise NonUnitConstant("series square root requires constant term 1")
        n = self.order
        s = [Fraction(1)]
        for i in range(1, n):
            t = self.coeffs[i]
            for k in range(1, i):
                t -= s[k] * s[i - k]
            s.append(t / 2)
        return Series(s)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(x)); the inner series must have zero constant term."""
        if not inner.coeffs or inner.coeffs[0] != 0:
            raise NonzeroInnerConstant("composition requires inner constant term 0")
        n = min(self.order, inner.order)
        return Series(_compose_lists(self.coeffs, inner.coeffs, n))

    def revert(self) -> "Series":
        """Compositional inverse g with self(g(x)) = x.

        Requires a zero constant term and a nonzero linear coefficient;
        the result has the same truncation order n.  Computed by Lagrange
        inversion: with phi = x / self, the coefficient of x^m in g is
        [x^(m-1)] phi^m / m.  The powers of phi are carried to n - 1 terms
        by one truncated product each, O(n^3) coefficient operations.
        """
        if self.order < 2 or self.coeffs[0] != 0 or self.coeffs[1] == 0:
            raise NotRevertible("reversion requires f(0) = 0 and f'(0) != 0")
        n = self.order
        phi = _div_lists([1], self.coeffs[1:], n - 1)
        power = phi
        g = [_ZERO, phi[0]]
        for m in range(2, n):
            power = _mul_lists(power, phi, n - 1)
            g.append(power[m - 1] / m)
        return Series(g)


def poly(coeffs, order: int) -> Series:
    """Polynomial coefficients padded (or cut) to the given order."""
    cs = list(coeffs)[:order]
    cs += [0] * (order - len(cs))
    return Series(cs)


def one(order: int) -> Series:
    return poly([1], order)


def x(order: int) -> Series:
    return poly([0, 1], order)


def rational(num, den, order: int) -> Series:
    """Expansion of the rational function num(x)/den(x) to the given order."""
    return poly(num, order) / poly(den, order)


@dataclass
class BivariateTable:
    """Coefficient triangle of a bivariate series: rows[n][k] = [x^n y^k]."""

    rows: list
    order_x: int


def poly2_mul(a, b):
    """Product of two bivariate polynomials given as grids of x-rows."""
    rows = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod = _ymul(ai, bj)
            rows[i + j] = _yadd(rows[i + j], prod)
    return rows


def _yadd(p, q):
    out = [Fraction(c) for c in (p if len(p) >= len(q) else q)]
    short = q if len(p) >= len(q) else p
    for i, c in enumerate(short):
        out[i] += c
    return out


def _ysub(p, q):
    return _yadd(p, [-Fraction(c) for c in q])


def _ymul(p, q, cap=None):
    size = len(p) + len(q) - 1 if p and q else 0
    if cap is not None:
        size = min(size, cap)
    out = [_ZERO] * size
    for i, pi in enumerate(p):
        if not pi or i >= size:
            continue
        for j, qj in enumerate(q):
            if i + j >= size:
                break
            if qj:
                out[i + j] += Fraction(pi) * qj
    return out


def _yinv(p, cap):
    """Reciprocal of a y-polynomial as a truncated power series in y."""
    p0 = Fraction(p[0])
    inv = [1 / p0]
    for i in range(1, cap):
        s = _ZERO
        for k in range(1, min(i, len(p) - 1) + 1):
            if p[k]:
                s += Fraction(p[k]) * inv[i - k]
        inv.append(-s / p0)
    return inv


def bivariate_expand(num, den, order_x: int) -> BivariateTable:
    """Expand num(x,y)/den(x,y) as a coefficient triangle in x and y.

    ``num`` and ``den`` are grids of rows: entry [i][j] is the coefficient
    of x^i y^j.  The denominator needs a nonzero constant term.  Row n of
    the result holds [x^n y^k] for k = 0..n (longer only if a coefficient
    beyond y^n is nonzero, which cannot happen for proper triangles).
    """
    if order_x < 1:
        raise ValueError("order_x must be at least 1")
    num_rows = [list(r) for r in num]
    den_rows = [list(r) for r in den]
    if not den_rows or not den_rows[0] or den_rows[0][0] == 0:
        raise ZeroConstantDivisor("bivariate denominator has zero constant term")
    cap = order_x
    inv0 = _yinv(den_rows[0], cap)
    q = []
    for n in range(order_x):
        t = [Fraction(c) for c in (num_rows[n] if n < len(num_rows) else [])]
        for i in range(1, min(n, len(den_rows) - 1) + 1):
            t = _ysub(t, _ymul(den_rows[i], q[n - i], cap))
        q.append(_ymul(t, inv0, cap))
    rows = []
    for n, qn in enumerate(q):
        last = 0
        for idx, c in enumerate(qn):
            if c:
                last = idx
        width = max(n + 1, last + 1)
        row = list(qn[:width])
        row += [_ZERO] * (width - len(row))
        rows.append(row)
    return BivariateTable(rows=rows, order_x=order_x)
