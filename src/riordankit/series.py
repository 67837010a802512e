"""Truncated formal power series over exact rationals.

A series of order N holds the coefficients of x^0 .. x^(N-1) the way
FLINT's ``fmpq_poly`` does: a tuple ``num`` of int numerators over one
positive int denominator ``den``, with one gcd taken out so that every
value has exactly one (num, den).  Every kernel runs on the ints and clears
denominators explicitly; ``coeffs``, the same coefficients as
``fractions.Fraction``, is built on each read.  Binary
operations truncate to the shorter operand's order and never pad, so a
result is only as long as both inputs can justify.

The module also provides a small bivariate expander for rational generating
functions in x and y, used for triangles read off as ``[x^n y^k]``; its
y-polynomials use the same layout and kernels.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    InsufficientOrder,
    NonUnitConstant,
    NonzeroInnerConstant,
    NotRevertible,
    ZeroConstantDivisor,
)

_ZERO = Fraction(0)


def _integer_row(values):
    """The values as int numerators over their least common denominator."""
    terms = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in terms))
    return [v.numerator * (den // v.denominator) for v in terms], den


def _normal(num, den):
    """num / den as (tuple of ints, den > 0) with one gcd taken out."""
    if den < 0:
        num, den = [-c for c in num], -den
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    return tuple(num), den


def _powers(b, n):
    """[1, b, ..., b^(n-1)]."""
    out = [1] * n
    for i in range(1, n):
        out[i] = out[i - 1] * b
    return out


def _mul_lists(a, b, n):
    """Cauchy product of int coefficient lists, truncated to n terms."""
    out = [0] * n
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
    """Quotient a/b of int lists to n terms, fraction-free; requires b[0] != 0.

    Returns Q with Q_i = q_i * b0^(i+1) for the quotient q: multiplying the
    recurrence for q_i through by b0^(i+1) gives the int recurrence
    Q_i = b0^i a_i - sum_(k>=1) b_k b0^(k-1) Q_(i-k).
    """
    if not b or b[0] == 0:
        raise ZeroConstantDivisor("cannot divide by a series with zero constant term")
    pw = _powers(b[0], n)
    scaled = [bk * pw[k - 1] for k, bk in enumerate(b[1:n], 1)]
    q = []
    for i in range(n):
        s = pw[i] * a[i] if i < len(a) else 0
        for k in range(1, min(i, len(scaled)) + 1):
            bk = scaled[k - 1]
            if bk:
                s -= bk * q[i - k]
        q.append(s)
    return q


def _quotient(a, b, n):
    """a/b to n terms over one denominator: (numerators, b0^n)."""
    q = _div_lists(a, b, n)
    pw = _powers(b[0], n + 1)
    return [qi * pw[n - 1 - i] for i, qi in enumerate(q)], pw[n]


def _compose_lists(f, g, dg, n):
    """f(g / dg) * dg^(n-1) to n terms via Horner; requires g[0] == 0 and
    n <= len(f).  f_k enters scaled by dg^(n-1-k), so every partial value
    carries the same power of dg as the products of g it has been through."""
    pw = _powers(dg, n)
    out = [0]
    for k in range(n - 1, -1, -1):
        # After f[k] is added, the running value is multiplied by g k more
        # times.  Since g(0) = 0 each product raises the lowest degree by at
        # least one, so only its first n - k terms can reach x^(n-1).
        out = _mul_lists(out, g, n - k)
        out[0] += f[k] * pw[n - 1 - k]
    return out[:n]


class Series:
    """An exactly truncated power series; treat instances as immutable.

    ``num`` and ``den`` are the stored form: coefficient i is num[i] / den.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        self.num, self.den = _normal(*_integer_row(coeffs))

    @classmethod
    def _make(cls, num, den):
        out = cls.__new__(cls)
        out.num, out.den = _normal(num, den)
        return out

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Fractions, built on each read."""
        den = self.den
        if den == 1:
            return tuple(Fraction(c) for c in self.num)
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def order(self) -> int:
        return len(self.num)

    def __getitem__(self, n) -> Fraction:
        return self.coeffs[n]

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"Series([{head}{tail}], order={self.order})"

    def truncate(self, n: int) -> "Series":
        """First n coefficients as a new series; n may not exceed the order."""
        if n > self.order:
            raise InsufficientOrder(f"order {self.order} series cannot supply {n} terms")
        return Series._make(self.num[:n], self.den)

    def _plus(self, other, sign):
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return Series._make([a * sa + b * sb for a, b in zip(self.num, other.num)], den)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self):
        return Series._make([-c for c in self.num], self.den)

    def _scaled(self, c):
        p = c.numerator
        return Series._make([a * p for a in self.num], self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series._make(_mul_lists(self.num, other.num, n), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            q, scale = _quotient(self.num, other.num, n)
            return Series._make([c * other.den for c in q], scale * self.den)
        if isinstance(other, (int, Fraction)):
            return self._scaled(1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q, scale = _quotient([other.numerator * self.den], self.num, self.order)
            return Series._make(q, scale * other.denominator)
        return NotImplemented

    def div_x(self, k: int = 1) -> "Series":
        """Divide by x^k; the first k coefficients must be exactly zero."""
        if any(self.num[: max(k, 0)]):
            raise ValueError(f"cannot divide by x^{k}: low-order coefficient nonzero")
        return Series._make(self.num[k:], self.den)

    def sqrt(self) -> "Series":
        """Square root with constant term 1 (the positive branch).

        With d the denominator, S_i = s_i (4d)^i are ints:
        S_i = (4^i d^(i-1) num_i - sum_(0<k<i) S_k S_(i-k)) / 2, and every
        S_i with i >= 1 is even, so the halving is exact.
        """
        a, d = self.num, self.den
        if not a or a[0] != d:
            raise NonUnitConstant("series square root requires constant term 1")
        n = len(a)
        pw = _powers(4 * d, n)
        s = [1]
        for i in range(1, n):
            t = 4 * pw[i - 1] * a[i] - sum(s[k] * s[i - k] for k in range(1, i))
            s.append(t // 2)
        return Series._make([si * pw[n - 1 - i] for i, si in enumerate(s)], pw[n - 1])

    def compose(self, inner: "Series") -> "Series":
        """self(inner(x)); the inner series must have zero constant term."""
        if not inner.num or inner.num[0] != 0:
            raise NonzeroInnerConstant("composition requires inner constant term 0")
        n = min(self.order, inner.order)
        out = _compose_lists(self.num, inner.num, inner.den, n)
        return Series._make(out, self.den * inner.den ** max(n - 1, 0))

    def revert(self) -> "Series":
        """Compositional inverse g with self(g(x)) = x.

        Requires a zero constant term and a nonzero linear coefficient;
        the result has the same truncation order n.  Computed by Lagrange
        inversion: with phi = x / self, the coefficient of x^m in g is
        [x^(m-1)] phi^m / m.  With b = num[1], the division gives
        phi(x) = (den / b) Q(x / b) for the int series Q of ``_div_lists``,
        so [x^(m-1)] phi^m = den^m [x^(m-1)] Q^m / b^(2m-1).  The powers of
        Q are carried to n - 1 terms by one truncated product each, O(n^3)
        int operations.
        """
        f, d = self.num, self.den
        if len(f) < 2 or f[0] != 0 or f[1] == 0:
            raise NotRevertible("reversion requires f(0) = 0 and f'(0) != 0")
        n = len(f)
        b, q = f[1], _div_lists([1], f[1:], n - 1)
        # g_m = d^m [x^(m-1)] Q^m / (m b^(2m-1)) over the common denominator
        # top * b^(2n-3), top = lcm(1, ..., n-1).
        top = lcm(*range(1, n))
        b2 = _powers(b * b, n - 1)
        num, power, dm = [0], [1], 1
        for m in range(1, n):
            power, dm = _mul_lists(power, q, n - 1), dm * d
            num.append(dm * power[m - 1] * (top // m) * b2[n - 1 - m])
        return Series._make(num, top * b ** (2 * n - 3))


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


class BivariateTable(namedtuple("BivariateTable", "rows order_x")):
    """Coefficient triangle of a bivariate series: rows[n][k] = [x^n y^k]."""

    __slots__ = ()


# The y-polynomials below are (numerators, denominator) pairs as ``_normal``
# returns them.


def _fractions(p):
    num, den = p
    return [Fraction(c, den) for c in num]


def poly2_mul(a, b):
    """Product of two bivariate polynomials given as grids of x-rows."""
    a = [_integer_row(row) for row in a]
    b = [_integer_row(row) for row in b]
    rows = [((), 1)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            rows[i + j] = _yadd(rows[i + j], _ymul(ai, bj))
    return [_fractions(row) for row in rows]


def _yadd(p, q, sign=1):
    """p + sign * q, as long as the longer of the two."""
    (a, da), (b, db) = p, q
    den = lcm(da, db)
    sa, sb = den // da, sign * (den // db)
    out = [c * sa for c in a] + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c * sb
    return _normal(out, den)


def _ymul(p, q, cap=None):
    (a, da), (b, db) = p, q
    size = len(a) + len(b) - 1 if a and b else 0
    if cap is not None:
        size = min(size, cap)
    return _normal(_mul_lists(a, b, size), da * db)


def bivariate_expand(num, den, order_x: int) -> BivariateTable:
    """Expand num(x,y)/den(x,y) as a coefficient triangle in x and y.

    ``num`` and ``den`` are grids of rows: entry [i][j] is the coefficient
    of x^i y^j.  The denominator needs a nonzero constant term.  Row n of
    the result holds [x^n y^k] for k = 0..n (longer only if a coefficient
    beyond y^n is nonzero, which cannot happen for proper triangles).
    """
    if order_x < 1:
        raise ValueError("order_x must be at least 1")
    den_rows = [list(r) for r in den]
    if not den_rows or not den_rows[0] or den_rows[0][0] == 0:
        raise ZeroConstantDivisor("bivariate denominator has zero constant term")
    num_rows = [_integer_row(r) for r in num]
    den_rows = [_integer_row(r) for r in den_rows]
    cap = order_x
    # The reciprocal of the y-polynomial den_rows[0] as a power series in y.
    d0, e0 = den_rows[0]
    inv0 = _normal(*_quotient([e0], d0, cap))
    q = []
    for n in range(order_x):
        t = num_rows[n] if n < len(num_rows) else ((), 1)
        for i in range(1, min(n, len(den_rows) - 1) + 1):
            t = _yadd(t, _ymul(den_rows[i], q[n - i], cap), -1)
        q.append(_ymul(t, inv0, cap))
    rows = []
    for n, qn in enumerate(q):
        last = 0
        for idx, c in enumerate(qn[0]):
            if c:
                last = idx
        width = max(n + 1, last + 1)
        row = _fractions(qn)[:width]
        row += [_ZERO] * (width - len(row))
        rows.append(row)
    return BivariateTable(rows=rows, order_x=order_x)
