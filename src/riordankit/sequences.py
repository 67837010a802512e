"""Closed-form integer sequence families.

The central object is the two-parameter triangle

    T(n, k; r) = sum_j C(k, j) * C(n-k, j) * r^j

(Pascal for r = 1, Delannoy for r = 2).  Everything else here derives from
it: central coefficients T(2n, n; r), the generalized Catalan numbers
c(n; r) = T(2n, n; r) - T(2n, n+1; r), sums of adjacent Catalan terms, and
the companion sequences whose values show up as Hankel determinants.
``family_terms`` builds each family's list by the recurrence of its
generating function; the per-term functions keep the definitions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import riordan, series
from .errors import (
    CrossCheckFailed, IndexOutOfTriangle, NonIntegerResult, UnsupportedParameter
)


def _t_sum(n: int, k: int, r: int) -> int:
    # Raw defining sum; empty (hence 0) whenever k > n, which the
    # Catalan difference relies on at k = n + 1.  It is the oracle of
    # ``triangle_rows``.
    return sum(comb(k, j) * comb(n - k, j) * r**j for j in range(n - k + 1))


def triangle_T(n: int, k: int, r: int) -> int:
    """Triangle entry T(n, k; r); requires 0 <= k <= n."""
    if k < 0 or k > n:
        raise IndexOutOfTriangle(f"entry ({n}, {k}) lies outside the triangle")
    return _t_sum(n, k, r)


def triangle_rows(count: int, r: int):
    """First ``count`` rows of the triangle, the rational Riordan array
    (1/(1-x), x(1 + (r-1)x)/(1-x)), expanded by its column recurrence in
    O(count^2) int steps."""
    return riordan._rational_rows((1,), (1, r - 1), (1, -1), count)


def central(n: int, r: int) -> int:
    """Central coefficient T(2n, n; r)."""
    return triangle_T(2 * n, n, r)


def gen_catalan(n: int, r: int) -> int:
    """Generalized Catalan number c(n; r) = T(2n, n; r) - T(2n, n+1; r)."""
    if n < 0:
        raise IndexOutOfTriangle("n must be nonnegative")
    return _t_sum(2 * n, n, r) - _t_sum(2 * n, n + 1, r)


def catalan_sum(n: int, r: int) -> int:
    """Sum of adjacent generalized Catalan numbers c(n; r) + c(n+1; r)."""
    return gen_catalan(n, r) + gen_catalan(n + 1, r)


def b_seq(n: int, r: int, method: str = "gf") -> int:
    """Companion sequence with generating function (1-x)/(1-(r+2)x+rx^2).

    Four equivalent routes are kept around because each one independently
    certifies the others:

    - ``gf``: expand the rational generating function.
    - ``difference``: A(n) - A(n-1) with
      A(m) = sum_k C(m-k, k) (-r)^k (r+2)^(m-2k).
    - ``binomial``: sum_k C(n, k) sum_j C(j, k-j) r^(2j-k).
    - ``floor``: sum_k C(n, k) sum_{j <= k/2} C(k-j, j) r^(k-2j).
    """
    if n < 0:
        raise UnsupportedParameter("n must be nonnegative")
    if method == "gf":
        expansion = series.rational([1, -1], [1, -(r + 2), r], n + 1)
        value = expansion[n]
        if value.denominator != 1:
            raise NonIntegerResult(f"b({n}; {r}) expanded to {value}")
        return value.numerator
    if method == "difference":
        def partial(m: int) -> int:
            return sum(
                comb(m - k, k) * (-r) ** k * (r + 2) ** (m - 2 * k)
                for k in range(m // 2 + 1)
            )

        return partial(n) - (partial(n - 1) if n >= 1 else 0)
    if method == "binomial":
        total = 0
        for k in range(n + 1):
            inner = sum(
                comb(j, k - j) * r ** (2 * j - k)
                for j in range(n + 1)
                if 0 <= k - j <= j
            )
            total += comb(n, k) * inner
        return total
    if method == "floor":
        total = 0
        for k in range(n + 1):
            inner = sum(comb(k - j, j) * r ** (k - 2 * j) for j in range(k // 2 + 1))
            total += comb(n, k) * inner
        return total
    raise ValueError(f"unknown b_seq method {method!r}")


def gen_pell(n: int, r: int) -> int:
    """Coefficient of x^n in 1/(1 - rx - x^2)."""
    if n < 0:
        raise UnsupportedParameter("n must be nonnegative")
    return family_terms("pell", n + 1, r)[n]


def bessel_moments(n: int, r: int) -> int:
    """Moment sequence of e.g.f. I_0(2 sqrt(r) x): C(2m, m) r^m at n = 2m, else 0."""
    if n < 0:
        raise UnsupportedParameter("n must be nonnegative")
    if n % 2:
        return 0
    m = n // 2
    return comb(n, m) * r**m


def interleaved_pell(n: int) -> int:
    """Coefficient of x^n in (1 + 3x - x^2 - x^3) / (1 - 6x^2 + x^4)."""
    if n < 0:
        raise UnsupportedParameter("n must be nonnegative")
    return family_terms("interleaved", n + 1)[n]


def closed_ht(kind: str, n: int, r: int) -> int:
    """Closed-form Hankel determinant of order n+1 for a sequence family.

    - ``central``: 2^n * r^C(n+1, 2)
    - ``catalan``: r^C(n+1, 2)
    - ``sum``:     r^C(n+1, 2) * b(n+1; r)
    """
    if r < 1:
        raise UnsupportedParameter("closed forms are proved for r >= 1")
    if n < 0:
        raise UnsupportedParameter("n must be nonnegative")
    power = r ** comb(n + 1, 2)
    if kind == "central":
        return 2**n * power
    if kind == "catalan":
        return power
    if kind == "sum":
        return power * b_seq(n + 1, r)
    raise ValueError(f"unknown closed form kind {kind!r}")


def closed_ht_sum_r2_variant(n: int) -> int:
    """The r = 2 sum-family determinant as 2^C(n+2,2) * sum_k C(n+2, 2k) 2^(-k)."""
    if n < 0:
        raise UnsupportedParameter("n must be nonnegative")
    m = n + 2
    total = sum(Fraction(comb(m, 2 * k), 2**k) for k in range(m // 2 + 1))
    value = total * 2 ** comb(m, 2)
    if value.denominator != 1:
        raise NonIntegerResult(f"variant value at n={n} is {value}")
    return value.numerator


FAMILY_NAMES = ("central", "catalan", "sum", "b", "pell", "bessel", "interleaved")


def _recurrences(r: int):
    """The first terms of every family but ``sum``, and its step
    n -> (top, bottom) with a_n = top / bottom, from the recurrence of its
    generating function."""
    s = (r - 1) ** 2
    return {
        "central": ((1, r + 1), lambda n, a: (
            (2 * n - 1) * (r + 1) * a[-1] - (n - 1) * s * a[-2], n)),
        "catalan": ((1, r), lambda n, a: (
            (2 * n - 1) * (r + 1) * a[-1] - (n - 2) * s * a[-2], n + 1)),
        "b": ((1, r + 1), lambda n, a: ((r + 2) * a[-1] - r * a[-2], 1)),
        "pell": ((1, r), lambda n, a: (r * a[-1] + a[-2], 1)),
        "bessel": ((1, 0), lambda n, a: (4 * (n - 1) * r * a[-2], n)),
        "interleaved": ((1, 3, 5, 17), lambda n, a: (6 * a[-2] - a[-4], 1)),
    }


def family_terms(name: str, count: int, r: int = 1):
    """First ``count`` terms of a named one-parameter family, by the
    recurrence of its generating function in O(count) small-by-big
    products; ``sum`` adds adjacent terms of one ``catalan`` list.  The
    per-term functions are the definitions, and the oracles of the lists.
    A step whose division leaves a remainder raises CrossCheckFailed."""
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}")
    if name == "sum":
        c = family_terms("catalan", count + 1, r)
        return [x + y for x, y in zip(c, c[1:])]
    first, step = _recurrences(r)[name]
    a = list(first[: max(count, 0)])
    for n in range(len(a), count):
        top, bottom = step(n, a)
        term, rest = divmod(top, bottom)
        if rest:
            raise CrossCheckFailed(f"{name} term {n} is {top}/{bottom}, not an int")
        a.append(term)
    return a
