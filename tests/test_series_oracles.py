"""Differential tests of the series kernels against the naive oracles.

Every ``Series`` operation on int numerators over one denominator must give
what ``helpers.FractionSeries``, the same kernels on Fraction coefficients,
gives: the same ``repr`` of ``coeffs``, or the same error type and message,
on random exact rationals of orders 0 to 12 with non-integral and non-unit
leading terms.  ``bivariate_expand`` is held to its Fraction form the same way.
``Series.revert`` (Lagrange inversion) and ``Series.compose`` (truncated
Horner) must return exactly what the coefficient-by-coefficient reversion
and the untruncated Horner loop in ``helpers`` return, on random exact
rationals of orders 0 to 40 (random reversions stop at order 24, where the
O(n^4) oracle still runs in a fraction of a second; one fixed order-40
example goes beyond).  ``binomial_power`` (closed form) must equal the
repeated group product it replaces.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordankit import riordan, series
from riordankit.errors import NotRevertible
from riordankit.series import Series

from helpers import FractionSeries, fraction_bivariate_rows, naive_compose, naive_revert

coefficient = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
nonzero = coefficient.filter(bool)


@st.composite
def coefficients(draw, min_order, max_order, *, head=()):
    """A list of exactly the drawn order, starting with the given head."""
    order = draw(st.integers(min_order, max_order))
    size = order - len(head)
    tail = draw(st.lists(coefficient, min_size=size, max_size=size))
    return [Fraction(c) for c in head] + tail


def zero_constant(min_order, max_order):
    return coefficients(min_order, max_order, head=[0])


@st.composite
def revertible(draw, max_order):
    """f[0] = 0, a nonzero (usually non-unit) f[1], order 2..max_order."""
    return draw(coefficients(2, max_order, head=[0, draw(nonzero)]))


ORDER_40 = [Fraction(0)] + [
    Fraction((-1) ** i * (i % 7 + 1), i % 4 + 1) for i in range(1, 40)
]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(revertible(max_order=24))
@example(ORDER_40)
def test_revert_matches_per_coefficient_oracle(f):
    g = Series(f).revert()
    assert g.order == len(f)
    assert list(g.coeffs) == naive_revert(f)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(coefficients(0, 40), zero_constant(1, 40))
@example(ORDER_40[::-1], ORDER_40)
def test_compose_matches_untruncated_horner(f, g):
    n = min(len(f), len(g))
    out = Series(f).compose(Series(g))
    assert out.order == n
    assert list(out.coeffs) == naive_compose(f, g, n)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(coefficients(1, 12), zero_constant(13, 40))
def test_compose_outer_shorter_than_inner(f, g):
    out = Series(f).compose(Series(g))
    assert list(out.coeffs) == naive_compose(f, g, len(f))


@pytest.mark.parametrize(
    "f",
    [
        [0, 1],
        [0, Fraction(-3, 7)],
        [0, 5, 2],
        [0, Fraction(2, 3), Fraction(-1, 2)],
        [0, -1, 0, 0, 0, 0, 0, 1],
    ],
)
def test_revert_low_orders_and_non_unit_linear_terms(f):
    f = [Fraction(c) for c in f]
    g = Series(f).revert()
    assert list(g.coeffs) == naive_revert(f)
    ident = series.x(len(f))
    assert Series(f).compose(g) == ident
    assert g.compose(Series(f)) == ident


@pytest.mark.parametrize(
    "f", [[], [0], [1], [Fraction(1, 2)], [1, 1], [0, 0], [0, 0, 1, 1], [2, 3, 4]]
)
def test_not_revertible(f):
    message = r"^reversion requires f\(0\) = 0 and f'\(0\) != 0$"
    with pytest.raises(NotRevertible, match=message):
        Series(f).revert()


@pytest.mark.parametrize(
    "f, g, expected", [([], [0], []), ([5], [0], [5]), ([1, 2], [0, 3], [1, 6])]
)
def test_compose_orders_zero_one_two(f, g, expected):
    assert list(Series(f).compose(Series(g)).coeffs) == expected


def repeated_binomial_power(k, order):
    if k == 0:
        return riordan.identity(order)
    base = riordan.binomial(order)
    if k < 0:
        base = base.inverse()
    out = base
    for _ in range(abs(k) - 1):
        out = out.multiply(base)
    return out


@pytest.mark.parametrize("k", range(-8, 9))
def test_binomial_power_closed_form_matches_repeated_product(k):
    closed = riordan.binomial_power(k, 12)
    product = repeated_binomial_power(k, 12)
    assert closed.d.coeffs == product.d.coeffs
    assert closed.h.coeffs == product.h.coeffs
    assert closed.order == product.order == 12


def outcome(op, make, *args):
    """``repr`` of the result's coefficients, or the error's type and message."""
    try:
        result = op(*(make(a) if isinstance(a, list) else a for a in args))
    except Exception as exc:  # the error is the outcome being compared
        return type(exc), str(exc)
    return repr(result.coeffs)


def agree(op, *args):
    assert outcome(op, Series, *args) == outcome(op, FractionSeries, *args)


HEADS = [[], [0], [1], [-3], [Fraction(5, 2)], [0, Fraction(2, 3)], [0, -3]]
SCALARS = [0, 1, -2, 3, Fraction(0), Fraction(3, 4), Fraction(-7, 2)]
SMALL = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def headed(draw, max_order=12):
    head = draw(st.sampled_from(HEADS))
    return draw(coefficients(len(head), max(max_order, len(head)), head=head))


@SMALL
@given(coefficients(0, 12), headed())
@example([], [])
@example([Fraction(1, 2)], [Fraction(-3)])
@example([1, 2], [Fraction(5, 2), 1])
@example([Fraction(1, 6)], [Fraction(1, 4)])
def test_ring_operations_match_the_fraction_kernels(a, b):
    agree(lambda p, q: p * q, a, b)
    agree(lambda p, q: p / q, a, b)
    agree(lambda q: 1 / q, b)
    agree(lambda q: Fraction(-3, 2) / q, b)
    agree(lambda p, q: p + q, a, b)
    agree(lambda p, q: p - q, a, b)
    agree(lambda p: -p, a)


@SMALL
@given(coefficients(0, 12), st.sampled_from(SCALARS))
@example([], 0)
@example([Fraction(1, 3), 2], Fraction(0))
def test_scalar_operations_match_the_fraction_kernels(a, c):
    agree(lambda p: p * c, a)
    agree(lambda p: c * p, a)
    agree(lambda p: p / c, a)  # ZeroDivisionError for c = 0


@SMALL
@given(headed())
@example([1])
@example([1, Fraction(1, 3)])
@example([1, Fraction(-5, 4), Fraction(7, 3)])
def test_sqrt_matches_the_fraction_kernels(a):
    agree(lambda p: p.sqrt(), a)
    agree(lambda p: p.sqrt(), [Fraction(1)] + a[1:])


@SMALL
@given(coefficients(0, 12), headed())
@example([], [0])
@example([Fraction(2, 3)], [0])
@example([1, 2], [0, Fraction(-2, 5)])
def test_compose_matches_the_fraction_kernels(f, g):
    agree(lambda p, q: p.compose(q), f, g)
    agree(lambda p, q: p.compose(q), f, [Fraction(0)] + g[1:])


@SMALL
@given(headed())
@example([0, Fraction(-3, 7)])
@example([0, 5, Fraction(2, 9)])
def test_revert_matches_the_fraction_kernels(f):
    agree(lambda p: p.revert(), f)
    if len(f) > 1:
        agree(lambda p: p.revert(), [Fraction(0)] + f[1:])


@SMALL
@given(headed(), st.integers(-1, 4))
@example([], 0)
@example([0, 0, Fraction(1, 2)], 2)
def test_truncate_and_div_x_match_the_fraction_kernels(a, k):
    agree(lambda p: p.truncate(k), a)
    agree(lambda p: p.div_x(k), a)


@SMALL
@given(coefficients(1, 12), st.integers(1, 6))
def test_equal_series_from_ints_and_fractions_are_equal_and_hash_equal(cs, k):
    ints = [int(c) if c.denominator == 1 else c for c in cs]
    scaled = [Fraction(c.numerator * k, c.denominator * k) for c in cs]
    a, b, c = Series(cs), Series(ints), Series(scaled)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert (a.num, a.den) == (b.num, b.den)
    unit = Series([-1] + cs[1:])
    for result in (a * c, a + c, a - c, -a, a * Fraction(k, 2), a / k, a / unit):
        rebuilt = Series(result.coeffs)
        assert result == rebuilt
        assert hash(result) == hash(rebuilt)


grid_row = st.lists(coefficient, max_size=3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.lists(grid_row, max_size=3),
    st.sampled_from([1, -2, 3, Fraction(1, 2)]),
    st.lists(grid_row, max_size=3),
    st.integers(1, 7),
)
def test_bivariate_expand_matches_the_fraction_kernels(num, d00, den, order_x):
    den = [[d00] + (den[0] if den else [])] + den[1:]
    rows = series.bivariate_expand(num, den, order_x).rows
    assert repr(rows) == repr(fraction_bivariate_rows(num, den, order_x))
