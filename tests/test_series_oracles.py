"""Differential tests of the series kernels against the naive oracles.

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

from helpers import naive_compose, naive_revert

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
