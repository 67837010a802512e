"""The named arrays against their slower routes: group inverses of their
rational partners (with an O(n^3) reversion) and, for ``a_p``, the rebuild
from its production matrix.  Arrays must agree by ``==`` and ``repr``;
errors at orders -1, 0 and 1 and at r < 1 are pinned by type and message."""

from __future__ import annotations

import pytest

from riordankit import linalg, production, riordan
from riordankit.errors import InsufficientOrder, UnsupportedParameter

from helpers import (
    ap_by_inverse,
    ap_rows_by_production,
    catalan_by_inverse,
    central_by_inverse,
)

ORDER_MAX = 40
NAMED = (
    (riordan.l_central, central_by_inverse),
    (riordan.l_catalan, catalan_by_inverse),
    (production.a_p, ap_by_inverse),
)
H_ERROR = "h must satisfy h(0) = 0 and h'(0) != 0"


def truncated(arr, order):
    return riordan.RiordanArray(arr.d.truncate(order), arr.h.truncate(order))


@pytest.mark.parametrize("r", range(1, 9))
def test_named_arrays_match_their_inverse_forms(r):
    # The first n terms of an inverse depend only on the first n terms of
    # the array inverted, so one oracle at ORDER_MAX serves every order.
    for build, oracle in NAMED:
        expected = oracle(r, ORDER_MAX)
        for order in range(2, ORDER_MAX + 1):
            want = truncated(expected, order)
            got = build(r, order)
            assert got == want, (build.__name__, order)
            assert repr(got) == repr(want), (build.__name__, order)
            assert repr(got.d.coeffs) == repr(want.d.coeffs)
            assert repr(got.h.coeffs) == repr(want.h.coeffs)


@pytest.mark.parametrize("r", range(1, 9))
def test_ap_matches_the_rebuild_from_its_production_matrix(r):
    # Expand (d, h) as a plain array: a_p's own expansion runs p_catalan.
    ap = production.a_p(r, ORDER_MAX)
    rows = linalg.pad_square(truncated(ap, ORDER_MAX).to_matrix(ORDER_MAX))
    assert rows == ap_rows_by_production(r, ORDER_MAX)


@pytest.mark.parametrize("r", range(1, 9))
def test_bridge_without_padding(r):
    for order in (2, 3, 12):
        rows = production.stieltjes_bridge(r, order)
        assert rows == catalan_by_inverse(r, order).to_matrix(order)


@pytest.mark.parametrize(
    "build",
    [
        riordan.l_central,
        riordan.l_catalan,
        production.a_p,
        riordan.coefficient_array,
        riordan.binomial_power,
        production.stieltjes_bridge,
    ],
)
def test_errors_at_small_orders_and_bad_r(build):
    too_small = (InsufficientOrder, "order must be at least 1")
    expected = {-1: too_small, 0: too_small, 1: (ValueError, H_ERROR)}
    for order, (kind, message) in expected.items():
        with pytest.raises(kind) as info:
            build(2, order)
        assert (type(info.value), str(info.value)) == (kind, message)
    if build is riordan.binomial_power:
        return  # every integer k gives a power of the binomial array
    for r in (0, -1):
        for order in (0, 1, 5):
            with pytest.raises(UnsupportedParameter, match="^r must be at least 1$"):
                build(r, order)
