"""Truncated power series: arithmetic, composition, reversion, bivariate tables."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from riordankit import production, riordan, series
from riordankit.errors import (
    InsufficientOrder,
    NonUnitConstant,
    NonzeroInnerConstant,
    NotRevertible,
    ZeroConstantDivisor,
)


def coeffs(s):
    return [int(c) if c.denominator == 1 else c for c in s.coeffs]


def rand_series(rng, order, *, constant=None):
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)]
    if constant is not None:
        cs[0] = Fraction(constant)
    return series.Series(cs)


def test_poly_pads_and_truncates():
    s = series.poly([1, 2], 4)
    assert coeffs(s) == [1, 2, 0, 0]
    assert s.order == 4
    assert coeffs(s.truncate(2)) == [1, 2]


def test_truncate_beyond_order_is_an_error():
    with pytest.raises(InsufficientOrder):
        series.poly([1], 3).truncate(4)


def test_add_sub_mul_basics():
    a = series.poly([1, 1], 5)
    b = series.poly([1, -1], 5)
    assert coeffs(a * b) == [1, 0, -1, 0, 0]
    assert coeffs(a + b) == [2, 0, 0, 0, 0]
    assert coeffs(a - b) == [0, 2, 0, 0, 0]
    assert coeffs(-a) == [-1, -1, 0, 0, 0]


def test_binary_ops_truncate_to_shorter_operand():
    a = series.poly([1, 1], 6)
    b = series.poly([1, 1], 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_scalar_arithmetic():
    a = series.poly([1, 2], 3)
    assert coeffs(2 * a) == [2, 4, 0]
    assert coeffs(a * Fraction(1, 2)) == [Fraction(1, 2), 1, 0]
    assert coeffs(a / 2) == [Fraction(1, 2), 1, 0]


def test_geometric_series_division():
    g = series.rational([1], [1, -1], 6)
    assert coeffs(g) == [1] * 6
    assert coeffs(1 / g) == [1, -1, 0, 0, 0, 0]


def test_division_by_zero_constant_rejected():
    with pytest.raises(ZeroConstantDivisor):
        series.one(4) / series.x(4)
    with pytest.raises(ZeroConstantDivisor):
        series.rational([1], [0, 1], 4)


def test_div_x_shifts():
    s = series.poly([0, 0, 3, 5], 6)
    assert coeffs(s.div_x(2)) == [3, 5, 0, 0]
    with pytest.raises(ValueError):
        series.poly([1, 2], 4).div_x(1)


def test_sqrt_of_central_generating_function():
    # (1 - 6x + x^2)^(-1/2) generates 1, 3, 13, 63, 321, ...
    s = series.rational([1], [1, -6, 1], 7).sqrt()
    assert coeffs(s) == [1, 3, 13, 63, 321, 1683, 8989]


def test_sqrt_requires_unit_constant():
    with pytest.raises(NonUnitConstant):
        series.poly([4], 3).sqrt()


def test_compose_geometric_into_geometric():
    outer = series.rational([1], [1, -1], 5)
    inner = series.rational([0, 1], [1, -1], 5)
    assert coeffs(outer.compose(inner)) == [1, 1, 2, 4, 8]


def test_compose_requires_zero_inner_constant():
    with pytest.raises(NonzeroInnerConstant):
        series.x(4).compose(series.one(4))


def test_revert_catalan():
    # The compositional inverse of x - x^2 counts binary trees.
    h = series.poly([0, 1, -1], 6)
    assert coeffs(h.revert()) == [0, 1, 1, 2, 5, 14]


def test_revert_requires_invertible_linear_term():
    with pytest.raises(NotRevertible):
        series.poly([1, 1], 4).revert()
    with pytest.raises(NotRevertible):
        series.poly([0, 0, 1], 4).revert()


def test_random_field_identities():
    rng = random.Random(41925)
    for _ in range(25):
        a = rand_series(rng, 9)
        b = rand_series(rng, 9, constant=Fraction(rng.randint(1, 5)))
        assert (a + b) - b == a
        assert (a * b) / b == a
        u = rand_series(rng, 8, constant=1)
        s = u.sqrt()
        assert s * s == u


def test_random_composition_is_associative():
    rng = random.Random(77113)
    for _ in range(10):
        f = rand_series(rng, 8)
        g = rand_series(rng, 8, constant=0)
        h = rand_series(rng, 8, constant=0)
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_random_reversion_round_trips():
    rng = random.Random(90210)
    ident = series.x(8)
    for _ in range(10):
        cs = [Fraction(0), Fraction(1)] + [
            Fraction(rng.randint(-5, 5)) for _ in range(6)
        ]
        h = series.Series(cs)
        g = h.revert()
        assert h.compose(g) == ident
        assert g.compose(h) == ident


def test_bivariate_expansion_of_pascal():
    # 1 / (1 - x(1 + y)) lays out Pascal's triangle row by row.
    table = series.bivariate_expand([[1]], [[1], [-1, -1]], 6)
    assert table.rows == [[comb(n, k) for k in range(n + 1)] for n in range(6)]


def test_bivariate_rejects_zero_constant_denominator():
    with pytest.raises(ZeroConstantDivisor):
        series.bivariate_expand([[1]], [[0, 1], [1]], 4)


def test_indexing_printing_and_hashing_build_only_what_they_read(monkeypatch):
    rng = random.Random(5)
    samples = [rand_series(rng, n) for n in (1, 3, 6, 7, 12)]
    samples += [series.poly([2, 0, 4], 9), series.rational([1], [1, -3], 8)]
    arrays = [riordan.l_catalan(3, 9), production.a_p(2, 7),
              riordan.coefficient_array(2, 8), riordan.binomial(5)]
    arrays += [arr.inverse() for arr in arrays]
    before = [(s.coeffs, repr(s), [s[i] for i in range(-s.order, s.order)],
               s[1:4], s[::-2]) for s in samples]
    hashes = [(hash(arr), repr(arr)) for arr in arrays]

    def forbidden(self):
        raise AssertionError("built every coefficient to read a few")

    monkeypatch.setattr(series.Series, "coeffs", property(forbidden))
    for s, (cs, text, items, middle, back) in zip(samples, before):
        assert repr(s) == text
        assert [s[i] for i in range(-s.order, s.order)] == items
        assert all(type(v) is Fraction for v in items)
        assert (s[1:4], s[::-2]) == (middle, back) == (cs[1:4], cs[::-2])
        assert list(items[s.order:]) == list(cs)
        with pytest.raises(IndexError):
            s[s.order]
    assert [(hash(arr), repr(arr)) for arr in arrays] == hashes
