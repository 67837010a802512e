"""Riordan arrays: group laws, named arrays, and entry formulas."""

from __future__ import annotations

import pickle
import random
from math import comb

import pytest

from riordankit import linalg, riordan, sequences, series
from riordankit.errors import IndexOutOfTriangle, InsufficientOrder

from helpers import det_cofactor


def int_rows(rows):
    return [[int(e) for e in row] for row in rows]


def test_constructor_validation():
    with pytest.raises(ValueError):
        riordan.RiordanArray(series.x(4), series.x(4))
    with pytest.raises(ValueError):
        riordan.RiordanArray(series.one(4), series.one(4))
    with pytest.raises(ValueError):
        riordan.RiordanArray(series.one(4), series.poly([0, 0, 1], 4))


def test_binomial_array_is_pascal():
    rows = riordan.binomial(6).to_matrix(6)
    assert rows == [[comb(n, k) for k in range(n + 1)] for n in range(6)]


def test_binomial_powers():
    b = riordan.binomial(8)
    assert riordan.binomial_power(2, 8) == b.multiply(b)
    signed = riordan.binomial_power(-1, 8).to_matrix(5)
    assert signed == [
        [(-1) ** (n - k) * comb(n, k) for k in range(n + 1)] for n in range(5)
    ]
    assert riordan.binomial_power(0, 6) == riordan.identity(6)


def test_equal_arrays_hash_equal():
    assert riordan.binomial(6) == riordan.binomial(4)
    assert len({riordan.binomial(6), riordan.binomial(4)}) == 1
    # Order 1 compares h at x^0 only, so h[1] may differ between equal arrays.
    a = riordan.RiordanArray(series.one(1), series.x(2))
    b = riordan.RiordanArray(series.one(1), series.poly([0, 3], 2))
    assert a == b
    assert hash(a) == hash(b)


def test_to_matrix_needs_enough_order():
    with pytest.raises(InsufficientOrder):
        riordan.binomial(4).to_matrix(5)


def test_matrix_of_product_is_product_of_matrices():
    dim = 9
    arrays = [
        riordan.binomial(dim),
        riordan.l_central(2, dim),
        riordan.l_catalan(3, dim),
    ]
    for left in arrays:
        for right in arrays:
            expected = linalg.mat_mul(
                linalg.pad_square(left.to_matrix(dim)),
                linalg.pad_square(right.to_matrix(dim)),
            )
            # The product's own to_matrix is this mat_mul: expand its series.
            product = left.multiply(right)
            actual = riordan.RiordanArray(product.d, product.h).to_matrix(dim)
            assert linalg.pad_square(actual) == expected


def test_inverse_is_group_inverse():
    dim = 9
    ident = linalg.identity(dim)
    for arr in (
        riordan.binomial(dim),
        riordan.l_central(2, dim),
        riordan.l_catalan(1, dim),
    ):
        inv = arr.inverse()
        product = linalg.mat_mul(
            linalg.pad_square(arr.to_matrix(dim)),
            linalg.pad_square(inv.to_matrix(dim)),
        )
        assert product == ident
        assert inv.inverse() == arr


def test_apply_matches_matrix_vector_product():
    rng = random.Random(30753)
    dim = 10
    for arr in (riordan.binomial(dim), riordan.l_catalan(2, dim)):
        seq = [rng.randint(-9, 9) for _ in range(dim)]
        via_matrix = linalg.mat_vec(linalg.pad_square(arr.to_matrix(dim)), seq)
        assert arr.apply(seq) == via_matrix


def test_apply_accepts_series_input():
    b = riordan.binomial(6)
    ones = series.rational([1], [1, -1], 6)
    assert b.apply(ones) == [2**n for n in range(6)]


def test_central_array_table_r2():
    assert int_rows(riordan.l_central(2, 4).to_matrix(4)) == [
        [1],
        [3, 1],
        [13, 6, 1],
        [63, 33, 9, 1],
    ]


def test_catalan_array_tables():
    assert int_rows(riordan.l_catalan(1, 4).to_matrix(4)) == [
        [1],
        [1, 1],
        [2, 3, 1],
        [5, 9, 5, 1],
    ]
    assert int_rows(riordan.l_catalan(3, 4).to_matrix(4)) == [
        [1],
        [3, 1],
        [12, 7, 1],
        [57, 43, 11, 1],
    ]


def test_first_columns_are_the_sequence_families():
    for r in range(1, 5):
        central_rows = riordan.l_central(r, 9).to_matrix(9)
        assert [row[0] for row in central_rows] == [
            sequences.central(n, r) for n in range(9)
        ]
        catalan_rows = riordan.l_catalan(r, 9).to_matrix(9)
        assert [row[0] for row in catalan_rows] == [
            sequences.gen_catalan(n, r) for n in range(9)
        ]


def test_central_and_catalan_arrays_share_h():
    for r in range(1, 5):
        a = riordan.l_central(r, 10)
        b = riordan.l_catalan(r, 10)
        assert a.h.truncate(10) == b.h.truncate(10)


def test_catalan_array_direct_quadratic_form():
    # Both components can be written with the same square root:
    # d = (1 - (r-1)x - s) / (2x), h = (1 - (r+1)x - s) / (2rx)
    # where s^2 = 1 - 2(r+1)x + (r-1)^2 x^2.
    for r in range(1, 5):
        order = 12
        s = series.poly([1, -2 * (r + 1), (r - 1) ** 2], order + 2).sqrt()
        d = (series.poly([1, -(r - 1)], order + 2) - s).div_x(1) / 2
        h = (series.poly([1, -(r + 1)], order + 2) - s).div_x(1) / (2 * r)
        direct = riordan.RiordanArray(d.truncate(order), h.truncate(order))
        assert direct == riordan.l_catalan(r, order)


def test_entry_formulas_agree_with_matrix():
    for r in range(1, 4):
        rows = riordan.l_central(r, 9).to_matrix(9)
        for n in range(9):
            for k in range(n + 1):
                assert rows[n][k] == riordan.central_l_entry(n, k, r, "sumA")
                assert rows[n][k] == riordan.central_l_entry(n, k, r, "sumB")
                assert rows[n][k] == riordan.egf_column_coeff(n, k, r)


def test_entry_formula_spot_values():
    assert riordan.central_l_entry(4, 2, 3, "sumA") == 108
    assert riordan.central_l_entry(4, 2, 3, "sumB") == 108
    assert riordan.egf_column_coeff(2, 0, 2) == 13
    assert riordan.egf_column_coeff(3, 1, 2) == 33


def test_entry_formulas_outside_triangle():
    with pytest.raises(IndexOutOfTriangle):
        riordan.central_l_entry(2, 3, 1)
    with pytest.raises(IndexOutOfTriangle):
        riordan.egf_column_coeff(2, 3, 1)
    with pytest.raises(ValueError):
        riordan.central_l_entry(2, 1, 1, "sumC")


def test_column_generating_functions():
    # Column k of (d, h) is generated by d * h^k.
    arr = riordan.l_catalan(2, 8)
    rows = linalg.pad_square(arr.to_matrix(8))
    col_gf = arr.d
    for k in range(4):
        column = [rows[n][k] for n in range(8)]
        assert list(col_gf.coeffs) == column
        col_gf = (col_gf * arr.h).truncate(8)


def test_array_determinants_are_one():
    # Unit lower-triangular: every leading minor is 1.
    rows = linalg.pad_square(riordan.l_central(3, 5).to_matrix(5))
    assert det_cofactor(rows) == 1


# ------------------------------------------------------------ row store


def stored_arrays(order):
    """(label, array) of each kind of stored rows: a Z/A rule, rational
    partners of int and of Fraction entries, a binomial product and its
    rule's array, and a product of blocks, which reads its factors' stored
    rows."""
    catalan = riordan.l_catalan(3, order)
    b = riordan.binomial(order)
    return [
        ("catalan", catalan),
        ("coefficient", riordan.coefficient_array(2, order)),
        ("ap-inverse", riordan.a_p(3, order).inverse()),
        ("central*binomial", riordan.l_central(2, order).multiply(b)),
        ("central", riordan.l_central(2, order)),
        ("catalan*coefficient", catalan.multiply(riordan.coefficient_array(2, order))),
    ]


def fresh_rows(arr, dim):
    riordan.clear_row_store()
    return arr.to_matrix(dim)


def test_rows_handed_out_are_copies():
    for label, arr in stored_arrays(12):
        rows = arr.to_matrix(12)
        want = [row[:] for row in rows]
        rows[3][1] = 0
        rows[5].append(7)
        assert arr.to_matrix(12) == want, label
        assert arr.to_matrix(6) == want[:6], label


def test_any_order_after_any_other_reads_a_fresh_expansion():
    order = 30
    fresh = {label: fresh_rows(arr, order) for label, arr in stored_arrays(order)}
    for first, second in ((30, 9), (9, 30), (1, 30), (30, 0)):
        riordan.clear_row_store()
        for label, arr in stored_arrays(order):
            arr.to_matrix(first)
            rows = arr.to_matrix(second)
            assert repr(rows) == repr(fresh[label][:second]), (label, first, second)
            unit = [1] + [0] * (order - 1)
            assert arr.apply(unit) == [row[0] for row in fresh[label]], label


def test_a_tiny_store_evicts_and_stays_exact(monkeypatch):
    order = 20
    fresh = {label: fresh_rows(arr, order) for label, arr in stored_arrays(order)}
    # Room for one block of 20 rows (210 entries) at a time, and for none
    # of 30 rows (465 entries): that one is handed out but not stored.
    monkeypatch.setattr(riordan, "ROW_STORE_ENTRIES", 300)
    riordan.clear_row_store()
    for _ in range(2):
        for label, arr in stored_arrays(order):
            for dim in (order, 5, order):
                rows = arr.to_matrix(dim)
                assert repr(rows) == repr(fresh[label][:dim]), (label, dim)
                assert riordan._row_store_entries <= 300, label
                assert riordan._row_store_entries == sum(
                    map(riordan._entries, riordan._row_store.values())
                ), label
    big = riordan.l_catalan(3, 30)
    held = list(riordan._row_store)
    assert big.to_matrix(30) == riordan.RiordanArray(big.d, big.h).to_matrix(30)
    assert list(riordan._row_store) == held


def test_stored_rows_are_keyed_by_their_rule():
    # An array given another rule, as verify's planted-rule test does,
    # expands its own rule although the true rule's rows are stored.
    true = riordan.l_catalan(2, 10)
    true.to_matrix(10)
    wrong = riordan.l_catalan.__wrapped__(2, 10)
    wrong._rows = (riordan._rule_rows, ((2, 2), (1, 3, 3), 0))
    assert wrong.to_matrix(10) == riordan._rule_rows((2, 2), (1, 3, 3), 0, 10)
    assert wrong.to_matrix(10) != true.to_matrix(10)


def test_arrays_pickle_without_their_stored_rows():
    for label, arr in stored_arrays(12):
        rows = arr.to_matrix(12)
        copy = pickle.loads(pickle.dumps(arr))
        riordan.clear_row_store()
        assert copy.to_matrix(12) == rows, label
        assert copy == arr and hash(copy) == hash(arr), label
