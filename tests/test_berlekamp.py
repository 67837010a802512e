"""Recurrence solving from Hankel systems and the resulting triangles."""

from __future__ import annotations

from fractions import Fraction

import pytest

from riordankit import berlekamp, riordan, sequences, series
from riordankit.errors import CrossCheckFailed, InsufficientTerms, SingularSystem

from helpers import characteristic_rows_by_window, det_cofactor, poly_eval

C3 = sequences.family_terms("catalan", 8, 3)


def test_window_solutions_for_the_r3_family():
    assert berlekamp.solve_bm(C3, 1) == [3]
    assert berlekamp.solve_bm(C3, 2) == [-9, 7]
    assert berlekamp.solve_bm(C3, 3) == [27, -34, 11]
    assert berlekamp.solve_bm(C3, 4) == [-81, 142, -75, 15]


def test_solutions_satisfy_their_windows():
    for d in range(1, 5):
        g = berlekamp.solve_bm(C3, d)
        for n in range(d):
            assert sum(g[i] * C3[n + i] for i in range(d)) == C3[n + d]


def test_constant_sequence():
    assert berlekamp.solve_bm([5, 5], 1) == [1]


def test_term_count_guard():
    with pytest.raises(InsufficientTerms):
        berlekamp.solve_bm([1, 2, 3], 2)
    with pytest.raises(ValueError):
        berlekamp.solve_bm([1, 2], 0)


def test_geometric_sequence_is_singular_past_degree_one():
    powers = [2**n for n in range(8)]
    assert berlekamp.solve_bm(powers, 1) == [2]
    with pytest.raises(SingularSystem) as err:
        berlekamp.solve_bm(powers, 2)
    assert err.value.order == 2


def test_triangle_rows_and_partial_result_on_failure():
    fib = [1, 1, 2, 3, 5, 8, 13, 21]
    with pytest.raises(SingularSystem) as err:
        berlekamp.bm_triangle(fib, 4)
    assert err.value.order == 3
    assert err.value.partial == [[1], [1, 1]]


def test_catalan_triangle_table():
    c1 = sequences.family_terms("catalan", 8, 1)
    assert berlekamp.bm_triangle(c1, 4) == [
        [1],
        [-1, 3],
        [1, -6, 5],
        [-1, 10, -15, 7],
    ]


def test_catalan_triangle_closed_form():
    c1 = sequences.family_terms("catalan", 18, 1)
    rows = berlekamp.bm_triangle(c1, 9)
    for n in range(9):
        for k in range(n + 1):
            assert rows[n][k] == berlekamp.catalan_bm_term(n, k)
    assert [berlekamp.catalan_bm_term(n, n) for n in range(9)] == [
        2 * n + 1 for n in range(9)
    ]
    assert berlekamp.catalan_bm_term(3, 2) == -15


def test_char_poly_is_monic_upgrade_of_the_solution():
    assert berlekamp.char_poly(C3, 1) == [-3, 1]
    assert berlekamp.char_poly(C3, 3) == [-27, 34, -11, 1]
    assert berlekamp.char_poly(C3, 4) == [81, -142, 75, -15, 1]


def test_companion_matrix_table():
    assert berlekamp.companion_check(C3, 4) == [
        [0, 0, 0, -81],
        [1, 0, 0, 142],
        [0, 1, 0, -75],
        [0, 0, 1, 15],
    ]


def test_companion_matrix_entries_are_ints_where_integral():
    # As every other matrix of the library: the ones and zeros below the
    # last column too, not Fraction(1) and Fraction(0).
    m = berlekamp.companion_check(C3, 4)
    assert {type(v) for row in m for v in row} == {int}


def test_companion_char_poly_consistency():
    # det(tI - M) must equal the ascending characteristic coefficients;
    # compare by evaluation at d+1 points.
    for d in (2, 3, 4):
        m = berlekamp.companion_check(C3, d)
        coeffs = berlekamp.char_poly(C3, d)
        for t in range(d + 1):
            block = [
                [Fraction(t if i == j else 0) - m[i][j] for j in range(d)]
                for i in range(d)
            ]
            assert det_cofactor(block) == poly_eval(coeffs, t)


@pytest.mark.parametrize("k", range(3))
def test_companion_rejects_a_perturbed_characteristic_polynomial(monkeypatch, k):
    true_char_poly = berlekamp.char_poly

    def perturbed(a, d):
        coeffs = true_char_poly(a, d)
        coeffs[k] += 1
        return coeffs

    monkeypatch.setattr(berlekamp, "char_poly", perturbed)
    with pytest.raises(CrossCheckFailed, match="^companion column does not solve"):
        berlekamp.companion_check(C3, 3)


def test_zero_window_and_zero_count_errors():
    with pytest.raises(ValueError) as err:
        berlekamp.companion_check(C3, 0)
    assert type(err.value) is ValueError
    assert str(err.value) == "window size must be at least 1"
    with pytest.raises(ValueError) as err:
        berlekamp.coefficient_riordan_check(3, 0)
    assert type(err.value) is ValueError
    assert str(err.value) == "h must satisfy h(0) = 0 and h'(0) != 0"


def test_characteristic_rows_match_one_char_poly_per_window():
    for r in range(1, 9):
        for count in range(1, 21):
            assert berlekamp.coefficient_riordan_check(
                r, count
            ) == characteristic_rows_by_window(r, count), (r, count)


def test_characteristic_rows_take_one_moment_pass(monkeypatch):
    calls = []
    chebyshev = berlekamp._chebyshev

    def spy(a):
        calls.append(len(a))
        return chebyshev(a)

    monkeypatch.setattr(berlekamp, "_chebyshev", spy)
    berlekamp.coefficient_riordan_check(3, 12)
    assert calls == [22]


def test_characteristic_rows_form_the_inverse_catalan_array():
    for r in range(1, 5):
        rows = berlekamp.coefficient_riordan_check(r, 6)
        assert rows == riordan.l_catalan(r, 6).inverse().to_matrix(6)


def test_characteristic_rows_table_r3():
    assert berlekamp.coefficient_riordan_check(3, 5) == [
        [1],
        [-3, 1],
        [9, -7, 1],
        [-27, 34, -11, 1],
        [81, -142, 75, -15, 1],
    ]


def test_generating_function_reproduces_the_triangle():
    for r in range(1, 5):
        berlekamp.bm_gf_check(r, 6)


def test_generating_function_rows_directly():
    # Independent expansion of (r(1+x) + xy) / ((1-xy)(1+(r+1)x+rx^2-xy))
    # at r = 1 against the reference rows.
    num = [[1], [1, 1]]
    den = [[1], [2, -2], [1, -2, 1], [0, -1]]
    table = series.bivariate_expand(num, den, 4)
    assert table.rows == [[1], [-1, 3], [1, -6, 5], [-1, 10, -15, 7]]


def test_generating_function_denominator_is_the_product():
    # Degree <= 3 in x and <= 2 in y: 4 x 3 points decide the identity.
    for r in range(1, 9):
        _, den = berlekamp._bm_gf(r)
        for x in range(4):
            for y in range(3):
                grid = sum(
                    c * x**i * y**j
                    for i, row in enumerate(den)
                    for j, c in enumerate(row)
                )
                product = (1 - x * y) * (1 + (r + 1) * x + r * x**2 - x * y)
                assert grid == product, (r, x, y)


def test_solver_against_cramers_rule():
    for d in (2, 3, 4):
        h = [[C3[i + j] for j in range(d)] for i in range(d)]
        rhs = C3[d : 2 * d]
        det = det_cofactor(h)
        cramer = []
        for i in range(d):
            replaced = [
                [rhs[row] if col == i else h[row][col] for col in range(d)]
                for row in range(d)
            ]
            cramer.append(Fraction(det_cofactor(replaced), det))
        assert berlekamp.solve_bm(C3, d) == cramer


def test_triangle_reports_the_first_failing_window():
    with pytest.raises(SingularSystem) as err:
        berlekamp.bm_triangle([2, 0, 0, 0, 1], 3)
    assert (err.value.order, err.value.partial) == (2, [[0]])
    with pytest.raises(InsufficientTerms, match="need 6 terms for window size 3"):
        berlekamp.bm_triangle(C3[:5], 3)
    assert berlekamp.bm_triangle(C3, 0) == []


def test_triangle_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count must not be negative"):
        berlekamp.bm_triangle(C3, -2)


def test_window_solvable_after_a_singular_one():
    # H_2 of 0, 1, 1, 2 is invertible though H_1 = [0] is not: single
    # windows pivot, the triangle stops at the first singular window.
    assert berlekamp.char_poly([0, 1, 1, 2], 2) == [-1, -1, 1]
    with pytest.raises(SingularSystem) as err:
        berlekamp.bm_triangle([0, 1, 1, 2], 2)
    assert (err.value.order, err.value.partial) == (1, [])
