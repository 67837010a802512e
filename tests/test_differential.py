"""Seeded differential tests: the integer-row moment pass against the
Fraction one, the routes built on it and the single-pass elimination
routes against per-window solves, cofactor determinants and dense
elimination, and the forward-substitution production matrix against the
inverse-times-shift product and the Fraction forward substitution, the
integer matrix product against the Fraction triple loop, and the
leading minors of one Bareiss pass against one determinant per block, on
random, singular and too-short inputs.
Values must be equal; errors must agree in type, message, order/index and
partial result."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from riordankit import berlekamp, hankel, linalg, production, riordan, sequences
from riordankit.errors import (
    InsufficientTerms,
    SingularDiagonal,
    SingularLeadingMinor,
    SingularSystem,
)

from helpers import (
    det_cofactor,
    fraction_chebyshev,
    fraction_ldl,
    fraction_mat_mul,
    fraction_production_matrix,
    quadratic_hankel_times,
)

METHODS = ("ldl", "bareiss", "both", "spot")
P61 = 2**61 - 1


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (
        InsufficientTerms,
        SingularDiagonal,
        SingularLeadingMinor,
        SingularSystem,
    ) as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "order", None),
            getattr(exc, "index", None),
            getattr(exc, "partial", None),
        )


def per_window_triangle(a, count):
    rows = []
    for d in range(1, count + 1):
        try:
            rows.append(berlekamp.solve_bm(a, d))
        except SingularSystem:
            raise SingularSystem(d, partial=rows) from None
    return rows


def per_column_companion(a, d):
    if len(a) < 2 * d:
        raise InsufficientTerms(f"need {2 * d} terms for window size {d}")
    h = hankel.hankel_matrix(a, d)
    cols = [linalg.solve(h, [a[i + j + 1] for i in range(d)]) for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def cofactor_transform(a, count, method):
    if len(a) < 2 * count - 1:
        raise InsufficientTerms(
            f"need {2 * count - 1} terms for {count} Hankel determinants"
        )
    minors = [
        det_cofactor([[a[i + j] for j in range(n + 1)] for i in range(n + 1)])
        for n in range(count)
    ]
    if method != "bareiss" and 0 in minors:
        raise SingularLeadingMinor(minors.index(0))
    return minors


def cramer(m, b):
    n = len(m)
    det = det_cofactor(m)
    if det == 0:
        raise SingularSystem(n)
    replaced = [
        [[b[r] if c == i else m[r][c] for c in range(n)] for r in range(n)]
        for i in range(n)
    ]
    return [Fraction(det_cofactor(mi), det) for mi in replaced]


def sequences_under_test(rng):
    """(terms, count): random integers, moment sequences of a few-atom
    measure (their Hankel minors vanish past the atom count), and
    sequences one or three terms short of what count needs."""
    for _ in range(150):
        count = rng.randint(1, 5)
        kind = rng.randrange(3)
        length = 2 * count - rng.choice((0, 0, 1, 3))
        if kind == 0:
            a = [rng.randint(-4, 4) for _ in range(length)]
        elif kind == 1:
            atoms = [
                (rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
            ]
            a = [sum(w * x**k for x, w in atoms) for k in range(length)]
        else:
            a = [rng.choice((0, 0, 1, -1, 2)) for _ in range(length)]
        yield a, count


def fraction_sequences(rng):
    """(terms, count) with proper fractions among the terms: random ones,
    and moment sequences of few-atom measures with fractional weights."""
    for _ in range(60):
        count = rng.randint(1, 4)
        length = 2 * count - rng.choice((0, 1, 1, 2))
        if rng.randrange(2):
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(length)]
        else:
            atoms = [
                (rng.randint(-2, 2), Fraction(rng.randint(1, 3), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            ]
            a = [sum(w * x**k for x, w in atoms) for k in range(length)]
        yield a, count


def test_recurrence_routes_match_per_window_solves():
    rng = random.Random(20060517)
    seen = set()
    for a, count in sequences_under_test(rng):
        expected = outcome(per_window_triangle, a, count)
        assert outcome(berlekamp.bm_triangle, a, count) == expected, (a, count)
        seen.add(expected[0])
        for d in range(1, count + 1):
            assert outcome(berlekamp.companion_check, a, d) == outcome(
                per_column_companion, a, d
            ), (a, d)
    assert seen == {"value", InsufficientTerms, SingularSystem}


def moment_terms(rng, kind, length):
    """Terms from {-3..3} (kind 0), moments of a measure with up to nine
    atoms, whose minors vanish past the atom count (1), sparse terms whose
    minors vanish and recover (2), Fractions (3), sparse terms with
    +-(2^61 - 1) among them (4), or sparse Fractions (5)."""
    if kind == 4:
        return [rng.choice((0, 0, 0, 1, -1, P61, -P61)) for _ in range(length)]
    if kind == 5:
        entries = (0, 0, 0, 1, Fraction(1, 2), Fraction(-3, 2))
        return [rng.choice(entries) for _ in range(length)]
    if kind == 0:
        return [rng.randint(-3, 3) for _ in range(length)]
    if kind == 1:
        size = rng.randint(1, 9)
        atoms = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(size)]
        return [sum(w * x**k for x, w in atoms) for k in range(length)]
    if kind == 2:
        return [rng.choice((0, 0, 0, 1, -1)) for _ in range(length)]
    return [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(length)]


def test_integer_row_engine_matches_the_fraction_oracle():
    rng = random.Random(8)
    stops = set()
    for _ in range(240):
        length = rng.choice((0, 1, 2, rng.randint(3, 24)))
        a = moment_terms(rng, rng.randrange(4), length)
        rows, steps = hankel._chebyshev(a)
        for num, den in rows:
            assert den > 0 and gcd(den, *num) == 1, (a, num, den)
        fractions = [[Fraction(c, den) for c in num] for num, den in rows]
        ratios = [
            ([Fraction(c, q[-1]) for c in q], Fraction(g * e, q[-1] * d))
            for q, g, d, e in steps
        ]
        assert repr((fractions, ratios)) == repr(fraction_chebyshev(a)), a
        # Passes with and without a block step over vanishing minors.
        stops.add(any(len(q) > 2 for q, *_ in steps))
    assert stops == {True, False}


def test_moment_pass_stops_after_the_first_vanishing_minor():
    # With stop_at_zero the pass is a prefix of the full one that ends
    # with the first row with a leading zero and takes no step from it.
    rng = random.Random(2020)
    stopped = 0
    for _ in range(240):
        a = moment_terms(rng, rng.randrange(6), rng.randint(1, 33))
        rows, steps = hankel._chebyshev(a)
        first = next((j for j, (num, _) in enumerate(rows) if num[:1] == [0]), None)
        short = hankel._chebyshev(a, stop_at_zero=True)
        if first is None:
            assert short == (rows, steps), a
        else:
            stopped += 1
            assert short == (rows[: first + 1], steps[:first]), a
    assert stopped > 0
    rows, steps = hankel._chebyshev([0] + [1, -2, 3] * 100, stop_at_zero=True)
    assert len(rows) == 1 and steps == []


def window_char_poly(a, d):
    return [-c for c in berlekamp.solve_bm(a, d)] + [Fraction(1)]


def test_char_poly_matches_window_solves():
    rng = random.Random(24)
    seen = set()
    for kind in (0, 1, 2, 3) * 3:
        a = moment_terms(rng, kind, 48)
        for d in range(1, 26):
            expected = outcome(window_char_poly, a, d)
            assert repr(outcome(berlekamp.char_poly, a, d)) == repr(expected), (a, d)
            steps = hankel._chebyshev(a[: 2 * d])[1]
            no_minor_vanishes = [len(q) for q, *_ in steps[:d]] == [2] * d
            seen.add((expected[0], no_minor_vanishes))
    # Both kinds of window give values, and windows after a vanishing
    # minor are solved as well as found singular.
    assert seen == {
        ("value", True),
        ("value", False),
        (SingularSystem, False),
        (InsufficientTerms, False),
    }


def test_moment_pass_through_vanishing_minors_matches_per_order_routes():
    # Every method against one Bareiss determinant per order, and
    # char_poly and bm_triangle against one solve per window, on terms
    # whose minors vanish in runs; odd lengths end the terms inside a
    # zero block as often as not.
    rng = random.Random(2016)
    seen = set()
    for kind in (1, 2, 4, 5) * 12:
        a = moment_terms(rng, kind, rng.randint(1, 33))
        for count in range(1, (len(a) + 1) // 2 + 1):
            minors = [
                linalg.bareiss_det(hankel.hankel_matrix(a, n + 1))
                for n in range(count)
            ]
            assert hankel.hankel_transform(a, count, method="bareiss") == minors
            for method in ("ldl", "both", "spot"):
                if 0 in minors:
                    with pytest.raises(SingularLeadingMinor) as err:
                        hankel.hankel_transform(a, count, method=method)
                    assert err.value.index == minors.index(0), (a, count)
                else:
                    assert hankel.hankel_transform(a, count, method=method) == minors
            text = "".join("0" if m == 0 else "x" for m in minors)
            seen.add("run" if "00x" in text else "end" if text.endswith("00") else "")
        for d in range(1, len(a) // 2 + 2):
            expected = outcome(window_char_poly, a, d)
            assert repr(outcome(berlekamp.char_poly, a, d)) == repr(expected), (a, d)
            expected = outcome(per_window_triangle, a, d)
            assert repr(outcome(berlekamp.bm_triangle, a, d)) == repr(expected), (a, d)
            seen.add(expected[0])
    assert seen >= {"run", "end", "value", SingularSystem, InsufficientTerms}


def test_routes_past_a_vanishing_minor_stay_on_the_moment_pass(monkeypatch):
    a = [0, 0, 1, 0, 0, 0, 2, 1, 0, 0, 1, 3, 0, 1, 0]
    minors = [linalg.bareiss_det(hankel.hankel_matrix(a, n + 1)) for n in range(8)]
    windows = [outcome(window_char_poly, a, d) for d in range(1, 8)]
    assert minors[:2] == [0, 0] and 0 not in minors[2:]
    assert windows[1][0] is SingularSystem and windows[2][0] == "value"

    def forbidden(*args):
        raise AssertionError("left the moment pass")

    for module in (hankel, linalg, berlekamp):
        for name in ("bareiss_det", "solve", "solve_bm", "_eliminate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert hankel.hankel_transform(a, 8, method="bareiss") == minors
    assert [outcome(berlekamp.char_poly, a, d) for d in range(1, 8)] == windows
    with pytest.raises(SingularSystem):
        berlekamp.bm_triangle(a, 7)
    for method in METHODS:
        assert hankel.hankel_transform([1, 2, 5, 14, 42], 3, method=method) == [1, 1, 1]


def test_hankel_methods_match_cofactor_minors():
    rng = random.Random(1968)
    for inputs in (sequences_under_test, fraction_sequences):
        seen = set()
        for a, count in inputs(rng):
            for method in METHODS:
                expected = outcome(cofactor_transform, a, count, method)
                actual = outcome(hankel.hankel_transform, a, count, method)
                assert actual == expected, (a, count, method)
                seen.add(expected[0])
        assert seen == {"value", InsufficientTerms, SingularLeadingMinor}


def test_hankel_ldl_matches_dense_elimination():
    rng = random.Random(1880)
    seen = set()
    for a, count in sequences_under_test(rng):
        expected = outcome(lambda: hankel._ldl_dense(hankel.hankel_matrix(a, count)))
        assert outcome(lambda: hankel.ldl(hankel.hankel_matrix(a, count))) == expected
        seen.add(expected[0])
    assert seen == {"value", InsufficientTerms, SingularLeadingMinor}


def test_ldl_unit_factor_is_int_where_integral():
    rng = random.Random(1414)
    inputs = [
        (sequences.family_terms(name, 2 * n - 1, r), n)
        for name in ("catalan", "central", "sum")
        for r in (1, 3, 8)
        for n in (1, 6, 24)
    ]
    inputs += list(sequences_under_test(rng)) + list(fraction_sequences(rng))
    kinds = set()
    for a, count in inputs:
        got = outcome(lambda: hankel.ldl(hankel.hankel_matrix(a, count)))
        if got[0] != "value":
            continue
        for v in (v for row in got[1].l for v in row):
            assert type(v) is (int if v.denominator == 1 else Fraction), (a, count)
            kinds.add(type(v))
    assert kinds == {int, Fraction}


def test_ldl_of_a_symmetric_non_hankel_matrix():
    rng = random.Random(2718)
    singular = 0
    for _ in range(100):
        n = rng.randint(3, 5)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = rng.choice((0, 1, -1, 2, 3, Fraction(1, 2)))
        m[1][1] = m[0][2] + 1  # so m is not Hankel
        minors = [det_cofactor([row[: k + 1] for row in m[: k + 1]]) for k in range(n)]
        if 0 in minors:
            singular += 1
            with pytest.raises(SingularLeadingMinor) as err:
                hankel.ldl(m)
            assert err.value.index == minors.index(0)
            continue
        dec = hankel.ldl(m)
        assert dec.reconstruct() == m
        assert [(len(row), row[-1]) for row in dec.l] == [(i + 1, 1) for i in range(n)]
    assert singular > 0


def test_dense_ldl_matches_gaussian_elimination():
    # Values, entry types (through repr), and the index and message of
    # SingularLeadingMinor, on symmetric int, Fraction and mixed matrices;
    # zero-rich pools make singular leading blocks common.
    rng = random.Random(1968)
    pools = (
        (0, 1, -1, 2, 3, -4, 7),
        (0, 0, 0, 1, -1, 2),
        (Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(0), Fraction(7, 4)),
        (0, 1, -2, 3, Fraction(1, 2), Fraction(-5, 3)),
    )
    seen = set()
    for _ in range(600):
        n, pool = rng.randint(0, 7), rng.choice(pools)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = rng.choice(pool)
        expected = outcome(fraction_ldl, m)
        assert repr(outcome(hankel._ldl_dense, m)) == repr(expected), m
        seen.add(expected[0])
        if expected[0] == "value":
            seen |= {type(v) for row in expected[1].l for v in row}
    assert seen == {"value", SingularLeadingMinor, int, Fraction}


def inverse_times_shift(rows):
    full = linalg.pad_square(rows)
    n = len(full) - 1
    leading = [row[:n] for row in full[:n]]
    shifted = [full[i + 1][:n] for i in range(n)]
    return linalg.mat_mul(linalg.lower_tri_inverse(leading), shifted)


def test_production_matrix_matches_inverse_times_shift():
    rng = random.Random(1991)
    seen = set()
    for _ in range(400):
        size = rng.randint(2, 8)
        entries = (0, 0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
        rows = [
            [rng.choice(entries) for _ in range(i)]
            + [rng.choice((1, 1, 1, 2, -1, Fraction(3, 2), 0))]
            for i in range(size)
        ]
        expected = outcome(inverse_times_shift, rows)
        assert outcome(production.production_matrix, rows) == expected, rows
        seen.add(expected[0])
    assert seen == {"value", SingularDiagonal}


def production_outcome(fn, rows):
    try:
        return ("value", fn(rows))
    except (ValueError, SingularDiagonal) as exc:
        return (type(exc), str(exc))


def production_inputs(rng):
    """Blocks of 0 to 24 rows with int, Fraction or mixed entries; unit,
    non-unit, negative and zero diagonals; rows longer than i + 1; the
    unit LDL^T factors of family and random Hankel matrices; and the
    expansions of the named arrays."""
    pools = (
        (0, 0, 1, -1, 2, 3, -5),
        (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4), Fraction(3)),
        (0, 0, 1, -2, Fraction(1, 2), Fraction(-5, 3)),
    )
    diagonals = ((1,), (1, -1, 2, -3, Fraction(3, 2), Fraction(-1, 5)), (1, 1, 2, 0))
    for _ in range(300):
        size = rng.choice((0, 1, 2, rng.randint(3, 24)))
        pool, diagonal = rng.choice(pools), rng.choice(diagonals)
        rows = []
        for i in range(size):
            row = [rng.choice(pool) for _ in range(i)] + [rng.choice(diagonal)]
            if rng.randrange(4) == 0:
                row += [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            rows.append(row)
        yield rows
    for n in (1, 2, 5, 16, 32):
        for r in (1, 2, 3):
            for fam in ("catalan", "central", "sum"):
                terms = sequences.family_terms(fam, 2 * n + 1, r)
                yield hankel.ldl(hankel.hankel_matrix(terms, n + 1)).l
        terms = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(2 * n)]
        try:
            yield hankel.ldl(hankel.hankel_matrix(terms, n + 1)).l
        except SingularLeadingMinor:
            pass
    for size in (2, 3, 9, 24):
        for r in (1, 2, 3):
            for array in (riordan.l_catalan, riordan.l_central, production.a_p):
                yield array(r, size).to_matrix(size)
        yield riordan.binomial(size).to_matrix(size)


def test_production_matrix_matches_the_fraction_oracle():
    rng = random.Random(1300)
    seen = set()
    for rows in production_inputs(rng):
        expected = production_outcome(fraction_production_matrix, rows)
        got = production_outcome(production.production_matrix, rows)
        assert got == expected, rows
        seen.add(expected[0])
        if got[0] == "value":
            # Integers come back as ints, other values as Fractions.
            for v in (v for row in got[1] for v in row):
                assert type(v) is (int if v.denominator == 1 else Fraction), rows
    assert seen == {"value", ValueError, SingularDiagonal}


def test_certificate_product_matches_the_quadratic_sum():
    rng = random.Random(6161)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 40)
        size = 2 * n - 1
        kind = rng.randrange(4)
        if kind == 0:
            terms = [rng.randint(-(10**30), 10**30) for _ in range(size)]
        elif kind == 1:
            terms = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
        elif kind == 2:
            terms = [rng.choice((0, 1, -1, P61, -P61, Fraction(1, 3))) for _ in range(size)]
        else:
            # A denominator that vanishes mod the prime: no product.
            terms = [rng.randint(-3, 3) for _ in range(size)]
            terms[rng.randrange(size)] = Fraction(1, P61)
        v = [pow(hankel._BASE, j, P61) for j in range(n)]
        expected = quadratic_hankel_times(terms, v)
        assert hankel._hankel_times(terms, v) == expected, terms
        seen.add(expected is None)
    assert seen == {True, False}


def test_determinant_and_solve_match_cofactor_routes():
    rng = random.Random(4242)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        m = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-3, 3) for _ in range(n)]
        det = det_cofactor(m)
        singular += det == 0
        assert linalg.bareiss_det(m) == det, m
        assert outcome(linalg.solve, m, b) == outcome(cramer, m, b), (m, b)
    assert singular > 0


def matrix_pairs(rng):
    """(A, B) with int, Fraction or mixed entries, shapes from 0 x 0 up,
    rectangular ones, 0-row A, 0-column B, all-zero rows, and rows whose
    entries have near coprime 40-bit denominators, as a row of a Hankel
    unit factor has."""
    pools = (
        (0, 0, 1, -1, 2, 3, -7),
        (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(7, 4)),
        (0, 1, -2, Fraction(1, 2), Fraction(-5, 3), Fraction(6, 3)),
    )
    for _ in range(400):
        m, n, p = (rng.choice((0, 1, rng.randint(2, 9))) for _ in range(3))
        pool = rng.choice(pools)
        a = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        b = [[rng.choice(pool) for _ in range(p)] for _ in range(n)]
        for mat in (a, b):
            if mat and rng.randrange(3) == 0:
                mat[rng.randrange(len(mat))] = [0] * len(mat[0])
        yield a, b
    for _ in range(40):
        # Ints, zeros, and single 40-bit denominators, some of which divide
        # the product of two others, so denominators repeat and nest.
        n, p = rng.randint(24, 32), rng.randint(1, 6)
        dens = [rng.randrange(2**39, 2**40) | 1 for _ in range(n)]
        a = []
        for _ in range(rng.randint(1, 4)):
            row = []
            for k in range(n):
                den = rng.choice((1, dens[k], dens[k], dens[k] * dens[k - 1]))
                row.append(Fraction(rng.randint(-(10**12), 10**12), den))
            a.append([v.numerator if v.denominator == 1 else v for v in row])
        b = [[rng.choice(rng.choice(pools)) for _ in range(p)] for _ in range(n)]
        yield a, b


def test_mat_mul_matches_the_fraction_triple_loop():
    rng = random.Random(1968)
    shapes = set()
    for a, b in matrix_pairs(rng):
        got = linalg.mat_mul(a, b)
        assert got == fraction_mat_mul(a, b), (a, b)
        # Integers come back as ints, other values as Fractions.
        for v in (v for row in got for v in row):
            assert type(v) is (int if v.denominator == 1 else Fraction), (a, b)
        shapes.add((len(a) > 0, len(b) > 0, bool(b) and len(b[0]) > 0))
    assert len(shapes) == 6


def test_matrix_product_of_a_ragged_right_factor_is_an_error():
    with pytest.raises(ValueError, match="rectangular"):
        linalg.mat_mul([[1, 2]], [[1, 2], [3]])
    # A row of A must have one entry per row of B, with or without columns.
    for a in ([[1]], [[1, 2, 3]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="one entry per row"):
            linalg.mat_mul(a, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="one entry per row"):
        linalg.mat_mul([[1, 2, 3]], [[], []])
    assert linalg.mat_mul([[1, 2], [3, 4]], [[], []]) == [[], []]
    assert linalg.mat_mul([[], []], []) == [[], []]


def test_leading_minors_match_one_determinant_per_block():
    rng = random.Random(22)
    zero_pivots = recovered = 0
    for _ in range(300):
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.randint(0, 7)
            m = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]
        else:
            # Moments of a few atoms, whose minors vanish past the atom
            # count; sparse terms, whose minors vanish and recover; Fractions.
            n = rng.randint(1, 9)
            m = hankel.hankel_matrix(moment_terms(rng, (1, 2, 3)[kind - 1], 2 * n - 1), n)
        expected = [linalg.bareiss_det([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        assert linalg._leading_minors(m) == expected, m
        if 0 in expected[:-1]:
            zero_pivots += 1
            recovered += any(expected[expected.index(0) + 1 :])
    assert zero_pivots > 0 and recovered > 0
