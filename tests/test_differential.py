"""Seeded differential tests: the integer-row moment pass against the
Fraction one, the routes built on it and the single-pass elimination
routes against per-window solves, cofactor determinants and dense
elimination, and the forward-substitution production matrix against the
inverse-times-shift product and the Fraction forward substitution, the
integer matrix product against the Fraction triple loop, the
leading minors of one Bareiss pass against one determinant per block, on
random, singular and too-short inputs, and the named Riordan arrays'
production rules and closed-form inverses, the products' matrix
products of their factors, the binomial products' shifted rules against
the matrix product, and the actions on sequences by rows, against the
series expansion, the Lagrange inverse and d * (f o h) of the same
(d, h), the binomial transform against its sums of binomial
coefficients, and the family lists by their recurrences against the
per-term definitions.
Values must be equal, and where a route promises an int for an integral
entry, so must the entry types; errors must agree in type, message,
order/index and partial result."""

from __future__ import annotations

import functools
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from riordankit import berlekamp, hankel, linalg, production, riordan, sequences, series
from riordankit.errors import (
    InsufficientOrder,
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
    moment_pass,
    naive_binomial_transform,
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


def int_where_integral(values):
    """Fractions as the library hands out entries: an int where the value
    is an integer."""
    return [v.numerator if v.denominator == 1 else v for v in values]


def per_window_triangle(a, count):
    rows = []
    for d in range(1, count + 1):
        try:
            rows.append(int_where_integral(berlekamp.solve_bm(a, d)))
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
        assert repr(outcome(berlekamp.bm_triangle, a, count)) == repr(expected), (a, count)
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


def engine_inputs(rng):
    """Terms for the moment pass: 240 short ones of every kind of
    ``moment_terms``, then inputs as long as the benchmark's longest (129
    terms): the families at r = 1, 3 and 8, random digits 1-9 as in the
    benchmark's random pool, moments of a few atoms, and Fractions."""
    for _ in range(240):
        length = rng.choice((0, 1, 2, rng.randint(3, 24)))
        yield moment_terms(rng, rng.randrange(4), length)
    for name in ("catalan", "central", "sum"):
        for r in (1, 3, 8):
            yield sequences.family_terms(name, 129, r)
    for length in (33, 65, 129):
        yield [rng.randint(1, 9) for _ in range(length)]
        yield moment_terms(rng, 1, length)
        yield moment_terms(rng, 3, length)


def pass_branches(rows, steps):
    """The kinds of step the moment pass took: a J-fraction step (k = 0)
    with q1 = 1 or with q1 != 1, a block step (k >= 1), and a J-fraction
    row update whose content the gcd of its scale D q1 and its first three
    entries overshoots, so that a remainder shows and the full gcd runs.
    Each row update is rebuilt from the rows and checked against the next
    row on the way."""
    seen = set()
    low = [1] + [0] * len(rows[0][0])
    for j, (q, g, _, _) in enumerate(steps):
        num, den = rows[j]
        if len(q) > 2:
            seen.add("block step")
        else:
            seen.add("q1 = 1" if q[1] == 1 else "q1 != 1")
            kp = next(i for i, c in enumerate(low) if c)
            nxt = [q[1] * x + q[0] * y - g * z for x, y, z in zip(num[2:], num[1:], low[kp + 2 :])]
            if j + 1 < len(rows):
                after, after_den = rows[j + 1]
                assert [x * after_den for x in nxt] == [y * den * q[1] for y in after]
            scale = den * q[1]
            if nxt and gcd(scale, *nxt[:3]) != gcd(scale, *nxt):
                seen.add("content past three entries")
        low = num
    return seen


def test_integer_row_engine_matches_the_fraction_oracle():
    rng = random.Random(8)
    branches = set()
    for a in engine_inputs(rng):
        rows, steps = moment_pass(a)
        for num, den in rows:
            assert den > 0 and gcd(den, *num) == 1, (a, num, den)
        fractions = [[Fraction(c, den) for c in num] for num, den in rows]
        ratios = [
            ([Fraction(c, q[-1]) for c in q], Fraction(g * e, q[-1] * d))
            for q, g, d, e in steps
        ]
        assert repr((fractions, ratios)) == repr(fraction_chebyshev(a)), a
        branches |= pass_branches(rows, steps)
    assert branches == {"q1 = 1", "q1 != 1", "block step", "content past three entries"}


def reader_entries(a):
    """(reader, entries, expected type or None for int where integral) for
    every reader of the moment pass at the largest size the terms allow;
    a reader that raises (a vanishing minor) gives nothing."""
    n, windows = (len(a) + 1) // 2, len(a) // 2
    integral_terms = all(type(v) is int for v in a)
    readers = [
        ("ldl.l", lambda: [v for row in hankel.ldl(hankel.hankel_matrix(a, n)).l for v in row]),
        ("ldl.d", lambda: hankel.ldl(hankel.hankel_matrix(a, n)).d),
        ("bm_triangle", lambda: [v for row in berlekamp.bm_triangle(a, windows) for v in row]),
        ("char_poly", lambda: berlekamp.char_poly(a, windows)),
        (
            "production_matrix",
            lambda: [
                v
                for row in production.production_matrix(hankel.ldl(hankel.hankel_matrix(a, n)).l)
                for v in row
            ],
        ),
    ] + [
        (method, functools.partial(hankel.hankel_transform, a, n, method))
        for method in METHODS
    ]
    for name, read in readers:
        try:
            entries = read()
        except (InsufficientTerms, SingularLeadingMinor, SingularSystem, ValueError):
            continue
        if name == "ldl.d":
            yield name, entries, Fraction
        elif name in METHODS:
            yield name, entries, int if integral_terms else Fraction
        else:
            yield name, entries, None


def test_readers_of_the_moment_pass_give_ints_where_integral():
    rng = random.Random(8)
    kinds = {}
    for a in engine_inputs(rng):
        for name, entries, expected in reader_entries(a):
            for v in entries:
                want = expected or (int if Fraction(v).denominator == 1 else Fraction)
                assert type(v) is want, (name, a)
                kinds.setdefault(name, set()).add(type(v))
    names = ("ldl.l", "bm_triangle", "char_poly", "production_matrix", *METHODS)
    assert kinds == {"ldl.d": {Fraction}, **{name: {int, Fraction} for name in names}}


def first_zero_row(a):
    """Index of the first row with a leading zero in the moment pass over
    the terms, the first vanishing minor, or None."""
    rows = moment_pass(a)[0]
    return next((j for j, (num, _) in enumerate(rows) if num[:1] == [0]), None)


def test_readers_stop_at_the_first_vanishing_minor():
    # The moment pass runs through vanishing minors; ldl, the failing
    # transform methods and bm_triangle each stop at its first row with a
    # leading zero, with the index, message and partial rows of a pass
    # stopped there, and the same error as the per-window solves.
    rng = random.Random(2020)
    inputs = [
        moment_terms(rng, rng.randrange(6), rng.randint(1, 33)) for _ in range(240)
    ]
    stopped = 0
    for a in inputs + [[0] + [1, -2, 3] * 100]:
        n, windows = (len(a) + 1) // 2, len(a) // 2
        first = first_zero_row(a[: 2 * n - 1])
        if first is None:
            minor = ("value",)
        else:
            stopped += 1
            error = SingularLeadingMinor(first)
            minor = (SingularLeadingMinor, str(error), None, first, None)
        got = outcome(hankel.ldl, hankel.hankel_matrix(a, n))
        assert got[: len(minor)] == minor, a
        for method in ("ldl", "both", "spot"):
            got = outcome(hankel.hankel_transform, a, n, method)
            assert got[: len(minor)] == minor, (a, method)
        first = first_zero_row(a[: 2 * windows])
        got = outcome(berlekamp.bm_triangle, a, windows)
        assert got == outcome(per_window_triangle, a, windows), a
        if first is None:
            assert got[0] == "value", a
        else:
            assert got[2] == first + 1 and len(got[4]) == first, a
    assert stopped > 0


def window_char_poly(a, d):
    return int_where_integral([-c for c in berlekamp.solve_bm(a, d)]) + [1]


def test_char_poly_matches_window_solves():
    rng = random.Random(24)
    seen = set()
    for kind in (0, 1, 2, 3) * 3:
        a = moment_terms(rng, kind, 48)
        for d in range(1, 26):
            expected = outcome(window_char_poly, a, d)
            assert repr(outcome(berlekamp.char_poly, a, d)) == repr(expected), (a, d)
            steps = moment_pass(a[: 2 * d])[1]
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


@pytest.mark.parametrize("b", [[1], [1, 2, 3]], ids=["short", "long"])
def test_solve_wants_one_entry_of_b_per_row(b):
    with pytest.raises(ValueError, match=f"b has {len(b)} entries for 2 rows"):
        linalg.solve([[1, 0], [0, 1]], b)


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
        if 0 in expected[:-1]:
            # A minor after the first zero may be nonzero again, but the
            # pass cannot reach it without a swap.
            zero_pivots += 1
            recovered += any(expected[expected.index(0) + 1 :])
            expected = expected[: expected.index(0) + 1]
        assert linalg._pivots([list(row) for row in m]) == expected, m
    assert zero_pivots > 0 and recovered > 0


# ------------------------------------------------- named Riordan arrays

RULE_ORDER = 48
INVERSE_ORDER = 40
NAMED_BUILDS = {
    "catalan": riordan.l_catalan,
    "central": riordan.l_central,
    "ap": production.a_p,
    "coefficient": riordan.coefficient_array,
}


def named_arrays(order):
    """Every named array at the given order: (label, array)."""
    for name, build in NAMED_BUILDS.items():
        for r in range(1, 9):
            yield f"{name}-r{r}", build(r, order)
    for k in range(-8, 9):
        yield f"binomial_power-k{k}", riordan.binomial_power(k, order)


def plain(arr):
    """The same (d, h) with no production rule and no closed-form inverse."""
    return riordan.RiordanArray(arr.d, arr.h)


def test_production_rules_match_the_series_expansion():
    # The rule routes, the rational recurrence of the partners included,
    # must hand out the series route's entries, types too: an int where the
    # value is an integer, a Fraction otherwise.
    for label, named in named_arrays(RULE_ORDER):
        for arr in (named, named.inverse()):
            # The leading dim x dim block of the series matrix is its first dim rows.
            expected = plain(arr).to_matrix(RULE_ORDER)
            assert all(type(v) is int for row in expected for v in row
                       if v.denominator == 1), label
            for dim in range(1, RULE_ORDER + 1):
                assert repr(arr.to_matrix(dim)) == repr(expected[:dim]), (label, dim)
            assert arr.to_matrix(0) == plain(arr).to_matrix(0) == []
            with pytest.raises(InsufficientOrder) as info:
                arr.to_matrix(RULE_ORDER + 1)
            with pytest.raises(InsufficientOrder) as plain_info:
                plain(arr).to_matrix(RULE_ORDER + 1)
            assert str(info.value) == str(plain_info.value)


def test_rule_inverse_gives_the_binomial_inverses():
    # binomial_power(k) keeps its own inverse, but its rule Z = (k),
    # A = (1, k) read by the rule's inverse formula gives binomial_power(-k).
    for k in range(-4, 5):
        rule = ((k,), (1, k), 0)
        got = riordan._rule_inverse((rule, (riordan.binomial_power, k)), 30)
        want = riordan.binomial_power(-k, 30)
        assert repr(got) == repr(want), k
        assert repr(got.to_matrix(30)) == repr(want.to_matrix(30)), k


def test_rule_arrays_invert_to_rational_arrays_and_back():
    # Each rule array's inverse expands by the rational recurrence, which
    # must give its own series route's entries, types too, and inverts back
    # to the rule array.  The first n rows of the series route depend only
    # on the first n terms, so one expansion at RULE_ORDER serves every order.
    for name in ("catalan", "central", "ap"):
        for r in (1, 2, 3, 5, 8):
            want = plain(NAMED_BUILDS[name](r, RULE_ORDER).inverse()).to_matrix(RULE_ORDER)
            for order in range(2, RULE_ORDER + 1):
                rule_array = NAMED_BUILDS[name](r, order)
                partner = rule_array.inverse()
                assert partner._rows[0] is riordan._rational_rows, (name, r, order)
                assert repr(partner.to_matrix(order)) == repr(want[:order]), (name, r, order)
                back = partner.inverse()
                assert back._rows == rule_array._rows, (name, r, order)
                assert repr(back.to_matrix(order)) == repr(rule_array.to_matrix(order)), (
                    name, r, order
                )
            riordan.clear_row_store()


def test_triangle_rows_match_the_defining_sums():
    # The rows come from the rational array (1/(1-x), x(1+(r-1)x)/(1-x)),
    # m = 1 - x at r = 0 and m = 1 at r = 1; triangle_T keeps the sum.
    for r in range(-2, 9):
        for count in (0, 1, 2, 3, 40):
            want = [[sequences.triangle_T(n, k, r) for k in range(n + 1)]
                    for n in range(count)]
            assert repr(sequences.triangle_rows(count, r)) == repr(want), (r, count)


PER_TERM = {
    "central": sequences.central,
    "catalan": sequences.gen_catalan,
    "sum": sequences.catalan_sum,
    "b": sequences.b_seq,
    "pell": sequences.gen_pell,
    "bessel": sequences.bessel_moments,
    "interleaved": lambda n, r: sequences.interleaved_pell(n),
}


def test_family_lists_match_the_per_term_definitions():
    # The lists come from the recurrences of the generating functions;
    # gen_pell and interleaved_pell read the lists, so both are checked
    # against their rational generating functions as well.
    assert tuple(PER_TERM) == sequences.FAMILY_NAMES
    counts = (0, 1, 2, 3, 200)
    for r in range(-2, 9):
        for count in counts:
            for name, term in PER_TERM.items():
                want = [term(n, r) for n in range(count)]
                got = sequences.family_terms(name, count, r)
                assert repr(got) == repr(want), (name, r, count)
            pell = series.rational([1], [1, -r, -1], count + 1)[:count]
            assert sequences.family_terms("pell", count, r) == list(pell), (r, count)
    for count in counts:
        interleaved = series.rational([1, 3, -1, -1], [1, 0, -6, 0, 1], count + 1)
        got = sequences.family_terms("interleaved", count)
        assert got == list(interleaved[:count]), count


def test_closed_form_inverses_match_lagrange_reversion():
    # The first n terms of an inverse depend only on the first n terms of
    # the array inverted, so one reversion at INVERSE_ORDER serves every
    # order; orders 2 and 3 are also checked against their own reversion.
    oracles = {label: plain(arr).inverse() for label, arr in named_arrays(INVERSE_ORDER)}
    for order in range(2, INVERSE_ORDER + 1):
        for label, arr in named_arrays(order):
            got = arr.inverse()
            want = oracles[label]
            want = riordan.RiordanArray(want.d.truncate(order), want.h.truncate(order))
            assert (got.d, got.h) == (want.d, want.h), (label, order)
            assert repr(got) == repr(want), (label, order)
            if order in (2, 3):
                direct = plain(arr).inverse()
                assert (got.d, got.h) == (direct.d, direct.h), (label, order)


def test_named_arrays_expand_and_invert_without_series_products(monkeypatch):
    arrays = list(named_arrays(INVERSE_ORDER))

    def forbidden(*args, **kwargs):
        raise AssertionError("a named array took the series route")

    monkeypatch.setattr(series.Series, "revert", forbidden)
    monkeypatch.setattr(series, "_mul_lists", forbidden)
    for label, arr in arrays:
        arr.to_matrix(INVERSE_ORDER)
        inv = arr.inverse()
        inv.to_matrix(INVERSE_ORDER)
        inv.inverse().to_matrix(INVERSE_ORDER)


def test_named_arrays_compare_print_and_pickle_as_their_series():
    for label, arr in named_arrays(12):
        twin = plain(arr)
        assert arr == twin and hash(arr) == hash(twin), label
        assert repr(arr) == repr(twin), label
        inv = arr.inverse()
        for obj in (arr, inv):
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and hash(copy) == hash(obj), label
            assert repr(copy) == repr(obj), label
            # The rules and the inverse's name are plain data and travel along.
            assert (copy._rows, copy._inverse) == (obj._rows, obj._inverse), label
            assert copy.to_matrix(12) == obj.to_matrix(12), label
            assert copy.inverse() == obj.inverse(), label


# ------------------------------------------------------- Riordan products

PRODUCT_ORDER_MAX = 24


def random_plain(rng, order):
    """A RiordanArray(d, h) of the given order with small random Fraction
    coefficients, some of them integers and some zero."""
    def coeff():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    def unit():
        return Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 3)))

    d = [unit()] + [coeff() for _ in range(order - 1)]
    h = [0, unit()] + [coeff() for _ in range(order - 2)]
    return riordan.RiordanArray(series.Series(d), series.Series(h))


def scale_array(r, order):
    """(1, x/r), the bridge's last factor."""
    x_over_r = series.poly([0, Fraction(1, r)], order)
    return riordan.RiordanArray(series.one(order), x_over_r)


def bridge_product(r, order):
    """A_P(r) * B * (1, x/r), the product ``production.stieltjes_bridge`` expands."""
    ap_b = production.a_p(r, order).multiply(riordan.binomial(order))
    return ap_b.multiply(scale_array(r, order))


def products(rng, order):
    """(label, product) at the given order: plain x plain, named x named,
    named x plain and plain x named, and nested triple products, the
    bridge's A_P(r) * B * (1, x/r) among them."""
    r = rng.randint(1, 4)
    named = [
        riordan.l_catalan(r, order),
        riordan.l_central(r, order).inverse(),
        production.a_p(r, order),
        riordan.coefficient_array(r, order),
        riordan.binomial_power(rng.choice((-2, -1, 2, 3)), order),
    ]
    left, right = rng.sample(named, 2)
    plain_a, plain_b = random_plain(rng, order), random_plain(rng, order)
    yield "plain*plain", plain_a.multiply(plain_b)
    yield "named*named", left.multiply(right)
    yield "named*plain", left.multiply(plain_a)
    yield "plain*named", plain_b.multiply(right)
    yield "bridge", bridge_product(r, order)
    yield "named*(plain*named)", right.multiply(plain_a.multiply(left))
    yield "(plain*named)*plain", plain_b.multiply(left).multiply(plain_a)


def test_products_expand_as_their_series():
    # The factors' blocks multiplied must hand out the entries, types too,
    # of the product's own series expanded as d * h^k.
    rng = random.Random(2105)
    for order in range(2, PRODUCT_ORDER_MAX + 1):
        for label, product in products(rng, order):
            assert product.order == order, (label, order)
            expected = plain(product).to_matrix(order)
            for dim in range(order + 1):
                assert repr(product.to_matrix(dim)) == repr(expected[:dim]), (
                    label, order, dim
                )
            with pytest.raises(InsufficientOrder) as info:
                product.to_matrix(order + 1)
            with pytest.raises(InsufficientOrder) as plain_info:
                plain(product).to_matrix(order + 1)
            assert str(info.value) == str(plain_info.value)


def test_products_of_unequal_orders_take_the_lesser():
    rng = random.Random(2106)
    for low, high in ((2, 5), (7, 12)):
        for a, b in ((random_plain(rng, low), riordan.l_catalan(2, high)),
                     (riordan.l_catalan(2, high), random_plain(rng, low))):
            product = a.multiply(b)
            assert product.order == plain(product).order == low
            assert repr(product.to_matrix(low)) == repr(plain(product).to_matrix(low))


BINOMIAL_ORDER = 48
# The series route composes in O(n^3) Fraction steps: it runs at this
# order, and the matrix product at BINOMIAL_ORDER.
BINOMIAL_SERIES_ORDER = 24
BINOMIAL_POWERS = range(-4, 5)


def rule_builds():
    """(label, order -> array): the named arrays that expand by a Z/A rule,
    catalan, central and ap at r = 1, 2, 3, 5, 8 and binomial_power(j) at
    j = -4..4."""
    for name in ("catalan", "central", "ap"):
        for r in (1, 2, 3, 5, 8):
            yield f"{name}-r{r}", functools.partial(NAMED_BUILDS[name], r)
    for j in BINOMIAL_POWERS:
        yield f"binomial_power-k{j}", functools.partial(riordan.binomial_power, j)


def test_binomial_products_expand_by_the_shifted_rule():
    # A rule's array times binomial_power(k) takes the shifted rule; its
    # rows must be those of the factors' matrix product and of the
    # product's own series, entry types too.  The first n rows of a product
    # depend only on the first n terms of its factors, so one oracle of
    # each kind serves every order up to its own.
    for label, build in rule_builds():
        named = build(BINOMIAL_ORDER)
        assert named._rows[0] is riordan._rule_rows, label
        for k in BINOMIAL_POWERS:
            power = riordan.binomial_power(k, BINOMIAL_ORDER)
            assert named.multiply(power)._rows[0] is riordan._binomial_product_rows, (
                label, k
            )
            want = riordan._product_rows(named, power, BINOMIAL_ORDER)
            n = BINOMIAL_SERIES_ORDER
            by_series = plain(build(n).multiply(riordan.binomial_power(k, n))).to_matrix(n)
            assert repr(by_series) == repr(want[:n]), (label, k)
            # Every entry is an integer, so an int; from order 2 up, each
            # order expands afresh past the one before.
            assert all(type(v) is int for row in want for v in row), (label, k)
            for order in range(2, BINOMIAL_ORDER + 1):
                got = build(order).multiply(riordan.binomial_power(k, order))
                got = got.to_matrix(order)
                assert got == want[:order], (label, k, order)
                assert all(type(v) is int for row in got for v in row), (label, k, order)
            riordan.clear_row_store()


def test_other_products_keep_the_matrix_product():
    # Only a rule's array times binomial_power(k) has a shifted rule: the
    # rational partners, products of products, named x named and plain
    # arrays keep the product of the factors' blocks.
    order = 12
    b = riordan.binomial(order)
    catalan = riordan.l_catalan(3, order)
    products = {
        "coefficient*binomial": riordan.coefficient_array(3, order).multiply(b),
        "central-inverse*binomial": riordan.l_central(3, order).inverse().multiply(b),
        "(catalan*binomial)*binomial": catalan.multiply(b).multiply(b),
        "binomial*(catalan*binomial)": b.multiply(catalan.multiply(b)),
        "catalan*central": catalan.multiply(riordan.l_central(3, order)),
        "binomial*catalan": b.multiply(catalan),
        "plain*binomial": plain(catalan).multiply(b),
        "catalan*plain-binomial": catalan.multiply(plain(b)),
    }
    for label, product in products.items():
        assert product._rows[0] is riordan._product_rows, label
        assert repr(product.to_matrix(order)) == repr(plain(product).to_matrix(order)), label


def lazy_arrays(order):
    """(label, builder) of arrays whose series are not built yet; the
    cached constructors are called past their caches."""
    return [
        ("catalan", lambda: riordan.l_catalan.__wrapped__(2, order)),
        ("central", lambda: riordan.l_central.__wrapped__(2, order)),
        ("ap", lambda: production.a_p.__wrapped__(2, order)),
        ("central-inverse", lambda: riordan.l_central.__wrapped__(2, order).inverse()),
        ("coefficient", lambda: riordan.coefficient_array(2, order)),
        ("binomial_power", lambda: riordan.binomial_power(-3, order)),
        ("named*named", lambda: riordan.l_central.__wrapped__(2, order).multiply(
            riordan.coefficient_array(3, order))),
        ("bridge", lambda: bridge_product(3, order)),
    ]


def test_lazy_arrays_pickle_before_and_after_their_series_are_read():
    order = 12
    for label, build in lazy_arrays(order):
        arr = build()
        assert (arr._d, arr._h) == (None, None), label
        before = pickle.loads(pickle.dumps(arr))
        # Pickling builds nothing: the builder and its arguments travel.
        assert (arr._d, before._d, before._h) == (None, None, None), label
        arr.d
        after = pickle.loads(pickle.dumps(arr))
        assert after._d is not None, label
        for copy in (before, after):
            assert copy.order == arr.order, label
            assert copy == arr and hash(copy) == hash(arr), label
            assert repr(copy) == repr(arr), label
            assert repr(copy.to_matrix(order)) == repr(arr.to_matrix(order)), label
            assert copy.inverse() == arr.inverse(), label


# ------------------------------------------------ actions on sequences

APPLY_ORDER = 48
# Orders below APPLY_ORDER at which the series route also runs on the
# array of that order; at every order the rows route is compared with the
# APPLY_ORDER result cut short (the first n terms of d * (f o h) depend
# only on the first n terms of d, f and h).
APPLY_DIRECT_ORDERS = (2, 3, 5, 8, 13, 21, 30)


def acting_arrays(order):
    """(label, array): the named arrays and their inverses, named x
    binomial and named x named products, and the bridge's triple product.
    All of them have stored rows."""
    for label, arr in named_arrays(order):
        yield label, arr
        yield f"{label}-inverse", arr.inverse()
    b = riordan.binomial(order)
    for name, build in NAMED_BUILDS.items():
        yield f"{name}-r3*binomial", build(3, order).multiply(b)
    yield "catalan-r2*central-r3-inverse", riordan.l_catalan(2, order).multiply(
        riordan.l_central(3, order).inverse())
    yield "ap-r2*coefficient-r3", production.a_p(2, order).multiply(
        riordan.coefficient_array(3, order))
    for r in (1, 3):
        yield f"bridge-r{r}", bridge_product(r, order)


def apply_sequences():
    """(label, terms): one more term than APPLY_ORDER, so every order gets a
    sequence longer than itself; all ints, and ints, Fractions and floats
    mixed."""
    rng = random.Random(2301)
    ints = [rng.randint(-9, 9) for _ in range(APPLY_ORDER + 1)]
    mixed = [
        rng.choice((
            rng.randint(-9, 9),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            rng.randint(-40, 40) / 8,
        ))
        for _ in range(APPLY_ORDER + 1)
    ]
    return [("int", ints), ("mixed", mixed)]


def apply_outcome(arr, terms):
    try:
        return repr(arr.apply(terms))
    except InsufficientOrder as exc:
        return type(exc), str(exc)


def test_actions_by_rows_match_the_series_route():
    # Values and types: the rows route hands out Fractions, as the series
    # route does, and reads a float as the exact value Fraction gives it.
    seqs = apply_sequences()
    assert {type(v) for _, terms in seqs for v in terms} == {int, Fraction, float}
    oracle = {
        (label, kind): plain(arr).apply(terms)
        for label, arr in acting_arrays(APPLY_ORDER)
        for kind, terms in seqs
    }
    for order in range(2, APPLY_ORDER + 1):
        direct = order in APPLY_DIRECT_ORDERS
        for label, arr in acting_arrays(order):
            assert arr._rows is not None, label
            for kind, terms in seqs:
                got = repr(arr.apply(terms))
                assert got == repr(oracle[label, kind][:order]), (label, kind, order)
                if direct:
                    twin = plain(arr)
                    assert got == repr(twin.apply(terms)), (label, kind, order)
                    short = terms[: order - 1]
                    assert apply_outcome(arr, short) == apply_outcome(twin, short), (
                        label, kind, order
                    )


def test_binomial_transform_matches_the_comb_sums():
    # verify's Bessel shift takes k = -(r+1), down to -9 on the big grid.
    rng = random.Random(6187)
    for length in (0, 1, 2, 3, 33):
        ints = [rng.randint(-30, 30) for _ in range(length)]
        fracs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(length)]
        for terms in (ints, fracs):
            for k in range(-9, 10):
                got = hankel.binomial_transform(terms, k)
                want = naive_binomial_transform(terms, k)
                assert got == want, (length, k)
                assert list(map(type, got)) == list(map(type, want)), (length, k)
        # Float terms are read at their exact binary values and give
        # Fractions, except where no transform runs (k = 0, under two terms).
        floats = [rng.randint(-30, 30) / 8 for _ in range(length)]
        exact = [Fraction(v) for v in floats]
        for k in range(-9, 10):
            got = hankel.binomial_transform(floats, k)
            if k == 0 or length < 2:
                assert got == floats and all(type(v) is float for v in got), (length, k)
            else:
                assert got == naive_binomial_transform(exact, k), (length, k)
                assert all(type(v) is Fraction for v in got), (length, k)
