"""Seeded differential tests: the integer-row moment pass against the
Fraction one, the routes built on it and the single-pass elimination
routes against per-window solves, cofactor determinants and dense
elimination, and the forward-substitution production matrix against the
inverse-times-shift product, on random, singular and too-short inputs.
Values must be equal; errors must agree in type, message, order/index and
partial result."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from riordankit import berlekamp, hankel, linalg, production
from riordankit.errors import (
    InsufficientTerms,
    SingularDiagonal,
    SingularLeadingMinor,
    SingularSystem,
)

from helpers import det_cofactor, fraction_chebyshev

METHODS = ("ldl", "bareiss", "both", "spot")


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
    minors vanish and recover (2), or Fractions (3)."""
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
        sigma, alpha, beta, done = hankel._chebyshev(a)
        for num, den in sigma:
            assert den > 0 and gcd(den, *num) == 1, (a, num, den)
        rows = [[Fraction(c, den) for c in num] for num, den in sigma]
        assert repr((rows, alpha, beta, done)) == repr(fraction_chebyshev(a)), a
        stops.add(done < len(sigma))
    assert stops == {True, False}


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
            engine_done = hankel._chebyshev(a[: 2 * d])[3] >= d
            seen.add((expected[0], engine_done))
    # Both routes give values, and windows after a vanishing minor are
    # solved as well as found singular.
    assert seen == {
        ("value", True),
        ("value", False),
        (SingularSystem, False),
        (InsufficientTerms, False),
    }


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
