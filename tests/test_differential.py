"""Seeded differential tests: the single-pass elimination routes against
per-window solves and cofactor determinants, on random, singular and
too-short inputs.  Values must be equal; errors must agree in type,
message, order/index and partial result."""

from __future__ import annotations

import random
from fractions import Fraction

from riordankit import berlekamp, hankel, linalg
from riordankit.errors import InsufficientTerms, SingularLeadingMinor, SingularSystem

from helpers import det_cofactor

METHODS = ("ldl", "bareiss", "both", "spot")


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (InsufficientTerms, SingularLeadingMinor, SingularSystem) as exc:
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


def test_hankel_methods_match_cofactor_minors():
    rng = random.Random(1968)
    seen = set()
    for a, count in sequences_under_test(rng):
        for method in METHODS:
            expected = outcome(cofactor_transform, a, count, method)
            actual = outcome(hankel.hankel_transform, a, count, method)
            assert actual == expected, (a, count, method)
            seen.add(expected[0])
    assert seen == {"value", InsufficientTerms, SingularLeadingMinor}


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
