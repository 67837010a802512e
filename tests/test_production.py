"""Production (Stieltjes) matrices and the arrays they generate."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from riordankit import hankel, linalg, production, riordan, sequences, series
from riordankit.errors import SingularDiagonal, UnsupportedParameter


def int_rows(rows):
    return [[int(e) for e in row] for row in rows]


def test_production_matrix_of_the_identity_is_the_shift():
    assert production.production_matrix(linalg.identity(5)) == [
        [1 if j == i + 1 else 0 for j in range(4)] for i in range(4)
    ]


def test_production_matrix_of_pascal_is_bidiagonal():
    rows = riordan.binomial(6).to_matrix(6)
    assert production.production_matrix(rows) == [
        [1 if j in (i, i + 1) else 0 for j in range(5)] for i in range(5)
    ]


def test_production_matrix_requires_two_rows():
    with pytest.raises(ValueError):
        production.production_matrix([[1]])


def test_production_matrix_requires_invertible_leading_block():
    with pytest.raises(SingularDiagonal):
        production.production_matrix([[1], [0, 0], [0, 0, 1]])


def test_rebuild_from_production_round_trips():
    for r in range(1, 4):
        rows = riordan.l_catalan(r, 7).to_matrix(7)
        p = production.production_matrix(rows)
        rebuilt = production.matrix_from_production(p, 6)
        assert rebuilt == linalg.pad_square(rows[:6], 6)


def test_structured_matrix_tables():
    assert production.p_catalan(1, 4)[:3] == [
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 1],
    ]
    assert production.p_catalan(2, 4)[:3] == [
        [0, 2, 0, 0],
        [0, 1, 2, 0],
        [0, 1, 1, 2],
    ]
    with pytest.raises(UnsupportedParameter):
        production.p_catalan(0, 4)


def test_generated_array_tables():
    assert int_rows(production.a_p(1, 4).to_matrix(4)) == [
        [1],
        [0, 1],
        [0, 1, 1],
        [0, 2, 2, 1],
    ]
    assert int_rows(production.a_p(2, 4).to_matrix(4)) == [
        [1],
        [0, 2],
        [0, 2, 4],
        [0, 6, 8, 8],
    ]


def test_generated_array_row_sums():
    rows = production.a_p(2, 6).to_matrix(6)
    assert [sum(row) for row in rows] == [
        sequences.gen_catalan(n, 2) for n in range(6)
    ]


def test_generated_array_has_the_structured_production_matrix():
    for r in range(1, 5):
        rows = production.a_p(r, 8).to_matrix(8)
        assert production.production_matrix(rows) == production.p_catalan(r, 7)


def test_binomial_composition_tables():
    b = riordan.binomial(6)
    assert int_rows(production.a_p(1, 6).multiply(b).to_matrix(4)) == [
        [1],
        [1, 1],
        [2, 3, 1],
        [5, 9, 5, 1],
    ]
    assert int_rows(production.a_p(2, 6).multiply(b).to_matrix(4)) == [
        [1],
        [2, 2],
        [6, 10, 4],
        [22, 46, 32, 8],
    ]


def test_bridge_reaches_the_catalan_array():
    for r in range(1, 5):
        rows = production.stieltjes_bridge(r, 7)
        assert rows == riordan.l_catalan(r, 7).to_matrix(7)


def test_second_component_solves_its_functional_equation():
    # h = x * phi(h) with phi = (r - (r-1)x) / (1 - x).
    order = 12
    for r in range(1, 5):
        h = production.a_p(r, order).h.truncate(order)
        phi = series.rational([r, -(r - 1)], [1, -1], order)
        assert series.x(order) * phi.compose(h) == h


def test_row_recurrence_definition():
    # row_{n+1} = row_n . P, checked directly against the structured matrix.
    r = 3
    rows = linalg.pad_square(production.a_p(r, 6).to_matrix(6))
    p = linalg.pad_square(production.p_catalan(r, 6))
    for n in range(5):
        assert linalg.mat_vec(linalg.transpose(p), rows[n]) == rows[n + 1]


def test_hankel_factor_production_matrix_is_tridiagonal():
    # The unit factor of a Catalan-family Hankel matrix has the
    # three-term-recurrence matrix: diagonal (r, r+1, r+1, ...),
    # superdiagonal ones, subdiagonal r.
    for r in range(2, 4):
        terms = sequences.family_terms("catalan", 11, r)
        dec = hankel.ldl(hankel.hankel_matrix(terms, 6))
        p = production.production_matrix(dec.l)
        expected = [
            [
                (r if i == 0 else r + 1)
                if i == j
                else 1
                if j == i + 1
                else r
                if j == i - 1
                else 0
                for j in range(5)
            ]
            for i in range(5)
        ]
        assert p == expected


def test_pascal_row_sums_stay_powers_of_two():
    rows = production.matrix_from_production(
        production.production_matrix(riordan.binomial(7).to_matrix(7)), 6
    )
    assert [sum(row) for row in rows] == [2**n for n in range(6)]
    assert rows[5][2] == comb(5, 2)


@pytest.mark.parametrize(
    "p, dim, expected",
    [
        # P smaller than dim, ragged, with a Fraction: missing entries are 0.
        (
            [[0, 2], [1, 1, Fraction(1, 2)]],
            4,
            [["1", "0", "0", "0"], ["0", "2", "0", "0"],
             ["2", "2", "1", "0"], ["2", "6", "1", "0"]],
        ),
        # P larger than dim: only its leading dim x dim block is read.
        (
            production.p_catalan(2, 6),
            3,
            [["1", "0", "0"], ["0", "2", "0"], ["0", "2", "4"]],
        ),
        ([[5, 7], [1, 1]], 1, [["1"]]),
        ([], 1, [["1"]]),
    ],
)
def test_rebuild_reads_the_leading_block_of_p(p, dim, expected):
    rows = production.matrix_from_production(p, dim)
    assert rows == [[Fraction(v) for v in row] for row in expected]
    assert [[str(v) for v in row] for row in rows] == expected


def test_rebuild_needs_a_positive_dimension():
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        production.matrix_from_production([[1]], 0)


# sha256 of ``str`` of every entry of ``production_matrix`` on
# ``digest_inputs``; a new kernel must return the same values and print
# every one of them the same way.
PRODUCTION_DIGEST = "7173a5fe14d068af5864a874c394e507fab69840716422771d5b4e1cf39f064b"


def digest_inputs():
    """The unit LDL^T factors of family and random Hankel matrices, and the
    expansions of the named arrays, as ``production_matrix`` gets them."""
    rng = random.Random(1300)
    randoms = [
        [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(128)]
        for _ in range(3)
    ]
    families = [
        sequences.family_terms(fam, 129, r)
        for fam in ("catalan", "central", "sum")
        for r in (1, 3, 8)
    ]
    for terms in families + randoms:
        for n in (16, 32, 48, 64):
            yield hankel.ldl(hankel.hankel_matrix(terms, n + 1)).l
    for r in (1, 3):
        for n in (8, 24, 40):
            yield riordan.l_catalan(r, n + 1).to_matrix(n + 1)
            yield riordan.l_central(r, n + 1).to_matrix(n + 1)
            yield production.a_p(r, n + 1).to_matrix(n + 1)
            yield riordan.binomial_power(r, n + 1).to_matrix(n + 1)
    yield linalg.identity(5)


def test_production_digest_is_pinned():
    digest = hashlib.sha256()
    for rows in digest_inputs():
        for row in production.production_matrix(rows):
            digest.update(" ".join(map(str, row)).encode() + b"\n")
    assert digest.hexdigest() == PRODUCTION_DIGEST
