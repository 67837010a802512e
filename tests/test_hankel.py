"""Hankel matrices, exact LDL^T, determinant transforms, binomial transforms."""

from __future__ import annotations

import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from riordankit import berlekamp, hankel, linalg, riordan, sequences
from riordankit.errors import (
    CrossCheckFailed,
    InsufficientTerms,
    SingularLeadingMinor,
    SingularSystem,
)

from helpers import det_cofactor, moment_pass, naive_binomial_transform, naive_hankel_transform

FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_hankel_matrix_layout():
    assert hankel.hankel_matrix([1, 2, 6], 2) == [[1, 2], [2, 6]]
    assert hankel.hankel_matrix([1, 2, 3, 4, 5], 3) == [
        [1, 2, 3],
        [2, 3, 4],
        [3, 4, 5],
    ]


def test_hankel_matrix_term_count():
    with pytest.raises(InsufficientTerms):
        hankel.hankel_matrix([1, 2, 3], 3)


def test_central_hankel_block_r2():
    terms = sequences.family_terms("central", 7, 2)
    assert hankel.hankel_matrix(terms, 4) == [
        [1, 3, 13, 63],
        [3, 13, 63, 321],
        [13, 63, 321, 1683],
        [63, 321, 1683, 8989],
    ]


def test_ldl_reconstructs_exactly():
    for name, r in (("central", 2), ("catalan", 3), ("sum", 1)):
        terms = sequences.family_terms(name, 11, r)
        h = hankel.hankel_matrix(terms, 6)
        dec = hankel.ldl(h)
        assert dec.reconstruct() == h
        for i, row in enumerate(dec.l):
            assert row[i] == 1
            assert len(row) == i + 1
    assert hankel.ldl([]).reconstruct() == []


def test_ldl_decomp_is_a_plain_record():
    dec = hankel.LDLDecomp(l=[[1], [2, 1]], d=[Fraction(1), Fraction(3, 2)])
    assert (dec.l, dec.d) == ([[1], [2, 1]], [Fraction(1), Fraction(3, 2)])
    assert repr(dec) == (
        "LDLDecomp(l=[[1], [2, 1]], d=[Fraction(1, 1), Fraction(3, 2)])"
    )
    assert dec == hankel.LDLDecomp([[1], [2, 1]], [1, Fraction(3, 2)])
    assert dec != hankel.LDLDecomp(l=[[1], [2, 1]], d=[1, 2])
    assert dec != ([[1], [2, 1]], [Fraction(1), Fraction(3, 2)])
    assert pickle.loads(pickle.dumps(dec)) == dec
    with pytest.raises(TypeError):
        hash(dec)


def test_ldl_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        hankel.ldl([[1, 2], [3, 4]])


@pytest.mark.parametrize("h", [[[1, 2, 3], [2, 3, 4]], [[1, 2], [2, 3], [3, 4]]])
def test_ldl_rejects_a_matrix_that_is_not_square(h):
    with pytest.raises(ValueError, match="matrix is not square"):
        hankel.ldl(h)


def test_ldl_structure_test_keeps_its_routes_and_errors():
    with pytest.raises(ValueError, match="not symmetric"):
        hankel.ldl([[1, 2, 3], [2, 3, 4], [3, 5, 5]])
    # Symmetric but not Hankel: dense elimination.
    m = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    dec = hankel.ldl(m)
    assert dec == hankel._ldl_dense(m)
    assert dec.l == [[1], [Fraction(1, 2), 1], [0, Fraction(2, 3), 1]]
    assert [type(v) for v in dec.l[2]] == [int, Fraction, int]
    assert dec.d == [2, Fraction(3, 2), Fraction(4, 3)]
    # Tuple rows of a Hankel matrix are read like list rows.
    terms = sequences.family_terms("catalan", 9, 2)
    h = hankel.hankel_matrix(terms, 5)
    assert hankel.ldl([tuple(row) for row in h]) == hankel.ldl(h)
    with pytest.raises(SingularLeadingMinor) as err:
        hankel.ldl([tuple(row) for row in hankel.hankel_matrix(FIB, 3)])
    assert err.value.index == 2


@pytest.mark.parametrize("r", [1, 3, 8])
def test_moment_pass_steps_are_the_j_fraction(r):
    # Step j of the pass is ((-alpha_j, 1), beta_j, 1, 1): no pivot
    # products ride along.  Catalan: alpha = (r, r+1, r+1, ...),
    # beta = (1, r, r, ...); central: alpha = r+1, beta = (1, 2r, r, r, ...).
    n = 24
    catalan = [r] + [r + 1] * (n - 1), [1] + [r] * (n - 1)
    central = [r + 1] * n, [1, 2 * r] + [r] * (n - 2)
    for name, (alpha, beta) in (("catalan", catalan), ("central", central)):
        _, steps = moment_pass(sequences.family_terms(name, 2 * n, r))
        assert steps == [([-x, 1], y, 1, 1) for x, y in zip(alpha, beta)], name


def test_ldl_diagonal_tables():
    central2 = hankel.ldl(
        hankel.hankel_matrix(sequences.family_terms("central", 7, 2), 4)
    )
    assert central2.d == [1, 4, 8, 16]
    assert central2.l == [[1], [3, 1], [13, 6, 1], [63, 33, 9, 1]]

    catalan3 = hankel.ldl(
        hankel.hankel_matrix(sequences.family_terms("catalan", 7, 3), 4)
    )
    assert catalan3.d == [1, 3, 9, 27]
    assert catalan3.l == [[1], [3, 1], [12, 7, 1], [57, 43, 11, 1]]


def test_ldl_fractional_diagonals_for_the_sum_family():
    dec1 = hankel.ldl(hankel.hankel_matrix(sequences.family_terms("sum", 7, 1), 4))
    assert dec1.d == [2, Fraction(5, 2), Fraction(13, 5), Fraction(34, 13)]
    assert dec1.l[3] == [Fraction(19, 2), 11, Fraction(70, 13), 1]

    dec2 = hankel.ldl(hankel.hankel_matrix(sequences.family_terms("sum", 7, 2), 4))
    assert dec2.d == [3, Fraction(20, 3), Fraction(272, 20), Fraction(7424, 272)]


def test_ldl_factor_is_the_riordan_array():
    for r in range(1, 5):
        terms = sequences.family_terms("central", 13, r)
        dec = hankel.ldl(hankel.hankel_matrix(terms, 7))
        assert dec.l == riordan.l_central(r, 7).to_matrix(7)
        terms = sequences.family_terms("catalan", 13, r)
        dec = hankel.ldl(hankel.hankel_matrix(terms, 7))
        assert dec.l == riordan.l_catalan(r, 7).to_matrix(7)


def test_singular_minor_is_an_error_with_index():
    with pytest.raises(SingularLeadingMinor) as err:
        hankel.ldl(hankel.hankel_matrix(FIB, 3))
    assert err.value.index == 2


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(61553)
    for _ in range(30):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert hankel.bareiss_det(m) == det_cofactor(m)


def test_bareiss_singular_matrix_gives_zero():
    assert hankel.bareiss_det([[1, 2], [2, 4]]) == 0
    assert hankel.bareiss_det(hankel.hankel_matrix(FIB, 3)) == 0


@pytest.mark.parametrize("method", ["ldl", "bareiss", "both", "spot"])
def test_transform_methods_agree(method):
    terms = sequences.family_terms("catalan", 13, 2)
    assert hankel.hankel_transform(terms, 7, method=method) == [
        2**0,
        2**1,
        2**3,
        2**6,
        2**10,
        2**15,
        2**21,
    ]


def test_transform_against_cofactor_oracle():
    for name, r in (("central", 3), ("catalan", 2), ("sum", 2), ("bessel", 2)):
        terms = sequences.family_terms(name, 9, r)
        assert hankel.hankel_transform(terms, 5) == naive_hankel_transform(terms, 5)


def test_transform_reference_sum_values():
    assert hankel.hankel_transform(sequences.family_terms("sum", 7, 1), 4) == [
        2,
        5,
        13,
        34,
    ]
    assert hankel.hankel_transform(sequences.family_terms("sum", 7, 3), 4) == [
        4,
        51,
        1971,
        228906,
    ]


def test_transform_needs_terms_and_count():
    with pytest.raises(InsufficientTerms):
        hankel.hankel_transform([1, 2, 3], 3)
    with pytest.raises(ValueError):
        hankel.hankel_transform([1, 2, 3], 0)
    with pytest.raises(ValueError):
        hankel.hankel_transform([1, 2, 3], 2, method="lu")


def test_transform_zero_determinant_policy():
    # The pure determinant route reports the zero; the factorization
    # route refuses, because a vanishing minor breaks the recursion.
    assert hankel.hankel_transform(FIB, 4, method="bareiss") == [1, 1, 0, 0]
    with pytest.raises(SingularLeadingMinor):
        hankel.hankel_transform(FIB, 4, method="ldl")


def test_transform_paths_disagreeing_is_a_cross_check_failure(monkeypatch):
    def off_by_one(terms, v):
        hv = hankel_times(terms, v)
        hv[2] += 1
        return hv

    hankel_times = hankel._hankel_times
    monkeypatch.setattr(hankel, "_hankel_times", off_by_one)
    terms = sequences.family_terms("catalan", 7, 2)
    with pytest.raises(CrossCheckFailed, match="fails its certificate at row 2"):
        hankel.hankel_transform(terms, 4, method="spot")
    assert hankel.hankel_transform(terms, 4, method="ldl") == [1, 2, 8, 64]


def corrupted_engine(k, j):
    """The moment pass with sigma_(k,k+j) raised by one, or with the
    denominator of row k raised by one when j is None."""
    engine = hankel._chebyshev

    def corrupt(a):
        for i, ((num, den), step) in enumerate(engine(a)):
            if i == k and j is None:
                den += 1
            elif i == k:
                num = num[:j] + [num[j] + den] + num[j + 1 :]
            yield (num, den), step

    return corrupt


@pytest.mark.parametrize(
    "terms",
    [
        sequences.family_terms("catalan", 11, 2),
        [3, -1, 2, 0, -3, 1, 1, 2, -2, 3, 1],  # random, no vanishing minor
    ],
)
def test_certificate_rejects_every_single_corrupted_moment(monkeypatch, terms):
    # The transform of order 6 reads sigma_(k,l) for k <= l < 6 only, and
    # the denominators of rows 0..5.
    count = 6
    for k in range(count):
        for j in [*range(count - k), None]:
            monkeypatch.setattr(hankel, "_chebyshev", corrupted_engine(k, j))
            with pytest.raises(CrossCheckFailed):
                hankel.hankel_transform(terms, count, method="spot")


P61 = 2**61 - 1


@pytest.mark.parametrize(
    "terms, expected",
    [
        (
            [P61 * c for c in sequences.family_terms("catalan", 7, 2)],
            [P61, 2 * P61**2, 8 * P61**3, 64 * P61**4],
        ),
        (
            [Fraction(c, P61) for c in sequences.family_terms("catalan", 7, 2)],
            [Fraction(v, P61 ** (n + 1)) for n, v in enumerate((1, 2, 8, 64))],
        ),
    ],
)
def test_degenerate_residue_falls_back_to_bareiss(monkeypatch, terms, expected):
    calls = []

    def spy(m):
        calls.append(len(m))
        return pivots(m)

    pivots = hankel._pivots
    monkeypatch.setattr(hankel, "_pivots", spy)
    assert hankel.hankel_transform(terms, 4, method="spot") == expected
    assert calls == [4]
    calls.clear()
    catalan = sequences.family_terms("catalan", 7, 2)
    assert hankel.hankel_transform(catalan, 4, method="both") == [1, 2, 8, 64]
    assert calls == []

    def broken(m):
        out = pivots(m)
        out[0] += 1
        return out

    monkeypatch.setattr(hankel, "_pivots", broken)
    with pytest.raises(CrossCheckFailed, match="disagree at order 0"):
        hankel.hankel_transform(terms, 4, method="spot")


def test_a_unit_that_vanishes_past_the_first_batch_ends_the_certificate(monkeypatch):
    # Row 20's denominator times the prime: its unit is 0 mod the prime
    # after one batch of rows has been folded, so the certificate stops
    # and the pivots decide, here against the minor the corruption changed.
    engine = hankel._chebyshev

    def corrupt(a):
        for i, ((num, den), step) in enumerate(engine(a)):
            yield (num, den * P61 if i == 20 else den), step

    monkeypatch.setattr(hankel, "_chebyshev", corrupt)
    terms = sequences.family_terms("catalan", 63, 2)
    with pytest.raises(CrossCheckFailed, match="disagree at order 20"):
        hankel.hankel_transform(terms, 32)


def test_readers_pull_no_row_past_the_first_leading_zero(monkeypatch):
    # A 0 before digits: the first minor vanishes and the later ones do
    # not, so each reader that fails at the first vanishing minor stops at
    # row 0 of the pass, before the O(n^2) work of the rows after it.
    rng = random.Random(160)
    a = [0] + [rng.randint(1, 9) for _ in range(319)]
    engine, pulled = hankel._chebyshev, []

    def spy(terms):
        for pair in engine(terms):
            pulled.append(pair)
            yield pair

    monkeypatch.setattr(hankel, "_chebyshev", spy)
    monkeypatch.setattr(berlekamp, "_chebyshev", spy)
    readers = [(SingularLeadingMinor, hankel.ldl, hankel.hankel_matrix(a, 160))]
    for method in ("ldl", "spot", "both"):
        readers.append((SingularLeadingMinor, hankel.hankel_transform, a, 160, method))
    readers.append((SingularSystem, berlekamp.bm_triangle, a, 160))
    for error, read, *args in readers:
        pulled.clear()
        with pytest.raises(error):
            read(*args)
        assert len(pulled) == 1, (read, args[2:])


def test_transform_holds_the_pass_two_rows_at_a_time():
    # Every row of the pass at n = 160 on sum r = 3 held together takes
    # about 17 times the result; the transform holds two rows and the
    # certificate's batch.
    terms = sequences.family_terms("sum", 319, 3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        values = hankel.hankel_transform(terms, 160)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == 160
    assert peak - base <= 4 * (size - base)


def test_binomial_transform_against_direct_sum():
    rng = random.Random(8259)
    seq = [rng.randint(-9, 9) for _ in range(9)]
    assert hankel.binomial_transform(seq, 1) == naive_binomial_transform(seq)
    twice = naive_binomial_transform(naive_binomial_transform(seq))
    assert hankel.binomial_transform(seq, 2) == twice


def test_binomial_transform_round_trips():
    rng = random.Random(47110)
    seq = [rng.randint(-20, 20) for _ in range(10)]
    for k in range(-3, 4):
        shifted = hankel.binomial_transform(seq, k)
        assert hankel.binomial_transform(shifted, -k) == seq


def test_binomial_transform_preserves_hankel_transform():
    terms = sequences.family_terms("catalan", 11, 2)
    base = hankel.hankel_transform(terms, 6)
    for k in range(-3, 4):
        shifted = hankel.binomial_transform(terms, k)
        assert hankel.hankel_transform(shifted, 6) == base


def test_orthogonality_of_the_inverse_array():
    for r in range(1, 5):
        m = 7
        terms = sequences.family_terms("catalan", 2 * m - 1, r)
        h = hankel.hankel_matrix(terms, m)
        p = linalg.pad_square(riordan.l_catalan(r, m).inverse().to_matrix(m))
        conj = linalg.mat_mul(linalg.mat_mul(p, h), linalg.transpose(p))
        assert conj == [
            [r**i if i == j else 0 for j in range(m)] for i in range(m)
        ]


def test_scaled_inverse_factor_tables():
    sum1 = sequences.family_terms("sum", 7, 1)
    inv1 = linalg.lower_tri_inverse(
        linalg.pad_square(hankel.ldl(hankel.hankel_matrix(sum1, 4)).l)
    )
    assert [
        [sequences.b_seq(n, 1) * inv1[n][k] for k in range(n + 1)] for n in range(4)
    ] == [[1], [-3, 2], [8, -17, 5], [-21, 95, -70, 13]]

    sum2 = sequences.family_terms("sum", 7, 2)
    inv2 = linalg.lower_tri_inverse(
        linalg.pad_square(hankel.ldl(hankel.hankel_matrix(sum2, 4)).l)
    )
    assert [
        [sequences.b_seq(n, 2) * inv2[n][k] for k in range(n + 1)] for n in range(4)
    ] == [[1], [-8, 3], [56, -56, 10], [-384, 690, -292, 34]]
    assert [
        [sequences.interleaved_pell(n) * inv2[n][k] for k in range(n + 1)]
        for n in range(4)
    ] == [[1], [-8, 3], [28, -28, 5], [-192, 345, -146, 17]]


def test_scaled_inverse_rows_are_integral():
    for r in range(1, 4):
        terms = sequences.family_terms("sum", 17, r)
        dec = hankel.ldl(hankel.hankel_matrix(terms, 9))
        inv = linalg.lower_tri_inverse(linalg.pad_square(dec.l))
        for n in range(9):
            scale = sequences.b_seq(n, r)
            row = [scale * inv[n][k] for k in range(n + 1)]
            assert all(e.denominator == 1 for e in row), (r, n)
            assert row[n] == scale
