"""Acceptance gate: the eight headline claims, each printing one line.

Every criterion collects mismatches into a list and reports a single
``PASS``/``FAIL`` line (visible under ``pytest -s``); the assertion carries
the first few problems for diagnosis.  All comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from riordankit import (
    berlekamp,
    hankel,
    linalg,
    production,
    riordan,
    sequences,
    series,
)


def report(num, description, problems):
    status = "FAIL" if problems else "PASS"
    print(f"{status} criterion {num}: {description}")
    assert not problems, f"criterion {num}: " + "; ".join(
        str(p) for p in problems[:5]
    )


def ht_central_closed(n, r):
    return 2**n * r ** comb(n + 1, 2)


def ht_catalan_closed(n, r):
    return r ** comb(n + 1, 2)


def test_criterion_1_central_hankel_transform():
    problems = []
    for r in range(1, 6):
        terms = sequences.family_terms("central", 17, r)
        values = hankel.hankel_transform(terms, 9, method="both")
        for n in range(9):
            if values[n] != ht_central_closed(n, r):
                problems.append(f"r={r} n={n}: {values[n]}")
    block = hankel.hankel_matrix(sequences.family_terms("central", 7, 2), 4)
    if block != [
        [1, 3, 13, 63],
        [3, 13, 63, 321],
        [13, 63, 321, 1683],
        [63, 321, 1683, 8989],
    ]:
        problems.append("H(2) block mismatch")
    dec = hankel.ldl(block)
    if dec.l != [[1], [3, 1], [13, 6, 1], [63, 33, 9, 1]]:
        problems.append("L(2) factor mismatch")
    if dec.d != [1, 4, 8, 16]:
        problems.append(f"D(2) = {dec.d}")
    report(
        1,
        "central-family Hankel transform equals 2^n * r^C(n+1,2) "
        "with the reference H(2), L(2), D(2)",
        problems,
    )


def test_criterion_2_moment_transforms_and_binomial_invariance():
    problems = []
    for r in range(1, 6):
        terms = sequences.family_terms("bessel", 13, r)
        values = hankel.hankel_transform(terms, 7, method="both")
        for n in range(7):
            if values[n] != ht_central_closed(n, r):
                problems.append(f"moments r={r} n={n}: {values[n]}")
    for name in ("central", "catalan", "bessel"):
        for r in range(1, 6):
            base = sequences.family_terms(name, 13, r)
            reference = hankel.hankel_transform(base, 7, method="both")
            for k in range(-3, 4):
                shifted = hankel.binomial_transform(base, k)
                if hankel.hankel_transform(shifted, 7, method="both") != reference:
                    problems.append(f"invariance {name} r={r} k={k}")
    report(
        2,
        "aerated-moment Hankel transform equals 2^n * r^C(n+1,2) and the "
        "transform is binomial-invariant for k in -3..3",
        problems,
    )


def test_criterion_3_catalan_hankel_transform():
    problems = []
    for r in range(1, 6):
        terms = sequences.family_terms("catalan", 17, r)
        values = hankel.hankel_transform(terms, 9, method="both")
        for n in range(9):
            if values[n] != ht_catalan_closed(n, r):
                problems.append(f"r={r} n={n}: {values[n]}")
    block = hankel.hankel_matrix(sequences.family_terms("catalan", 7, 3), 4)
    if block != [
        [1, 3, 12, 57],
        [3, 12, 57, 300],
        [12, 57, 300, 1686],
        [57, 300, 1686, 9912],
    ]:
        problems.append("H(3) block mismatch")
    dec = hankel.ldl(block)
    if dec.l != [[1], [3, 1], [12, 7, 1], [57, 43, 11, 1]]:
        problems.append("L(3) factor mismatch")
    if dec.d != [1, 3, 9, 27]:
        problems.append(f"D(3) = {dec.d}")
    report(
        3,
        "generalized-Catalan Hankel transform equals r^C(n+1,2) "
        "with the reference H(3), L(3), D(3)",
        problems,
    )


def test_criterion_4_production_machinery():
    problems = []
    if production.p_catalan(1, 4)[:3] != [[0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 1, 1]]:
        problems.append("P(1) mismatch")
    if production.p_catalan(2, 4)[:3] != [[0, 2, 0, 0], [0, 1, 2, 0], [0, 1, 1, 2]]:
        problems.append("P(2) mismatch")
    if production.a_p(1, 4).to_matrix(4) != [[1], [0, 1], [0, 1, 1], [0, 2, 2, 1]]:
        problems.append("A_P(1) mismatch")
    if production.a_p(2, 4).to_matrix(4) != [[1], [0, 2], [0, 2, 4], [0, 6, 8, 8]]:
        problems.append("A_P(2) mismatch")
    b = riordan.binomial(6)
    if production.a_p(1, 6).multiply(b).to_matrix(4) != [
        [1],
        [1, 1],
        [2, 3, 1],
        [5, 9, 5, 1],
    ]:
        problems.append("A_P(1).B mismatch")
    if production.a_p(2, 6).multiply(b).to_matrix(4) != [
        [1],
        [2, 2],
        [6, 10, 4],
        [22, 46, 32, 8],
    ]:
        problems.append("A_P(2).B mismatch")
    for r in range(1, 5):
        if production.stieltjes_bridge(r, 9) != riordan.l_catalan(r, 9).to_matrix(9):
            problems.append(f"bridge r={r}")
    sums = [sum(row) for row in production.a_p(2, 5).to_matrix(5)]
    if sums != [1, 2, 6, 22, 90]:
        problems.append(f"A_P(2) row sums {sums}")
    report(
        4,
        "production matrices, generated arrays, binomial compositions, "
        "bridge identity (r in 1..4, 9 rows), and row sums all reproduce",
        problems,
    )


def test_criterion_5_sum_family_hankel_transform():
    problems = []
    for r in range(1, 5):
        terms = sequences.family_terms("sum", 13, r)
        values = hankel.hankel_transform(terms, 7, method="both")
        for n in range(7):
            expected = r ** comb(n + 1, 2) * sequences.b_seq(n + 1, r)
            if values[n] != expected:
                problems.append(f"r={r} n={n}: {values[n]} != {expected}")
    reference = {
        1: [2, 5, 13, 34],
        2: [3, 20, 272, 7424],
        3: [4, 51, 1971, 228906],
    }
    for r, expected in reference.items():
        terms = sequences.family_terms("sum", 7, r)
        if hankel.hankel_transform(terms, 4, method="both") != expected:
            problems.append(f"reference values r={r}")
    dec1 = hankel.ldl(hankel.hankel_matrix(sequences.family_terms("sum", 7, 1), 4))
    if dec1.d != [2, Fraction(5, 2), Fraction(13, 5), Fraction(34, 13)]:
        problems.append(f"D diagonal r=1: {dec1.d}")
    dec2 = hankel.ldl(hankel.hankel_matrix(sequences.family_terms("sum", 7, 2), 4))
    if dec2.d != [3, Fraction(20, 3), Fraction(272, 20), Fraction(7424, 272)]:
        problems.append(f"D diagonal r=2: {dec2.d}")
    # Fibonacci cross-check for r = 1: the transform is F(2n+3).
    fib = [1, 1]
    while len(fib) < 18:
        fib.append(fib[-1] + fib[-2])
    for n in range(7):
        if sequences.closed_ht("sum", n, 1) != fib[2 * n + 2]:
            problems.append(f"F(2n+3) mismatch at n={n}")
    report(
        5,
        "sum-family Hankel transform equals r^C(n+1,2) * b(n+1; r) with the "
        "reference values and fractional LDL diagonals",
        problems,
    )


def test_criterion_6_b_sequence_consistency():
    problems = []
    methods = ("gf", "difference", "binomial", "floor")
    for r in range(1, 6):
        pell = [sequences.gen_pell(j, r) for j in range(21)]
        for n in range(21):
            values = {m: sequences.b_seq(n, r, m) for m in methods}
            if len(set(values.values())) != 1:
                problems.append(f"methods split r={r} n={n}: {values}")
                continue
            transform = sum(comb(n, j) * pell[j] for j in range(n + 1))
            if values["gf"] != transform:
                problems.append(f"pell transform r={r} n={n}")
    for n in range(16):
        if sequences.closed_ht_sum_r2_variant(n) != sequences.closed_ht("sum", n, 2):
            problems.append(f"variant mismatch n={n}")
    if sequences.family_terms("interleaved", 6) != [1, 3, 5, 17, 29, 99]:
        problems.append("interleaved values")
    scaled = [4 ** (n * n // 4) * sequences.interleaved_pell(n) for n in range(5)]
    if scaled != [1, 3, 20, 272, 7424]:
        problems.append(f"interleaved scaling {scaled}")
    report(
        6,
        "all four b-sequence formulas agree (r in 1..5, n to 20), match the "
        "binomial transform of the Pell family, the r=2 variant, and the "
        "interleaved-Pell scaling",
        problems,
    )


def test_criterion_7_recurrence_triangles():
    problems = []
    c3 = sequences.family_terms("catalan", 8, 3)
    if berlekamp.solve_bm(c3, 4) != [-81, 142, -75, 15]:
        problems.append("window-4 solution")
    if berlekamp.char_poly(c3, 4) != [81, -142, 75, -15, 1]:
        problems.append("characteristic coefficients")
    if berlekamp.companion_check(c3, 4) != [
        [0, 0, 0, -81],
        [1, 0, 0, 142],
        [0, 1, 0, -75],
        [0, 0, 1, 15],
    ]:
        problems.append("companion matrix")
    c1 = sequences.family_terms("catalan", 16, 1)
    rows = berlekamp.bm_triangle(c1, 8)
    if rows[:4] != [[1], [-1, 3], [1, -6, 5], [-1, 10, -15, 7]]:
        problems.append("reference triangle rows")
    closed = [
        [berlekamp.catalan_bm_term(n, k) for k in range(n + 1)] for n in range(8)
    ]
    if rows != closed:
        problems.append("closed form disagrees with solved rows")
    num = [[1], [1, 1]]
    den = [[1], [2, -2], [1, -2, 1], [0, -1]]
    if series.bivariate_expand(num, den, 8).rows != rows:
        problems.append("generating function disagrees with solved rows")
    coeff = berlekamp.coefficient_riordan_check(3, 5)
    if coeff != riordan.l_catalan(3, 5).inverse().to_matrix(5):
        problems.append("coefficient matrix vs inverse array")
    report(
        7,
        "recurrence solving reproduces the reference window solutions, "
        "companion matrix, closed-form triangle, its generating function, "
        "and the inverse-array coefficient rows",
        problems,
    )


def test_criterion_8_structural_suites():
    problems = []
    blocks = []
    for name, r_top in (("central", 4), ("catalan", 4), ("sum", 3)):
        for r in range(1, r_top + 1):
            terms = sequences.family_terms(name, 13, r)
            blocks.append((name, r, hankel.hankel_matrix(terms, 7)))
    for name, r, block in blocks:
        dec = hankel.ldl(block)
        if dec.reconstruct() != block:
            problems.append(f"reconstruction {name} r={r}")
        acc = Fraction(1)
        for n, dv in enumerate(dec.d):
            acc *= dv
            bareiss = hankel.bareiss_det([row[: n + 1] for row in block[: n + 1]])
            if acc != bareiss:
                problems.append(f"determinant paths {name} r={r} n={n}")
    order = 12
    arrays = [
        riordan.binomial(order),
        riordan.l_central(2, order),
        riordan.l_catalan(3, order),
        production.a_p(2, order),
    ]
    ident = linalg.identity(order)
    seq = [(-1) ** n * (n + 1) for n in range(order)]
    for arr in arrays:
        for other in arrays:
            product = arr.multiply(other)
            # The series route: the product's own to_matrix is the mat_mul below.
            lhs = linalg.pad_square(
                riordan.RiordanArray(product.d, product.h).to_matrix(order)
            )
            rhs = linalg.mat_mul(
                linalg.pad_square(arr.to_matrix(order)),
                linalg.pad_square(other.to_matrix(order)),
            )
            if lhs != rhs:
                problems.append("product law")
        inv = arr.inverse()
        if (
            linalg.mat_mul(
                linalg.pad_square(arr.to_matrix(order)),
                linalg.pad_square(inv.to_matrix(order)),
            )
            != ident
        ):
            problems.append("inverse law")
        if arr.apply(seq) != linalg.mat_vec(
            linalg.pad_square(arr.to_matrix(order)), seq
        ):
            problems.append("fundamental theorem")
    for r in range(1, 5):
        m = 7
        terms = sequences.family_terms("catalan", 2 * m - 1, r)
        h = hankel.hankel_matrix(terms, m)
        p = linalg.pad_square(riordan.l_catalan(r, m).inverse().to_matrix(m))
        conj = linalg.mat_mul(linalg.mat_mul(p, h), linalg.transpose(p))
        if conj != [[r**i if i == j else 0 for j in range(m)] for i in range(m)]:
            problems.append(f"orthogonality r={r}")
    for r in range(1, 4):
        terms = sequences.family_terms("sum", 17, r)
        dec = hankel.ldl(hankel.hankel_matrix(terms, 9))
        inv = linalg.lower_tri_inverse(linalg.pad_square(dec.l))
        for n in range(9):
            scale = sequences.b_seq(n, r)
            row = [scale * inv[n][k] for k in range(n + 1)]
            if any(e.denominator != 1 for e in row) or row[n] != scale:
                problems.append(f"integrality r={r} n={n}")
    report(
        8,
        "LDL reconstruction, dual determinant paths, group laws at order 12, "
        "orthogonality, and scaled-inverse integrality all hold",
        problems,
    )
