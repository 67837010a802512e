"""Registry of identity checks behind the ``verify`` CLI command.

``_prop`` builds one CheckResult record; it passes iff expected == actual.
A check of a literal value against one library call is a row (scope, id,
claim, expected, actual, params) of ``_TABLE``, and ``actual`` is a thunk
that looks the library up when the check runs.  Every other check is a
generator registered with ``@check``: it takes the grid bounds (r_max,
n_max), both at least 1, and yields its records.  ``_all`` records the first
counterexample of a lazy grid search, ``_guard`` a construction that asserts
its own identities.  ``_invoke`` runs each check under one guard, serially
or in a worker: a check that raises keeps the records it gave and adds a
failed ``<check>-raised`` record whose actual is ``TypeName: message``.
Results are sorted by id, so the report is the same with ``--parallel``.
"""

from __future__ import annotations

import os
import random
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import comb
from operator import mul

from . import berlekamp, hankel, linalg, production, riordan, sequences, series
from .cli import VERIFY_SCOPES as SCOPES

_REGISTRY: dict = {}


def check(scope):
    def deco(fn):
        _REGISTRY[fn.__name__] = (scope, fn)
        return fn

    return deco


CheckResult = namedtuple("CheckResult", "id claim params status expected actual")
VerifyReport = namedtuple("VerifyReport", "checks summary")


def fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(fmt(v) for v in value) + "]"
    return str(value)


def _prop(cid, claim, expected, actual, **params):
    """The record of one check; it passes iff expected == actual."""
    return CheckResult(
        id=cid,
        claim=claim,
        params={k: str(v) for k, v in params.items()},
        status="pass" if expected == actual else "fail",
        expected=fmt(expected),
        actual=fmt(actual),
    )


def _all(cid, claim, holds, failures, **params):
    """Record a grid search: ``failures`` lazily yields a description of
    each counterexample, and only the first is drawn, so the search stops
    there.  It passes iff there is none; the actual is then ``holds``."""
    return _prop(cid, claim, holds, next(iter(failures), holds), **params)


def _raised(exc):
    return f"{type(exc).__name__}: {exc}"


def _guard(cid, claim, fn, **params):
    """Run a self-asserting construction; pass iff it does not raise."""
    try:
        fn()
    except Exception as exc:  # the claim is exactly "this does not raise"
        return _prop(cid, claim, "holds", _raised(exc), **params)
    return _prop(cid, claim, "holds", "holds", **params)


def _rs(r_max, cap=None):
    top = r_max if cap is None else min(r_max, cap)
    return range(1, top + 1)


# ---------------------------------------------------------------- series


@check("series")
def check_series_roundtrips(r_max, n_max):
    rng = random.Random(56127)

    def rand_series(order, unit):
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(order)]
        if unit:
            cs[0] = Fraction(1)
        return series.Series(cs)

    pairs = (
        (rand_series(10, unit=False), rand_series(10, unit=True)) for _ in range(20)
    )
    yield _all(
        "series-div-mul-roundtrip",
        "(a*b)/b = a for random series with unit-constant b",
        "all 20 cases",
        (f"case {i} failed" for i, (a, b) in enumerate(pairs) if (a * b) / b != a),
        cases=20,
    )
    squares = (rand_series(8, unit=True) for _ in range(50))
    yield _all(
        "series-sqrt-square",
        "sqrt(a)^2 = a for random series with constant term 1",
        "all 50 cases",
        (f"case {i} failed" for i, a in enumerate(squares) if (s := a.sqrt()) * s != a),
        cases=50,
    )


@check("series")
def check_series_revert(r_max, n_max):
    order = 16
    ident = series.x(order)
    for r in _rs(r_max):
        h = series.rational([0, 1], [1, r + 1, r], order)
        hbar = h.revert()
        ok = hbar.compose(h) == ident and h.compose(hbar) == ident
        yield _prop(
            f"series-revert-roundtrip-r{r}",
            "reversion of x/(1+(r+1)x+rx^2) composes to x both ways",
            "x",
            "x" if ok else "mismatch",
            r=r,
            order=order,
        )


@check("series")
def check_series_bivariate_y0(r_max, n_max):
    order = max(4, min(n_max, 8))
    for r in _rs(r_max):
        num, den = berlekamp._bm_gf(r)
        table = series.bivariate_expand(num, den, order)
        col0 = [row[0] for row in table.rows]
        num_y0 = [row[0] if row else 0 for row in num]
        den_y0 = [row[0] if row else 0 for row in den]
        specialized = series.rational(num_y0, den_y0, order)
        yield _prop(
            f"series-bivariate-y0-r{r}",
            "setting y = 0 in the bivariate expansion matches univariate division",
            list(specialized.coeffs),
            col0,
            r=r,
            order=order,
        )


# ------------------------------------------------------------- sequences


@check("sequences")
def check_triangle(r_max, n_max):
    for r in _rs(r_max):
        yield _all(
            f"triangle-symmetry-r{r}",
            "T(n, k; r) = T(n, n-k; r)",
            "symmetric",
            (f"mismatch at {(n, k)}" for n in range(n_max + 1) for k in range(n + 1)
             if sequences.triangle_T(n, k, r) != sequences.triangle_T(n, n - k, r)),
            r=r,
            n_max=n_max,
        )


@check("sequences")
def check_b_methods(r_max, n_max):
    methods = ("gf", "difference", "binomial", "floor")
    for r in _rs(r_max):
        yield _all(
            f"b-methods-agree-r{r}",
            "all four b-sequence formulas agree",
            "single value per n",
            (f"split at n={n}" for n in range(n_max + 1)
             if len({sequences.b_seq(n, r, m) for m in methods}) != 1),
            r=r,
            n_max=n_max,
        )
        yield _prop(
            f"b-binomial-of-pell-r{r}",
            "b is the binomial transform of the generalized Pell sequence",
            [sequences.b_seq(n, r) for n in range(n_max + 1)],
            hankel.binomial_transform(sequences.family_terms("pell", n_max + 1, r), 1),
            r=r,
            n_max=n_max,
        )


@check("sequences")
def check_closed_form_helpers(r_max, n_max):
    for n in range(min(n_max, 8) + 1):
        yield _prop(
            f"ht-sum-r2-variant-n{n}",
            "the r = 2 sum determinant equals its binomial-sum form",
            sequences.closed_ht("sum", n, 2),
            sequences.closed_ht_sum_r2_variant(n),
            n=n,
            r=2,
        )
    for r in _rs(r_max):
        yield _all(
            f"central-egf-identity-r{r}",
            "central coefficients match their exponential-form expansion",
            "equal for all n",
            (f"differs at n={n}" for n in range(n_max + 1)
             if sequences.central(n, r) != sum(
                 comb(n, 2 * k) * comb(2 * k, k) * r**k * (r + 1) ** (n - 2 * k)
                 for k in range(n // 2 + 1))),
            r=r,
            n_max=n_max,
        )
        yield _prop(
            f"bessel-binomial-shift-r{r}",
            "the aerated moment sequence is the (-(r+1))-fold binomial shift "
            "of the central family",
            sequences.family_terms("bessel", 2 * n_max + 1, r),
            hankel.binomial_transform(
                sequences.family_terms("central", 2 * n_max + 1, r), -(r + 1)
            ),
            r=r,
        )


# --------------------------------------------------------------- riordan


@check("riordan")
def check_riordan_group_laws(r_max, n_max):
    order = 12
    rng = random.Random(91040)
    b = riordan.binomial(order)
    b_rows = linalg.pad_square(b.to_matrix(order))
    ident = linalg.identity(order)
    for r in _rs(r_max):
        named = [
            ("central", riordan.l_central(r, order)),
            ("catalan", riordan.l_catalan(r, order)),
            ("ap", production.a_p(r, order)),
        ]
        for name, arr in named:
            rows = linalg.pad_square(arr.to_matrix(order))
            product = arr.multiply(b)
            yield _prop(
                f"riordan-product-law-{name}-r{r}",
                "the matrix of a product is the product of the matrices",
                linalg.mat_mul(rows, b_rows),
                linalg.pad_square(_series_rows(product, order)),
                r=r,
                order=order,
            )
            inv = arr.inverse()
            yield _prop(
                f"riordan-inverse-law-{name}-r{r}",
                "an array times its group inverse is the identity matrix",
                ident,
                linalg.mat_mul(rows, linalg.pad_square(inv.to_matrix(order))),
                r=r,
                order=order,
            )
            seq = [rng.randint(-5, 5) for _ in range(arr.order)]
            yield _prop(
                f"riordan-fundamental-{name}-r{r}",
                "acting via d*(f o h) equals the matrix-vector product",
                linalg.mat_vec(rows, seq[:order]),
                _plain(arr).apply(seq)[:order],
                r=r,
                order=order,
            )


@check("riordan")
def check_riordan_columns(r_max, n_max):
    dim = min(n_max + 1, 12)
    for r in _rs(r_max):
        rows = riordan.l_central(r, dim).to_matrix(dim)
        yield _prop(
            f"l-central-col0-r{r}",
            "column 0 of the central array is the central-coefficient family",
            [sequences.central(n, r) for n in range(dim)],
            [row[0] for row in rows],
            r=r,
            dim=dim,
        )
        yield _all(
            f"l-central-entries-r{r}",
            "matrix entries, both double sums, and the e.g.f. coefficients agree",
            "all four routes equal",
            (f"mismatch at {(n, k)}" for n in range(dim) for k in range(n + 1)
             if not (rows[n][k]
                     == riordan.central_l_entry(n, k, r, "sumA")
                     == riordan.central_l_entry(n, k, r, "sumB")
                     == riordan.egf_column_coeff(n, k, r))),
            r=r,
            dim=dim,
        )
        catalan_rows = riordan.l_catalan(r, dim).to_matrix(dim)
        yield _prop(
            f"l-catalan-col0-r{r}",
            "column 0 of the Catalan array is the generalized Catalan family",
            [sequences.gen_catalan(n, r) for n in range(dim)],
            [row[0] for row in catalan_rows],
            r=r,
            dim=dim,
        )


# ---------------------------------------------------------------- hankel

_HT_FAMILIES = ("central", "catalan", "sum", "bessel")


def _ht_grid_cap(name, n_max):
    return min(n_max, 6) if name in ("sum", "bessel") else n_max


@check("hankel")
def check_hankel_closed_forms(r_max, n_max):
    for name in _HT_FAMILIES:
        kind = "central" if name == "bessel" else name
        for r in _rs(r_max):
            cap = _ht_grid_cap(name, n_max)
            terms = sequences.family_terms(name, 2 * cap + 1, r)
            values = hankel.hankel_transform(terms, cap + 1, method="both")
            for n in range(cap + 1):
                yield _prop(
                    f"ht-{name}-r{r}-n{n}",
                    f"Hankel determinant of the {name} family matches the "
                    f"closed form for kind {kind!r}",
                    sequences.closed_ht(kind, n, r),
                    values[n],
                    family=name,
                    r=r,
                    n=n,
                )


@check("hankel")
def check_binomial_invariance(r_max, n_max):
    cap = min(n_max, 6)
    for name in ("central", "catalan", "bessel"):
        kind = "central" if name == "bessel" else name
        for r in _rs(r_max):
            base = sequences.family_terms(name, 2 * cap + 1, r)
            expected = [sequences.closed_ht(kind, n, r) for n in range(cap + 1)]
            for k in range(-3, 4):
                shifted = hankel.binomial_transform(base, k)
                yield _prop(
                    f"ht-binomial-invariance-{name}-r{r}-k{k:+d}",
                    "the Hankel transform is invariant under binomial transforms",
                    expected,
                    hankel.hankel_transform(shifted, cap + 1, method="both"),
                    family=name,
                    r=r,
                    k=k,
                )


@check("hankel")
def check_ldl(r_max, n_max):
    # family -> (diagonal entry n, claim on the diagonal, unit factor, word)
    named = {
        "central": (lambda r, n: 2 * r**n if n else 1,
                    "the central-family diagonal is 1, 2r, 2r^2, ...",
                    riordan.l_central, "central"),
        "catalan": (lambda r, n: r**n, "the Catalan-family diagonal is r^n",
                    riordan.l_catalan, "Catalan"),
    }
    for name in ("central", "catalan", "sum"):
        for r in _rs(r_max):
            m = _ht_grid_cap(name, n_max) + 1
            terms = sequences.family_terms(name, 2 * m - 1, r)
            h = hankel.hankel_matrix(terms, m)
            dec = hankel.ldl(h)
            yield _prop(
                f"ldl-reconstruction-{name}-r{r}",
                "L D L^T multiplies back to the Hankel matrix exactly",
                h,
                dec.reconstruct(),
                family=name,
                r=r,
                size=m,
            )
            yield _prop(
                f"ldl-bareiss-agreement-{name}-r{r}",
                "partial products of the LDL^T diagonal equal the Bareiss minors",
                linalg._pivots([list(row) for row in h]),
                list(accumulate(dec.d, mul)),
                family=name,
                r=r,
                size=m,
            )
            if name not in named:
                continue
            diagonal, claim, array, word = named[name]
            yield _prop(
                f"ldl-dfactor-{name}-r{r}",
                claim,
                [diagonal(r, n) for n in range(m)],
                dec.d,
                r=r,
                size=m,
            )
            yield _prop(
                f"ldl-lfactor-{name}-r{r}",
                f"the unit factor of the {word} family is the {word} array",
                array(r, m).to_matrix(m),
                dec.l,
                r=r,
                size=m,
            )


@check("hankel")
def check_orthogonality(r_max, n_max):
    m = min(n_max, 8) + 1
    for r in _rs(r_max):
        terms = sequences.family_terms("catalan", 2 * m - 1, r)
        h = hankel.hankel_matrix(terms, m)
        p = linalg.pad_square(riordan.l_catalan(r, m).inverse().to_matrix(m))
        conj = linalg.mat_mul(linalg.mat_mul(p, h), linalg.transpose(p))
        expected = [[r**i if i == j else 0 for j in range(m)] for i in range(m)]
        yield _prop(
            f"orthogonality-catalan-r{r}",
            "conjugating the Hankel matrix by the inverse array diagonalizes it",
            expected,
            conj,
            r=r,
            size=m,
        )


def _hankel4(name, r):
    """The 4 x 4 Hankel block of a family."""
    return hankel.hankel_matrix(sequences.family_terms(name, 7, r), 4)


def _sum_factor_inverse(r, m):
    """Inverse of the unit LDL^T factor of the m x m sum-family Hankel matrix."""
    terms = sequences.family_terms("sum", 2 * m - 1, r)
    dec = hankel.ldl(hankel.hankel_matrix(terms, m))
    return linalg.lower_tri_inverse(linalg.pad_square(dec.l))


def _scaled_inverse(r, scale):
    """Rows 0..3 of the sum family's inverse unit factor, row n times scale(n, r)."""
    inv = _sum_factor_inverse(r, 4)
    return [[scale(n, r) * e for e in inv[n][: n + 1]] for n in range(4)]


@check("hankel")
def check_scaled_inverse(r_max, n_max):
    m = min(n_max, 8) + 1
    for r in _rs(r_max, 3):
        inv = _sum_factor_inverse(r, m)
        rows = ((n, sequences.b_seq(n, r), inv[n][: n + 1]) for n in range(m))
        yield _all(
            f"scaled-inverse-integrality-r{r}",
            "b(n; r) times row n of the inverse unit factor is integral "
            "with diagonal b(n; r)",
            "integral rows",
            (f"fractional row {n}" for n, scale, inv_row in rows
             if any((scale * e).denominator != 1 for e in inv_row)
             or scale * inv_row[n] != scale),
            r=r,
            size=m,
        )


# ------------------------------------------------------------ production


def _plain(arr):
    """The same (arr.d, arr.h) with no production rule, no closed-form
    inverse and no factors: its matrix expands as d * h^k and it acts as
    d * (f o h).  A claim about a named array's or a product's matrix must
    not read that matrix back."""
    return riordan.RiordanArray(arr.d, arr.h)


def _series_rows(arr, dim):
    """The matrix of ``_plain(arr)``: a claim that the series closed form
    has some production matrix, or that a product's matrix is the product
    of the matrices, compares with it."""
    return _plain(arr).to_matrix(dim)


@check("production")
def check_production_laws(r_max, n_max):
    m = min(n_max, 8) + 1
    for r in _rs(r_max):
        ap_rows = _series_rows(production.a_p(r, m + 1), m + 1)
        yield _prop(
            f"production-extract-r{r}",
            "extracting the production matrix of A_P recovers the structured form",
            production.p_catalan(r, m),
            production.production_matrix(ap_rows),
            r=r,
            size=m,
        )
        for name, rows in (
            ("ap", ap_rows),
            ("catalan", _series_rows(riordan.l_catalan(r, m + 1), m + 1)),
            ("pascal", _series_rows(riordan.binomial(m + 1), m + 1)),
        ):
            rebuilt = production.matrix_from_production(
                production.production_matrix(rows), m
            )
            yield _prop(
                f"production-roundtrip-{name}-r{r}",
                "rebuilding from the extracted production matrix returns the array",
                linalg.pad_square(rows[:m], m),
                rebuilt,
                r=r,
                size=m,
            )
        yield _guard(
            f"stieltjes-bridge-r{r}",
            "A_P(r) * B * (1, x/r) expands to the Catalan array",
            lambda: production.stieltjes_bridge(r, m),
            r=r,
            size=m,
        )
        order = 12
        h = production.a_p(r, order).h.truncate(order)
        phi = series.rational([r, -(r - 1)], [1, -1], order)
        yield _prop(
            f"production-u-equation-r{r}",
            "the second component solves h = x * phi(h) for the column-1 "
            "generating function phi",
            list(h.coeffs),
            list((series.x(order) * phi.compose(h)).coeffs),
            r=r,
            order=order,
        )


# ------------------------------------------------------------- berlekamp


def _catalan8(r):
    return sequences.family_terms("catalan", 8, r)


@check("berlekamp")
def check_bm_laws(r_max, n_max):
    cap = min(n_max, 8)
    yield _prop(
        "bm-closed-form-catalan",
        "the solved Catalan triangle matches the closed form",
        [[berlekamp.catalan_bm_term(n, k) for k in range(n + 1)] for n in range(cap)],
        berlekamp.bm_triangle(sequences.family_terms("catalan", 2 * cap, 1), cap),
        rows=cap,
    )
    yield _prop(
        "bm-catalan-diagonal",
        "the closed-form diagonal is 2n + 1",
        [2 * n + 1 for n in range(cap)],
        [berlekamp.catalan_bm_term(n, n) for n in range(cap)],
        rows=cap,
    )
    for r in _rs(r_max):
        terms = sequences.family_terms("catalan", 2 * cap, r)
        rows = berlekamp.bm_triangle(terms, cap)
        yield _all(
            f"bm-recurrence-window-r{r}",
            "each solved window reproduces its defining recurrence rows",
            "recurrence holds on the window",
            (f"fails at {(d, n)}" for d, g in enumerate(rows, 1) for n in range(d)
             if sum(g[i] * terms[n + i] for i in range(d)) != terms[n + d]),
            r=r,
            rows=cap,
        )
        yield _guard(
            f"bm-coefficient-riordan-r{r}",
            "characteristic rows expand (1/(1+rx), x/(1+(r+1)x+rx^2))",
            lambda: berlekamp.coefficient_riordan_check(r, cap + 1),
            r=r,
            rows=cap + 1,
        )
        yield _guard(
            f"bm-gf-r{r}",
            "the bivariate generating function reproduces the solved triangle",
            lambda: berlekamp.bm_gf_check(r, cap),
            r=r,
            rows=cap,
        )


# ------------------------------------------------------------------ table

_SEQ_TABLES = {
    ("catalan", 1): [1, 1, 2, 5, 14, 42, 132, 429],
    ("catalan", 2): [1, 2, 6, 22, 90, 394, 1806, 8558],
    ("catalan", 3): [1, 3, 12, 57, 300, 1686, 9912, 60213],
    ("central", 2): [1, 3, 13, 63, 321, 1683, 8989],
    ("sum", 1): [2, 3, 7, 19, 56, 174, 561],
    ("sum", 2): [3, 8, 28, 112, 484, 2200, 10364],
    ("sum", 3): [4, 15, 69, 357, 1986, 11598, 70125],
    ("b", 1): [1, 2, 5, 13, 34, 89],
    ("b", 2): [1, 3, 10, 34, 116, 396],
    ("b", 3): [1, 4, 17, 73, 314, 1351],
    ("pell", 2): [1, 2, 5, 12, 29, 70],
    ("pell", 3): [1, 3, 10, 33, 109, 360],
    ("bessel", 2): [1, 0, 4, 0, 24, 0, 160],
}

# (scope, id, claim, expected, actual, params): each row compares a literal
# value with the value its thunk computes when the check runs.
_TABLE = [
    ("sequences", f"seq-{name}-r{r}",
     f"the {name} family reproduces its reference values", terms,
     lambda name=name, r=r, n=len(terms): sequences.family_terms(name, n, r),
     dict(r=r, count=len(terms)))
    for (name, r), terms in _SEQ_TABLES.items()
]
_TABLE += [
    # ------------------------------------------------------- sequences
    ("sequences", "seq-interleaved",
     "interleaved Pell expansion starts 1, 3, 5, 17, 29, 99",
     [1, 3, 5, 17, 29, 99], lambda: sequences.family_terms("interleaved", 6),
     dict(count=6)),
    ("sequences", "seq-interleaved-scaled",
     "scaling by 4^floor(n^2/4) gives 1, 3, 20, 272, 7424", [1, 3, 20, 272, 7424],
     lambda: [4 ** (n * n // 4) * sequences.interleaved_pell(n) for n in range(5)],
     dict(count=5)),
    ("sequences", "triangle-pascal", "r = 1 reduces the triangle to Pascal",
     [[comb(n, k) for k in range(n + 1)] for n in range(6)],
     lambda: sequences.triangle_rows(6, 1), dict(r=1)),
    ("sequences", "triangle-delannoy-2-1", "T(2, 1; 2) = 3",
     3, lambda: sequences.triangle_T(2, 1, 2), dict(r=2)),
    ("sequences", "triangle-delannoy-6-3", "T(6, 3; 2) = 63",
     63, lambda: sequences.triangle_T(6, 3, 2), dict(r=2)),
    ("sequences", "triangle-pascal-4-2", "T(4, 2; 1) = 6",
     6, lambda: sequences.triangle_T(4, 2, 1), dict(r=1)),
    # --------------------------------------------------------- riordan
    ("riordan", "riordan-pascal", "(1/(1-x), x/(1-x)) expands to Pascal's triangle",
     [[comb(n, k) for k in range(n + 1)] for n in range(5)],
     lambda: riordan.binomial(6).to_matrix(5), {}),
    ("riordan", "riordan-binomial-inverse",
     "the inverse binomial array carries alternating signs",
     [[(-1) ** (n - k) * comb(n, k) for k in range(n + 1)] for n in range(5)],
     lambda: riordan.binomial_power(-1, 6).to_matrix(5), {}),
    ("riordan", "riordan-central-r2",
     "the central array at r = 2 starts [1],[3,1],[13,6,1],[63,33,9,1]",
     [[1], [3, 1], [13, 6, 1], [63, 33, 9, 1]],
     lambda: riordan.l_central(2, 4).to_matrix(4), dict(r=2)),
    ("riordan", "riordan-catalan-r1",
     "the Catalan array at r = 1 starts [1],[1,1],[2,3,1],[5,9,5,1]",
     [[1], [1, 1], [2, 3, 1], [5, 9, 5, 1]],
     lambda: riordan.l_catalan(1, 4).to_matrix(4), dict(r=1)),
    ("riordan", "riordan-catalan-r3",
     "the Catalan array at r = 3 starts [1],[3,1],[12,7,1],[57,43,11,1]",
     [[1], [3, 1], [12, 7, 1], [57, 43, 11, 1]],
     lambda: riordan.l_catalan(3, 4).to_matrix(4), dict(r=3)),
    ("riordan", "riordan-entry-egf-2-0-2", "e.g.f. column entry (2, 0) at r = 2 is 13",
     13, lambda: riordan.egf_column_coeff(2, 0, 2), dict(n=2, k=0, r=2)),
    ("riordan", "riordan-entry-egf-3-1-2", "e.g.f. column entry (3, 1) at r = 2 is 33",
     33, lambda: riordan.egf_column_coeff(3, 1, 2), dict(n=3, k=1, r=2)),
    ("riordan", "riordan-entry-suma-3-1-2",
     "double sum A gives entry (3, 1) = 33 at r = 2",
     33, lambda: riordan.central_l_entry(3, 1, 2, "sumA"), dict(n=3, k=1, r=2)),
    ("riordan", "riordan-entry-sumb-3-1-2",
     "double sum B gives entry (3, 1) = 33 at r = 2",
     33, lambda: riordan.central_l_entry(3, 1, 2, "sumB"), dict(n=3, k=1, r=2)),
    # ---------------------------------------------------------- hankel
    ("hankel", "hankel-table-central-r2",
     "the 4 x 4 Hankel block of the r = 2 central family",
     [[1, 3, 13, 63], [3, 13, 63, 321], [13, 63, 321, 1683], [63, 321, 1683, 8989]],
     lambda: _hankel4("central", 2), dict(r=2)),
    ("hankel", "hankel-table-catalan-r3",
     "the 4 x 4 Hankel block of the r = 3 Catalan family",
     [[1, 3, 12, 57], [3, 12, 57, 300], [12, 57, 300, 1686], [57, 300, 1686, 9912]],
     lambda: _hankel4("catalan", 3), dict(r=3)),
    ("hankel", "ldl-display-central-r2",
     "the r = 2 central family factors with diagonal (1, 4, 8, 16)",
     ([[1], [3, 1], [13, 6, 1], [63, 33, 9, 1]], [1, 4, 8, 16]),
     lambda: ((dec := hankel.ldl(_hankel4("central", 2))).l, dec.d), dict(r=2)),
    ("hankel", "ldl-display-sum-r1",
     "the r = 1 sum family has diagonal (2, 5/2, 13/5, 34/13) and "
     "last row (19/2, 11, 70/13, 1)",
     ([2, Fraction(5, 2), Fraction(13, 5), Fraction(34, 13)],
      [Fraction(19, 2), 11, Fraction(70, 13), 1]),
     lambda: ((dec := hankel.ldl(_hankel4("sum", 1))).d, dec.l[3]), dict(r=1)),
    ("hankel", "ldl-display-sum-r2",
     "the r = 2 sum family has diagonal (3, 20/3, 272/20, 7424/272)",
     [Fraction(3), Fraction(20, 3), Fraction(272, 20), Fraction(7424, 272)],
     lambda: hankel.ldl(_hankel4("sum", 2)).d, dict(r=2)),
    ("hankel", "scaled-inverse-display-r1",
     "the scaled inverse factor at r = 1 is the expected integer triangle",
     [[1], [-3, 2], [8, -17, 5], [-21, 95, -70, 13]],
     lambda: _scaled_inverse(1, sequences.b_seq), dict(r=1)),
    ("hankel", "scaled-inverse-display-r2",
     "the scaled inverse factor at r = 2 is the expected integer triangle",
     [[1], [-8, 3], [56, -56, 10], [-384, 690, -292, 34]],
     lambda: _scaled_inverse(2, sequences.b_seq), dict(r=2)),
    ("hankel", "scaled-inverse-interleaved-r2",
     "scaling instead by the interleaved Pell terms also lands on integers",
     [[1], [-8, 3], [28, -28, 5], [-192, 345, -146, 17]],
     lambda: _scaled_inverse(2, lambda n, r: sequences.interleaved_pell(n)), dict(r=2)),
    # ------------------------------------------------------ production
    ("production", "production-p1-display",
     "the structured matrix at r = 1 starts (0,1,0,0),(0,1,1,0),(0,1,1,1)",
     [[0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 1, 1]],
     lambda: production.p_catalan(1, 4)[:3], dict(r=1)),
    ("production", "production-p2-display",
     "the structured matrix at r = 2 starts (0,2,0,0),(0,1,2,0),(0,1,1,2)",
     [[0, 2, 0, 0], [0, 1, 2, 0], [0, 1, 1, 2]],
     lambda: production.p_catalan(2, 4)[:3], dict(r=2)),
    ("production", "production-ap1-display",
     "A_P(1) starts [1],[0,1],[0,1,1],[0,2,2,1]",
     [[1], [0, 1], [0, 1, 1], [0, 2, 2, 1]],
     lambda: production.a_p(1, 4).to_matrix(4), dict(r=1)),
    ("production", "production-ap2-display",
     "A_P(2) starts [1],[0,2],[0,2,4],[0,6,8,8]",
     [[1], [0, 2], [0, 2, 4], [0, 6, 8, 8]],
     lambda: production.a_p(2, 4).to_matrix(4), dict(r=2)),
    ("production", "production-ap1b-display",
     "A_P(1) times the binomial array is the r = 1 Catalan array",
     [[1], [1, 1], [2, 3, 1], [5, 9, 5, 1]],
     lambda: production.a_p(1, 6).multiply(riordan.binomial(6)).to_matrix(4),
     dict(r=1)),
    ("production", "production-ap2b-display",
     "A_P(2) times the binomial array starts [1],[2,2],[6,10,4],[22,46,32,8]",
     [[1], [2, 2], [6, 10, 4], [22, 46, 32, 8]],
     lambda: production.a_p(2, 6).multiply(riordan.binomial(6)).to_matrix(4),
     dict(r=2)),
    ("production", "production-ap2-rowsums",
     "row sums of A_P(2) are the r = 2 Catalan numbers 1, 2, 6, 22, 90",
     [1, 2, 6, 22, 90],
     lambda: [sum(row) for row in production.a_p(2, 5).to_matrix(5)], dict(r=2)),
    ("production", "production-identity-shift",
     "the production matrix of the identity has ones above the diagonal",
     [[1 if j == i + 1 else 0 for j in range(4)] for i in range(4)],
     lambda: production.production_matrix(linalg.identity(5)), {}),
    # ------------------------------------------------------- berlekamp
    ("berlekamp", "bm-solve-c3-d1", "window 1 on the r = 3 family gives (3)",
     [3], lambda: berlekamp.solve_bm(_catalan8(3), 1), dict(r=3, d=1)),
    ("berlekamp", "bm-solve-c3-d2", "window 2 on the r = 3 family gives (-9, 7)",
     [-9, 7], lambda: berlekamp.solve_bm(_catalan8(3), 2), dict(r=3, d=2)),
    ("berlekamp", "bm-solve-c3-d3", "window 3 on the r = 3 family gives (27, -34, 11)",
     [27, -34, 11], lambda: berlekamp.solve_bm(_catalan8(3), 3), dict(r=3, d=3)),
    ("berlekamp", "bm-solve-c3-d4",
     "window 4 on the r = 3 family gives (-81, 142, -75, 15)",
     [-81, 142, -75, 15], lambda: berlekamp.solve_bm(_catalan8(3), 4),
     dict(r=3, d=4)),
    ("berlekamp", "bm-charpoly-c3-d1",
     "window-1 characteristic coefficients are (-3, 1)",
     [-3, 1], lambda: berlekamp.char_poly(_catalan8(3), 1), dict(r=3, d=1)),
    ("berlekamp", "bm-charpoly-c3-d3",
     "window-3 characteristic coefficients are (-27, 34, -11, 1)",
     [-27, 34, -11, 1], lambda: berlekamp.char_poly(_catalan8(3), 3), dict(r=3, d=3)),
    ("berlekamp", "bm-charpoly-c3-d4",
     "window-4 characteristic coefficients are (81, -142, 75, -15, 1)",
     [81, -142, 75, -15, 1], lambda: berlekamp.char_poly(_catalan8(3), 4),
     dict(r=3, d=4)),
    ("berlekamp", "bm-companion-c3-d4",
     "the window-4 companion matrix has sub-diagonal ones and the "
     "recurrence coefficients in its last column",
     [[0, 0, 0, -81], [1, 0, 0, 142], [0, 1, 0, -75], [0, 0, 1, 15]],
     lambda: berlekamp.companion_check(_catalan8(3), 4), dict(r=3, d=4)),
    ("berlekamp", "bm-triangle-catalan",
     "the Catalan recurrence triangle starts [1],[-1,3],[1,-6,5],[-1,10,-15,7]",
     [[1], [-1, 3], [1, -6, 5], [-1, 10, -15, 7]],
     lambda: berlekamp.bm_triangle(_catalan8(1), 4), dict(r=1)),
    ("berlekamp", "bm-constant-window", "a constant sequence solves to (1) at window 1",
     [1], lambda: berlekamp.solve_bm([1, 1], 1), dict(d=1)),
    ("berlekamp", "catalan-bm-term-3-2", "the closed form gives entry (3, 2) = -15",
     -15, lambda: berlekamp.catalan_bm_term(3, 2), dict(n=3, k=2)),
    ("berlekamp", "bm-coefficient-rows-r3",
     "the r = 3 characteristic triangle starts "
     "[1],[-3,1],[9,-7,1],[-27,34,-11,1],[81,-142,75,-15,1]",
     [[1], [-3, 1], [9, -7, 1], [-27, 34, -11, 1], [81, -142, 75, -15, 1]],
     lambda: berlekamp.coefficient_riordan_check(3, 5), dict(r=3)),
]


def _run_table(scope, r_max, n_max):
    for row_scope, cid, claim, expected, actual, params in _TABLE:
        if row_scope == scope:
            yield _prop(cid, claim, expected, actual(), **params)


for _scope in SCOPES:
    _REGISTRY[f"table_{_scope}"] = (_scope, partial(_run_table, _scope))


# ----------------------------------------------------------------- runner


def _invoke(job):
    """Run one check.  If it raises, keep the records it yielded and add a
    failed ``<check>-raised`` record that names the exception."""
    name, r_max, n_max = job
    out = []
    try:
        for res in _REGISTRY[name][1](r_max, n_max):
            out.append(res)
    except Exception as exc:  # a broken check is a failed check, not a crash
        out.append(_prop(f"{name.replace('_', '-')}-raised",
                         "the check runs to its end without raising",
                         "no exception", _raised(exc), r_max=r_max, n_max=n_max))
    return out


def run_checks(scopes, r_max: int, n_max: int, parallel: bool = False) -> VerifyReport:
    wanted = set(scopes)
    if "all" in wanted:
        wanted = set(SCOPES)
    unknown = wanted - set(SCOPES)
    if unknown:
        raise ValueError(f"unknown scope(s): {', '.join(sorted(unknown))}")
    if r_max < 1 or n_max < 1:
        raise ValueError("r_max and n_max must be at least 1")
    jobs = [(name, r_max, n_max) for name, (scope, _) in _REGISTRY.items()
            if scope in wanted]
    if parallel and jobs:
        from concurrent.futures import ProcessPoolExecutor

        # At most one worker per check: a fork pool starts every worker.
        workers = min(len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_invoke, jobs))
    else:
        batches = list(map(_invoke, jobs))
    results = [res for batch in batches for res in batch]
    results.sort(key=lambda res: res.id)
    ids = [res.id for res in results]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise RuntimeError(f"duplicate check ids: {', '.join(dupes)}")
    failed = sum(1 for res in results if res.status != "pass")
    summary = {
        "total": len(results),
        "passed": len(results) - failed,
        "failed": failed,
    }
    return VerifyReport(checks=results, summary=summary)


def report_data(report: VerifyReport) -> dict:
    return {
        "checks": [res._asdict() for res in report.checks],
        "summary": {k: str(v) for k, v in report.summary.items()},
    }
