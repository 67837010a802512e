"""Riordan arrays (d(x), h(x)) over exact rationals.

A proper Riordan array is a pair of truncated series with d(0) != 0,
h(0) = 0 and h'(0) != 0; column k of the associated lower-triangular
matrix is generated by d * h^k.  The group operations (product, inverse,
action on sequences) and the named arrays built from the central and
Catalan families live here.

A named array, and a product, is built by ``_named`` and carries its
routes as plain data, module-level functions with their arguments, so
that it still pickles.  ``_series = (build, args)``: build(*args) is the
pair (d, h), built on first read (``==``, ``repr``, ``apply`` to a
Series, a Lagrange inverse).  ``_rows = (rows, args)``: rows(*args, dim)
is the first dim rows of the matrix, which ``to_matrix`` hands out, and
``apply`` to a list of terms multiplies by, without reading the series.
``rows`` is ``_rule_rows``, the production rule as a Z-sequence and an
A-sequence with a constant tail (Merlini, Rogers, Sprugnoli & Verri,
1997); ``_rational_rows``, the column recurrence of a rational array
(num/q, x m/q), which is what a rule's inverse is (``_rule_inverse``, He &
Sprugnoli, 2009); ``_binomial_product_rows``, a rule's array times
``binomial_power(k)``, whose A-sequence is the rule's shifted to
(1+ky) A(y/(1+ky)); or ``_product_rows``, the product of two factors'
blocks.  All but the last take O(n^2) int steps.  ``_inverse = (build,
parameter)``: build(parameter, order) is the group inverse in closed form,
``_rule_inverse`` of the rule and the array's own (build, parameter) for a
rule array, and the rule array for its inverse.  An array built as
``RiordanArray(d, h)`` has none of these: it expands column by column as
d * h^k, acts as d * (f o h) and inverts by Lagrange reversion, the routes
that stay as the oracles of the fast ones.

The row store keeps, for each route ``_rows`` whose arguments are plain
data (every one but ``_product_rows``, whose arguments are arrays), the
longest block of rows expanded for it, so that any order of the same rule
reads one block.  It is bounded by the number of entries it holds
(``ROW_STORE_ENTRIES``) and drops the least recently used rule first.

``to_matrix`` hands out fresh ragged rows whose entries are ints where the
value is an integer and Fractions otherwise, as ``linalg.mat_mul`` and
``production.production_matrix`` do.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from . import series
from .errors import (
    IndexOutOfTriangle,
    InsufficientOrder,
    UnsupportedParameter,
)
from .linalg import mat_mul, pad_square
from .series import Series, _ratio


class RiordanArray:
    """A proper Riordan array; immutable once constructed."""

    __slots__ = ("_d", "_h", "order", "_series", "_rows", "_inverse")

    def __init__(self, d: Series, h: Series):
        _check_series(d, h)
        self._d = d
        self._h = h
        self.order = min(d.order, h.order)
        # The route data of ``_named`` (see the module docstring).
        self._series = self._rows = self._inverse = None

    def _build(self):
        build, args = self._series
        d, h = build(*args)
        _check_series(d, h)
        self._d, self._h = d, h

    @property
    def d(self) -> Series:
        if self._d is None:
            self._build()
        return self._d

    @property
    def h(self) -> Series:
        if self._h is None:
            self._build()
        return self._h

    def __eq__(self, other):
        if isinstance(other, RiordanArray):
            n = min(self.order, other.order)
            return (
                self.d.truncate(n) == other.d.truncate(n)
                and self.h.truncate(n) == other.h.truncate(n)
            )
        return NotImplemented

    def __hash__(self):
        # Equality compares only the common prefix, so two equal arrays of
        # different orders share nothing beyond d[0] (h[0] is always 0),
        # which is entry (0, 0) of the matrix and needs no series.
        return hash(self.to_matrix(1)[0][0])

    def __repr__(self):
        return f"RiordanArray(d={self.d!r}, h={self.h!r})"

    def to_matrix(self, dim: int):
        """Leading dim x dim block as ragged lower-triangular rows; an entry
        is an int where its value is an integer and a Fraction otherwise.
        An array with stored rows (``_rows``) hands out a copy of its block
        (``_block``) and reads no series.  Otherwise column k is
        d * h^k = x^k d (h/x)^k, so only the first dim - k terms of
        d (h/x)^k are expanded: one truncated series product per column,
        O(dim^3), read off its (num, den)."""
        if dim > self.order:
            raise InsufficientOrder(
                f"array of order {self.order} cannot fill a {dim} x {dim} block"
            )
        if self._rows is not None:
            return [row[:] for row in _block(self._rows, dim)]
        rows = [[] for _ in range(dim)]
        col = self.d.truncate(dim)
        h = self.h.truncate(dim).div_x(1)
        for k in range(dim):
            for n, c in enumerate(col.num, k):
                rows[n].append(_ratio(c, col.den))
            if k + 1 < dim:
                col = col.truncate(dim - k - 1) * h
        return rows

    def multiply(self, other: "RiordanArray") -> "RiordanArray":
        """Group product: (d1, h1)(d2, h2) = (d1 * (d2 o h1), h2 o h1), of
        the lesser order of the two.  A rule's array times
        ``binomial_power(k)`` expands by the shifted rule
        (``_binomial_product_rows``); any other product's matrix is the
        product of the two matrices (``_product_rows``).  The series are
        composed on first read."""
        pair = (self, other)
        order = min(self.order, other.order)
        rows = (_product_rows, pair)
        if (
            self._rows is not None
            and self._rows[0] is _rule_rows
            and other._inverse is not None
            and other._inverse[0] is binomial_power
        ):
            rows = (_binomial_product_rows, (self._rows[1], -other._inverse[1]))
        return _named(_product_series, pair, order, rows, None)

    __mul__ = multiply

    def inverse(self) -> "RiordanArray":
        """Group inverse (1 / (d o hbar), hbar) with hbar the reversion of h.

        A named array returns its partner in closed form at the same order,
        without reading its own series.  ``l_catalan``, ``l_central`` and
        ``a_p`` return the rational array that ``_rule_inverse`` reads off
        their rule; it expands by its own recurrence in O(n^2) int steps
        and inverts back to them.  ``binomial_power(k)`` returns
        ``binomial_power(-k)``.  Any other array reverts h by Lagrange
        inversion, O(n^3)."""
        if self._inverse is not None:
            build, param = self._inverse
            return build(param, self.order)
        hbar = self.h.revert()
        d = 1 / self.d.compose(hbar)
        return RiordanArray(d, hbar)

    def apply(self, seq) -> list:
        """Act on a sequence: the result has generating function d * (f o h),
        which is the matrix of the array times the vector of f's terms (the
        fundamental theorem), as a list of Fractions.  An array with stored
        rows (``_rows``) given terms rather than a Series returns that
        matrix-vector product over its first ``order`` rows, O(order^2), and
        reads no series.  A Series, or an array built as
        ``RiordanArray(d, h)``, is composed and multiplied as series,
        O(order^3): the route that stays as the oracle.  Terms are read as
        ``series.poly`` reads them: ints and Fractions as they are, anything
        else through ``Fraction``."""
        if isinstance(seq, Series):
            f = seq
        else:
            if len(seq) < self.order:
                raise InsufficientOrder(
                    f"need at least {self.order} terms, got {len(seq)}"
                )
            if self._rows is not None:
                nums, den = series._integer_row(list(seq)[: self.order])
                return [
                    Fraction(sum(map(mul, row, nums)), den)
                    for row in _block(self._rows, self.order)
                ]
            f = series.poly(seq, self.order)
        g = self.d * f.compose(self.h)
        return list(g.coeffs)


def _check_series(d: Series, h: Series):
    if d.order < 1 or d.num[0] == 0:
        raise ValueError("d must have a nonzero constant term")
    if h.order < 2 or h.num[0] != 0 or h.num[1] == 0:
        raise ValueError("h must satisfy h(0) = 0 and h'(0) != 0")


def _named(build, args, order: int, rows, inverse) -> RiordanArray:
    """The array of the given order with the route data ``_series =
    (build, args)``, ``_rows = rows`` and ``_inverse = inverse`` (the last
    two may be None).  The series are built on first read; below order 2,
    where h cannot be proper, they are built at once, so the order fails
    here as ``RiordanArray(d, h)`` does."""
    arr = RiordanArray.__new__(RiordanArray)
    arr._d = arr._h = None
    arr.order = order
    arr._series, arr._rows, arr._inverse = (build, args), rows, inverse
    if order < 2:
        arr._build()
    return arr


def _product_series(left: RiordanArray, right: RiordanArray):
    """The series of the product ``left.multiply(right)``."""
    return left.d * right.d.compose(left.h), right.h.compose(left.h)


# The most entries the row store holds; a larger block is handed out but
# not stored.
ROW_STORE_ENTRIES = 1 << 16
# Route data ``(expand, args)`` -> the longest block of rows expanded for
# it, least recently used first, and the number of entries held.
_row_store = OrderedDict()
_row_store_entries = 0


def clear_row_store():
    """Drop every block the row store holds."""
    global _row_store_entries
    _row_store.clear()
    _row_store_entries = 0


def _block(rows, dim):
    """The first dim rows of the route ``rows = (expand, args)``.  They are
    shared with the row store, not copied: read them, never change them.
    A stored block of at least dim rows is cut to dim; a shorter one, or
    none, is expanded again at dim and replaces it.  ``_product_rows``,
    whose arguments are arrays, is expanded and never stored."""
    global _row_store_entries
    expand, args = rows
    if expand is _product_rows:
        return expand(*args, dim)
    block = _row_store.get(rows)
    if block is not None and len(block) >= dim:
        _row_store.move_to_end(rows)
        return block if len(block) == dim else block[:dim]
    block = expand(*args, dim)
    entries = _entries(block)
    if entries <= ROW_STORE_ENTRIES:
        old = _row_store.pop(rows, None)
        if old is not None:
            _row_store_entries -= _entries(old)
        while _row_store_entries + entries > ROW_STORE_ENTRIES:
            _row_store_entries -= _entries(_row_store.popitem(last=False)[1])
        _row_store[rows] = block
        _row_store_entries += entries
    return block


def _entries(block):
    """The entries of a block of ragged lower-triangular rows."""
    return len(block) * (len(block) + 1) // 2


def _product_rows(left: RiordanArray, right: RiordanArray, dim):
    """The first dim rows of ``left.multiply(right)``: the product of the
    factors' blocks (``linalg.mat_mul``, O(dim^3) with the zeros above the
    diagonals skipped), cut back to ragged rows."""
    a, b = (
        pad_square(_block(f._rows, dim) if f._rows is not None else f.to_matrix(dim))
        for f in (left, right)
    )
    return [row[: n + 1] for n, row in enumerate(mat_mul(a, b))]


def _rule_rows(z, a, tail, dim):
    """The first dim rows, as ints, of the array with d(0) = 1 whose
    production matrix has Z-sequence z (zero past its end) and A-sequence
    a followed by tail, tail, ...:

        row_(n+1)[0]   = sum_j z_j row_n[j]
        row_(n+1)[k+1] = sum_j a_j row_n[k+j] + tail * sum_(i >= k+len(a)) row_n[i]

    The A part of a row is ``_a_step``.  Each row costs
    O(n (len(a) + len(z))) int steps."""
    return _expand(lambda row, n: sum(map(mul, z, row)), _a_step(a, tail), dim)


def _binomial_product_rows(rule, k, dim):
    """The first dim rows, as ints, of L * binomial_power(k), with L the
    array of ``_rule_rows(*rule, dim)``.  The product is
    (d / (1-kh), h / (1-kh)): row n starts with sum_j L[n][j] k^j, read
    off L's rows in the row store, and its A-sequence is
    (1+ky) A(y/(1+ky)) (``_binomial_shift``).  O(dim^2) int steps."""
    _, a, tail = rule
    left = _block((_rule_rows, rule), dim)
    powers = [k**j for j in range(dim)]
    step = _a_step(*_binomial_shift(a, tail, k))
    return _expand(lambda row, n: sum(map(mul, left[n], powers)), step, dim)


def _binomial_shift(a, tail, k):
    """The A-sequence (1+ky) A(y/(1+ky)) of L * binomial_power(k), given L's
    as a followed by tail, tail, ... (a of at most three terms, and no tail
    when it has three).  Write A as a_0 + a_1 y + c y^2 / (1 - rho y); then
    the shifted A is a_0 + (a_0 k + a_1) y + c y^2 / (1 - (rho - k) y).
    Returned as ``_a_step``'s (head, tail, ratio), with the tail folded
    into the head where it is one term long."""
    a0, a1, c = (*a, tail, tail)[:3]
    ratio = (0 if len(a) == 3 else 1) - k
    head = (a0, a0 * k + a1)
    if not c:
        return head, 0, 1
    if not ratio:
        return head + (c,), 0, 1
    return head, c, ratio


def _expand(column0, step, dim):
    """The first dim rows of the array with d(0) = 1 whose row n is
    column0(row n-1, n) followed by step(row n-1)."""
    if dim < 1:
        return []
    row = [1]
    rows = [row]
    for n in range(1, dim):
        row = [column0(row, n)] + step(row)
        rows.append(row)
    return rows


def _a_step(a, tail=0, ratio=1):
    """row -> [sum_j A_j row[k+j] for k < len(row)], zero past the end of
    the row, for the A-sequence a (one, two or three terms) followed by
    tail, tail * ratio, tail * ratio^2, ...  The head is one pass over as
    many shifted views of the row as a has terms; the tail adds
    tail * s_k, with the suffix sum s_k = ratio * s_(k+1) + row[k+len(a)]."""
    head = _head_step(a)
    if not tail:
        return head
    m = len(a)

    def step(row):
        nxt = head(row)
        s = 0
        for k in range(len(row) - 1 - m, -1, -1):
            s = ratio * s + row[k + m]
            nxt[k] += tail * s
        return nxt

    return step


def _head_step(a):
    """``_a_step`` of an A-sequence with no tail."""
    if len(a) == 1:
        (a0,) = a
        return lambda row: [a0 * u for u in row]
    if len(a) == 2:
        a0, a1 = a
        return lambda row: [a0 * u + a1 * v for u, v in zip(row, row[1:] + [0])]
    a0, a1, a2 = a
    return lambda row: [
        a0 * u + a1 * v + a2 * w
        for u, v, w in zip(row, row[1:] + [0], row[2:] + [0, 0])
    ]


def rule_matrix(z, a, tail, dim):
    """The dim x dim production matrix of a Z/A rule, A being a followed by
    tail, tail, ...: P[i][0] = Z_i and P[i][j] = A_(i-j+1) for j >= 1,
    zero where i - j + 1 < 0 (Deutsch, Ferrari & Rinaldi, 2005).  Entries
    are ints."""
    zs = list(z[:dim]) + [0] * (dim - len(z))
    big_a = list(a[:dim]) + [tail] * (dim - len(a))
    return [([zs[i]] + big_a[i::-1] + [0] * dim)[:dim] for i in range(dim)]


def identity(order: int) -> RiordanArray:
    """The identity array (1, x)."""
    return RiordanArray(series.one(order), series.x(order))


def binomial(order: int) -> RiordanArray:
    """The binomial array (1/(1-x), x/(1-x)) with entries C(n, k)."""
    return binomial_power(1, order)


def binomial_power(k: int, order: int) -> RiordanArray:
    """Integer power of the binomial array: (1/(1-kx), x/(1-kx)) for any k.
    Its production rule is Z = (k), A = (1, k): entry (n, m) is
    C(n, m) k^(n-m)."""
    if order < 1:
        raise InsufficientOrder("order must be at least 1")
    return _named(
        _rational_series,
        ((1,), (1,), (1, -k), order),
        order,
        (_rule_rows, ((k,), (1, k), 0)),
        (binomial_power, -k),
    )


def _rule_inverse(source, order: int) -> RiordanArray:
    """The inverse of the array back = (build, param) builds, read off its
    rule (z, a, tail), source = ((z, a, tail), back): an array with d(0) = 1,
    Z-sequence Z and A-sequence A = a, tail, tail, ... has the inverse
    ((A - xZ)/A, x/A) (He & Sprugnoli, 2009).  A = q/m for m = 1 - x if
    there is a tail and m = 1 if not, and q = a m + tail x^len(a); the
    inverse is (num/q, x m/q) with num = q - x Z m, and inverts to back."""
    (z, a, tail), back = source
    m = (1, -1) if tail else (1,)
    q = _times(a, m)
    q[-1] += tail
    num = q + [0] * (len(z) + len(m) - len(q))
    for i, v in enumerate(_times(z, m), 1):
        num[i] -= v
    poly = (tuple(num), m, tuple(q))
    return _named(_rational_series, (*poly, order), order, (_rational_rows, poly), back)


def _times(p, m):
    """p * m as a list, for m = 1 or 1 - x."""
    return [*p] if len(m) == 1 else [u - v for u, v in zip((*p, 0), (0, *p))]


def _rational_series(num, m, q, order: int):
    """(num/q, x m/q), rational functions given by their polynomial
    coefficients, expanded to order terms."""
    return series.rational(num, q, order), series.rational((0, *m), q, order)


def _rational_rows(num, m, q, dim):
    """The first dim rows of (num/q, x m/q), for m of at most two terms and
    q of at most three.  Column 0 is num/q and column k is x m/q times column
    k-1, so with c = q[0] the ints U(n, k) = c^(n+1) T(n, k) obey

        U(n,k) = U(n-1,k-1) + m_1 c U(n-2,k-1) - q_1 U(n-1,k) - q_2 c U(n-2,k)

    plus num[n] c^n in column 0.  They are handed out through
    ``series._ratio``, as they are when c = 1.  Each row is one pass over
    the two rows before it, and one more when m has a second term."""
    c, q1, q2 = q + (0,) * (3 - len(q))
    m1, q2 = c * (*m, 0)[1], c * q2
    prev2, prev, rows = [], [], []
    for n in range(dim):
        row = [num[n] * c**n if n < len(num) else 0] + prev
        if m1:
            row = [x + m1 * w for x, w in zip(row, [0] + prev2 + [0])]
        row = [x - q1 * u - q2 * v for x, u, v in zip(row, prev + [0], prev2 + [0, 0])]
        prev2, prev = prev, row
        rows.append(row)
    if c == 1:
        return rows
    return [[_ratio(u, c ** (n + 1)) for u in row] for n, row in enumerate(rows)]


def _check_central(r: int, order: int):
    """The parameter checks of the arrays built on ``_central_root``."""
    if r < 1:
        raise UnsupportedParameter("r must be at least 1")
    if order < 1:
        raise InsufficientOrder("order must be at least 1")


def _central_root(r: int, order: int):
    """s = sqrt(1-2(r+1)x+(r-1)^2 x^2) and h = (1-(r+1)x-s)/(2rx), both to
    order terms: the one square root behind ``l_central``, ``l_catalan``
    and ``a_p``.  h loses a term to the division by x, so s is taken to
    order + 1 terms first."""
    s = series.poly([1, -2 * (r + 1), (r - 1) ** 2], order + 1).sqrt()
    h = (series.poly([1, -(r + 1)], order + 1) - s).div_x(1) / (2 * r)
    return s.truncate(order), h


@lru_cache(maxsize=None)
def l_central(r: int, order: int) -> RiordanArray:
    """Array whose column 0 is the central-coefficient family for r:
    (1/s, h) with s and h as in ``_central_root``, the inverse of
    ((1-rx^2)/(1+(r+1)x+rx^2), x/(1+(r+1)x+rx^2)).  Its production
    matrix is tridiagonal: Z = (r+1, 2r), A = (1, r+1, r).
    """
    _check_central(r, order)
    rule = ((r + 1, 2 * r), (1, r + 1, r), 0)
    inverse = (_rule_inverse, (rule, (l_central, r)))
    return _named(_central_series, (r, order), order, (_rule_rows, rule), inverse)


def _central_series(r: int, order: int):
    s, h = _central_root(r, order)
    return 1 / s, h


def coefficient_array(r: int, order: int) -> RiordanArray:
    """(1/(1+rx), x/(1+(r+1)x+rx^2)), the inverse of ``l_catalan``: its
    rows are the characteristic coefficients of the generalized Catalan
    family."""
    return l_catalan(r, order).inverse()


@lru_cache(maxsize=None)
def l_catalan(r: int, order: int) -> RiordanArray:
    """Array whose column 0 is the generalized Catalan family for r:
    (1 + rh, h) with h as in ``_central_root``, the inverse of
    ``coefficient_array(r)``.  Its production matrix is tridiagonal:
    Z = (r, r), A = (1, r+1, r)."""
    _check_central(r, order)
    rule = ((r, r), (1, r + 1, r), 0)
    inverse = (_rule_inverse, (rule, (l_catalan, r)))
    return _named(_catalan_series, (r, order), order, (_rule_rows, rule), inverse)


def _catalan_series(r: int, order: int):
    _, h = _central_root(r, order)
    return series.one(order) + r * h, h


@lru_cache(maxsize=None)
def a_p(r: int, order: int) -> RiordanArray:
    """The array (1, (1+(r-1)x-s)/2) with s as in ``_central_root``: the
    inverse of (1, x(1-x)/(r-(r-1)x)), generated by
    ``production.p_catalan(r)``, whose rule is Z = (0), A = (r, 1, 1, ...).
    """
    _check_central(r, order)
    rule = ((0,), (r,), 1)
    inverse = (_rule_inverse, (rule, (a_p, r)))
    return _named(_ap_series, (r, order), order, (_rule_rows, rule), inverse)


def _ap_series(r: int, order: int):
    s, _ = _central_root(r, order)
    return series.one(order), (series.poly([1, r - 1], order) - s) / 2


def central_l_entry(n: int, k: int, r: int, method: str = "sumA") -> int:
    """General term of the central array by one of two double sums.

    ``sumA``: sum_j C(n, j) C(n, j-k) r^(j-k)
    ``sumB``: sum_j C(n, j) C(j, n-k-j) r^(n-k-j) (r+1)^(2j-(n-k))
    """
    if k < 0 or k > n:
        raise IndexOutOfTriangle(f"entry ({n}, {k}) lies outside the triangle")
    if method == "sumA":
        return sum(comb(n, j) * comb(n, j - k) * r ** (j - k) for j in range(k, n + 1))
    if method == "sumB":
        total = 0
        for j in range(n + 1):
            m = n - k - j
            if 0 <= m <= j:
                total += comb(n, j) * comb(j, m) * r**m * (r + 1) ** (2 * j - (n - k))
        return total
    raise ValueError(f"unknown method {method!r}")


def egf_column_coeff(n: int, k: int, r: int) -> int:
    """Entry (n, k) of the central array read off its column e.g.f.:
    n! [x^n] e^((r+1)x) * sum_j r^j x^(2j+k) / (j! (j+k)!)."""
    if k < 0 or k > n:
        raise IndexOutOfTriangle(f"entry ({n}, {k}) lies outside the triangle")
    total = 0
    j = 0
    while 2 * j + k <= n:
        total += (
            comb(n, j)
            * comb(n - j, j + k)
            * r**j
            * (r + 1) ** (n - 2 * j - k)
        )
        j += 1
    return total
