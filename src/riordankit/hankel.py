"""Hankel matrices, exact LDL^T, and the Hankel transform.

The Hankel transform of a sequence is the sequence of determinants of its
leading Hankel blocks.  One O(n^2) pass over the sequence as a moment
sequence, Chebyshev's algorithm carried through vanishing minors (Han's
H-fraction), gives every determinant, zeros included, the LDL^T factors
of every Hankel matrix with nonzero leading minors, and the monic
orthogonal polynomials.  The pass runs on int numerators over one
denominator per row, in the layout of FLINT's ``fmpq_poly``, and holds
two rows: each reader takes them as they come and stops where it stops.
The default ``spot`` transform certifies them in O(n^2) mod a 61-bit
prime, and falls back to the pivots of one swap-free Bareiss pass
(``linalg._pivots``), the independent exact route whose pivots are the
leading minors, when the prime divides a pivot or a denominator.  Other
symmetric matrices are factored by that Bareiss pass too, and the
per-order ``bareiss_det`` stays public as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import gcd
from operator import mul

from . import riordan
from .errors import CrossCheckFailed, InsufficientTerms, SingularLeadingMinor
from .linalg import _pivots, as_int, bareiss_det, mat_mul, pad_square, transpose
from .series import _integer_row, _normal, _ratio

__all__ = [
    "hankel_matrix",
    "bareiss_det",
    "ldl",
    "LDLDecomp",
    "hankel_transform",
    "binomial_transform",
]


def hankel_matrix(a, m: int):
    """The m x m Hankel matrix [a_(i+j)]; needs 2m-1 terms."""
    if m < 1:
        raise ValueError("matrix dimension must be at least 1")
    if len(a) < 2 * m - 1:
        raise InsufficientTerms(f"need {2 * m - 1} terms for a {m} x {m} Hankel matrix")
    return [list(a[i : i + m]) for i in range(m)]


class LDLDecomp:
    """Unit lower-triangular factor (ragged rows) and diagonal of H = L D L^T.

    Entries of L are ints where the value is an integer and Fractions
    otherwise; D holds Fractions.
    """

    __slots__ = ("l", "d")

    def __init__(self, l, d):
        self.l = l
        self.d = d

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.l, self.d) == (other.l, other.d)

    def __repr__(self):
        return f"LDLDecomp(l={self.l!r}, d={self.d!r})"

    def reconstruct(self):
        """Multiply the factors back into a full square matrix: (L D) L^T."""
        l = pad_square(self.l)
        ld = [[v * dk for v, dk in zip(row, self.d)] for row in l]
        return mat_mul(ld, transpose(l))


def _chebyshev(a):
    """Chebyshev's algorithm on the terms a_0..a_(N-1) read as moments,
    carried through vanishing leading minors as Han's H-fraction.

    The monic orthogonal polynomial pi_s of the moment functional
    x^l -> a_l exists at the regular indices s_0 = 0 < s_1 < ..., where
    the Hankel minor H_s is nonzero.  Row j holds sigma_l = <pi_(s_j), x^l>,
    l = s_j..N-1-s_j, as (numerators, den): sigma_(s_j+i) is
    ``num[i] / den``, den > 0, one gcd taken out.  With no vanishing minor,
    s_j = j, num[0] / den is the LDL^T diagonal entry D[j] of every Hankel
    matrix of the sequence and num[i] / num[0] its unit-factor entry
    L[j+i][j].

    Let row j = N/D have k leading zeros and first nonzero entry c = N[k],
    and row j-1 = P/E have p = P[k'].  Then s_(j+1) = s_j + k + 1,
    H_(s_(j+1)) = H_(s_j) (-1)^(k(k+1)/2) (c/D)^(k+1), the orders in
    between vanish, and with M = p c^(k+1)

        D M pi_(s_(j+1)) = D Q(x) pi_(s_j) - c^(k+2) E pi_(s_(j-1)),

    Q of degree k+1 with leading coefficient M and lower ones from the
    window equations at l = s_j..s_j+k, each by an exact division by c.
    Row j+1 is the same integer combination of N and P over D M (E
    cancels); a row (1, 0, 0, ...) over 1 stands before row 0.  With k = 0
    this is the J-fraction step pi_(j+1) = (x - alpha_j) pi_j - beta_j
    pi_(j-1).  Gautschi, *Orthogonal Polynomials* (2004), 2.1.7; Han,
    *Adv. Math.* 303 (2016).

    The J-fraction step needs no window solve: Q = (q0, q1) with
    q1 = p c, q0 = c P[k'+1] - p N[1] and g = c^2.  The row update is
    N[i+2] q1 + N[i+1] q0 - P[k'+i+2] g, without the multiplication by q1
    when q1 = 1, and ``series._normal`` takes out the content of the new
    row over D q1.

    Yields (row j, step j), step j = (Q, g, D, E) as ints, where Q and
    g = c^(k+2) have their content, gcd(g, *Q), taken out before the row
    update.  For a J-fraction with integer alpha_j and beta_j, such as the
    Catalan and central families, the step is then
    ((-alpha_j, 1), beta_j, 1, 1), so q1 = 1 on every step.  The pass
    ends when the terms no longer determine a step (N - 2 s_j < 2k + 2;
    the step is then None) or the next row would be empty.  It holds two
    rows and reads the one it yielded again, so a reader must not change
    it; a reader that fails at the first vanishing minor stops pulling at
    the first row with a leading zero, whose step is the first with
    len(Q) > 2.
    """
    num, den = _integer_row(a)
    low, low_den, kp = [1] + [0] * len(num), 1, 0
    while True:
        k = _leading_zeros(num)
        if len(num) < 2 * k + 2:
            yield (num, den), None
            return
        c = num[k]
        if k:
            lead = c ** (k + 1)
            q = [0] * (k + 1) + [low[kp] * lead]
            for t in range(k + 1):
                known = sum(q[i] * num[t + i] for i in range(k + 1 - t, k + 2))
                q[k - t] = lead * low[kp + 1 + t] - known // c
            gamma = lead * c
        else:
            p = low[kp]
            q, gamma = [c * low[kp + 1] - p * num[1], p * c], c * c
        g = gcd(gamma, *q)
        if g != 1:
            q, gamma = [x // g for x in q], gamma // g
        yield (num, den), (q, gamma, den, low_den)
        if len(num) < 2 * k + 3:
            return
        q0, q1 = q[-2], q[-1]
        terms = zip(num[2 * k + 2 :], num[2 * k + 1 :], low[k + kp + 2 :])
        if q1 == 1:
            nxt = [x + q0 * y - gamma * z for x, y, z in terms]
        else:
            nxt = [q1 * x + q0 * y - gamma * z for x, y, z in terms]
        for i in range(k):
            if q[i]:
                nxt = [v + q[i] * x for v, x in zip(nxt, num[k + 1 + i :])]
        low, low_den, kp = num, den, k
        num, den = _normal(nxt, den * q1)


def _leading_zeros(num):
    k = 0
    while k < len(num) and num[k] == 0:
        k += 1
    return k


def ldl(h) -> LDLDecomp:
    """Exact LDL^T of a symmetric matrix with nonzero leading minors.

    D[k] is the ratio of consecutive leading principal minors, so a zero
    D[k] pinpoints the first vanishing minor; that raises
    SingularLeadingMinor(k) rather than silently producing zeros.  A Hankel
    matrix, told apart by comparing each row with a slice of its first row
    and last column, is factored by the moment pass over those terms, any
    other symmetric matrix by one Bareiss pass (``_ldl_dense``).  A matrix
    that is not square raises ValueError.
    """
    n = len(h)
    if any(len(row) != n for row in h):
        raise ValueError("matrix is not square")
    terms = [*h[0], *(row[-1] for row in h[1:])] if h else []
    if not all(list(row) == terms[i : i + n] for i, row in enumerate(h)):
        for i in range(n):
            for j in range(i):
                if h[i][j] != h[j][i]:
                    raise ValueError("matrix is not symmetric")
        return _ldl_dense(h)
    rows = []
    for (num, den), _ in islice(_chebyshev(terms), n):
        if num[0] == 0:
            raise SingularLeadingMinor(len(rows))
        rows.append((num, den))
    d = [Fraction(num[0], den) for num, den in rows]
    # L[i][k] = num_k[i-k] / num_k[0].
    l = [
        [_ratio(num[i - k], num[0]) for k, (num, _) in enumerate(rows[:i])] + [1]
        for i in range(n)
    ]
    return LDLDecomp(l=l, d=d)


def _ldl_dense(h) -> LDLDecomp:
    """LDL^T of a square symmetric matrix off one swap-free Bareiss pass
    (``linalg._pivots``), O(n^3).  Pivot k is the leading minor H_(k+1),
    and the pass stops at the first vanishing one.  Below pivot k it
    leaves det h[{0..k-1, i}, {0..k}] in row i, so
    L[i][k] = m[i][k] / m[k][k] and D[k] = H_(k+1) / H_k."""
    m = [list(row) for row in h]
    pivots = _pivots(m)
    if 0 in pivots:
        raise SingularLeadingMinor(len(pivots) - 1)
    d = [Fraction(p, q) for p, q in zip(pivots, [1] + pivots)]
    # Not ``series._ratio``, which takes ints: the pivots of a Fraction
    # matrix are Fractions, and every integral entry of L must be an int.
    l = [[Fraction(v, p) for v, p in zip(row[:i], pivots)] for i, row in enumerate(m)]
    l = [[v.numerator if v.denominator == 1 else v for v in row] + [1] for row in l]
    return LDLDecomp(l=l, d=d)


def hankel_transform(a, count: int, method: str = "spot"):
    """First ``count`` Hankel determinants of the sequence, folded off the
    rows of the moment pass (``_chebyshev``) as they arrive.

    ``bareiss`` reads on through vanishing minors and reports them as
    values.  ``ldl`` raises SingularLeadingMinor at the first one, and so
    do ``both`` and the default ``spot``, which are the same: the pass
    with an O(n^2) certificate mod the prime 2^61 - 1 (``_Certificate``).
    Should a residue it divides by vanish mod that prime, the determinants
    are checked against the pivots of one exact Bareiss pass, the leading
    minors.  Integer terms give integers (a proper fraction raises
    IntegralityViolation); other exact terms give Fractions.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if len(a) < 2 * count - 1:
        raise InsufficientTerms(
            f"need {2 * count - 1} terms for {count} Hankel determinants"
        )
    if method not in ("ldl", "bareiss", "both", "spot"):
        raise ValueError(f"unknown method {method!r}")
    terms = a[: 2 * count - 1]
    check = _Certificate(terms, count) if method in ("both", "spot") else None
    values, acc = [], 1
    for (num, den), _ in _chebyshev(terms):
        k = _leading_zeros(num)
        if k and method != "bareiss":
            raise SingularLeadingMinor(len(values))
        values += [0] * k
        if len(num) < 2 * k + 1:
            # Every minor the terms reach has a zero first row.
            break
        # H_(s+k+1) = H_s (-1)^(k(k+1)/2) (c/den)^(k+1), while an int (as
        # every minor of integer terms is) by one exact division, no gcd.
        c = num[k] ** (k + 1) * (-1) ** (k * (k + 1) // 2) if k else num[k]
        if type(acc) is int:
            acc = _ratio(acc * c, den ** (k + 1))
        else:
            acc *= Fraction(c, den ** (k + 1))
        values.append(acc)
        if check:
            check.add(num, den)
    values = (values + [0] * count)[:count]
    if check and not check.holds():
        # The pivots end at the first zero one, which no value matches.
        pivots = _pivots(hankel_matrix(a, count))
        for n, (pivot, value) in enumerate(zip(pivots, values)):
            if pivot != value:
                raise CrossCheckFailed(
                    f"determinant paths disagree at order {n}: "
                    f"{value} (LDL) vs {pivot} (Bareiss)"
                )
    if all(isinstance(v, int) for v in terms):
        return [as_int(v) for v in values]
    return [Fraction(v) for v in values]


# The certificate works mod the Mersenne prime 2^61 - 1 with the vector
# v_j = _BASE^j; a fixed base keeps every result and message reproducible.
# It inverts the units of _BATCH rows at a time.
_PRIME = (1 << 61) - 1
_BASE = 0x9E3779B97F4A7C15 % _PRIME
_BASE_INVERSE = pow(_BASE, -1, _PRIME)
_BATCH = 16


def _times(x, y):
    return x * y % _PRIME


def _residue(x):
    """x mod _PRIME for an exact number; None if its denominator is 0 there."""
    x = Fraction(x)
    unit = x.denominator % _PRIME
    return x.numerator * pow(unit, -1, _PRIME) % _PRIME if unit else None


def _hankel_times(terms, v):
    """H v mod _PRIME for the Hankel matrix of the terms and v_j = _BASE^j,
    or None.

    Row i+1 of H is row i shifted left by one, so
    (H v)_(i+1) = ((H v)_i - a_i) / _BASE + a_(i+n) _BASE^(n-1): O(n).
    """
    a = [x % _PRIME if type(x) is int else _residue(x) for x in terms]
    if None in a:
        return None
    n, top = len(v), v[-1]
    hv = [sum(map(mul, a, v)) % _PRIME]
    for i in range(n - 1):
        hv.append(((hv[i] - a[i]) * _BASE_INVERSE + a[i + n] * top) % _PRIME)
    return hv


class _Certificate:
    """Freivalds' check of the first n rows of the moment pass, folded as
    ``add`` takes them: with U[k][l] = sigma_(k,l) (k <= l < n) and D the
    diagonal of U, H = U^T D^-1 U, so H v and U^T (D^-1 (U v)) must agree
    mod the prime, which certifies the pivots D and so the determinants.
    After row n-1, ``holds`` raises CrossCheckFailed at a disagreement, or
    returns False, having checked nothing, if a residue that must be a
    unit (a row denominator, a pivot numerator, a denominator of a term)
    is 0 mod the prime.  (D^-1 U v)_k is sum_j num_k[j] v_(k+j) / num_k[0],
    and U^T adds it times num_k[j] / den_k to entry k+j; only each dot
    product is reduced mod the prime.  Rows are folded _BATCH at a time,
    their units inverted by one inverse of their product (Montgomery's
    trick: the inverse of unit j is prefix_j / prefix_(j+1)).
    """

    def __init__(self, terms, n):
        self.terms, self.udu, self.rows, self.width = terms, [0] * n, [], n
        self.v = self.hv = None  # made at the first fold

    def add(self, num, den):
        self.rows.append((num[: self.width], den))  # row k up to column n-1
        self.width -= 1
        if len(self.rows) == _BATCH:
            self._fold()

    def _fold(self):
        rows, self.rows = self.rows, []
        if self.v is None:
            self.v = list(accumulate(repeat(_BASE, len(self.udu) - 1), _times, initial=1))
            self.hv = _hankel_times(self.terms, self.v)
        units = [num[0] * den % _PRIME for num, den in rows]
        if self.hv is None or 0 in units:
            self.hv = None
            return
        v, udu = self.v, self.udu
        prefix = list(accumulate(units, _times, initial=1))
        inverse = pow(prefix[-1], -1, _PRIME)
        for (row, _), unit, before in zip(rows[::-1], units[::-1], prefix[-2::-1]):
            k = len(v) - len(row)
            t = sum(map(mul, row, v[k:])) % _PRIME * inverse * before % _PRIME
            udu[k:] = [u + c * t for u, c in zip(udu[k:], row)]
            inverse = inverse * unit % _PRIME

    def holds(self):
        if self.rows:
            self._fold()
        if self.hv is None:
            return False
        for i, (h, u) in enumerate(zip(self.hv, self.udu)):
            if h != u % _PRIME:
                raise CrossCheckFailed(
                    f"moment pass fails its certificate at row {i}: "
                    "H v != U^T D^-1 U v mod 2^61-1"
                )
        return True


def binomial_transform(a, k: int = 1):
    """Apply the binomial transform k times; negative k applies the inverse.

    That is the action of ``riordan.binomial_power(k)``, whose entry (n, j)
    is C(n, j) k^(n-j): one pass over its stored rows, O(n^2).  All int
    terms give ints, any other terms Fractions, a float read at its exact
    binary value; k = 0 and fewer than two terms return the terms as given.
    """
    a = list(a)
    # An array of order 1 cannot be built: h(x) needs h'(0) != 0.
    if k == 0 or len(a) < 2:
        return a
    out = riordan.binomial_power(k, len(a)).apply(a)
    if all(isinstance(v, int) for v in a):
        return [v.numerator for v in out]
    return out
