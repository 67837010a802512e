"""Hankel matrices, exact LDL^T, and the Hankel transform.

The Hankel transform of a sequence is the sequence of determinants of its
leading Hankel blocks.  One O(n^2) pass over the sequence as a moment
sequence, Chebyshev's algorithm carried through vanishing minors (Han's
H-fraction), gives every determinant, zeros included, the LDL^T factors
of every Hankel matrix with nonzero leading minors, and the monic
orthogonal polynomials.  The pass runs on int numerators over one
denominator per row, in the layout of FLINT's ``fmpq_poly``.  The default
``spot`` transform certifies it in O(n^2) mod a 61-bit prime, and falls
back to the pivots of one fraction-free Bareiss elimination, the
independent exact route, when the prime divides a pivot or a denominator.
A symmetric matrix that is not Hankel is factored off the same Bareiss
pass (``linalg._bareiss_step``).  The per-order ``bareiss_det`` stays
public as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from operator import mul

from .errors import CrossCheckFailed, InsufficientTerms, SingularLeadingMinor
from .linalg import (
    _bareiss_step, _eliminate, as_int, bareiss_det, mat_mul, pad_square, transpose
)
from .series import _integer_row

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
    return [[a[i + j] for j in range(m)] for i in range(m)]


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


def _chebyshev(a, *, stop_at_zero=False):
    """Chebyshev's algorithm on the terms a_0..a_(N-1) read as moments,
    carried through vanishing leading minors as Han's H-fraction.

    The monic orthogonal polynomial pi_s of the moment functional
    x^l -> a_l exists at the regular indices s_0 = 0 < s_1 < ..., where
    the Hankel minor H_s is nonzero.  Row j of ``rows`` holds
    sigma_l = <pi_(s_j), x^l>, l = s_j..N-1-s_j, as (numerators, den):
    sigma_(s_j+i) is ``num[i] / den``, den > 0, one gcd taken out.  With no
    vanishing minor, s_j = j, num[0] / den is the LDL^T diagonal entry D[j]
    of every Hankel matrix of the sequence and num[i] / num[0] its
    unit-factor entry L[j+i][j].

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

    Returns (rows, steps), step j = (Q, g, D, E) as ints, where Q and
    g = c^(k+2) have their content, gcd(g, *Q), taken out before the row
    update: a positive scale that leaves the row unchanged.  For a
    J-fraction with integer alpha_j and beta_j, such as the Catalan and
    central families, the step is then ((-alpha_j, 1), beta_j, 1, 1).  The
    pass ends when the terms no longer determine a step (N - 2 s_j < 2k + 2)
    or the next row would be empty, and with ``stop_at_zero`` right after
    the first row with a leading zero, the first vanishing minor, for
    callers that fail there.
    """
    num, den = _integer_row(a)
    rows, steps = [(num, den)], []
    low, low_den, kp = [1] + [0] * len(num), 1, 0
    while True:
        k = _leading_zeros(num)
        if len(num) < 2 * k + 2 or k and stop_at_zero:
            return rows, steps
        c = num[k]
        lead = c ** (k + 1)
        q = [0] * (k + 1) + [low[kp] * lead]
        for t in range(k + 1):
            known = sum(q[i] * num[t + i] for i in range(k + 1 - t, k + 2))
            q[k - t] = lead * low[kp + 1 + t] - known // c
        gamma = lead * c
        g = gcd(gamma, *q)
        if g != 1:
            q, gamma = [x // g for x in q], gamma // g
        steps.append((q, gamma, den, low_den))
        if len(num) < 2 * k + 3:
            return rows, steps
        nxt = [
            q[-1] * x + q[-2] * y - gamma * z
            for x, y, z in zip(num[2 * k + 2 :], num[2 * k + 1 :], low[k + kp + 2 :])
        ]
        for i in range(k):
            if q[i]:
                nxt = [v + q[i] * x for v, x in zip(nxt, num[k + 1 + i :])]
        scale = den * q[-1]
        g = gcd(scale, *nxt) if scale > 0 else -gcd(scale, *nxt)
        if g != 1:
            nxt, scale = [x // g for x in nxt], scale // g
        low, low_den, kp = num, den, k
        num, den = nxt, scale
        rows.append((num, den))


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
    rows = _chebyshev(terms, stop_at_zero=True)[0][:n]
    for k, (num, _) in enumerate(rows):
        if num[0] == 0:
            raise SingularLeadingMinor(k)
    d = [Fraction(num[0], den) for num, den in rows]
    # Column k of L below the diagonal is num_k[1:] / num_k[0].
    cols = [
        [
            x // num[0] if x % num[0] == 0 else Fraction(x, num[0])
            for x in num[1 : n - k]
        ]
        for k, (num, _) in enumerate(rows)
    ]
    l = [[cols[k][i - k - 1] for k in range(i)] + [1] for i in range(n)]
    return LDLDecomp(l=l, d=d)


def _ldl_dense(h) -> LDLDecomp:
    """LDL^T of a square symmetric matrix off one Bareiss pass, O(n^3).
    Pivot k is the leading minor H_(k+1), zero at a vanishing one, and the
    pass leaves det h[{0..k-1, i}, {0..k}] below it in row i, so
    L[i][k] = m[i][k] / m[k][k] and D[k] = H_(k+1) / H_k."""
    m = [list(row) for row in h]
    prev = 1
    for k in range(len(m)):
        if m[k][k] == 0:
            raise SingularLeadingMinor(k)
        _bareiss_step(m, k, prev)
        prev = m[k][k]
    pivots = [row[k] for k, row in enumerate(m)]
    d = [Fraction(p, q) for p, q in zip(pivots, [1] + pivots)]
    l = [[Fraction(v, p) for v, p in zip(row[:i], pivots)] for i, row in enumerate(m)]
    l = [[v.numerator if v.denominator == 1 else v for v in row] + [1] for row in l]
    return LDLDecomp(l=l, d=d)


def hankel_transform(a, count: int, method: str = "spot"):
    """First ``count`` Hankel determinants of the sequence.

    Every method reads them off the moment pass (``_chebyshev``), which
    runs through vanishing minors; ``bareiss`` is the only method that
    reports them as values.  ``ldl`` raises SingularLeadingMinor at the
    first one, and so do ``both`` and the default ``spot``, which are
    the same: the pass with an O(n^2) certificate mod the prime 2^61 - 1
    (see ``_certify``).  Should a residue the certificate divides by
    vanish mod that prime, the determinants are checked against the pivots
    of one exact Bareiss pass instead, which are the leading minors.
    Integer terms give integers (a proper fraction raises
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
    rows, _ = _chebyshev(terms, stop_at_zero=method != "bareiss")
    values = _minors(rows, count)
    if method != "bareiss" and 0 in values:
        raise SingularLeadingMinor(values.index(0))
    if method in ("both", "spot") and not _certify(terms, rows, count):
        # No leading minor vanishes, so the Bareiss pass never swaps.
        h = hankel_matrix(a, count)
        _eliminate(h, count)
        for n in range(count):
            if h[n][n] != values[n]:
                raise CrossCheckFailed(
                    f"determinant paths disagree at order {n}: "
                    f"{values[n]} (LDL) vs {h[n][n]} (Bareiss)"
                )
    if all(isinstance(v, int) for v in terms):
        return [as_int(v) for v in values]
    return values


def _minors(rows, count):
    """H_1..H_count off the rows of the moment pass, zeros included."""
    values, acc = [], Fraction(1)
    for num, den in rows:
        k = _leading_zeros(num)
        values += [Fraction(0)] * k
        if len(num) < 2 * k + 1:
            # Every minor the terms reach has a zero first row.
            break
        c = Fraction(num[k], den)
        acc *= c ** (k + 1) * (-1) ** (k * (k + 1) // 2) if k else c
        values.append(acc)
    return (values + [Fraction(0)] * count)[:count]


# The certificate works mod the Mersenne prime 2^61 - 1 with the vector
# v_j = _BASE^j; a fixed base keeps every result and message reproducible.
_PRIME = (1 << 61) - 1
_BASE = 0x9E3779B97F4A7C15 % _PRIME
_BASE_INVERSE = pow(_BASE, -1, _PRIME)


def _residue(x):
    """x mod _PRIME for an exact number; None if its denominator is 0 there."""
    if isinstance(x, int):
        return x % _PRIME
    x = Fraction(x)
    unit = x.denominator % _PRIME
    return x.numerator * pow(unit, -1, _PRIME) % _PRIME if unit else None


def _hankel_times(terms, v):
    """H v mod _PRIME for the Hankel matrix of the terms and v_j = _BASE^j,
    or None.

    Row i+1 of H is row i shifted left by one, so
    (H v)_(i+1) = ((H v)_i - a_i) / _BASE + a_(i+n) _BASE^(n-1): O(n).
    """
    a = [_residue(x) for x in terms]
    if None in a:
        return None
    n, top = len(v), v[-1]
    hv = [sum(map(mul, a, v)) % _PRIME]
    for i in range(n - 1):
        hv.append(((hv[i] - a[i]) * _BASE_INVERSE + a[i + n] * top) % _PRIME)
    return hv


def _certify(terms, sigma, n):
    """Freivalds' check of the first n rows of the moment pass, in O(n^2).

    With U[k][l] = sigma_(k,l) (k <= l < n) and D the diagonal of U, the
    Hankel matrix is H = U^T D^-1 U, so H v and U^T (D^-1 (U v)) must
    agree mod the prime.  That certifies the pivots D, whose partial
    products are the determinants.  A disagreement raises CrossCheckFailed.
    Returns False, having checked nothing, when a residue that must be a
    unit (a row denominator, a pivot numerator, a denominator of a term)
    is 0 mod the prime.
    """
    v = [pow(_BASE, j, _PRIME) for j in range(n)]
    hv = _hankel_times(terms, v)
    rows = [[c % _PRIME for c in num[: n - k]] for k, (num, _) in enumerate(sigma[:n])]
    dens = [den % _PRIME for _, den in sigma[:n]]
    if hv is None or 0 in dens or any(row[0] == 0 for row in rows):
        return False
    # (D^-1 U v)_k is sum_j num_k[j] v_(k+j) / num_k[0], and U^T adds it
    # times num_k[j] / den_k to entry k+j.
    udu = [0] * n
    for k, row in enumerate(rows):
        t = sum(map(mul, row, v[k:])) * pow(row[0] * dens[k], -1, _PRIME) % _PRIME
        udu[k:] = [u + c * t for u, c in zip(udu[k:], row)]
    for i in range(n):
        if hv[i] != udu[i] % _PRIME:
            raise CrossCheckFailed(
                f"moment pass fails its certificate at row {i}: "
                "H v != U^T D^-1 U v mod 2^61-1"
            )
    return True


def binomial_transform(a, k: int = 1):
    """Apply the binomial transform k times; negative k applies the inverse.

    One forward step maps a to b_n = sum_j C(n, j) a_j; the inverse step
    carries the alternating sign (-1)^(n-j).
    """
    out = list(a)
    for _ in range(abs(k)):
        if k > 0:
            out = [
                sum(comb(n, j) * out[j] for j in range(n + 1))
                for n in range(len(out))
            ]
        else:
            out = [
                sum((-1) ** (n - j) * comb(n, j) * out[j] for j in range(n + 1))
                for n in range(len(out))
            ]
    return out
