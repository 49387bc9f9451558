"""Oracles and rounding bounds shared by the tests of the Salie sums, the
pI Kloosterman sums and the rank-2 sum.

A bound here is derived from the operations a route performs, never
fitted to the errors seen: the tests compare two routes of one exact sum
within the sum of their bounds.
"""

from functools import lru_cache

import numpy as np

from siegelsums import expsums, sp4
from siegelsums.matcore import _xgcd
from siegelsums.petersson import _TALLY_ULPS

EPS = 2.0 ** -52


def tally_bound(terms: int, m: int) -> float:
    """|tally - exact sum| for ``terms`` unit summands tallied mod m.

    Every root is within ``_TALLY_ULPS`` ulps of e(r/m), which moves the
    tally by at most that many ulps of its terms.  The dot product of the
    m counts with the roots rounds its real and its imaginary part each
    by at most gamma_m = m u / (1 - m u), u = 2^-53, times the sum of
    |count * root part| <= terms, in any order of summation (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section
    3.1).  Both parts together: sqrt(2) gamma_m terms < m 2^-52 terms for
    m < 2^40."""
    return (_TALLY_ULPS + m) * EPS * terms


def salie_bound(terms: int, c: int) -> float:
    """|value - H(P, S; c)| for ``expsums.salie`` or ``expsums._salie_grid``
    with ``terms`` = phi(c) c.

    ``salie``'s value is K C G times the offset e(-p2 s2 / (2 c s4)): C a
    sum of R rounded roots mod c, K the integer weight of the closed forms
    and G the tally of the grid factor's phi(g) g terms mod g (G = 1 when
    g = 1), with W = K R phi(g) g <= terms, as a closed-form prime power q
    weighs q on at most phi(q) square roots (at most 2 p^{k/2} <= phi(q)
    for q = p^e, p odd, whatever the power p^k of p in XY).  In ulps
    (2^-52) of W: the roots of C move it by ``_TALLY_ULPS`` and its R - 1
    additions by R; K C rounds once; G errs by ``_TALLY_ULPS`` + g
    (``tally_bound``); the product K C G rounds by at most 2; the offset,
    computed as a root is, errs by ``_TALLY_ULPS`` and its product by 2.
    That is 2 ``_TALLY_ULPS`` + 15 + R + g <= 2 ``_TALLY_ULPS`` + 16 + c,
    as R <= c/g and c/g + g <= c + 1, plus one for the second-order
    terms.  The grid route, the tally of all of c times the offset, errs
    by at most 2 ``_TALLY_ULPS`` + 2 + c ulps of terms, within that."""
    return (2 * _TALLY_ULPS + 17 + c) * EPS * terms


def pI_bound(p: int) -> float:
    """|``expsums._pI_value(q, t, p)`` - K(Q, T; pI)|.

    At p = 2 the value is a tally of 4 terms mod 2.  At odd p it is
    a S_1 + a S_2 + e with |a| <= p, each S(1, n; p) a tally of p - 1 terms
    mod p, and e an integer: 2 p ``tally_bound(p - 1, p)``, plus one
    rounding each of S_1 + S_2, of the product by a and of the sum with
    e.  Each is at most sqrt(2) u times a modulus at most
    2 (p^3 - p^2), as 2 p (p - 1) <= p^3 - p^2 for p >= 3, so the three
    add at most 3 sqrt(2) 2^-52 (p^3 - p^2) < 5 ulps of p^3 - p^2."""
    if p == 2:
        return tally_bound(4, 2)
    return 2 * p * tally_bound(p - 1, p) + 5 * EPS * (p ** 3 - p ** 2)


def factored_bound(p: int, count: int, d: int) -> float:
    """|``kloosterman_factored`` - K(Q, T; p C')| for a C' with ``count``
    cosets and table modulus d = 2 |det C'|.

    The value is the product x y of K_p (``pI_bound``, |K_p| <= p^3 - p^2)
    and the tally y of K_C' (``tally_bound(count, d)``, |K_C'| <= count).
    |x y - K_p K_C'| <= |x - K_p| |y| + |K_p| |y - K_C'|, with |y| < 2 count,
    and the complex product rounds each part by at most gamma_2 times
    |x| |y| < 4 (p^3 - p^2) count, so both parts by at most 2 sqrt(2) u of
    that, below 8 ulps of (p^3 - p^2) count."""
    terms_p = p ** 3 - p ** 2
    return (2 * count * pI_bound(p) + terms_p * tally_bound(count, d)
            + 8 * EPS * terms_p * count)


def closed_histogram(q, t, p: int) -> np.ndarray:
    """The counts of the pI numerators mod an odd prime p, assembled from
    ``expsums._pI_closed_form`` and the memo's rows H_n: a sum_n H_n, plus
    e at residue 0, plus the multiple of (1, ..., 1) that makes the total
    p^3 - p^2."""
    a, ns, e = expsums._pI_closed_form(q, t, p)
    tables = expsums._prime_tables(p)
    hist = np.zeros(p, dtype=np.int64)
    for n in ns:
        hist += a * tables.row(n)
    hist[0] += e
    k, rest = divmod(p ** 3 - p ** 2 - int(hist.sum()), p)
    assert rest == 0
    return hist + k


@lru_cache(maxsize=1)
def _float_columns(p: int) -> np.ndarray:
    return np.ascontiguousarray(sp4._pI_grid(p).T, dtype=float)


@lru_cache(maxsize=1)
def _residues(p: int) -> np.ndarray:
    return (np.arange(3 * p * p) % p).astype(np.uint16)


def grid_part(p: int, start: int, coeffs) -> np.ndarray:
    """The Q part (start 0) or the T part (start 3) of the grid's
    numerators mod p at the coefficients (q1, q2, q4) or (t1, t2, t4), as
    uint16.  With the coefficients reduced mod p the part is an integer
    in [0, 3 (p - 1)^2]: the product runs in floats, in BLAS, exactly,
    and a table reduces it mod p."""
    coeffs = np.array(coeffs, dtype=float) % p
    part = coeffs @ _float_columns(p)[start:start + 3]
    return _residues(p)[part.astype(np.int32)]


def fold_counts(q_part: np.ndarray, t_part: np.ndarray, p: int) -> np.ndarray:
    """The counts mod p of the sums of two parts: each sum is below 2p, so
    one bincount to 2p folds."""
    counts = np.bincount(q_part + t_part, minlength=2 * p)
    return counts[:p] + counts[p:]


@lru_cache(maxsize=2)
def _cached_part(p: int, start: int, coeffs: tuple[int, int, int]):
    return grid_part(p, start, coeffs)


def grid_histogram(q, t, p: int) -> np.ndarray:
    """The counts of the pI numerators mod p, tallied from the grid."""
    return fold_counts(_cached_part(p, 0, (q.t1, q.t2, q.t4)),
                       _cached_part(p, 3, (t.t1, t.t2, t.t4)), p)


def table_histogram(q, t, c) -> np.ndarray:
    """The counts of the coset table of C at (Q, T) mod its modulus."""
    data = sp4.coset_data(c)
    nums = (data.weights @ expsums._form_vector(q, t)) % data.m
    return np.bincount(nums, minlength=data.m)


def joint_pairs(q, t, n: int, c, histogram):
    """The pairs of cosets of n I and C' that ``kloosterman_factored`` ran
    through before it took the product, as (index, weights, m):
    ``histogram`` of K(X Q X^T, T; n I) mod n and the table of C' at
    s^2 Q mod d, the pair (i, j) at i n d + j n^2 mod m = n^2 d, weighted
    by the product of their counts."""
    _, s, tt = _xgcd(n, c.det())
    left = histogram(q.conjugate_right(c.adj().scale(tt)), t, n)
    right = table_histogram(q.scale(s * s), t, c)
    d = len(right)
    m = n * n * d
    index = (np.arange(n)[:, None] * (n * d) + np.arange(d) * (n * n)) % m
    return index.ravel(), np.outer(left, right).ravel(), m


def joint_counts(q, t, n: int, c, histogram) -> np.ndarray:
    """The counts mod n^2 d of ``joint_pairs``: when the factorisation
    holds count for count, ``table_histogram(q, t, c.scale(n))``."""
    index, weights, m = joint_pairs(q, t, n, c, histogram)
    return np.bincount(index, weights=weights, minlength=m)


def joint_tally(q, t, n: int, c):
    """K(Q, T; n C') by the old joint tally of the grid's histogram and
    the table of C', as (value, terms, m)."""
    index, weights, m = joint_pairs(q, t, n, c, grid_histogram)
    return expsums._tally_value(index, m, weights), int(weights.sum()), m


def rank2_bound(pairs, n_terms: int) -> float:
    """|sum of the terms of one route - sum of the other| for two sums of
    ``n_terms`` terms in the same order, given (term_a, term_b, b) per
    term, b a bound on |term_a - term_b|: the sum of the b's, plus the
    rounding of both sums, each part at most gamma_n times the sum of
    |term|, so both parts below n ulps of it."""
    gap = sum(b for _, _, b in pairs)
    size = sum(abs(x) + abs(y) for x, y, _ in pairs)
    return gap + n_terms * EPS * size


def term_bound(k_bound: float, kern: float, det: int, term_a: complex,
               term_b: complex) -> float:
    """|term_a - term_b| for two terms K kern / |det|^{3/2} whose K differ
    by at most ``k_bound``: the kernel factor moves the gap by at most a
    few ulps, and each term rounds its product and its quotient, at most
    sqrt(2) u of its modulus each."""
    return (k_bound * abs(kern) / abs(det) ** 1.5 * (1 + 8 * EPS)
            + 2 * EPS * (abs(term_a) + abs(term_b)))
