"""Real Dirichlet characters via the Kronecker symbol, their Dirichlet
coefficients, and numeric L-values.

L(s, chi_q) is evaluated through the Hurwitz-zeta decomposition
L(s, chi) = m^{-s} sum_{a mod m} chi(a) zeta(s, a/m) with Euler-Maclaurin
evaluation of the Hurwitz zeta on an outer grid u = s_i + t_j, the 1-D and
scalar functions being its t = [0] case.  As x^{-u} = x^{-s_i} x^{-t_j},
the direct terms over the N phi pairs (n, a) of a term index n < N and a
class with chi(a) != 0 are (len(s) x 64)(64 x len(t)) matrix products, 64
pairs at a time, and the 13 tail terms of each block of 64 classes are one
batched product.  On the 33 nodes that the main term's Taylor coefficients
are read from, N = 9, so a character with phi = 72 classes (q = -148) takes
11 direct-term products and 2 tail products.
The classes and values of chi_q are memoized per q (_character).

The number N of direct terms is set per call from the remainder bound of
F. Johansson (Numer. Algorithms 69 (2015)) after the 12 Bernoulli terms:
the smallest N with 4 |(u)_24| / (2 pi)^24 N^{-(Re u + 23)} / (Re u + 23)
below 1e-17, taken at the grid's largest |u| and smallest Re u.  That is
N = 9 on the main-term residue's Taylor circle |u - 1| = 1/2, 8 on the
circles |u - 1| = 0.16 and 0.08 and the grid |u - 1| <= 0.24 of its
tests' contour oracle, 18 at u = 1/2 + 12i, 93 at 1/2 + 100i and 880 at
1/2 + 1000i.  Where N would pass MAX_DIRECT_TERMS (|Im u| above about
1.04e5 on the critical line, or Re u <= -23) the call raises
ArithmeticError, and so does any point with Re u < MIN_RE_U = -1/2:
there the direct terms (n + a/m)^{-u} grow with n and their sum rounds
away the value (zeta(-10) would read -3.4e7).  A non-finite point raises
ValueError.

The singular part w^{1-u}/(u - 1), w = N + a/m, is a matrix product too
away from u = 1: the product gives sum_a chi(a) w_a^{1-u}, and that sum
less sum_a chi(a) is divided by u - 1.  Its cancellation costs a factor of
about 1/(|u - 1| log w) in rounding.  A grid with a point within 1/16 of
u = 1 gets N >= 8, so only the points with |u - 1| < 1/16 (a factor of at
most 16/log 8 ~ 7.7) sum the singular part pointwise, one expm1 call per
class and point.  The relative error is ~3e-15 on the residue's circle,
through s = 1 for non-principal characters.  On the critical line the phase
of each term rounds with |Im s| log n, so there it is ~1e-13 at
|Im s| = 100 and ~1e-11 at 1e4.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .matcore import kronecker, prime_factors


class PoleError(ZeroDivisionError):
    """Evaluation at the pole of the Riemann zeta function."""


# Bernoulli numbers B_2 .. B_24 for the Euler-Maclaurin correction and
# Stirling's series (log_gamma)
_BERNOULLI = [
    1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
    7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
    854513.0 / 138, -236364091.0 / 2730,
]
# Stirling's coefficients B_2m / (2m (2m - 1)), m = 1 .. 12
_STIRLING = [b / ((2 * i + 2) * (2 * i + 1)) for i, b in enumerate(_BERNOULLI)]
# log_gamma shifts its argument to Re z >= _STIRLING_MIN_RE
_STIRLING_MIN_RE = 10.0
# Euler-Maclaurin remainder allowed per class (_em_terms), far below the
# rounding of the class sums
_EM_TARGET = 1e-17
# Largest number of direct terms _em_terms returns, reached at |Im u| ~ 1.04e5
# on the critical line.  A scalar dirichlet_l(s, 5) there takes 0.1 s on two
# vCPUs (4e5 pairs (n, class), _CLASS_BLOCK to a product), and the time grows
# with the number of classes phi: 1.7 s at q = -148, phi = 72.
MAX_DIRECT_TERMS = 100_000
# Smallest Re u that _hurwitz_grid accepts.  At Re u = -0.47 the
# functional equation still holds to 1e-13.
MIN_RE_U = -0.5
# (n, class) pairs per direct-term product and classes per tail product of
# _hurwitz_grid, so that each factor has at most 64 max(len(s), len(t))
# entries: 34 KB on the 33 Taylor-circle nodes that petersson._taylor reads
_CLASS_BLOCK = 64
# entries (256 KB) of a tail block's factor and product in _hurwitz_grid,
# which take as many t-columns as keep both within it, at least one: all of a
# 1-D call, 9 columns of the tests' 128 x 128 grids
_TAIL_ENTRIES = 2 ** 14
# |u - 1| below which the singular part is summed pointwise (_hurwitz_grid)
_SINGULAR_DELTA = 1.0 / 16
_TWO_M = 2 * len(_BERNOULLI)
# B_{2i+2} / (2i+2)!, i < 12, the Euler-Maclaurin Bernoulli weights
_BERNOULLI_SCALE = np.array([b / math.factorial(2 * i + 2)
                             for i, b in enumerate(_BERNOULLI)])
# tail terms per class: w^{-u} / 2 and the twelve Bernoulli terms
_EM_TAIL = 1 + len(_BERNOULLI)


def _em_log_bound(w: float, absu: float, sigma: float) -> float:
    """log of Johansson's bound on the Euler-Maclaurin remainder of
    zeta(u, alpha) after the direct terms n < N and the _TWO_M / 2 Bernoulli
    terms, with w = N + alpha, |u| <= absu and Re u >= sigma > 1 - _TWO_M:
    4 (absu)_24 / (2 pi)^24 w^{-(sigma + 23)} / (sigma + 23), as
    |(u)_24| <= (|u|)_24 (F. Johansson, Rigorous high-precision computation
    of the Hurwitz zeta function and its derivatives, Numer. Algorithms 69
    (2015))."""
    e = sigma + _TWO_M - 1
    with np.errstate(divide="ignore"):
        log_poch = float(np.log(absu + np.arange(_TWO_M)).sum())
    return (math.log(4 / e) + log_poch - _TWO_M * math.log(2 * math.pi)
            - e * math.log(w))


def _em_terms(u: np.ndarray) -> int:
    """The smallest N >= 1 whose _em_log_bound, taken at w = N (alpha > 0)
    and the grid's worst point (largest |u|, smallest Re u), is below
    _EM_TARGET.  Raises ArithmeticError when that N exceeds
    MAX_DIRECT_TERMS."""
    absu, sigma = float(np.abs(u).max()), float(u.real.min())
    e = sigma + _TWO_M - 1
    if e > 0:
        # _em_log_bound(w) = log target solved for log w, clamped below so
        # that exp cannot overflow
        log_w = (_em_log_bound(1.0, absu, sigma) - math.log(_EM_TARGET)) / e
        n = math.ceil(math.exp(min(log_w, math.log(MAX_DIRECT_TERMS) + 1)))
        if n <= MAX_DIRECT_TERMS:
            return max(1, n)
    raise ArithmeticError(
        f"Euler-Maclaurin needs more than {MAX_DIRECT_TERMS} terms at "
        f"|Im u| = {float(np.abs(u.imag).max()):.3g}, Re u = {sigma:.3g}: "
        "outside the range of this evaluator")


def _hurwitz_grid(s: np.ndarray, t: np.ndarray, alphas: np.ndarray,
                  coeffs: np.ndarray) -> np.ndarray:
    """sum_a c_a zeta(s_i + t_j, alpha_a) on the outer grid s x t, by
    Euler-Maclaurin after N = _em_terms(u) direct terms.  Raises ValueError
    for a non-finite point, ArithmeticError when N would exceed
    MAX_DIRECT_TERMS or a point has Re u < MIN_RE_U, and PoleError when
    sum_a c_a != 0 and a point is within 1e-14 of u = 1.

    The direct terms c_a (n + alpha_a)^{-s_i} (n + alpha_a)^{-t_j} run over
    the N phi pairs (n, a), n-major, _CLASS_BLOCK pairs at a time.  Each
    block takes its logs log(n + alpha_a) from its pair indices and makes one
    exp pass on each side and one matrix product, so memory stays
    O(_CLASS_BLOCK (len(s) + len(t))) however large N phi is (10^8 at
    MAX_DIRECT_TERMS and phi = 1000).  A 1-D call (t = [0]) still makes the
    t-side exp of each block, _CLASS_BLOCK ones against _CLASS_BLOCK len(s)
    exps on the s-side.

    The 13 tail terms of a class, c_a w_a^{-u} / 2 and the twelve Bernoulli
    terms (B_{2i+2} / (2i+2)!) (u)_{2i+1} c_a w_a^{-u-2i-1}, w = N + alpha,
    are one batched product per block of _CLASS_BLOCK classes: the
    (term, t_j, class) factor c_a w_a^{-2i-1} w_a^{-t_j} times the
    (class, s_i) factor w_a^{-s_i}, over as many t-columns at a time as keep
    its terms x points within _TAIL_ENTRIES (all of a 1-D call).  The
    products are then weighted by (B_{2i+2} / (2i+2)!) (u)_{2i+1}, built
    once per call as one running product over i.

    The singular part w^{1-u}/(u-1) is split as (w^{1-u} - 1)/(u - 1) +
    1/(u - 1).  As w^{1-u} = w^{1-s_i} w^{-t_j}, sum_a c_a w_a^{1-u} is one
    more product per class block (its s-factor is exp((1 - s_i) log w),
    whose exponent rounds with |1 - s_i|), and the first piece is that sum
    less sum_a c_a, over u - 1.  The difference cancels: its rounding
    exceeds that of the pointwise sum_a c_a expm1((1 - u) log w_a)/(u - 1)
    by a factor of about 1/(|u - 1| log w).  A grid with a point within
    _SINGULAR_DELTA = 1/16 of u = 1 gets N >= 8 from _em_terms, so
    log w > log 8, and only the points with |u - 1| < 1/16, where that
    factor would pass 16/log 8 ~ 7.7 (three bits), take the pointwise form:
    one expm1 pass per class, with its limit -sum_a c_a log w_a at u = 1,
    so the result is continuous through u = 1.  The main-term residue's
    circle |u - 1| = 1/2 never takes it.
    """
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise ValueError("L-values need finite points")
    u = s[:, None] + t[None, :]
    n_terms = _em_terms(u)
    sigma = float(u.real.min())
    if sigma < MIN_RE_U:
        raise ArithmeticError(
            f"Re u = {sigma:.3g} is below {MIN_RE_U}: the direct sum of the "
            "growing terms (n + alpha)^(-u) loses the value to rounding")

    total = np.zeros_like(u)
    phi = len(alphas)
    pairs = n_terms * phi
    for lo in range(0, pairs, _CLASS_BLOCK):
        n, a = np.divmod(np.arange(lo, min(lo + _CLASS_BLOCK, pairs)), phi)
        lx = np.log(n + alphas[a])
        xs, xt = np.multiply.outer(-s, lx), np.multiply.outer(lx, -t)
        np.exp(xs, out=xs)
        np.exp(xt, out=xt)
        xt *= coeffs[a, None]
        total += xs @ xt

    # (u)_{2i+1} B_{2i+2} / (2i+2)!, i < 12, indexed (i, t_j, s_i) like the
    # tail products: one running product of
    # (u + 2j - 1)(u + 2j) = u^2 + (4j - 1) u + (2j - 1) 2j
    j = np.arange(1, len(_BERNOULLI))[:, None, None]
    poch = np.empty((len(_BERNOULLI), len(t), len(s)), dtype=complex)
    poch[:] = u.T
    poch[1:] += 4.0 * j - 1
    poch[1:] *= u.T
    poch[1:] += (2.0 * j - 1) * (2 * j)
    for i in range(1, len(_BERNOULLI)):
        poch[i] *= poch[i - 1]
    poch *= _BERNOULLI_SCALE[:, None, None]

    sing = np.zeros_like(u)   # sum_a c_a w_a^{1-u}
    cols = max(1, _TAIL_ENTRIES // (_EM_TAIL * max(len(s), _CLASS_BLOCK)))
    for lo in range(0, phi, _CLASS_BLOCK):
        alpha, c = alphas[lo:lo + _CLASS_BLOCK], coeffs[lo:lo + _CLASS_BLOCK]
        w = n_terms + alpha
        lw = np.log(w)
        wt = np.exp(np.multiply.outer(-t, lw))
        sing += np.exp(np.multiply.outer(1 - s, lw)) @ (c[:, None] * wt.T)
        # c w^{-2i-1}, i < 12, then c/2
        wpow = np.empty((_EM_TAIL, len(w)))
        wpow[0], wpow[1:] = c / w, 1 / (w * w)
        np.cumprod(wpow[:-1], axis=0, out=wpow[:-1])
        wpow[-1] = 0.5 * c
        ws = np.exp(np.multiply.outer(lw, -s))
        for c0 in range(0, len(t), cols):
            c1 = c0 + cols
            part = ((wpow[:, None, :] * wt[None, c0:c1]).reshape(-1, len(w))
                    @ ws).reshape(_EM_TAIL, -1, len(s))
            total.T[c0:c1] += part[-1] + (poch[:, c0:c1] * part[:-1]).sum(
                axis=0)

    d = u - 1
    csum = coeffs.sum()
    near = np.abs(d) < _SINGULAR_DELTA
    total += np.divide(sing - csum, d, out=np.zeros_like(d), where=~near)
    if near.any():
        dn = d[near]
        lw = np.log(n_terms + alphas)
        num = np.zeros_like(dn)
        for ca, lwa in zip(coeffs, lw):
            num += ca * np.expm1(-lwa * dn)
        total[near] += np.divide(num, dn, out=np.full_like(dn, -(coeffs @ lw)),
                                 where=dn != 0)
    if csum:
        total += _pole(u, csum)
    return total


def _pole(u: np.ndarray, residue: float) -> np.ndarray:
    """residue / (u - 1); raises PoleError within 1e-14 of u = 1."""
    if np.any(np.abs(u - 1) < 1e-14):
        raise PoleError("pole")
    return residue / (u - 1)


def log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) over an array of complex z off the poles, right only up
    to an integer multiple of 2 pi i: exp of it is Gamma(z), but its
    imaginary part need not be the principal branch.

    The array is shifted by the recurrence to w = z + n, the least n >= 0
    with Re w >= 10 at every point, and log Gamma(w) is Stirling's series

        (w - 1/2) log w - w + log(2 pi) / 2 + sum_m B_2m / (2m (2m-1) w^(2m-1))

    over the twelve Bernoulli numbers of _BERNOULLI.  As |ph w| < pi/2 and
    |w| >= 10, the dropped remainder is below |B_26| / (26 * 25) 2^13
    |w|^-25 < 2e-18 (DLMF 5.11.ii).  The shift subtracts one log of the
    product z (z + 1) ... (z + n - 1), which may differ from the sum of the
    n logs by a multiple of 2 pi i.
    """
    z = np.asarray(z, dtype=complex)
    n = max(0, math.ceil(_STIRLING_MIN_RE
                         - z.real.min(initial=_STIRLING_MIN_RE)))
    w = z + n
    inv_w2 = 1.0 / (w * w)
    series = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        series = series * inv_w2 + c
    prod = np.prod(z[..., None] + np.arange(n), axis=-1)
    return ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi)
            + series / w - np.log(prod))


def character_period(q: int) -> int:
    """A period of n -> kronecker(q, n): |q| when q = 0, 1 mod 4, else 4|q|;
    raises ValueError for q = 0, whose character has no period."""
    if q == 0:
        raise ValueError("q must be nonzero: kronecker(0, n) has no period")
    if q == 1:
        return 1
    return abs(q) if q % 4 in (0, 1) else 4 * abs(q)


@lru_cache(maxsize=32)
def _character(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The classes a/m with chi_q(a) != 0, m = character_period(q), and
    their values chi_q(a), as read-only arrays: the Kronecker table is built
    once per q.  A main-term fit reads five characters; 32 characters of
    1,000 classes would hold 0.5 MB.  Cleared by acceptance.clear_all_caches."""
    m = character_period(q)
    chi = np.array([kronecker(q, a) for a in range(1, m + 1)], dtype=float)
    classes = np.flatnonzero(chi)
    alphas, coeffs = (classes + 1) / m, chi[classes]
    alphas.setflags(write=False)
    coeffs.setflags(write=False)
    return alphas, coeffs


def dirichlet_l_grid(s: np.ndarray, t: np.ndarray, q: int) -> np.ndarray:
    """L(s_i + t_j, chi_q) over the outer grid of two 1-D arrays, shape
    (len(s), len(t)); chi_q(n) = kronecker(q, n), and q = 1 gives zeta.

    q may be any nonzero integer whose Kronecker character is of interest;
    the principal-character factors (e.g. q = 16) keep their imprimitive
    Euler factors.  Raises PoleError when the character is principal and a
    point is within 1e-14 of 1.  Non-principal characters evaluate stably
    through 1: the Hurwitz 1/(u-1) singularities cancel because the
    character values sum to zero.
    """
    s, t = np.asarray(s, dtype=complex), np.asarray(t, dtype=complex)
    alphas, coeffs = _character(q)
    lm = math.log(character_period(q))
    return (_hurwitz_grid(s, t, alphas, coeffs)
            * np.outer(np.exp(-s * lm), np.exp(-t * lm)))


def dirichlet_l_vec(s: np.ndarray, q: int) -> np.ndarray:
    """L(s, chi_q) over an array of s values: dirichlet_l_grid with t = [0]."""
    s = np.asarray(s, dtype=complex)
    return dirichlet_l_grid(s.ravel(), np.zeros(1), q)[:, 0].reshape(s.shape)


def dirichlet_l(s: complex, q: int) -> complex:
    """Scalar form of dirichlet_l_vec; the imaginary part of a real-axis
    value is rounded to zero below 1e-14."""
    s = complex(s)
    val = complex(dirichlet_l_vec(np.array([s]), q)[0])
    if abs(val.imag) < 1e-14 and abs(s.imag) == 0:
        val = complex(val.real, 0.0)
    return val


def r_coeff(q: int, n: int) -> float:
    """Dirichlet coefficient r_q(n) = chi_q(n) n^{-1/2} sum_{d | n} chi_{-4}(d).

    These are the coefficients of L(s + 1/2, chi_q) L(s + 1/2, chi_{-4q});
    for q = 1 that product is the shifted Dedekind zeta of Q(i).  As chi_{-4}
    is completely multiplicative, the divisor sum is the integer
    prod_{p^e || n} sum_{i <= e} chi_{-4}(p)^i.  Raises ValueError for
    q = 0 (as character_period does) and for n < 1.
    """
    character_period(q)
    if n < 1:
        raise ValueError("n must be >= 1")
    ch = kronecker(q, n)
    if ch == 0:
        return 0.0
    return ch * math.prod(sum(kronecker(-4, p) ** i for i in range(e + 1))
                          for p, e in prime_factors(n)) / math.sqrt(n)
