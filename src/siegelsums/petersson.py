"""Kitaoka-Petersson Fourier coefficients, spectral Gram consistency
checks, and the moment main term as a numeric double residue.

The assembled coefficient follows the diagonal / rank-1 / rank-2
decomposition of the Poincare-series Fourier expansion for the Siegel
congruence group of prime level, with the rank-2 constant 8*pi^2.  The
main term is the iterated residue at s = t = 0 of a product of Dirichlet
L-functions and archimedean gamma factors, a polynomial in log N read off
the Taylor series at 0 of three factors, each from one FFT on a circle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .matcore import (
    HalfIntegralForm,
    IntMat2,
    _xgcd,
    aut_count,
    conjugation_coeffs,
    gl2_equivalence,
    is_prime,
    representations,
    require_fundamental_discriminant,
)
from .expsums import (MAX_SALIE_C, _kloosterman_factored_values, kloosterman,
                      salie)
from .sp4 import smith_class
from .kernels import (
    KernelArg,
    bessel_j,
    box_bound,
    default_beta,
    gamma_factor,
    kernel_arg,
    poly_factor,
    require_weight,
    script_j,
    shell_matrices,
    truncation_set,
)
from .lfun import dirichlet_l_vec
# Not called here, and bound for tools that trace this module's names
# (perfbench): script_j_for_forms, as ``_kernel`` reaches its floats from
# level-free integers, and elementary_divisors, memoized by smith_class
from .kernels import script_j_for_forms
from .matcore import elementary_divisors


# ---------------------------------------------------------------------------
# Parameters and normalization


@dataclass(frozen=True)
class SpectralParams:
    """Weight k, prime level N, rank-1 cutoff and box exponent beta, and
    the constants that the coefficient sums derive from them.  Every
    truncation of the coefficient is chosen here: the rank-2 box bound M
    from beta (``kernels.box_bound``) and the rank-1 cut (``rank1_cut``)."""

    k: int
    level: int
    rank1_cutoff: int | None = None   # largest modulus c in the rank-1 sum
    beta: float | None = None         # box exponent; None is default_beta(k)
    m_bound: int = field(init=False)  # rank-2 box bound M at beta

    def __post_init__(self):
        require_weight(self.k)
        if not is_prime(self.level):
            raise ValueError("level must be prime")
        if self.rank1_cutoff is not None and self.rank1_cutoff < 1:
            raise ValueError(
                f"rank1_cutoff must be at least 1, got {self.rank1_cutoff}")
        if self.beta is None:
            object.__setattr__(self, "beta", default_beta(self.k))
        object.__setattr__(self, "m_bound", box_bound(
            self.level, self.ell, self.beta))

    @property
    def ell(self) -> float:
        """Order of the Bessel kernels, k - 3/2."""
        return self.k - 1.5

    def rank1_cut(self, det_tq: float) -> int:
        """The largest c s kept by the rank-1 sum of det Q det T = det_tq.

        The term of (c, s) carries J_ell(x), x = 4 pi det_tq^{1/2} / (c s),
        and |J_ell(x)| <= (x/2)^ell / Gamma(ell + 1) (DLMF 10.14.4).  That
        envelope rises with x and is 1e-16 at z0 = 2 (1e-16 Gamma(ell +
        1))^{1/ell}, so it is at most 1e-16 from c s = ceil(4 pi det_tq^{1/2}
        / z0) on: the cut, raised to N to keep the block c = N, s = 1."""
        ell = self.ell
        z0 = 2.0 * (1e-16 * math.gamma(ell + 1)) ** (1.0 / ell)
        return max(self.level,
                   int(math.ceil(4 * math.pi * math.sqrt(det_tq) / z0)))

    @property
    def kappa(self) -> float:
        """Power of det T in the assembled coefficient, k/2 - 3/4."""
        return self.k / 2 - 0.75

    @property
    def index(self) -> int:
        """[Sp4(Z) : Gamma0(N)] = N^3 (1 + 1/N)(1 + 1/N^2) for prime N."""
        n = self.level
        return n ** 3 + n ** 2 + n + 1

    @property
    def c_n(self) -> float:
        """Poincare inner-product constant c_N."""
        k = self.k
        return math.exp(0.5 * math.log(math.pi)
                        + (3 - 2 * k) * math.log(4 * math.pi)
                        + math.lgamma(self.ell) + math.lgamma(k - 2)
                        - math.log(4 * self.index))


@dataclass(frozen=True)
class HCoefficient:
    """Assembled coefficient h_Q(T) * (det T)^{k/2 - 3/4} and its parts.

    ``rank1_tail`` and ``rank2_tail`` are the truncation budgets of the
    rank-1 and rank-2 sums, scaled like ``rank1`` and ``rank2``;
    ``h_fourier`` sets ``tail_bound`` to their sum.  They default to 0 so
    that a coefficient can still be built from a total and a bound alone.
    """

    total: complex
    diagonal: complex
    rank1: complex
    rank2: complex
    tail_bound: float
    rank1_tail: float = 0.0
    rank2_tail: float = 0.0


# ---------------------------------------------------------------------------
# Rank-1 helpers


# The floor of _rank1_sum's completion check, in ulps (2^-52) of the two
# compared Salie values' summed SumValue.terms.  A root e(r/c) is within 10
# ulps of its value: its argument 2 pi r / c < 2 pi takes three roundings,
# at most 3 * 2^-53 * 2 pi ~ 9.4 ulps of 1, and exp one more.  A value
# tallied on the grid alone (every prime power of c is 2^e or divides s4
# or both discriminants) has exact counts summing to its terms, so the
# roots move it by at most 10 ulps of its terms: the floor.  Its dot's
# additions err with random sign: for Q = T = (1, 1, 100) at N = 101 and
# c <= 2,424, all then on the grid, two compared values, equal but for
# rounding, differed by at most 0.3 ulps of their summed terms.  That
# argument covers the grid factors only.  A value in closed form at every
# prime power of c is K C times the offset, C a sum of R roots, with
# K R = R terms / phi(c); it errs by at most 25 + R ulps of K R
# (tests/support.py, ``salie_bound``), so where the floor decides (10 ulps
# of phi(c) c above the relative tolerance 1e-8 * max(1, |val|), from
# c ~ 2,200 on) by at most (25 + R) R / phi(c) ulps of its terms, below 4
# for every odd c from 2,201 to MAX_SALIE_C (worst 3,675 = 3 5^2 7^2 with
# the most roots each prime power allows), and an inert one is exactly 0.
# The floor was 2.9e-7 at c = 9,191 (6.6e7 terms each), where the grid
# left that pair's values as noise near 1e-8, which the relative tolerance
# alone raised.
_TALLY_ULPS = 10


def _primitive_reps(form: HalfIntegralForm, s: int,
                    mod_sign: bool) -> list[tuple[int, int]]:
    reps = [v for v in representations(form, s) if math.gcd(v[0], v[1]) == 1]
    if mod_sign:
        reps = [v for v in reps if v > (-v[0], -v[1])]
    return reps


def _complete_bottom_row(u3: int, u4: int) -> IntMat2:
    """A determinant-one matrix [[a, b], [u3, u4]] via extended Euclid,
    with the top row reduced to the minimal representative."""
    g, x, y = _xgcd(u4, -u3)
    assert g == 1
    a, b = x, y
    # shift (a, b) -> (a + t u3, b + t u4) toward the smallest norm
    nrm = u3 * u3 + u4 * u4
    t = -((a * u3 + b * u4 + nrm // 2) // nrm)
    return IntMat2(a + t * u3, b + t * u4, u3, u4)


def _rank1_forms(q: HalfIntegralForm, t: HalfIntegralForm, s: int):
    """The Salie arguments of the rank-1 terms of s, or None if there are
    none: the distinct arguments (P, S), the first from the first U and V;
    (multiplicity, i, j) for each distinct pair (P, S), with i the index of
    its plus sum's argument and j that of its minus sum's; and the P of the
    first U with its free top row shifted by the bottom row, for the
    completion check.

    P = U Q U^T for each primitive representation (u3, u4) of s by Q up to
    sign, the bottom row of U; S = V^{-1} T V^{-T} for each (w1, w2) by T,
    where V^{-1} = adj V has determinant one and bottom row (w1, w2).  P
    depends on U alone and S on V alone, so the multiplicity of (P, S) is
    the count of P among the U's times the count of S among the V's.  The
    minus sum is H^-(P, S; c) = H^+(P, S'; c) with S' = (s1, -s2, s4),
    whose argument may be the plus argument of another pair."""
    ureps = _primitive_reps(q, s, mod_sign=True)
    if not ureps:
        return None
    wreps = _primitive_reps(t, s, mod_sign=False)
    if not wreps:
        return None
    us = [_complete_bottom_row(u3, u4) for (u3, u4) in ureps]
    ps = Counter(q.conjugate_right(u) for u in us)
    ss = Counter(t.conjugate_right(_complete_bottom_row(w1, w2))
                 for (w1, w2) in wreps)
    first = us[0]
    shifted = IntMat2(first.a + first.c, first.b + first.d, first.c, first.d)
    index: dict[tuple[HalfIntegralForm, HalfIntegralForm], int] = {}
    terms = [(mp * ms, index.setdefault((p, sf), len(index)),
              index.setdefault((p, HalfIntegralForm(sf.t1, -sf.t2, sf.t4)),
                               len(index)))
             for p, mp in ps.items() for sf, ms in ss.items()]
    return list(index), terms, q.conjugate_right(shifted)


def _rank1_sum(q: HalfIntegralForm, t: HalfIntegralForm,
               params: SpectralParams) -> tuple[complex, float]:
    """Rank-1 sum over c = N, 2N, ... and s, and its tail bound.

    The loop runs s outer, so the Salie arguments of s are built once per
    call (``_rank1_forms``), and c inner over the same (c, s) blocks as a
    loop over c first: c <= cs_max / s with cs_max = ``params.rank1_cut``
    of det Q det T, and every c up to the cutoff for s = 1.  A block sums
    each distinct (P, S) once, times its multiplicity, with ``salie``
    (looked up on the module at call time) run once for each distinct
    argument of a plus or minus sum: at N = 3 the 792 terms and 54
    completion checks of ((1,1,1), (1,1,2)) take 270 Salie values, the
    2,368 terms and 82 checks of (I, I) 250.  The result is the
    term-by-term sum up to rounding (tests/test_petersson.py: within
    n 2^{-52} sum |term|).

    When (D_Q D_T | N) = -1 at an odd level N the sum is exactly 0j.  A
    form whose discriminant is a non-residue mod N represents no multiple
    of N primitively (D must be a square mod 4s), so every term has N prime
    to s4 = s, and D_P D_S = D_Q D_T: ``salie`` returns exactly 0j at every
    c = N j (tests/test_petersson.py checks the coefficient of six such
    pairs and every Salie value of the inert pairs of seven forms at the
    primes 5 to 67).  A cut c_hi above ``MAX_SALIE_C``, where the block
    s = 1 would end, raises ValueError before any Salie sum.
    """
    ell = params.ell
    n = params.level
    det_tq = q.det() * t.det()
    cs_max = params.rank1_cut(det_tq)
    c_hi = cs_max if params.rank1_cutoff is None else params.rank1_cutoff
    if c_hi > MAX_SALIE_C:
        raise ValueError(f"the rank-1 cut c = {c_hi} exceeds the Salie cap "
                         f"{MAX_SALIE_C}")
    sign_k = -1 if (params.k // 2) % 2 else 1
    total = 0j
    s_hi = max(1, cs_max // n) if c_hi >= n else 0
    for s in range(1, s_hi + 1):
        forms = _rank1_forms(q, t, s)
        if forms is None:
            continue
        args, terms, p_shifted = forms
        for c in range(n, (c_hi if s == 1 else min(c_hi, cs_max // s)) + 1, n):
            bess = bessel_j(ell, 4 * math.pi * math.sqrt(det_tq) / (c * s))
            coeff = sign_k * math.sqrt(2) * math.pi / (c ** 1.5 * math.sqrt(s))
            values = [salie(p, sf, c) for p, sf in args]
            # one completion check per (c, s) block, on its first term;
            # tests/test_petersson.py checks every term
            first = values[0]
            alt = salie(p_shifted, args[0][1], c)
            tol = max(1e-8 * max(1.0, abs(first.value)),
                      _TALLY_ULPS * 2.0 ** -52 * (first.terms + alt.terms))
            if abs(first.value - alt.value) > tol:
                raise ArithmeticError(
                    f"Salie term at c = {c}, s = {s} depends on the "
                    f"completion of U: {first.value} vs {alt.value}")
            block = 0j
            for mult, i, j in terms:
                block += mult * (values[i].value + values[j].value)
            total += coeff * bess * block
    tail = _rank1_tail_bound(det_tq, n, min(cs_max, c_hi), ell)
    return total, tail


def _rank1_tail_bound(det_tq: float, n: int, z: float, ell: float) -> float:
    """Envelope bound on the dropped rank-1 terms, those with c = N j and
    c s > z.

    |H| <= c^{3/2} (c, s4)^{1/2} <= c^{3/2} s^{1/2} cancels the coefficient's
    c^{-3/2} s^{-1/2}, the power-series Bessel envelope is (w / (c s))^ell /
    Gamma(ell + 1) with w = 2 pi (det Q det T)^{1/2}, and a crude 400 s^2
    caps the (U, V) pairs times the two signs, so each term is at most
    k_const s^2 (c s)^{-ell}.  The least dropped s0 of one c exceeds
    x = z / c (s0 = 1 when x < 1), so sum_{s >= s0} s^{2 - ell} <=
    s0^{2 - ell} + s0^{3 - ell} / (ell - 3) <= x^{2 - ell} + x^{3 - ell} /
    (ell - 3).  That times c^{-ell}, summed over c = N j, is the bound
    k_const (zeta(2) z^{2-ell} / N^2 + zeta(3) z^{3-ell} / ((ell - 3) N^3)).
    tests/test_petersson.py checks the 400 s^2 cap for s <= 200 on the 43
    forms with t1, t4 <= 3 and |t2| <= 2, and the bound against the summed
    envelope at the primes 3 to 199.
    """
    w = 2 * math.pi * math.sqrt(det_tq)
    k_const = 400 * math.sqrt(2) * math.pi * w ** ell / math.gamma(ell + 1)
    zeta2, zeta3 = math.pi ** 2 / 6, 1.2020569031595942
    return k_const * (zeta2 * z ** (2 - ell) / n ** 2
                      + zeta3 * z ** (3 - ell) / ((ell - 3) * n ** 3))


# ---------------------------------------------------------------------------
# Rank-2 helpers


# one cold coefficient of ((1,1,1), (1,1,2)) misses 69 times at N <= 43 and
# 145 at N = 47, once per distinct exact argument (``_kernel``);
# the bound keeps a sweep over levels from growing without end
@lru_cache(maxsize=4096)
def _script_j_cached(ell: float, e1: float, e2: float) -> float:
    return script_j(ell, KernelArg(e1, e2))


def _one_of_each_pair(moduli: np.ndarray) -> np.ndarray:
    """One of each pair C', -C' of a box or shell: the second half of the
    lexicographic rows, which are mirrored (row i is minus row n-1-i), the
    matrices whose first nonzero entry is positive."""
    return moduli[len(moduli) // 2:]


def _kernel(params: SpectralParams, y: int, x: int, det: int) -> float:
    """The rank-2 kernel at the modulus N C', from y = det4 T det4 Q and
    the level-free exact integers x' = 16 tr(T adj C' Q adj C'^T) and
    det C'.  ``script_j_for_forms`` of N C' reduces x = N^2 x', y and
    den = 16 N^4 (det C')^2 (adj(N C') = N adj C'), so ``kernel_arg`` of
    those integers gives its floats bit for bit, and ``_script_j_cached``
    evaluates each distinct argument once."""
    n2 = params.level ** 2
    arg = kernel_arg(n2 * x, y, 16 * n2 * n2 * det * det)
    return _script_j_cached(params.ell, arg.eig1, arg.eig2)


def _rank2_pass(q: HalfIntegralForm, t: HalfIntegralForm,
                moduli: np.ndarray):
    """One C' of each pair of ``moduli`` as IntMat2, with the exact
    integers det C', x' = 16 tr(T adj C' Q adj C'^T) and the coordinates
    of p' = adj C' Q adj C'^T, all from one array pass over the rows in
    Python ints (object arrays), so that forms of any size stay exact."""
    half = _one_of_each_pair(moduli)
    a, b, c, d = half.astype(object).T
    # adj C' = (d, -b, -c, a), as in HalfIntegralForm.conjugate_right
    p = [r1 * q.t1 + r2 * q.t2 + r4 * q.t4
         for r1, r2, r4 in conjugation_coeffs(d, -b, -c, a)]
    xs = 16 * (t.t1 * p[0] + t.t4 * p[2]) + 8 * t.t2 * p[1]
    mats = [IntMat2(*row) for row in half.tolist()]
    return (mats, (a * d - b * c).tolist(), xs.tolist(),
            list(zip(*(x.tolist() for x in p))))


def _rank2_terms(q: HalfIntegralForm, t: HalfIntegralForm,
                 params: SpectralParams, moduli: np.ndarray) -> list[complex]:
    """The terms K(Q, T; N C') / |det N C'|^{3/2} * kernel, one for each
    C' of ``_one_of_each_pair(moduli)`` in its order (the box or its
    shell), from one pass over the rows (``_rank2_pass``).  Each term
    stands for two: the sum over ``moduli`` is twice the sum of the terms.
    K comes from ``_kloosterman_factored_values`` for the C' with N prime
    to det C' (the whole box at the default beta, where |det C'| <= M < N):
    the product of the closed-form K(X Q X^T, T; N I), O(N) with no pI
    grid, and the tally of the class table of C', grouped by Smith class.
    It is the coset sum of N C' otherwise.  The product agrees with the
    coset sum up to the rounding of two tallies and one product
    (tests/test_petersson.py compares the coefficient with both the coset
    sum and the former joint tally of the two histograms within that
    bound).  When (D_Q D_T | N) = -1 the closed form is exactly 0, so such
    a term is 0, and its kernel is not looked up.

    The term of -C' is the term of C', bit for bit.  -I_4 in Sp4(Z)
    carries the cosets of C onto those of -C and leaves A C^{-1} and
    C^{-1} D unchanged, so the phase histograms, and with them the tallied
    values, are equal.  In the product, X = t adj(C') changes sign with
    C', which leaves X Q X^T, and so the pI value, unchanged, and the
    tables of C' and -C' have equal histograms.  The kernel argument is
    read from the exact integers x' = 16 tr(T adj(C') Q adj(C')^T) and
    det C' (``_kernel``), which adj(-C') = -adj(C') leaves unchanged,
    so the argument is the same float pair."""
    n, y = params.level, t.det4() * q.det4()
    mats, dets, xs, adj_forms = _rank2_pass(q, t, moduli)
    factored = [i for i, det in enumerate(dets) if det % n]
    values = _kloosterman_factored_values(
        q, t, n, [mats[i] for i in factored], [adj_forms[i] for i in factored],
        [(pow(n, -1, abs(dets[i])), pow(dets[i], -1, n)) for i in factored])
    kvs = {i: kv for i, (kv, _) in zip(factored, values)}
    terms = []
    for i, (cp, det, x) in enumerate(zip(mats, dets, xs)):
        kv = kvs[i] if det % n else kloosterman(q, t, cp.scale(n)).value
        if kv == 0:
            terms.append(0j)
            continue
        terms.append(kv * _kernel(params, y, x, det) / abs(n * n * det) ** 1.5)
    return terms


def _rank2_sum(q: HalfIntegralForm, t: HalfIntegralForm,
               params: SpectralParams) -> tuple[complex, float]:
    """Twice the sum of the box's ``_rank2_terms``, added in their order,
    and the shell budget."""
    total = 0j
    for term in _rank2_terms(q, t, params, truncation_set(params.m_bound)):
        total += term
    return 2.0 * total, _rank2_shell_bound(q, t, params)


def _rank2_shell_bound(q: HalfIntegralForm, t: HalfIntegralForm,
                       params: SpectralParams) -> float:
    """Envelope budget for the rank-2 terms dropped outside the box.

    On the shell of width 1 just outside the box, each |K(Q, T; N C')| is
    replaced by 8 c1^2 c2^{1/2} (c2, t4)^{1/2}, c1 and c2 the elementary
    divisors of N C' and t4 = (V^T T V)_22 (an envelope tests/test_expsums.py
    asserts on sampled moduli), and paired with the exact kernel value.  That
    shell sum is doubled to stand for every modulus beyond it, which assumes
    the later shells add at most as much again.  Nothing proves that decay:
    test_rank2_budget_covers_three_shells in tests/test_petersson.py checks
    the budget against the exact terms through width 3 at N = 3, 13 and (for
    (I, I)) 31; there the shell sums of (I, I) do not shrink from width 1 to
    3, and the budget (3.5e-14 and 1.2e-20 against exact sums of 4.1e-16 and
    8.3e-23) covers them by the envelope's slack.

    The shell sum visits one C' of each pair C', -C' and counts it twice,
    as ``_rank2_terms`` does, with its kernels from the same pass over the
    rows (``_rank2_pass``); the envelopes are added in the rows' order.
    c1, c2 and t4 come from the memoized Smith class of C' (``smith_class``,
    t4 from the last row of its ``t_map``).  Each step of
    ``elementary_divisors`` (an ``_euclid_step`` test, an ``_xgcd`` floor
    quotient) is the same on N C as on C for N > 0, and the same up to
    signs on -C, as ``_xgcd(-a, -b)`` is ``(g, -s, -t)``: so N C' has the
    U and V of C' and N times its divisors, and -C' has -V or V, so its
    envelope is that of C', bit for bit (the kernel factor is equal as in
    ``_rank2_terms``).  tests/test_matcore.py checks both, and
    TestElementaryDivisors.test_outputs_pinned there pins V by a digest.
    """
    n, y = params.level, t.det4() * q.det4()
    mats, dets, xs, _ = _rank2_pass(q, t, shell_matrices(params.m_bound, 1))
    bound = 0.0
    for cp, det, x in zip(mats, dets, xs):
        smith, _, (_, _, (a, b, d)) = smith_class(cp)
        c1, c2 = n * smith.a, n * smith.d
        t4 = a * t.t1 + b * t.t2 + d * t.t4  # (2,2)-entry of V^T T V
        k_env = 8.0 * c1 * c1 * math.sqrt(c2) * math.sqrt(math.gcd(c2, t4))
        kern = _kernel(params, y, x, det)
        bound += k_env * abs(kern) / abs(n * n * det) ** 1.5
    # twice for the pairs, twice again for the moduli beyond the shell
    return 4.0 * bound


@dataclass(frozen=True)
class TailReport:
    params: SpectralParams
    shell_size: int
    observed_tail: float
    predicted_exponent: float
    predicted_envelope: float


def tail_diagnostic(m1: int, m2: int, params: SpectralParams,
                    shell_width: int = 1) -> TailReport:
    """Observed size of the rank-2 summand just outside the truncation box.

    Sums |K(m2 I, m1 I; N C)| / (N^3 |det C|^{3/2}) * |kernel| over the
    shell of ``shell_width`` around the box of ``params`` and reports it
    next to the predicted envelope N^{-1-beta+5(1+beta)/(2 ell)}.  The
    shell is summed as in ``_rank2_terms``: one C of each pair C, -C,
    counted twice.  Width 0 is the empty shell.  A negative width, a shell
    beyond ``truncation_set``'s bound and m1 or m2 below 1 raise
    ValueError.
    """
    q = HalfIntegralForm.scalar(m2).require_positive_definite()
    t = HalfIntegralForm.scalar(m1).require_positive_definite()
    if shell_width < 0:
        raise ValueError(
            f"shell_width must be non-negative, got {shell_width}")
    shell = shell_matrices(params.m_bound, shell_width)
    observed = 2.0 * sum(abs(term)
                         for term in _rank2_terms(q, t, params, shell))
    beta = params.beta
    exponent = -1.0 - beta + 5.0 * (1.0 + beta) / (2.0 * params.ell)
    return TailReport(
        params=params, shell_size=len(shell), observed_tail=observed,
        predicted_exponent=exponent,
        predicted_envelope=float(params.level) ** exponent,
    )


# ---------------------------------------------------------------------------
# The assembled coefficient and the spectral Gram matrix


def h_fourier(q: HalfIntegralForm, t: HalfIntegralForm,
              params: SpectralParams) -> HCoefficient:
    """Assembled coefficient h_Q(T) (det T)^{k/2-3/4}: diagonal + rank-1 +
    rank-2, with a numeric bound on the truncation tail."""
    q.require_positive_definite()
    t.require_positive_definite()
    det_ratio_pow = (t.det() / q.det()) ** params.kappa
    diag = 0j
    if gl2_equivalence(q, t) is not None:
        diag = complex(aut_count(t))
    r1, tail1 = _rank1_sum(q, t, params)
    r2, tail2 = _rank2_sum(q, t, params)
    rank1 = det_ratio_pow * r1
    rank2 = 8 * math.pi ** 2 * det_ratio_pow * r2
    rank1_tail = det_ratio_pow * tail1
    rank2_tail = 8 * math.pi ** 2 * det_ratio_pow * tail2
    return HCoefficient(
        total=diag + rank1 + rank2,
        diagonal=diag,
        rank1=rank1,
        rank2=rank2,
        tail_bound=rank1_tail + rank2_tail,
        rank1_tail=rank1_tail,
        rank2_tail=rank2_tail,
    )


@dataclass(frozen=True)
class GramResult:
    # G[i][j] = H(T_i, T_j) / (8 c_N (det T_i det T_j)^kappa), with
    # H(A, B) = h_fourier(B, A).total det(B)^(k - 3/2), the quantity
    # proportional to sum_F a_F(A) conj(a_F(B)) / ||F||^2; G is that
    # sum only up to the determinant powers and a constant
    matrix: np.ndarray
    tail_budget: np.ndarray       # entrywise bound on the truncation error
    hermitian_defect: float
    min_eigenvalue: float


def spectral_gram(forms: list[HalfIntegralForm],
                  params: SpectralParams) -> GramResult:
    """Gram matrix of normalized Fourier coefficients from the coefficient
    identity; Hermitian up to truncation tails, positive semidefinite up to
    the same budget."""
    m = len(forms)
    kappa, c_n = params.kappa, params.c_n
    g = np.zeros((m, m), dtype=complex)
    budget = np.zeros((m, m))
    for i, ti in enumerate(forms):
        for j, tj in enumerate(forms):
            h = h_fourier(tj, ti, params)  # Q = T_j, T = T_i
            scale = tj.det() ** kappa / (ti.det() ** kappa * 8 * c_n)
            g[i, j] = h.total * scale
            budget[i, j] = h.tail_bound * scale
    if m:
        defect = float(np.max(np.abs(g - g.conj().T)))
        sym = 0.5 * (g + g.conj().T)
        min_eig = float(np.min(np.linalg.eigvalsh(sym)))
    else:
        defect = 0.0
        min_eig = 0.0
    return GramResult(matrix=g, tail_budget=budget,
                      hermitian_defect=defect, min_eigenvalue=min_eig)


# ---------------------------------------------------------------------------
# Main-term double residue


@dataclass(frozen=True)
class ResidueReport:
    """``main_term_residue`` at ``level``; ``radius`` and ``nodes`` are its
    Taylor circle's."""

    q1: int
    q2: int
    level: float
    residue: float
    imag_defect: float
    radius: float
    nodes: int


@dataclass(frozen=True)
class FitResult:
    q1: int
    q2: int
    degree: int
    coefficients: tuple[float, ...]   # descending powers of log N
    leading: float
    residual: float
    levels: tuple[float, ...]
    residues: tuple[float, ...]


def _check_discriminant_pair(q1: int, q2: int) -> None:
    require_fundamental_discriminant(q1, q2)
    if math.gcd(abs(q1), abs(q2)) != 1:
        raise ValueError("q1 and q2 must be coprime")


# Each Taylor series is read off _TAYLOR_NODES points of |u| = 1/2.  It
# counts as decayed to rounding when the top quarter of its coefficients is
# at most _TAIL_TOL of max |f| there: over the tests' 120 oracle pairs at
# k = 10 to 30 the worst is 4.5e-15; single-precision values leave 1e-8.
_TAYLOR_RADIUS, _TAYLOR_NODES, _TAIL_TOL = 0.5, 64, 1e-13


def _pole_order(q: int) -> int:
    """Order of the pole of L(1 + u, chi_q) L(1 + u, chi_{-4q}) at u = 0:
    1 for q = 1 (zeta) and q = -4 (chi_16, principal mod 2), else 0."""
    return int(q in (1, -4))


def _taylor(f, what: str, terms: int) -> np.ndarray:
    """The first ``terms`` Taylor coefficients f_m at 0 of f, holomorphic on
    |u| <= rho = _TAYLOR_RADIUS, from one FFT of f on the n points of that
    circle: it gives f_m rho^m plus the aliased f_{m+n} rho^{m+n} + ...
    Raises ArithmeticError unless the top quarter has decayed to _TAIL_TOL
    of max |f|, which puts the aliased terms below that too.

    f must be real on the real axis, so that f(conj u) = conj f(u): it is
    called once, on the n/2 + 1 nodes k = 0 .. n/2 of the upper half
    circle, and node n - k takes the conjugate of node k.  Every integrand
    of ``_residue_series`` is such an f: a product of L-values of real
    characters, ``gamma_factor``, ``poly_factor``, exp(2u log|q|) and u^e.
    """
    n = _TAYLOR_NODES
    half = f(_TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n))
    values = np.concatenate([half, half[n // 2 - 1:0:-1].conj()])
    c = np.fft.fft(values) / n
    tail = float(np.abs(c[n - n // 4:]).max())
    if not tail <= _TAIL_TOL * float(np.abs(values).max()):
        raise ArithmeticError(
            f"the Taylor coefficients of {what} on |u| = {_TAYLOR_RADIUS} "
            f"have not decayed to rounding by m = {n}: tail {tail:.2g}")
    return c[:terms] / _TAYLOR_RADIUS ** np.arange(terms)


@lru_cache(maxsize=16)
def _residue_series(q1: int, q2: int, k: int, poly: str):
    """``main_term_residue``'s Taylor coefficients a, b, g, e1 + e2 + 2 each."""
    terms = _pole_order(q1) + _pole_order(q2) + 2

    def factor(q):
        return _taylor(lambda u: (
            u ** _pole_order(q) * dirichlet_l_vec(u + 1, q)
            * dirichlet_l_vec(u + 1, -4 * q) * gamma_factor(u, k)
            * poly_factor(u, poly) * np.exp(2 * u * math.log(abs(q)))),
            f"the chi_{q}, chi_{-4 * q} factor", terms)

    return factor(q1), factor(q2), _taylor(
        lambda u: dirichlet_l_vec(u + 1, q1 * q2) - (q1 * q2 == 1) / u,
        f"L(1 + u, chi_{q1 * q2})", terms)


def main_term_residue(q1: int, q2: int, level: float, k: int,
                      poly: str = "(1-s)^2") -> ResidueReport:
    """Iterated residue at s = t = 0 of 4 N^{s+t} / (s t) alpha(s) beta(t)
    L(s+t+1, chi_{q1 q2}), with alpha(s) = L(s+1, chi_{q1}) L(s+1,
    chi_{-4 q1}) gamma_factor(s, k) poly_factor(s, poly) |q1|^{2s} and beta
    likewise for q2.  ``poly`` is "(1-s)^2" or "1-s^2" (any other raises
    ValueError); ``level`` is N, a real parameter above 1.

    The residue is a coefficient, a polynomial in l = log N of degree
    ``residue_fit_degree``.  a(s) = s^{e1} alpha(s), e1 =
    ``_pole_order(q1)``, is holomorphic on |s| < 1 (Gamma(s+1) has its pole
    at -1); b(t) = t^{e2} beta(t) likewise.  g(u) = L(1 + u, chi_{q1 q2}) -
    delta/u, delta = [q1 q2 = 1], is entire.  ``_taylor`` reads each off
    the circle |u| = 1/2, where Re(1 + u) >= 1/2; ae and be are the
    coefficients of a(s) e^{sl} and b(t) e^{tl}.  The residue is the
    coefficient of s^{e1} t^{e2} in 4 ae(s) be(t) (g(s+t) + delta/(s+t)).
    (s+t)^m holds s^i t^j C(m, i) times, i + j = m, and the t-residue
    comes first, on |t| < |s|, where 1/(s+t) = sum_j (-1)^j t^j / s^{j+1}:

        4 sum_{j <= e2} be_{e2-j} (delta (-1)^j ae_{e1+j+1}
                                   + sum_{i <= e1} C(i+j, i) ae_{e1-i} g_{i+j}).

    A circle whose series has not decayed raises ArithmeticError.  The
    report's ``radius`` and ``nodes`` are the circle's, 1/2 and 64.  As
    each of a, b and g is real on the real axis, ``_taylor`` evaluates it on
    33 of the 64 nodes and takes the other 31 by conjugation: a cold call
    makes five L-calls of 33 points each.
    """
    _check_discriminant_pair(q1, q2)
    require_weight(k)
    if not (math.isfinite(level) and level > 1):
        raise ValueError(f"level must be a finite number above 1, got {level}")
    a, b, g = _residue_series(q1, q2, k, poly)
    e1, e2 = _pole_order(q1), _pole_order(q2)
    exp_l = [math.log(level) ** m / math.factorial(m) for m in range(len(a))]
    ae, be = (np.convolve(x, exp_l)[:len(a)] for x in (a, b))
    val = 4 * sum(be[e2 - j] * ((q1 * q2 == 1) * (-1) ** j * ae[e1 + j + 1]
                                + sum(math.comb(i + j, i) * ae[e1 - i]
                                      * g[i + j] for i in range(e1 + 1)))
                  for j in range(e2 + 1))
    return ResidueReport(q1=q1, q2=q2, level=level, residue=float(val.real),
                         imag_defect=abs(float(val.imag)),
                         radius=_TAYLOR_RADIUS, nodes=_TAYLOR_NODES)


def residue_fit_degree(q1: int, q2: int) -> int:
    """Degree in log N of the main-term polynomial: the pole orders of the
    q1-pair and the q2-pair, plus one for the coupled zeta of q1 = q2 = 1."""
    return _pole_order(q1) + _pole_order(q2) + (q1 * q2 == 1)


def leading_coeff_fit(q1: int, q2: int, k: int,
                      levels: list[float] | None = None,
                      degree: int | None = None,
                      poly: str = "(1-s)^2") -> FitResult:
    """Least-squares polynomial fit of ``main_term_residue`` against log N,
    exact but for rounding at its degree ``residue_fit_degree``.  Needs
    degree + 1 distinct levels: with fewer the fit is not determined, and a
    repeated level adds no condition.  A negative ``degree`` raises
    ValueError before any residue is computed."""
    _check_discriminant_pair(q1, q2)
    require_weight(k)
    if degree is None:
        degree = residue_fit_degree(q1, q2)
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    if levels is None:
        levels = [10.0 ** e for e in range(2, 3 + max(degree, 1) + 1)]
    if len(set(levels)) < degree + 1:
        raise ValueError(
            f"a degree {degree} fit needs {degree + 1} distinct sample levels,"
            f" got {len(set(levels))}")
    residues = [main_term_residue(q1, q2, nn, k, poly=poly).residue
                for nn in levels]
    logs = np.log(np.array(levels))
    coeffs = np.polyfit(logs, np.array(residues), degree)
    fitted = np.polyval(coeffs, logs)
    residual = float(np.max(np.abs(fitted - np.array(residues))))
    return FitResult(q1=q1, q2=q2, degree=degree,
                     coefficients=tuple(float(c) for c in coeffs),
                     leading=float(coeffs[0]), residual=residual,
                     levels=tuple(levels), residues=tuple(residues))
