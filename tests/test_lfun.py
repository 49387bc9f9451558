import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import loggamma

from siegelsums import acceptance
from siegelsums.lfun import (
    _BERNOULLI,
    _CLASS_BLOCK,
    _EM_TAIL,
    _EM_TARGET,
    _SINGULAR_DELTA,
    MAX_DIRECT_TERMS,
    MIN_RE_U,
    PoleError,
    _em_log_bound,
    _character,
    _em_terms,
    _hurwitz_grid,
    character_period,
    dirichlet_l,
    dirichlet_l_grid,
    dirichlet_l_vec,
    r_coeff,
)
from siegelsums.matcore import kronecker, require_fundamental_discriminant

# the reference keeps a fixed cut of its own, so that the grid tests compare
# two different truncations
_REFERENCE_TERMS = 28


def _hurwitz_regular_reference(s, a):
    """zeta(s, a) - 1/(s - 1) pointwise by Euler-Maclaurin after
    _REFERENCE_TERMS direct terms, continuous through s = 1 by the expm1
    split of the singular part."""
    total = np.zeros_like(s)
    for n in range(_REFERENCE_TERMS):
        total += np.exp(-s * math.log(n + a))
    w = _REFERENCE_TERMS + a
    lw = math.log(w)
    total += 0.5 * np.exp(-s * lw)
    poch = s.copy()
    wpow = np.exp((-s - 1) * lw)
    fact = 2.0
    for i, b in enumerate(_BERNOULLI):
        total += (b / fact) * poch * wpow
        poch = poch * (s + 2 * i + 1) * (s + 2 * i + 2)
        wpow = wpow / (w * w)
        fact *= (2 * i + 3) * (2 * i + 4)
    d = s - 1
    total += np.divide(np.expm1(-d * lw), d, out=np.full_like(s, -lw),
                       where=d != 0)
    return total


def dirichlet_l_reference(s, q):
    """L(s, chi_q) by the plain loop over residue classes: one pointwise
    Euler-Maclaurin evaluation of zeta(s, a/m) per class with chi(a) != 0,
    with no matrix products and no separation of powers."""
    s = np.asarray(s, dtype=complex)
    m = character_period(q)
    total = np.zeros_like(s)
    char_sum = 0
    for a in range(1, m + 1):
        ch = kronecker(q, a)
        if ch:
            total += ch * _hurwitz_regular_reference(s, a / m)
            char_sum += ch
    if char_sum:
        if np.any(np.abs(s - 1) < 1e-14):
            raise PoleError("pole")
        total += char_sum / (s - 1)
    return np.exp(-s * math.log(m)) * total


def first_primes(count):
    """The first ``count`` primes by a sieve sized from the prime-counting
    asymptotics."""
    bound = max(30, int(count * (math.log(count)
                                 + math.log(math.log(count + 2)) + 1)) + 10)
    sieve = np.ones(bound, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(bound ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.flatnonzero(sieve)[:count]]


def euler_product_l(s, q, prime_count=10_000):
    """Truncated Euler product of L(s, chi_q) over the first ``prime_count``
    primes; a slowly-converging independent cross-check for Re s > 1."""
    total = 1.0 + 0j
    for p in first_primes(prime_count):
        ch = kronecker(q, p)
        if ch:
            total /= (1 - ch * cmath.exp(-s * math.log(p)))
    return total


def _check_functional_equation(s, q, tol=1e-11):
    """L(s, chi_q) = G(1 - s) / G(s) L(1 - s, chi_q) for primitive real
    chi_q, with G(s) = (|q|/pi)^{(s+a)/2} Gamma((s+a)/2), a = 0 for even and
    a = 1 for odd characters."""
    a = 0 if q > 0 else 1

    def log_g(z):
        return ((z + a) / 2 * math.log(abs(q) / math.pi)
                + complex(loggamma((z + a) / 2)))

    lhs = dirichlet_l_vec(np.array([s]), q)[0]
    rhs = cmath.exp(log_g(1 - s) - log_g(s)) * dirichlet_l(1 - s, q)
    assert abs(lhs - rhs) < tol * max(1.0, abs(lhs))


def divisors_reference(n):
    """The positive divisors of n >= 1 in increasing order, by walking
    f up to sqrt(n)."""
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


class TestRCoeff:
    def test_examples(self):
        assert r_coeff(1, 1) == 1.0
        # chi_{-4}(2) = 0, so only d = 1 contributes at n = 2
        assert abs(r_coeff(1, 2) - 1 / math.sqrt(2)) < 1e-15
        assert abs(r_coeff(1, 5) - 2 / math.sqrt(5)) < 1e-15
        # 1 + chi_{-4}(3) = 0 and chi_5(3) = -1: the divisor sum vanishes
        assert r_coeff(5, 3) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            r_coeff(1, 0)

    def test_rejects_zero_modulus(self):
        # kronecker(0, 1) = 1, but q = 0 has no character, as for L-values
        for n in (1, 5):
            with pytest.raises(ValueError, match="q must be nonzero"):
                r_coeff(0, n)

    def test_matches_divisor_walk(self):
        # the divisor sum is an integer either way, so the floats agree
        # to the last bit
        qs = (1, -4, 5, -3, 8, -20, 12, 13)
        for n in range(1, 10_001):
            sigma = sum(kronecker(-4, d) for d in divisors_reference(n))
            for q in qs:
                assert (r_coeff(q, n)
                        == (kronecker(q, n) * sigma / math.sqrt(n)
                            if kronecker(q, n) else 0.0)), (q, n)

    def test_multiplicative_divisor_identity(self):
        def a(q, n):
            return r_coeff(q, n) * math.sqrt(n)
        for q in (1, 5, -4, 13):
            for m in range(1, 51):
                for n in range(1, 51):
                    if math.gcd(m, n) == 1:
                        assert abs(a(q, m * n) - a(q, m) * a(q, n)) < 1e-9

    def test_divisor_bound(self):
        for n in range(1, 10_001):
            d = len(divisors_reference(n))
            assert abs(r_coeff(1, n)) <= d / math.sqrt(n) + 1e-12


class TestDirichletL:
    def test_zeta_two(self):
        # Euler-Maclaurin value against the closed form pi^2/6
        assert abs(dirichlet_l(2.0, 1) - math.pi ** 2 / 6) < 1e-12

    def test_leibniz_value(self):
        # accelerated Leibniz oracle for L(1, chi_{-4}) = pi/4
        partial = sum((-1) ** k / (2 * k + 1) for k in range(10_000))
        accel = partial + 0.5 * ((-1) ** 10_000 / (2 * 10_000 + 1))
        got = dirichlet_l(1.0, -4)
        assert abs(got - math.pi / 4) < 1e-12
        assert abs(got - accel) < 1e-8

    def test_pole(self):
        with pytest.raises(PoleError):
            dirichlet_l(1.0, 1)
        for eps in (1e-3, -1e-3):
            assert abs(eps * dirichlet_l(1 + eps, 1) - 1) < 2e-3

    def test_conjugate_symmetry(self):
        for q in (1, -4, 13):
            s = 1.4 + 0.9j
            assert abs(dirichlet_l(s, q).conjugate()
                       - dirichlet_l(s.conjugate(), q)) < 1e-12

    def test_euler_product(self):
        for q in (1, -4, 5):
            ep = euler_product_l(3.0, q, 10_000)
            assert abs(ep - dirichlet_l(3.0, q)) < 1e-8

    def test_dedekind_factorization(self):
        # zeta(s) L(s, chi_{-4}) = sum_n a(n) n^{-s}, a(n) = sqrt(n) r_1(n)
        # the divisor sum of chi_{-4}; as |a(n)| <= d(n) <= 2 sqrt(n), the
        # tail past n = 2000 is below 2 / (3.5 * 2000^3.5) at Re s = 5
        n = np.arange(1, 2001)
        a = np.array([r_coeff(1, int(k)) for k in n]) * np.sqrt(n)
        for s in (5.0, 5.0 + 2.0j, 5.0 - 7.5j):
            series = np.sum(a * np.exp(-s * np.log(n)))
            lhs = dirichlet_l(s, 1) * dirichlet_l(s, -4)
            assert abs(lhs - series) < 2 / (3.5 * 2000 ** 3.5) + 1e-14

    def test_imprimitive_euler_factor(self):
        # chi_16 is principal on odd integers: L(s, chi_16) = zeta(s)(1 - 2^-s)
        for s in (1.5, 2.0 + 0.5j, 0.9 + 0.1j):
            lhs = dirichlet_l(s, 16)
            rhs = dirichlet_l(s, 1) * (1 - 2 ** (-complex(s)))
            assert abs(lhs - rhs) < 1e-11

    def test_class_number_value(self):
        # L(1, chi_5) = 2 log((1 + sqrt 5)/2) / sqrt 5
        want = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
        assert abs(dirichlet_l(1.0, 5) - want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.3, 0.7), st.floats(-9.0, 9.0),
           st.sampled_from([1, -4, 5, 65, -20]))
    def test_functional_equation(self, re, im, q):
        _check_functional_equation(complex(re, im), q)

    @pytest.mark.parametrize("height", [40.0, 100.0])
    @pytest.mark.parametrize("q", [5, -4, 13])
    def test_functional_equation_critical_line(self, height, q):
        # a fixed cut of 28 direct terms missed this by up to 8e-8 at 100
        _check_functional_equation(complex(0.5, height), q)

    @pytest.mark.parametrize("height", [0.5, 10.0, 40.0, -40.0])
    @pytest.mark.parametrize("q", [1, 5, -4, -1147])
    def test_functional_equation_left_edge(self, height, q):
        # the evaluator accepts Re u down to MIN_RE_U = -1/2; the loss
        # measured at Re u = -0.47 is at most 9e-14
        _check_functional_equation(complex(-0.47, height), q, tol=2e-13)

    def test_zeta_minus_half(self):
        # zeta(-1/2) = -zeta(3/2) / (4 pi), to 20 digits
        assert abs(dirichlet_l(-0.5, 1) - (-0.20788622497735456602)) < 2e-14

    @pytest.mark.parametrize("s, q", [(-7.0, 1), (-10.0, 1), (-3.0, 5),
                                      (-0.51 + 3j, -4)])
    def test_left_of_min_re_u_raises(self, s, q):
        # the direct sum of growing terms would round zeta(-10) to -3.4e7 and
        # zeta(-7) to 0.0063 (1/240 is right)
        assert s.real < MIN_RE_U
        with pytest.raises(ArithmeticError, match="Re u = "):
            dirichlet_l(s, q)

    def test_critical_line_value(self):
        # L(1/2 + 100i, chi_5) from mpmath's Hurwitz zeta at 30 digits
        want = 0.21059417943142233 + 0.544811244593602j
        got = dirichlet_l(0.5 + 100j, 5)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_continuous_through_one(self):
        # non-principal L-functions are analytic at s = 1 with slopes
        # L'(1) between -0.2 and 0.4 for these characters, so the vector
        # path must stay within |s - 1| of L(1) down to s = 1 itself
        for q in (-4, 5, -52, 8, -3):
            at_one = dirichlet_l(1.0, q)
            for h in [10.0 ** -e for e in range(3, 13)] + [0.0]:
                val = dirichlet_l_vec(np.array([1.0 + h]), q)[0]
                assert cmath.isfinite(val)
                assert abs(val - at_one) <= h, (q, h)


class TestGridAgainstReference:
    @pytest.mark.parametrize("q", [1, -4, 5, 120, -104, -1147])
    def test_residue_grid(self, q):
        # the coupled factor of the tests' grid oracle of
        # petersson.main_term_residue: L(1 + s_i + t_j, chi_q) on its
        # circles (128 nodes, radius 0.08), the full grid against the
        # pointwise reference on
        # every eighth t-node: all 128 s-nodes, every class block
        theta = 2 * np.pi * np.arange(128) / 128
        s, t = 0.16 * np.exp(1j * theta), 0.08 * np.exp(1j * theta)
        got = dirichlet_l_grid(s + 1, t, q)[:, ::8]
        u = s[:, None] + t[None, ::8] + 1
        want = dirichlet_l_reference(u.ravel(), q).reshape(u.shape)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("q", [1, -4, 5, 120, -104, -1147])
    def test_one_dimensional_path(self, q):
        s = np.array([1 + 1e-12, 1 - 1e-12, 1 + 1e-9j, 0.5 + 12j,
                      0.75 - 7.5j, 0.6 + 0.4j, 1.5 + 3j, 1.2 - 11j, 2 - 12j,
                      3 + 1j])
        got = dirichlet_l_vec(s, q)
        want = dirichlet_l_reference(s, q)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("q", [1, 16, -4, 5, -1147])
    def test_singular_part_both_sides_of_delta(self, q):
        # points at |u - 1| on both sides of the switch between the
        # pointwise and the matrix-product singular part, at several
        # phases, each reached once with t = 0 and once with t = tau;
        # q = -1147 has 17 class blocks, q = 1 and 16 are principal
        delta = _SINGULAR_DELTA
        radii = [1e-12, delta * (1 - 1e-6), delta * (1 + 1e-6), 2 * delta,
                 0.08, 0.24]
        phases = np.exp(1j * np.pi * np.array([0, 1 / 3, 1 / 2, 5 / 4, 1]))
        d = np.outer(radii, phases).ravel()
        tau = 0.3 + 0.4j
        s, t = np.concatenate([1 + d, 1 + d - tau]), np.array([0, tau])
        got = dirichlet_l_grid(s, t, q)
        u = s[:, None] + t[None, :]
        near = np.abs(u - 1) < delta
        assert near[:len(d), 0].sum() == 2 * len(phases)
        assert near[len(d):, 1].sum() == 2 * len(phases)
        want = dirichlet_l_reference(u.ravel(), q).reshape(u.shape)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_pole_on_grid(self):
        s, t = np.array([1.5, 1.0, 0.75]), np.array([0.25, 0.0])
        for q in (1, 16):
            with pytest.raises(PoleError):
                dirichlet_l_grid(s, t, q)
        # non-principal characters stay finite at the same points
        vals = dirichlet_l_grid(s, t, -4)
        assert np.all(np.isfinite(vals))
        assert abs(vals[1, 1] - math.pi / 4) < 1e-12

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError, match="q must be nonzero"):
            dirichlet_l_vec(np.array([2.0]), 0)


class TestEulerMaclaurinCut:
    @staticmethod
    def _smallest_n(u):
        # the bound at w = N, searched upward from N = 1
        absu, sigma = np.abs(u).max(), u.real.min()
        n = 1
        while _em_log_bound(n, absu, sigma) > math.log(_EM_TARGET):
            n += 1
        return n

    def test_residue_contour(self):
        # the tests' grid oracle of petersson.main_term_residue at radius
        # 0.08: the circles u = 1 + s and 1 + t, |s| = 0.16 and
        # |t| = 0.08, and their grid 1 + s + t; and the residue's own
        # Taylor circle |u - 1| = 1/2 of 64 points
        theta = 2 * np.pi * np.arange(128) / 128
        s, t = 0.16 * np.exp(1j * theta), 0.08 * np.exp(1j * theta)
        for u in (1 + s, 1 + t, 1 + s[:, None] + t[None, :]):
            assert _em_terms(u) == self._smallest_n(u) == 8
        u = 1 + 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        assert _em_terms(u) == self._smallest_n(u) == 9

    def test_grows_with_height(self):
        cuts = [_em_terms(np.array([0.5 + 1j * h]))
                for h in (0, 12, 100, 1000, 1e4)]
        assert cuts == sorted(set(cuts))
        assert 16 <= cuts[1] <= 19 and 90 <= cuts[2] <= 96
        assert 850 <= cuts[3] <= 950

    @pytest.mark.parametrize("u", [1.0, 0.5 + 12j, 0.25 - 100j, 2.0 + 1000j,
                                   40.0, 1 + 0.24j])
    def test_minimal(self, u):
        # the closed form is the first N whose bound is below the target,
        # so the bound at N - 1 is above it
        u = np.array([u])
        assert _em_terms(u) == self._smallest_n(u)

    def test_near_one_gets_eight(self):
        # the rounding factor 16/log 8 of the pointwise singular part rests
        # on N >= 8 whenever a point lies within _SINGULAR_DELTA of u = 1
        phases = np.exp(2j * np.pi * np.arange(16) / 16)
        for u in 1 + _SINGULAR_DELTA * phases:
            assert _em_terms(np.array([u])) >= 8

    @pytest.mark.parametrize("s", [0.5 + 1e12j, 0.5 - 1e6j, -23.0])
    def test_outside_range_raises(self, s):
        with pytest.raises(ArithmeticError, match=r"\|Im u\|"):
            dirichlet_l(s, 5)

    def test_cap(self):
        assert _em_terms(np.array([0.5 + 1e5j])) <= MAX_DIRECT_TERMS
        with pytest.raises(ArithmeticError, match="1.1e\\+05"):
            _em_terms(np.array([0.5 + 1.1e5j]))

    @pytest.mark.parametrize("s", [complex("nan"), complex("inf"),
                                   complex(0.5, float("inf"))])
    def test_non_finite_rejected(self, s):
        with pytest.raises(ValueError, match="finite"):
            dirichlet_l_vec(np.array([2.0, s]), -4)
        with pytest.raises(ValueError, match="finite"):
            dirichlet_l_grid(np.array([2.0]), np.array([s]), 1)


class TestCharacterMemo:
    def test_matches_kronecker_table(self):
        # the memo's classes and values against the table that
        # dirichlet_l_grid built on every call before, for every
        # 0 < |q| <= 200
        for q in [q for q in range(-200, 201) if q]:
            m = character_period(q)
            chi = [kronecker(q, a) for a in range(1, m + 1)]
            alphas, coeffs = _character(q)
            assert np.array_equal(
                alphas, [(a + 1) / m for a in range(m) if chi[a]]), q
            assert np.array_equal(coeffs, [x for x in chi if x]), q
            assert not (alphas.flags.writeable or coeffs.flags.writeable)

    def test_built_once_per_q(self):
        # a pair (1, q) reads chi_q for its q-factor and for the coupled
        # factor; the second read is a hit, and clear_all_caches empties it
        acceptance.clear_all_caches()
        s = 1 + 0.5 * np.exp(2j * np.pi * np.arange(33) / 64)
        dirichlet_l_vec(s, 13)
        dirichlet_l_grid(s, np.zeros(1), 13)
        info = _character.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        acceptance.clear_all_caches()
        assert _character.cache_info().currsize == 0


class TestBlockMemory:
    def test_peak_bounded_by_block(self):
        # 64 points at Re s = 1/2, Im s = 1000 need N = 880 direct terms;
        # chi_{-148} has phi = 72 classes, so the direct sum has 63,360
        # (n, class) pairs: 65 MB as one s-side factor.  Blocked, what is
        # alive at once is at most three complex arrays of a block's
        # s-side size len(s) x _CLASS_BLOCK (the last direct-term factor
        # and a tail block's exponent and exp), numpy's ufunc buffers of at
        # most min(getbufsize(), block) elements for each of three operands,
        # and per-call arrays of the points: u, the totals, the Pochhammer
        # factors and one tail product, fewer than 4 _EM_TAIL + 4 entries
        # per point.  All complex, 16 bytes an entry.
        s = 0.5 + 1000j + 1e-3 * np.arange(64)
        assert _em_terms(s) == 880 and len(_character(-148)[0]) == 72
        block = len(s) * _CLASS_BLOCK
        bound = 16 * (3 * block + 3 * min(np.getbufsize(), block)
                      + (4 * _EM_TAIL + 4) * len(s))
        dirichlet_l_vec(s, -148)
        tracemalloc.start()
        try:
            dirichlet_l_vec(s, -148)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)


class TestHurwitz:
    @staticmethod
    def _hurwitz(s, a):
        # zeta(s, a) as the evaluator's grid at the single class a
        return _hurwitz_grid(np.array([complex(s)]), np.zeros(1),
                             np.array([a]), np.ones(1))[0, 0]

    def test_reduces_to_zeta(self):
        assert abs(self._hurwitz(2.0, 1.0) - math.pi ** 2 / 6) < 1e-12

    def test_splitting_identity(self):
        # zeta(s, a/2) decomposition: zeta(s) (2^s - ...) spot check via
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        for s in (2.0, 3.5, 1.5 + 1.0j):
            lhs = self._hurwitz(s, 0.5)
            rhs = (2 ** complex(s) - 1) * dirichlet_l(s, 1)
            assert abs(lhs - rhs) < 1e-10


def test_fundamental_discriminant_type():
    assert kronecker(5, 2) == -1
    with pytest.raises(ValueError, match="not 1 or a fundamental"):
        require_fundamental_discriminant(9)
