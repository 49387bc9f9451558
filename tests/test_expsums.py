import cmath
import itertools
import math
import random
import time
import tracemalloc

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelsums import expsums, petersson, sp4
from siegelsums.kernels import truncation_set
from siegelsums.matcore import (
    GaussianInt,
    HalfIntegralForm,
    IntMat2,
    gaussian_totient,
    kronecker,
)
from siegelsums.petersson import SpectralParams
from siegelsums.expsums import (
    _tally_value,
    congruence_count,
    gauss_sum,
    kloosterman,
    kloosterman_factored,
    kloosterman_pI,
    salie,
    twisted_average,
)

HI = HalfIntegralForm.identity()
I2 = IntMat2.identity()


def pd_forms(t_hi=3, t2_hi=2):
    out = []
    for t1 in range(1, t_hi + 1):
        for t4 in range(1, t_hi + 1):
            for t2 in range(-t2_hi, t2_hi + 1):
                f = HalfIntegralForm(t1, t2, t4)
                if f.is_positive_definite():
                    out.append(f)
    return out


def oracle_pI(q, t, p):
    """Independent triple-loop evaluation of K(Q, T; pI)."""
    total = 0j
    for d1 in range(p):
        for d2 in range(p):
            for d4 in range(p):
                delta = (d1 * d4 - d2 * d2) % p
                if delta == 0:
                    continue
                dbar = pow(delta, p - 2, p)
                num = (dbar * (d4 * q.t1 - d2 * q.t2 + d1 * q.t4)
                       + d1 * t.t1 + d2 * t.t2 + d4 * t.t4) % p
                total += cmath.exp(2j * math.pi * num / p)
    return total


def salie_reference(p, s, c, sign):
    """Salie sum H^{+/-}(P, S; c), the upper sign for sign = +1, by the
    plain double loop over d1 (a unit) and d2 mod c, tallied like
    ``salie``, so the two agree to the last bit."""
    nums = []
    for d1 in range(c):
        if math.gcd(d1, c) != 1:
            continue
        d1bar = 0 if c == 1 else pow(d1, -1, c)
        base = d1bar * p.t1 + d1 * s.t1
        for d2 in range(c):
            nums.append((d1bar * (s.t4 * d2 * d2 - sign * p.t2 * d2)
                         + s.t2 * d2 + base) % c)
    value = _tally_value(np.array(nums, dtype=np.int64), c)
    offset = Fraction(-sign * p.t2 * s.t2, 2 * c * s.t4) % 1
    value *= complex(np.exp(2j * np.pi * float(offset)))
    return value, len(nums)


def minus_form(s):
    """(s1, -s2, s4): H^-(P, S; c) = H^+(P, minus_form(S); c)."""
    return HalfIntegralForm(s.t1, -s.t2, s.t4)


class TestKloosterman:
    def test_modulus_identity_is_one(self):
        for q in (HI, HalfIntegralForm(1, 1, 2), HalfIntegralForm(3, -2, 1)):
            for t in (HI, HalfIntegralForm(2, 1, 1)):
                sv = kloosterman(q, t, I2)
                assert sv.terms == 1 and abs(sv.value - 1) < 1e-12

    def test_pinned_value_3I(self):
        # frozen from the independent triple-loop oracle
        assert abs(oracle_pI(HI, HI, 3) - 15.0) < 1e-9
        assert abs(kloosterman(HI, HI, IntMat2.scalar(3)).value - 15.0) < 1e-9
        assert abs(kloosterman_pI(HI, HI, 3).value - 15.0) < 1e-9

    def test_pI_matches_oracle_and_brute(self):
        forms = pd_forms()[:10]
        for p in (3, 5):
            cm = IntMat2.scalar(p)
            for q in forms:
                for t in forms:
                    a = kloosterman(q, t, cm).value
                    b = kloosterman_pI(q, t, p).value
                    assert abs(a - b) < 1e-9
            # spot-check the independent oracle on a few pairs
            for q in forms[:3]:
                for t in forms[:3]:
                    assert abs(kloosterman_pI(q, t, p).value
                               - oracle_pI(q, t, p)) < 1e-9

    def test_real_when_offdiagonals_vanish(self):
        # d2 -> -d2 pairs terms into conjugates
        v = kloosterman_pI(HalfIntegralForm(1, 0, 2),
                           HalfIntegralForm(2, 0, 1), 5)
        assert abs(v.value.imag) < 1e-12

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            kloosterman_pI(HI, HI, 4)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_value_bounded_by_terms(self, data):
        forms = pd_forms(2, 1)
        q = data.draw(st.sampled_from(forms))
        t = data.draw(st.sampled_from(forms))
        entries = [data.draw(st.integers(-2, 2)) for _ in range(4)]
        c = IntMat2(*entries)
        if c.det() == 0:
            return
        sv = kloosterman(q, t, c)
        assert abs(sv.value) <= sv.terms + 1e-9


class TestFactored:
    FORMS = [(q, t) for q in (HI, HalfIntegralForm(1, 1, 2))
             for t in (HI, HalfIntegralForm(2, 1, 1))]

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_bit_identical_to_coset_sum(self, n):
        # the tally's counts are the enumerated table's, so value and terms
        # are equal, not close, on every box modulus (C' = I included)
        moduli = truncation_set(SpectralParams(k=10, level=n).m_bound)
        assert len(moduli) == 288
        for cmat in moduli:
            for q, t in self.FORMS:
                got = kloosterman_factored(q, t, n, cmat)
                want = kloosterman(q, t, cmat.scale(n))
                assert (got.value, got.terms) == (want.value, want.terms), \
                    (n, cmat, q, t)

    @pytest.mark.parametrize("cmat", [
        I2, IntMat2.diag(1, 2), IntMat2(1, 1, -1, 1), IntMat2.diag(2, 2),
        IntMat2(2, 1, 1, 1), IntMat2(0, 1, -2, 1)])
    def test_matches_brute_force(self, cmat):
        # against the table enumerated for 3 C' itself, not derived from
        # its Smith class; diag(2, 2) lies outside the box
        table = sp4._enumerated_table(cmat.scale(3))
        for q, t in self.FORMS:
            nums = (table.weights @ np.array(
                [q.t1, q.t2, q.t4, t.t1, t.t2, t.t4])) % table.m
            got = kloosterman_factored(q, t, 3, cmat)
            assert got.value == _tally_value(nums, table.m)
            assert got.terms == table.count

    def test_det3_and_det4_classes(self):
        # the Smith classes (1, 3), (1, 4) and (2, 2) that the box reaches
        # from N = 47 on, checked at N = 5 against the coset sum of 5 C'
        forms = (HI, HalfIntegralForm(1, 1, 2), HalfIntegralForm(2, 1, 1))
        moduli = [c for c in (IntMat2(*e) for e in
                              itertools.product(range(-2, 3), repeat=4))
                  if abs(c.det()) in (3, 4)]
        assert len(moduli) == 152
        for cmat in moduli:
            for q in forms:
                for t in forms:
                    got = kloosterman_factored(q, t, 5, cmat)
                    want = kloosterman(q, t, cmat.scale(5))
                    assert (got.value, got.terms) == (want.value, want.terms), \
                        (cmat, q, t)

    def test_bezout_independence(self):
        c = IntMat2.diag(1, 2)
        v1 = kloosterman_factored(HI, HI, 3, c, bezout=(1, -1))
        v2 = kloosterman_factored(HI, HI, 3, c, bezout=(-1, 2))
        assert v1 == v2

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="not coprime"):
            kloosterman_factored(HI, HI, 3, IntMat2.scalar(3))


class TestEquivariance:
    def test_sampled_instances(self):
        rng = random.Random(99)
        forms = pd_forms()
        for _ in range(40):
            q = forms[rng.randrange(len(forms))]
            t = forms[rng.randrange(len(forms))]
            while True:
                c = IntMat2(*(rng.randint(-2, 2) for _ in range(4)))
                if 0 < abs(c.det()) <= 6:
                    break
            u = I2
            for _ in range(rng.randint(1, 3)):
                u = u.mul(IntMat2(1, rng.randint(-2, 2), 0, 1))
                u = u.mul(IntMat2(1, 0, rng.randint(-2, 2), 1))
            v = IntMat2(0, 1, 1, 0) if rng.random() < 0.5 else \
                IntMat2(1, rng.randint(-2, 2), 0, 1)
            cc = u.adj().scale(u.det()).mul(c).mul(v.adj().scale(v.det()))
            lhs = kloosterman(q, t, cc).value
            rhs = kloosterman(q.conjugate_right(u), t.conjugate_left(v), c).value
            assert abs(lhs - rhs) < 1e-9


class TestSalie:
    def test_vanishes_unless_corner_entries_match(self):
        v = salie(HalfIntegralForm(1, 1, 1), HalfIntegralForm(1, 0, 2), 3)
        assert v.value == 0 and v.terms == 0

    def test_modulus_one_closed_form(self):
        p = HalfIntegralForm(1, 2, 3)
        s = HalfIntegralForm(2, 1, 3)
        v = salie(p, s, 1)
        want = cmath.exp(2j * math.pi * (-p.t2 * s.t2 / (2 * s.t4)))
        assert abs(v.value - want) < 1e-12
        v = salie(p, minus_form(s), 1)
        assert abs(v.value - want.conjugate()) < 1e-12

    def test_brute_oracle_and_bound(self):
        def oracle(p, s, c, sg):
            total = 0j
            for d1 in range(c):
                if math.gcd(d1, c) != 1:
                    continue
                d1b = pow(d1, -1, c) if c > 1 else 0
                for d2 in range(c):
                    ph = ((d1b * s.t4 * d2 * d2 - sg * d1b * p.t2 * d2
                           + s.t2 * d2 + d1b * p.t1 + d1 * s.t1) / c
                          - sg * p.t2 * s.t2 / (2 * c * s.t4))
                    total += cmath.exp(2j * math.pi * ph)
            return total

        for (p, s) in [(HI, HI), (HalfIntegralForm(1, 1, 2),
                                  HalfIntegralForm(2, -1, 2))]:
            for c in (1, 2, 3, 4, 6, 9):
                for sg in (1, -1):
                    got = salie(p, s if sg == 1 else minus_form(s), c)
                    assert abs(got.value - oracle(p, s, c, sg)) < 1e-10
                    cap = c ** 1.5 * math.sqrt(math.gcd(c, s.t4))
                    assert abs(got.value) <= cap + 1e-12

    def test_bit_identical_to_reference_loop(self):
        # H^-(P, S; c) is H^+(P, (s1, -s2, s4); c) to the last bit
        pairs = [((1, 0, 1), (1, 1, 1)), ((2, -3, 5), (-4, 7, 5)),
                 ((-3, 5, -2), (5, -1, -2)), ((7, -11, 3), (-2, 4, 3)),
                 # entries far beyond int64 once multiplied out
                 ((10 ** 15 + 1, -3 * 10 ** 12, 6), (-(10 ** 14), 7, 6))]
        for pt, st_ in pairs:
            p, s = HalfIntegralForm(*pt), HalfIntegralForm(*st_)
            for c in range(1, 41):
                got = salie(p, s, c)
                assert (got.value, got.terms) == salie_reference(p, s, c, 1)
                got = salie(p, minus_form(s), c)
                assert (got.value, got.terms) == salie_reference(p, s, c, -1)

    def test_degenerate_and_invalid_arguments(self):
        p = HalfIntegralForm(1, 2, 3)
        for c in (1, 5, 12):
            got = salie(p, HalfIntegralForm(1, 2, 4), c)
            assert (got.value, got.terms) == (0j, 0)
        for c in (0, -3):
            with pytest.raises(ValueError):
                salie(p, p, c)
        z = HalfIntegralForm(1, 2, 0)
        with pytest.raises(ValueError):
            salie(z, z, 3)


class TestGauss:
    def test_cubic_root_example(self):
        v = gauss_sum(1, 0, 3)
        assert abs(v.value - complex(0, math.sqrt(3))) < 1e-12

    def test_degenerate_geometric(self):
        assert abs(gauss_sum(0, 4, 2).value - 2) < 1e-12
        assert abs(gauss_sum(0, 3, 2).value) < 1e-12

    def test_matches_listed_numerators(self):
        # the NumPy numerators equal those of a Python list, the reference,
        # so the values agree bit for bit
        def listed(a, b, c):
            return _tally_value(
                np.array([(a * x * x + b * x) % c for x in range(c)]), c)

        for c in range(1, 51):
            for a, b in itertools.product(range(c), repeat=2):
                assert gauss_sum(a, b, c).value == listed(a, b, c)
        # a and b outside [0, c), reduced before any product
        for a, b, c in ((-7, 100, 13), (10 ** 12 + 1, -5, 50), (-1, -1, 2 ** 16)):
            assert gauss_sum(a, b, c).value == listed(a, b, c)

    def test_bound_small_moduli(self):
        for c in range(1, 21):
            for a in range(c):
                ga = math.gcd(a, c) if a else c
                cap = math.sqrt(2 * ga * c)
                for b in range(c):
                    assert abs(gauss_sum(a, b, c).value) <= cap + 1e-9


class TestGridCaps:
    # each call builds its grid only after the check: without it, the Salie
    # grid of c = 100,003 would ask for 160 GB and the Gauss list of
    # MAX_GAUSS_C + 1 entries would take tens of seconds
    def test_caps_keep_the_peak_within_4_gib(self):
        # about 16 bytes per Salie entry (phi(c) c <= c^2 of them), 48 per
        # Gauss entry and 24 per twisted-average entry
        assert 16 * expsums.MAX_SALIE_C ** 2 <= 2 ** 32
        assert 48 * expsums.MAX_GAUSS_C <= 2 ** 32
        assert 24 * expsums.MAX_TWISTED_ENTRIES <= 2 ** 32

    def test_measured_peaks_fit_the_caps(self):
        # tracemalloc peak per entry, scaled to the cap: within 4 GiB
        c = 2 ** 16
        expsums._roots_of_unity.cache_clear()
        tracemalloc.start()
        gauss_sum(3, 5, c)
        gauss_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert gauss_peak / c * expsums.MAX_GAUSS_C <= 2 ** 32
        mod = IntMat2.scalar(6)
        entries = sp4.coset_data(mod).count * 36 * 36
        twisted_average(mod, 1, 1)  # warm the coset table and the roots
        tracemalloc.start()
        twisted_average(mod, 1, 1)
        twisted_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert twisted_peak / entries * expsums.MAX_TWISTED_ENTRIES <= 2 ** 32

    def test_salie_refused_above_cap(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap 16384"):
            salie(HI, HI, 100_003)
        assert time.perf_counter() - t0 < 1

    def test_rank1_sum_refused_above_cap(self):
        params = SpectralParams(k=10, level=3, rank1_cutoff=100_003)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the Salie cap 16384"):
            petersson.h_fourier(HI, HI, params)
        assert time.perf_counter() - t0 < 1

    def test_twisted_refused_above_cap(self):
        # 20I has 3,200 cosets: 3,200 x 400 x 400 = 512 M entries, 12 GiB
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap 134217728"):
            twisted_average(IntMat2.scalar(20), 1, 1)
        assert time.perf_counter() - t0 < 1

    def test_gauss_refused_above_cap(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap 67108864"):
            gauss_sum(1, 0, expsums.MAX_GAUSS_C + 1)
        assert time.perf_counter() - t0 < 1


class TestCongruenceCount:
    def test_main_case_exact_value(self):
        # With h1 = h2 = 0 both congruences force d4 = -d1 and nothing else,
        # so the count is N^2 minus the solutions of d1^2 + d2^2 = 0 mod N;
        # for N = 3 mod 4 that is the single origin: count = N^2 - 1.
        for n in (3, 7, 11):
            assert congruence_count(n, 1, 0, 1, 0, 0, 1, 1) == n * n - 1

    def test_main_case_ab_independent(self):
        for n in (3, 7, 11):
            ref = congruence_count(n, 1, 0, 1, 0, 0, 1, 1)
            for (a, b) in ((2, 1), (1, 2), (n - 1, n - 2)):
                assert congruence_count(n, 1, 0, 1, 0, 0, a, b) == ref

    def test_off_main_small(self):
        assert congruence_count(3, 1, 0, 1, 1, 0, 1, 1) <= 4
        assert congruence_count(7, 1, 0, 2, 0, 0, 1, 1) <= 8

    def test_preconditions(self):
        with pytest.raises(ValueError):
            congruence_count(5, 1, 0, 1, 0, 0, 1, 1)  # 5 = 1 mod 4
        with pytest.raises(ValueError):
            congruence_count(3, 1, 1, 1, 0, 0, 1, 1)  # 4c1c4 - c2^2 = 0 mod 3
        with pytest.raises(ValueError):
            congruence_count(3, 1, 0, 1, 0, 0, 3, 1)  # a not coprime


class TestBoundEnvelope:
    def test_elementary_divisor_bound_reported(self, capsys):
        # |K(Q,T;C)| against c1^2 c2^(1/2) (c2, t4)^(1/2) with t4 the
        # (2,2)-entry of V^T T V: the factor 8 is the envelope that
        # petersson._rank2_shell_bound budgets the rank-2 tail with.
        from siegelsums.matcore import elementary_divisors
        worst = 0.0
        rng = random.Random(31)
        forms = pd_forms(2, 1)
        moduli = []
        while len(moduli) < 25:
            c = IntMat2(*(rng.randint(-3, 3) for _ in range(4)))
            if c.det() == 0:
                continue
            c1, c2, _, _ = elementary_divisors(c)
            if c2 <= 12:
                moduli.append(c)
        for c in moduli:
            c1, c2, _, v = elementary_divisors(c)
            for q in forms[:4]:
                for t in forms[:4]:
                    t4 = t.conjugate_left(v).t4
                    cap = c1 * c1 * math.sqrt(c2 * math.gcd(c2, t4))
                    ratio = abs(kloosterman(q, t, c).value) / cap
                    worst = max(worst, ratio)
        print(f"recorded Kloosterman envelope constant: {worst:.4f}")
        assert worst <= 8.0


class TestTwistedAverage:
    def test_identity_modulus(self):
        v = twisted_average(I2, 1, 1)
        assert abs(v.value - 1) < 1e-12

    def test_one_plus_i(self):
        v = twisted_average(IntMat2(1, 1, -1, 1), 1, 1)
        assert abs(v.value - 4) < 1e-9
        assert gaussian_totient(GaussianInt(1, 1)) == 1

    def test_nontrivial_character_vanishes(self):
        assert abs(twisted_average(I2, -4, 1).value) < 1e-9

    def test_non_go2_rejected(self):
        with pytest.raises(ValueError):
            twisted_average(IntMat2(1, 2, 3, 4), 1, 1)

    @pytest.mark.parametrize("q", [0, 2])
    def test_non_discriminant_rejected(self, q):
        # unchecked, q = 0 gives an empty sum and q = 2 a closed-form mismatch
        for q1, q2 in ((q, 1), (1, q)):
            with pytest.raises(ValueError, match="fundamental discriminant"):
                twisted_average(I2, q1, q2)

    def test_both_shapes(self):
        for c in (IntMat2(2, 1, -1, 2), IntMat2(2, 1, 1, -2)):
            v = twisted_average(c, 1, 1)
            want = c.det() ** 2 * gaussian_totient(GaussianInt(2, 1))
            assert abs(v.value - want) < 1e-9

    @pytest.mark.parametrize("q1, q2", [
        (1, 1), (1, -4), (1, 5), (-4, 1), (-4, 5), (5, 1), (5, -4),
        (-3, 1), (1, -8), (12, -3)])
    def test_matches_kloosterman_loop(self, q1, q2):
        # one K(mu2 I, mu1 I; C) per character pair, accumulated in complex
        # arithmetic, on the GO2 moduli of acceptance criterion 5
        for x in range(-3, 4):
            for y in range(-3, 4):
                if not 0 < x * x + y * y <= 10:
                    continue
                for c in (IntMat2(x, y, -y, x), IntMat2(x, y, y, -x)):
                    cdet = abs(c.det())
                    want, terms = 0j, 0
                    for mu1 in range(math.lcm(abs(q1), cdet)):
                        for mu2 in range(math.lcm(abs(q2), cdet)):
                            ch = kronecker(q1, mu1) * kronecker(q2, mu2)
                            if ch:
                                k = kloosterman(HalfIntegralForm.scalar(mu2),
                                                HalfIntegralForm.scalar(mu1), c)
                                want += ch * k.value
                                terms += k.terms
                    got = twisted_average(c, q1, q2)
                    assert got.terms == terms, c
                    assert abs(got.value - want) <= 1e-12, c
