import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import loggamma

from siegelsums.lfun import (
    FundamentalDiscriminant,
    PoleError,
    dirichlet_l,
    dirichlet_l_vec,
    euler_product_l,
    hurwitz_zeta,
    r_coeff,
    zeta,
    zeta_gaussian,
)


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
            d = 0
            f = 1
            while f * f <= n:
                if n % f == 0:
                    d += 2 if f * f != n else 1
                f += 1
            assert abs(r_coeff(1, n)) <= d / math.sqrt(n) + 1e-12


class TestDirichletL:
    def test_zeta_two(self):
        # Euler-Maclaurin value against the closed form pi^2/6
        assert abs(zeta(2.0) - math.pi ** 2 / 6) < 1e-12

    def test_leibniz_value(self):
        # accelerated Leibniz oracle for L(1, chi_{-4}) = pi/4
        partial = sum((-1) ** k / (2 * k + 1) for k in range(10_000))
        accel = partial + 0.5 * ((-1) ** 10_000 / (2 * 10_000 + 1))
        got = dirichlet_l(1.0, -4).value
        assert abs(got - math.pi / 4) < 1e-12
        assert abs(got - accel) < 1e-8

    def test_pole(self):
        with pytest.raises(PoleError):
            dirichlet_l(1.0, 1)
        for eps in (1e-3, -1e-3):
            assert abs(eps * zeta(1 + eps) - 1) < 2e-3

    def test_conjugate_symmetry(self):
        for q in (1, -4, 13):
            s = 1.4 + 0.9j
            assert abs(dirichlet_l(s, q).value.conjugate()
                       - dirichlet_l(s.conjugate(), q).value) < 1e-12

    def test_euler_product(self):
        for q in (1, -4, 5):
            ep = euler_product_l(3.0, q, 10_000)
            assert abs(ep - dirichlet_l(3.0, q).value) < 1e-8

    def test_dedekind_factorization(self):
        for s in (2.0, 1.1 + 0.4j, 0.7 + 2.0j):
            assert abs(zeta_gaussian(s)
                       - zeta(s) * dirichlet_l(s, -4).value) < 1e-12

    def test_imprimitive_euler_factor(self):
        # chi_16 is principal on odd integers: L(s, chi_16) = zeta(s)(1 - 2^-s)
        for s in (1.5, 2.0 + 0.5j, 0.9 + 0.1j):
            lhs = dirichlet_l(s, 16).value
            rhs = zeta(s) * (1 - 2 ** (-complex(s)))
            assert abs(lhs - rhs) < 1e-11

    def test_class_number_value(self):
        # L(1, chi_5) = 2 log((1 + sqrt 5)/2) / sqrt 5
        want = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
        assert abs(dirichlet_l(1.0, 5).value - want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.3, 0.7), st.floats(-9.0, 9.0),
           st.sampled_from([1, -4, 5, 65, -20]))
    def test_functional_equation(self, re, im, q):
        # L(s, chi_q) = G(1 - s) / G(s) L(1 - s, chi_q) for primitive real
        # chi_q, with G(s) = (|q|/pi)^{(s+a)/2} Gamma((s+a)/2), a = 0 for
        # even and a = 1 for odd characters
        a = 0 if q > 0 else 1

        def log_g(z):
            return ((z + a) / 2 * math.log(abs(q) / math.pi)
                    + complex(loggamma((z + a) / 2)))

        s = complex(re, im)
        lhs = dirichlet_l_vec(np.array([s]), q)[0]
        rhs = cmath.exp(log_g(1 - s) - log_g(s)) * dirichlet_l(1 - s, q).value
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))

    def test_continuous_through_one(self):
        # non-principal L-functions are analytic at s = 1 with slopes
        # L'(1) between -0.2 and 0.4 for these characters, so the vector
        # path must stay within |s - 1| of L(1) down to s = 1 itself
        for q in (-4, 5, -52, 8, -3):
            at_one = dirichlet_l(1.0, q).value
            for h in [10.0 ** -e for e in range(3, 13)] + [0.0]:
                val = dirichlet_l_vec(np.array([1.0 + h]), q)[0]
                assert cmath.isfinite(val)
                assert abs(val - at_one) <= h, (q, h)


class TestHurwitz:
    def test_reduces_to_zeta(self):
        assert abs(hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6) < 1e-12

    def test_splitting_identity(self):
        # zeta(s, a/2) decomposition: zeta(s) (2^s - ...) spot check via
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        for s in (2.0, 3.5, 1.5 + 1.0j):
            lhs = hurwitz_zeta(s, 0.5)
            rhs = (2 ** complex(s) - 1) * zeta(s)
            assert abs(lhs - rhs) < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 1.5)


def test_fundamental_discriminant_type():
    assert FundamentalDiscriminant(5).chi(2) == -1
    with pytest.raises(ValueError):
        FundamentalDiscriminant(9)
