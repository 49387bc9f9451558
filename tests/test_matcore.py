import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelsums.kernels import truncation_set
from siegelsums.matcore import (
    GaussianInt,
    HalfIntegralForm,
    IntMat2,
    SingularModulusError,
    aut_count,
    elementary_divisors,
    gaussian_totient,
    gl2_equivalence,
    is_fundamental_discriminant,
    is_go2,
    is_prime,
    kronecker,
    prime_factors,
    representations,
    solve_integer_system,
)

I = IntMat2.identity()


class TestElementaryDivisors:
    def test_identity(self):
        c1, c2, u, v = elementary_divisors(I)
        assert (c1, c2) == (1, 1)

    def test_diagonal_with_divisibility(self):
        assert elementary_divisors(IntMat2(2, 0, 0, 4))[:2] == (2, 4)

    def test_upper_triangular(self):
        # oracle: c1 = gcd of entries, c2 = |det| / c1
        m = IntMat2(2, 1, 0, 3)
        c1, c2, _, _ = elementary_divisors(m)
        g = math.gcd(math.gcd(2, 1), 3)
        assert (c1, c2) == (g, abs(m.det()) // g) == (1, 6)

    def test_singular_rejected(self):
        with pytest.raises(SingularModulusError):
            elementary_divisors(IntMat2(1, 2, 2, 4))

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(-20, 20)] * 4))
    def test_round_trip(self, entries):
        c = IntMat2(*entries)
        if c.det() == 0:
            return
        c1, c2, u, v = elementary_divisors(c)
        assert u.mul(c).mul(v) == IntMat2.diag(c1, c2)
        assert c1 >= 1 and c2 % c1 == 0 and c1 * c2 == abs(c.det())
        assert u.is_unimodular() and v.is_unimodular()
        # gcd oracle for the first divisor
        assert c1 == math.gcd(math.gcd(abs(c.a), abs(c.b)),
                              math.gcd(abs(c.c), abs(c.d)))

    def test_outputs_pinned(self):
        # (c1, c2, U, V) for every nonsingular matrix with entries in
        # [-6, 6]: the shell budget of petersson reads t4 off exactly this
        # V, through the t_map of sp4.smith_class, so a change in the order
        # of elimination steps must show here
        h = hashlib.sha256()
        for entries in itertools.product(range(-6, 7), repeat=4):
            c = IntMat2(*entries)
            if c.det() != 0:
                c1, c2, u, v = elementary_divisors(c)
                h.update(repr((c1, c2, u.entries(), v.entries())).encode())
        assert h.hexdigest() == ("24955ef4af4dd91e0be4d7cbd3858a64"
                                 "c96ee96d7ba8e76bfae0caa7f8fffca2")

    def test_negated_modulus_keeps_v_up_to_sign(self):
        # the shell budget of petersson counts the envelope of C for -C,
        # which reads V^T T V from sp4.smith_class of C; every nonsingular
        # matrix with entries in [-4, 4] (box and shell moduli at
        # N <= 211), and the same times 13
        for entries in itertools.product(range(-4, 5), repeat=4):
            base = IntMat2(*entries)
            if base.det() == 0:
                continue
            for n in (1, 13):
                c = base.scale(n)
                v = elementary_divisors(c)[3]
                assert elementary_divisors(c.scale(-1))[3] in (v, v.scale(-1))

    def test_positive_scale_keeps_u_and_v(self):
        # the shell budget of petersson takes the divisors and V of N C'
        # from the Smith class of C': for N > 0 every Euclid step is the
        # same on N C' as on C'.  The box of bound 6 holds every box row
        # and width-1 shell row of the bounds M <= 5
        for row in truncation_set(6).tolist():
            c = IntMat2(*row)
            c1, c2, u, v = elementary_divisors(c)
            for n in (2, 3, 13, 47, 1009):
                assert (elementary_divisors(c.scale(n))
                        == (n * c1, n * c2, u, v)), (c, n)


class TestIntegerSolver:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_consistent_systems_solve(self, data):
        nr = data.draw(st.integers(1, 6))
        nc = data.draw(st.integers(1, 8))
        rows = [[data.draw(st.integers(-9, 9)) for _ in range(nc)]
                for _ in range(nr)]
        x0 = [data.draw(st.integers(-5, 5)) for _ in range(nc)]
        rhs = [sum(r[j] * x0[j] for j in range(nc)) for r in rows]
        x = solve_integer_system(rows, rhs)
        assert x is not None
        assert all(sum(r[j] * x[j] for j in range(nc)) == b
                   for r, b in zip(rows, rhs))

    def test_insoluble(self):
        assert solve_integer_system([[2]], [1]) is None

    def test_single_rows_against_gcd(self):
        # a1 x1 + ... + an xn = b is solvable iff gcd(a) | b (b = 0 for a
        # zero row); every row with entries in [-3, 3], up to 3 unknowns
        for n in (1, 2, 3):
            for row in itertools.product(range(-3, 4), repeat=n):
                g = math.gcd(*row)
                for b in range(-7, 8):
                    x = solve_integer_system([list(row)], [b])
                    solvable = b % g == 0 if g else b == 0
                    if solvable:
                        assert sum(a * xi for a, xi in zip(row, x)) == b
                    else:
                        assert x is None


class TestFormEquivalence:
    def test_identity_aut_8(self):
        f = HalfIntegralForm.identity()
        u = gl2_equivalence(f, f)
        assert u is not None and f.conjugate_left(u) == f
        assert aut_count(f) == 8

    def test_swap_equivalence(self):
        q = HalfIntegralForm(1, 0, 2)
        t = HalfIntegralForm(2, 0, 1)
        u = gl2_equivalence(q, t)
        assert u is not None
        assert q.conjugate_left(u) == t

    def test_different_determinants(self):
        assert gl2_equivalence(HalfIntegralForm.identity(),
                               HalfIntegralForm(1, 0, 2)) is None

    def test_aut_counts_divide_24_and_even(self):
        for f in (HalfIntegralForm(1, 0, 1), HalfIntegralForm(1, 0, 2),
                  HalfIntegralForm(1, 1, 1), HalfIntegralForm(2, 1, 3),
                  HalfIntegralForm(3, 2, 5)):
            n = aut_count(f)
            assert 24 % n == 0 and n % 2 == 0

    def test_representation_enumeration(self):
        f = HalfIntegralForm.identity()
        assert representations(f, 1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        assert representations(f, 3) == []


class TestKronecker:
    def test_trivial_character(self):
        assert all(kronecker(1, n) == 1 for n in range(0, 60))

    def test_chi_minus4(self):
        # chi_{-4}(n) = (-1)^((n-1)/2) on odd n, 0 on even
        for n in range(1, 60):
            want = 0 if n % 2 == 0 else (1 if n % 4 == 1 else -1)
            assert kronecker(-4, n) == want
        assert kronecker(-4, 3) == -1

    def test_shared_factor(self):
        assert kronecker(5, 5) == 0

    def test_matches_legendre_on_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for q in (1, -4, 5, -3, 8, 13):
                if q % p == 0:
                    continue
                lg = pow(q % p, (p - 1) // 2, p)
                lg = -1 if lg == p - 1 else lg
                assert kronecker(q, p) == lg

    def test_periodicity_mod_4q(self):
        for q in (1, -4, 5, -3, 8, 13):
            m = 4 * abs(q)
            for n in range(1, 3 * m):
                assert kronecker(q, n) == kronecker(q, n + m)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([1, -4, 5, -3, 8, 13, -20, 65]),
           st.integers(1, 300), st.integers(1, 300))
    def test_completely_multiplicative(self, q, m, n):
        assert kronecker(q, m * n) == kronecker(q, m) * kronecker(q, n)


class TestGaussianTotient:
    def test_examples(self):
        assert gaussian_totient(GaussianInt(1, 0)) == 1
        assert gaussian_totient(GaussianInt(1, 1)) == 1
        assert gaussian_totient(GaussianInt(3, 0)) == 8

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gaussian_totient(GaussianInt(0, 0))

    def test_matches_unit_count(self):
        # z is a unit mod g iff z, iz, g, ig span Z^2, i.e. their 2 x 2
        # minors (four distinct up to sign) have gcd 1; each class mod g
        # appears N(g) times in the box [0, N(g))^2, since N(g) Z^2 lies in
        # the lattice of g
        for x in range(-7, 8):
            for y in range(-7, 8):
                n = x * x + y * y
                if not 0 < n <= 50:
                    continue
                a, b = np.divmod(np.arange(n * n), n)
                minors = np.gcd.reduce([a * a + b * b, a * y - b * x,
                                        a * x + b * y, np.full_like(a, n)])
                units = int(np.count_nonzero(minors == 1))
                assert gaussian_totient(GaussianInt(x, y)) * n == units, (x, y)

    def test_multiplicative_on_coprime(self):
        gs = [GaussianInt(x, y) for x in range(-7, 8) for y in range(0, 8)
              if 1 <= x * x + y * y <= 50]
        for g1 in gs:
            for g2 in gs:
                if math.gcd(g1.norm(), g2.norm()) != 1:
                    continue
                prod = GaussianInt(g1.x * g2.x - g1.y * g2.y,
                                   g1.x * g2.y + g1.y * g2.x)
                assert (gaussian_totient(prod)
                        == gaussian_totient(g1) * gaussian_totient(g2))


    def test_multiplicative_on_conjugate_split_primes(self):
        # pi and its conjugate are coprime in Z[i] although their norms
        # are equal, so the coprime-norm test above never pairs them
        for pi in (GaussianInt(2, 1), GaussianInt(3, 2), GaussianInt(4, 1)):
            conj = GaussianInt(pi.x, -pi.y)
            # pi * conj(pi) is the rational integer N(pi)
            assert (gaussian_totient(GaussianInt(pi.norm(), 0))
                    == gaussian_totient(pi) * gaussian_totient(conj))


class TestGO2:
    def test_examples(self):
        assert is_go2(I)
        assert is_go2(IntMat2(2, 1, -1, 2))
        assert not is_go2(IntMat2(1, 2, 3, 4))
        assert not is_go2(IntMat2.zero())

    def test_characterization_via_gram(self):
        # C in GO2 <=> C^T C = |det C| I, C != 0
        for a in range(-3, 4):
            for b in range(-3, 4):
                for c in range(-3, 4):
                    for d in range(-3, 4):
                        m = IntMat2(a, b, c, d)
                        if m.entries() == (0, 0, 0, 0):
                            continue
                        gram = m.t().mul(m)
                        ortho = (gram.b == 0 and gram.a == gram.d
                                 and gram.a == abs(m.det()))
                        assert is_go2(m) == ortho


def test_fundamental_discriminants():
    assert is_fundamental_discriminant(1)
    for q in (-4, 5, -3, 8, 12, 13, -20, -52, 65):
        assert is_fundamental_discriminant(q)
    for q in (2, 3, -5, 16, 0, -12, 9, 45):
        assert not is_fundamental_discriminant(q)


def is_prime_reference(n):
    """Primality by its own odd trial division, independent of
    ``prime_factors``."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class TestPrimeFactors:
    def test_is_prime_matches_reference(self):
        for n in range(-50, 100_001):
            assert is_prime(n) == is_prime_reference(n), n

    def test_factorization_round_trip(self):
        for n in (*range(1, 2_000), -360, 2 ** 31 - 1, 3 ** 5 * 7 ** 2 * 101):
            fs = prime_factors(n)
            assert math.prod(p ** e for p, e in fs) == abs(n)
            assert all(is_prime_reference(p) and e >= 1 for p, e in fs)
            assert [p for p, _ in fs] == sorted({p for p, _ in fs})

    def test_zero_rejected(self):
        # the trial loop would divide 0 by 2 for ever
        with pytest.raises(ValueError):
            prime_factors(0)
