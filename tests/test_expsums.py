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

from siegelsums import acceptance, expsums, petersson, sp4
from siegelsums.kernels import truncation_set
from siegelsums.matcore import (
    GaussianInt,
    HalfIntegralForm,
    IntMat2,
    _xgcd,
    gaussian_totient,
    is_prime,
    kronecker,
    prime_factors,
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
from support import (
    closed_histogram,
    factored_bound,
    fold_counts,
    grid_part,
    joint_counts,
    mats,
    pI_bound,
    salie_bound,
    table_histogram,
    tally_bound,
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
    plain double loop over d1 (a unit) and d2 mod c, tallied like the grid
    route ``expsums._salie_grid``, so the two agree to the last bit."""
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


class TestClosedForm:
    # the pI histogram assembled from the memo's rows H_n against the
    # grid's, as integer vectors: every vector (q1, q2, q4, t1, t2, t4) mod p
    # at p = 3, 5 and 7, and 1,024 random ones at each prime from 11 to 101
    @staticmethod
    def grid_counts(p, vectors):
        # one bincount per block of vectors, each offset by p times its row
        nums = (vectors @ sp4._pI_grid(p).T) % p
        offset = nums + p * np.arange(len(vectors))[:, None]
        return np.bincount(offset.ravel(), minlength=p * len(vectors)
                           ).reshape(len(vectors), p)

    @staticmethod
    def closed_counts(p, vectors):
        return np.array([closed_histogram(HalfIntegralForm(*v[:3]),
                                          HalfIntegralForm(*v[3:]), p)
                         for v in vectors.tolist()])

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_vector(self, p):
        vectors = np.array(list(itertools.product(range(p), repeat=6)),
                           dtype=np.int64)
        for block in np.array_split(vectors, max(1, len(vectors) // 4096)):
            assert np.array_equal(self.closed_counts(p, block),
                                  self.grid_counts(p, block))

    @pytest.mark.parametrize("p", [p for p in range(11, 102) if is_prime(p)])
    def test_random_vectors(self, p):
        # 1,024 vectors: every pair of 32 random Q and 32 random T, with
        # the cases that the closed form splits off planted: Q = 0 and
        # T = 0, D_Q = 0 and D_T = 0, and Q a multiple of adj T
        rng = np.random.default_rng(p)
        qs, ts = rng.integers(0, p, size=(2, 32, 3))
        qs[0] = ts[0] = 0
        qs[1] = ts[1] = [1, 2, 1]
        lam = rng.integers(1, p, size=(4, 1))
        qs[2:6] = lam * ts[2:6][:, ::-1] * [1, -1, 1] % p
        # the grid's numerators split as a Q part plus a T part
        aq = [grid_part(p, 0, q) for q in qs.tolist()]
        bt = [grid_part(p, 3, t) for t in ts.tolist()]
        for q, a in zip(qs.tolist(), aq):
            for t, b in zip(ts.tolist(), bt):
                assert np.array_equal(
                    closed_histogram(HalfIntegralForm(*q),
                                     HalfIntegralForm(*t), p),
                    fold_counts(a, b, p)), (p, q, t)

    def test_value_is_the_tally_of_the_histogram(self):
        # kloosterman_pI's value against the tally of the grid, within the
        # two routes' rounding bounds
        for p in (3, 5, 7, 11, 13):
            for q in pd_forms()[:6]:
                for t in pd_forms()[:6]:
                    got = kloosterman_pI(q, t, p)
                    want = _tally_value(
                        (sp4._pI_grid(p) @ expsums._form_vector(q, t)) % p, p)
                    assert got.terms == p ** 3 - p ** 2
                    assert abs(got.value - want) <= (
                        pI_bound(p) + tally_bound(got.terms, p))

    def test_level_two_tallies_its_grid(self):
        for q in pd_forms()[:6]:
            for t in pd_forms()[:6]:
                want = _tally_value(
                    (sp4._pI_grid(2) @ expsums._form_vector(q, t)) % 2, 2)
                assert kloosterman_pI(q, t, 2).value == want

    def test_runs_far_above_the_grid_cap_without_a_grid(self):
        # N = 10,007: the grid would take 72 N^3 bytes and is refused
        # above sp4.MAX_PI_GRID_N, so these calls cannot have built one
        n = 10_007
        assert n > sp4.MAX_PI_GRID_N
        acceptance.clear_all_caches()
        tracemalloc.start()
        v = kloosterman_pI(HI, HalfIntegralForm(1, 1, 2), n)
        f = kloosterman_factored(HI, HalfIntegralForm(1, 1, 2), n,
                                 IntMat2.diag(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sp4._pI_grid.cache_info().misses == 0
        assert v.terms == n ** 3 - n ** 2
        assert f.terms == v.terms * sp4.coset_data(IntMat2.diag(1, 2)).count
        assert abs(v.value) <= v.terms and abs(f.value) <= f.terms
        assert peak < 10 * 2 ** 20


class TestFactored:
    FORMS = [(q, t) for q in (HI, HalfIntegralForm(1, 1, 2))
             for t in (HI, HalfIntegralForm(2, 1, 1))]

    @staticmethod
    def check_against_coset_sum(q, t, n, cmat, table):
        # value within the product's bound plus the coset tally's, terms ==
        got = kloosterman_factored(q, t, n, cmat)
        nums = (table.weights @ expsums._form_vector(q, t)) % table.m
        want = _tally_value(nums, table.m)
        right = sp4.coset_data(cmat)
        bound = (factored_bound(n, right.count, right.m)
                 + tally_bound(table.count, table.m))
        assert got.terms == table.count, (n, cmat, q, t)
        assert abs(got.value - want) <= bound, (n, cmat, q, t)

    @pytest.mark.parametrize("n", [3, 5, 7, 11])
    def test_bit_identical_to_coset_sum(self, n):
        # the pairs of the closed pI histogram and the table of C' give the
        # coset table's histogram of N C' count for count, on every box
        # modulus (C' = I included); the product of the two values is then
        # the coset sum up to the rounding of two tallies and one product
        moduli = mats(truncation_set(
            SpectralParams(k=10, level=n).m_bound))
        assert len(moduli) == 288
        for cmat in moduli:
            for q, t in self.FORMS:
                assert np.array_equal(
                    joint_counts(q, t, n, cmat, closed_histogram),
                    table_histogram(q, t, cmat.scale(n))), (n, cmat, q, t)
                self.check_against_coset_sum(q, t, n, cmat,
                                             sp4.coset_data(cmat.scale(n)))

    @pytest.mark.parametrize("cmat", [
        I2, IntMat2.diag(1, 2), IntMat2(1, 1, -1, 1), IntMat2.diag(2, 2),
        IntMat2(2, 1, 1, 1), IntMat2(0, 1, -2, 1)])
    def test_matches_brute_force(self, cmat):
        # against the table enumerated for 3 C' itself, not derived from
        # its Smith class; diag(2, 2) lies outside the box
        table = sp4._enumerated_table(cmat.scale(3))
        for q, t in self.FORMS:
            self.check_against_coset_sum(q, t, 3, cmat, table)

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
                    self.check_against_coset_sum(
                        q, t, 5, cmat, sp4.coset_data(cmat.scale(5)))

    def test_bezout_independence(self):
        # X Q X^T mod N does not depend on the Bezout pair, and s^2 enters
        # the table of C' through even weights only (A C^{-1} is
        # symmetric), so mod |det C'|, where every s is an inverse of N:
        # the value is the same bit for bit
        for cmat in (IntMat2.diag(1, 2), IntMat2.diag(1, 5),
                     IntMat2(1, 2, 3, 1), IntMat2(2, 1, 1, 3)):
            cdet = cmat.det()
            _, s, tt = _xgcd(3, cdet)
            for q, t in self.FORMS:
                values = {kloosterman_factored(
                    q, t, 3, cmat, bezout=(s + k * cdet, tt - 3 * k))
                    for k in range(-2, 3)}
                assert len(values) == 1, (cmat, q, t)

    @pytest.mark.parametrize("n", [3, 5])
    def test_reads_smith_class_tables_only(self, monkeypatch, n):
        # the C' sum is the tally of the Smith class's table at
        # (U s^2 Q U^T, V^T T V): no table of C' itself is asked for, and
        # the value is the product with the tally of C''s derived table
        # at (s^2 Q, T), bit for bit
        real = sp4.coset_data
        asked = []

        def spy(c):
            asked.append(c)
            return real(c)

        moduli = mats(truncation_set(
            SpectralParams(k=10, level=n).m_bound))
        for cmat in moduli:
            _, s, tt = _xgcd(n, cmat.det())
            for q, t in self.FORMS:
                asked.clear()
                monkeypatch.setattr(sp4, "coset_data", spy)
                got = kloosterman_factored(q, t, n, cmat)
                monkeypatch.undo()
                assert len(asked) == 1 and asked[0].b == asked[0].c == 0
                assert asked[0].a >= 1 and asked[0].d % asked[0].a == 0
                data = sp4.coset_data(cmat)
                right = _tally_value(
                    (data.weights @ expsums._form_vector(q.scale(s * s), t))
                    % data.m, data.m)
                left = expsums._pI_value(
                    q.conjugate_right(cmat.adj().scale(tt)), t, n)
                assert got.value == left * right, (n, cmat, q, t)

    def test_smith_class_memo_is_bounded_and_bit_stable(self):
        # the memo is bounded by the box, not by a guessed size: over the
        # M = 2 box of N = 5 and the M = 4 box of N = 421 (2,136 moduli,
        # more than the former bound of 1,024) each modulus misses once,
        # every later form pair hits, and a warm read equals a cold one;
        # each class table built looks its own class up once more
        for n, size in ((5, 288), (421, 2136)):
            moduli = mats(truncation_set(
                SpectralParams(k=10, level=n).m_bound))
            assert len(moduli) == size
            acceptance.clear_all_caches()
            cold = [kloosterman_factored(q, t, n, cmat).value
                    for q, t in self.FORMS for cmat in moduli]
            info = sp4.smith_class.cache_info()
            classes = sp4.coset_data.cache_info().misses
            assert info.misses == info.currsize == len(moduli)
            assert info.hits == (len(self.FORMS) - 1) * len(moduli) + classes
            warm = [kloosterman_factored(q, t, n, cmat).value
                    for q, t in self.FORMS for cmat in moduli]
            assert warm == cold

    @pytest.mark.parametrize("n", [2, 5, 47])
    def test_batch_equals_one_modulus_calls(self, n):
        # one call over a box's moduli (its Smith classes mixed, so each
        # class's bincount serves several moduli) gives each modulus the
        # value and count of its own call, bit for bit
        moduli = [c for c in mats(truncation_set(
            SpectralParams(k=10, level=n).m_bound)) if c.det() % n]
        inverses = [(pow(n, -1, abs(c.det())), pow(c.det(), -1, n))
                    for c in moduli]
        for q, t in self.FORMS:
            one = [kloosterman_factored(q, t, n, c) for c in moduli]
            adj = [q.conjugate_right(c.adj()) for c in moduli]
            batch = expsums._kloosterman_factored_values(
                q, t, n, moduli, [(p.t1, p.t2, p.t4) for p in adj], inverses)
            assert [v for v, _ in batch] == [f.value for f in one]
            assert [(n ** 3 - n ** 2) * k for _, k in batch] == [
                f.terms for f in one]

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
        # the grid route is the plain loop to the last bit, and H^-(P, S; c)
        # is H^+(P, (s1, -s2, s4); c) on it; ``salie``, which takes the
        # closed form wherever it applies, is within the two values'
        # derived rounding bounds of the loop, with the same terms
        pairs = [((1, 0, 1), (1, 1, 1)), ((2, -3, 5), (-4, 7, 5)),
                 ((-3, 5, -2), (5, -1, -2)), ((7, -11, 3), (-2, 4, 3)),
                 # entries far beyond int64 once multiplied out
                 ((10 ** 15 + 1, -3 * 10 ** 12, 6), (-(10 ** 14), 7, 6))]
        for pt, st_ in pairs:
            p, s = HalfIntegralForm(*pt), HalfIntegralForm(*st_)
            for c in range(1, 41):
                for sign, arg in ((1, s), (-1, minus_form(s))):
                    want, terms = salie_reference(p, s, c, sign)
                    grid = expsums._salie_grid(p, arg, c)
                    assert (grid.value, grid.terms) == (want, terms)
                    got = salie(p, arg, c)
                    assert got.terms == terms
                    assert abs(got.value - want) <= 2 * salie_bound(terms, c)

    @pytest.mark.parametrize("group", ["criterion-6", "shared-primes",
                                       "distinct-primes"])
    def test_closed_form_matches_grid(self, group):
        # every c <= 200 against the whole grid, within the two routes'
        # bounds: the criterion-6 forms (each P with one of its S, in
        # turn); pairs with gcd(c, s4 D_P D_S) > 1 for many c, the p | s4,
        # p | D_P alone and p | gcd(D_P, D_S) cases; and pairs whose D_P
        # and D_S have different primes
        if group == "criterion-6":
            pairs = []
            for i, p in enumerate(acceptance._pd_forms()):
                ss = [HalfIntegralForm(s1, s2, p.t4) for s1 in (1, 2, 3)
                      for s2 in (-2, -1, 0, 1, 2)]
                ss = [s for s in ss if s.is_positive_definite()]
                pairs.append((p, ss[i % len(ss)]))
        elif group == "shared-primes":
            pairs = [(HalfIntegralForm(*a), HalfIntegralForm(*b)) for a, b in (
                ((1, 1, 3), (2, 1, 3)), ((1, 0, 15), (2, 3, 15)),
                ((3, 3, 3), (3, 3, 3)), ((1, 3, 9), (2, 3, 9)),
                ((5, 5, 5), (1, 5, 5)), ((7, 7, 7), (2, 7, 7)),
                ((1, 0, 1), (1, 2, 1)), ((2, 6, 6), (4, 6, 6)),
                ((1, 1, 100), (1, 1, 100)), ((3, 0, 7), (5, 0, 7)))]
        else:
            pairs = [(HalfIntegralForm(*a), HalfIntegralForm(*b)) for a, b in (
                ((1, 1, 1), (1, 0, 1)), ((1, 1, 2), (1, 0, 2)),
                ((2, 1, 3), (1, 1, 3)), ((1, 1, 5), (3, 1, 5)),
                ((1, 0, 7), (2, 1, 7)), ((3, 2, 4), (1, 1, 4)))]
            for p, s in pairs:
                dp, ds = (f.t2 * f.t2 - 4 * f.t1 * f.t4 for f in (p, s))
                assert math.gcd(dp, ds) in (1, 2, 4), (p, s)
        for p, s in pairs:
            for c in range(1, 201):
                got, grid = salie(p, s, c), expsums._salie_grid(p, s, c)
                assert got.terms == grid.terms
                assert abs(got.value - grid.value) <= 2 * salie_bound(
                    got.terms, c), (p, s, c)

    def test_grid_moduli_take_the_grid_value(self):
        # where the closed forms leave every prime power of c to the grid
        # (c = 2^e, or each odd prime of c divides s4 or both D_P and D_S),
        # salie's value is the grid's, bit for bit: every such c <= 200 on
        # the criterion-6 forms and the shared-prime pairs above
        pairs = [(p, HalfIntegralForm(s1, s2, p.t4))
                 for p in acceptance._pd_forms() for s1 in (1, 2, 3)
                 for s2 in (-2, -1, 0, 1, 2)]
        pairs += [(HalfIntegralForm(*a), HalfIntegralForm(*b)) for a, b in (
            ((1, 0, 15), (2, 3, 15)), ((3, 3, 3), (3, 3, 3)),
            ((1, 3, 9), (2, 3, 9)), ((5, 5, 5), (1, 5, 5)),
            ((7, 7, 7), (2, 7, 7)), ((2, 6, 6), (4, 6, 6)),
            ((1, 1, 100), (1, 1, 100)))]
        checked = 0
        for p, s in pairs:
            if not s.is_positive_definite():
                continue
            dp, ds = (f.t2 * f.t2 - 4 * f.t1 * f.t4 for f in (p, s))
            for c in range(1, 201):
                if all(s.t4 % r == 0 or dp % r == ds % r == 0
                       for r, _ in prime_factors(c) if r > 2):
                    assert (repr(salie(p, s, c))
                            == repr(expsums._salie_grid(p, s, c))), (p, s, c)
                    checked += 1
        assert checked > 1000

    def test_exact_zero_when_inert_at_a_prime(self):
        # an odd p dividing c but not s4 with (D_P D_S | p) = -1 makes the
        # value exactly 0j; the grid agrees within its bound
        rng = random.Random(20261020)
        zeros = 0
        for _ in range(400):
            s4 = rng.choice([1, 2, 3, 5, 7, -2, 10])
            p = HalfIntegralForm(rng.randint(-9, 9), rng.randint(-9, 9), s4)
            s = HalfIntegralForm(rng.randint(-9, 9), rng.randint(-9, 9), s4)
            c = rng.randint(1, 150)
            dd = (p.t2 ** 2 - 4 * p.t1 * s4) * (s.t2 ** 2 - 4 * s.t1 * s4)
            inert = any(q > 2 and s4 % q and kronecker(dd, q) == -1
                        for q, _ in prime_factors(c))
            got = salie(p, s, c)
            if inert:
                zeros += 1
                assert got.value == 0j and got.terms > 0, (p, s, c)
                grid = expsums._salie_grid(p, s, c)
                assert abs(grid.value) <= salie_bound(grid.terms, c)
        assert zeros >= 50

    def test_large_prime_modulus_is_cheap(self):
        # c = 12,007 is prime: the closed form alone, where the grid would
        # take 144 M entries (2.3 GB)
        q = HalfIntegralForm(1, 1, 100)
        acceptance.clear_all_caches()
        tracemalloc.start()
        t0 = time.perf_counter()
        got = salie(q, q, 12_007)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got.terms == 12_006 * 12_007
        assert 0 < abs(got.value) <= 2 * 12_007 * (1 + 1e-12)
        assert elapsed < 1 and peak < 10 * 2 ** 20

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


class TestRootsCache:
    def test_bounded_over_a_sweep(self):
        # one entry per modulus up to MAX_CACHED_ROOTS, at most 128 kept
        expsums._roots_of_unity.cache_clear()
        for c in range(1, 300):
            gauss_sum(1, 1, c)
        info = expsums._roots_of_unity.cache_info()
        assert info.currsize == info.maxsize == 128

    def test_level_sweep_stays_within_the_bound(self):
        # each level adds its rank-1 moduli and its prime's tallies
        acceptance.clear_all_caches()
        for n in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            petersson.h_fourier(HI, HI, SpectralParams(k=10, level=n))
        assert expsums._roots_of_unity.cache_info().currsize <= 128

    def test_larger_moduli_are_not_cached(self):
        # their roots come from the same function, so a value does not
        # depend on whether they were cached
        expsums._roots_of_unity.cache_clear()
        m = expsums.MAX_CACHED_ROOTS + 1
        gauss_sum(1, 0, m)
        assert expsums._roots_of_unity.cache_info().currsize == 0
        assert np.array_equal(expsums._roots(m),
                              expsums._roots_of_unity(m))


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
