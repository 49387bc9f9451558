import itertools
import random

import pytest

from siegelsums import expsums, sp4
from siegelsums.acceptance import _random_unimodular
from siegelsums.matcore import HalfIntegralForm, IntMat2, SingularModulusError
from siegelsums.sp4 import (
    CompletionError,
    blocks_to_mat4,
    complete_to_symplectic,
    enumerate_bottom_cosets,
    is_bottom_pair,
    is_symplectic,
    minor_gcd,
)

I = IntMat2.identity()
J4 = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]


def is_symplectic_reference(m):
    """M^T J M == J by plain 4x4 products, independent of ``IntMat2``."""
    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]
    mt = [[m[j][i] for j in range(4)] for i in range(4)]
    return mul(mul(mt, J4), m) == J4


class TestPredicates:
    def test_identity_symplectic(self):
        assert is_symplectic([[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_j_symplectic(self):
        assert is_symplectic(J4)

    def test_diag_2111_not(self):
        assert not is_symplectic([[2, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_bottom_pair_examples(self):
        assert is_bottom_pair(I, IntMat2.zero())
        assert not is_bottom_pair(I, IntMat2(0, 1, 0, 0))  # asymmetric
        # minor-gcd oracle: all minors of (3I | ones) share the factor 3
        assert minor_gcd(IntMat2.scalar(3), IntMat2(1, 1, 1, 1)) == 3
        assert not is_bottom_pair(IntMat2.scalar(3), IntMat2(1, 1, 1, 1))

    def test_singular_rejected(self):
        with pytest.raises(SingularModulusError):
            is_bottom_pair(IntMat2(1, 1, 1, 1), IntMat2.zero())

    def test_symplectic_matches_reference_on_random(self):
        rng = random.Random(3)
        for _ in range(20_000):
            m = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            assert is_symplectic(m) == is_symplectic_reference(m), m

    def test_symplectic_matches_reference_on_completions(self):
        # every completion is symplectic; with one entry moved by +-1 it
        # mostly is not (a move of A by S C keeps it)
        rng = random.Random(5)
        checked = broken = 0
        for entries in itertools.product(range(-3, 4), repeat=4):
            c = IntMat2(*entries)
            if not 0 < abs(c.det()) <= 12:
                continue
            for d in enumerate_bottom_cosets(c):
                comp = complete_to_symplectic(c, d)
                m = blocks_to_mat4(comp.a, comp.b, c, d)
                assert is_symplectic(m) and is_symplectic_reference(m)
                m[rng.randrange(4)][rng.randrange(4)] += rng.choice((1, -1))
                broken += not is_symplectic_reference(m)
                assert is_symplectic(m) == is_symplectic_reference(m)
                checked += 1
        assert (checked, broken) == (6096, 5890)


class TestCompletion:
    def test_identity_zero(self):
        comp = complete_to_symplectic(I, IntMat2.zero())
        assert comp.a == IntMat2.zero() and comp.b == IntMat2(-1, 0, 0, -1)
        assert is_symplectic(blocks_to_mat4(comp.a, comp.b, I, IntMat2.zero()))

    def test_scalar_modulus_valid_pairs(self):
        c = IntMat2.scalar(3)
        for d in enumerate_bottom_cosets(c):
            comp = complete_to_symplectic(c, d)
            assert is_symplectic(blocks_to_mat4(comp.a, comp.b, c, d))

    def test_invalid_pair_rejected(self):
        with pytest.raises(CompletionError,
                           match="not a symplectic bottom row"):
            complete_to_symplectic(IntMat2.scalar(3), IntMat2(1, 1, 1, 1))

    def test_generic_moduli(self):
        rng = random.Random(7)
        done = 0
        while done < 60:
            c = IntMat2(*(rng.randint(-4, 4) for _ in range(4)))
            if c.det() == 0 or c.is_scalar():
                continue
            for d in enumerate_bottom_cosets(c)[:4]:
                comp = complete_to_symplectic(c, d)
                assert is_symplectic(blocks_to_mat4(comp.a, comp.b, c, d))
                done += 1

    def test_completions_differ_by_symmetric_multiple(self):
        # A' - A = S C with S symmetric integral; then tr((A'-A) C^{-1} Q)
        # = tr(S Q) is an integer for every half-integral Q
        c = IntMat2(2, 1, 0, 3)
        d = enumerate_bottom_cosets(c)[0]
        comp = complete_to_symplectic(c, d)
        for s in (IntMat2(1, 0, 0, 0), IntMat2(0, 1, 1, 0), IntMat2(2, 1, 1, -1)):
            a2 = comp.a.add(s.mul(c))
            b2 = comp.b.add(s.mul(d))
            assert is_symplectic(blocks_to_mat4(a2, b2, c, d))
            diff = a2.add(comp.a.scale(-1))
            # recover S = diff C^{-1} and check integrality of tr(S Q)
            q = HalfIntegralForm(2, 1, 3)
            num = diff.mul(c.adj()).mul(q.doubled())
            tr2det = num.a + num.d  # 2 det(C) tr(S Q)
            assert tr2det % (2 * c.det()) == 0


class TestCosets:
    def test_identity_single_coset(self):
        assert enumerate_bottom_cosets(I) == [IntMat2.zero()]

    def test_scalar_3_count(self):
        # triple-loop oracle: symmetric D mod 3 with det D invertible
        oracle = sum(1 for d1 in range(3) for d2 in range(3) for d4 in range(3)
                     if (d1 * d4 - d2 * d2) % 3 != 0)
        cs = enumerate_bottom_cosets(IntMat2.scalar(3))
        assert len(cs) == oracle == 18

    def test_diag12_single_coset(self):
        assert len(enumerate_bottom_cosets(IntMat2.diag(1, 2))) == 1

    def test_all_members_valid_and_distinct(self):
        for c in (IntMat2.scalar(3), IntMat2.diag(2, 3), IntMat2(2, 1, 0, 3)):
            ds = enumerate_bottom_cosets(c)
            keys = set()
            n = abs(c.det())
            for d in ds:
                assert is_bottom_pair(c, d)
                p = c.adj().mul(d)  # det * C^{-1} D
                sgn = 1 if c.det() > 0 else -1
                keys.add(tuple((sgn * x) % n for x in p.entries()))
            assert len(keys) == len(ds)

    def test_enumeration_solves_no_completion(self, monkeypatch):
        # the public enumerator returns D only; the table built from it
        # completes each coset once
        calls = []
        real = sp4.solve_integer_system

        def spy(rows, rhs):
            calls.append(rows)
            return real(rows, rhs)

        monkeypatch.setattr(sp4, "solve_integer_system", spy)
        for c in (IntMat2.diag(2, 4), IntMat2(2, 1, 0, 3), IntMat2.scalar(-3)):
            ds = enumerate_bottom_cosets(c)
            assert ds and calls == []
            table = sp4._enumerated_table(c)
            assert len(calls) == table.count == len(ds)
            calls.clear()

    def test_count_invariant_under_unimodular(self):
        # the count depends only on the elementary divisors (c1, c2)
        rng = random.Random(19)
        for detval in range(1, 13):
            for c1 in range(1, detval + 1):
                if detval % c1 or (detval // c1) % c1:
                    continue
                base = IntMat2.diag(c1, detval // c1)
                n0 = len(enumerate_bottom_cosets(base))
                for _ in range(3):
                    u, v = (_random_unimodular(rng, max_rounds=4),
                            _random_unimodular(rng, max_rounds=4))
                    cc = (u.adj().scale(u.det()).mul(base)
                          .mul(v.adj().scale(v.det())))
                    assert len(enumerate_bottom_cosets(cc)) == n0


class TestDerivedTables:
    # mixed signs, a zero form and non-positive forms: the identity behind
    # the derivation holds for every half-integral form
    FORMS = [HalfIntegralForm(*f) for f in
             ((1, 0, 1), (1, 1, 2), (2, -1, 3), (3, 2, 1), (1, -1, 1),
              (5, 0, -2), (0, 1, 0), (-2, 3, 4))]

    def test_matches_direct_enumeration(self):
        """Tables derived from the Smith class agree with the tables
        enumerated from the modulus itself, coset count and tally."""
        vectors = [expsums._form_vector(q, t)
                   for q in self.FORMS for t in self.FORMS]
        moduli = 0
        for entries in itertools.product(range(-3, 4), repeat=4):
            c = IntMat2(*entries)
            if not 0 < abs(c.det()) <= 18:
                continue
            moduli += 1
            derived = sp4.coset_data(c)
            direct = sp4._enumerated_table(c)
            assert (derived.count, derived.m) == (direct.count, direct.m)
            for (q, t), vec in zip(itertools.product(self.FORMS, repeat=2),
                                   vectors):
                nums = (direct.weights @ vec) % direct.m
                assert (expsums.kloosterman(q, t, c).value
                        == expsums._tally_value(nums, direct.m))
        assert moduli == 2112

    def test_scalar_classes_match_enumeration(self):
        """Scalar tables come from the closed form; the cosets of +-nI
        enumerated with the generic integer completion are their oracle."""
        for n in (*range(1, 10), 11):
            for c in (IntMat2.scalar(n), IntMat2.scalar(-n)):
                derived = sp4.coset_data(c)
                direct = sp4._enumerated_table(c)
                assert (derived.count, derived.m) == (direct.count, direct.m)
                for q, t in itertools.product(self.FORMS, repeat=2):
                    vec = expsums._form_vector(q, t)
                    nums = (direct.weights @ vec) % direct.m
                    assert (expsums.kloosterman(q, t, c).value
                            == expsums._tally_value(nums, direct.m)), (n, q, t)

    def test_enumeration_cap(self):
        # 1331^3 candidates would take minutes; scalar classes never get here
        with pytest.raises(ValueError, match="enumeration cap"):
            sp4._enumerated_table(IntMat2.diag(11, 121))

    def test_smith_form_cached_once(self):
        # the table of diag(1, 2) is built once, as the base of the table of
        # the non-Smith modulus, and served from the one cache afterwards
        sp4.clear_caches()
        HI = HalfIntegralForm(1, 0, 1)
        expsums.kloosterman(HI, HI, IntMat2(0, 1, 2, 0))
        before = sp4.coset_data.cache_info()
        sp4.coset_data(IntMat2.diag(1, 2))
        after = sp4.coset_data.cache_info()
        assert before.currsize == after.currsize == 2
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestPIGridCap:
    # an n far above the cap: were the check missing, building its grid
    # would fail at once for want of memory, not run for minutes
    N = 10_007

    def test_cap_admits_level_211_within_a_gigabyte(self):
        # about 72 n^3 bytes at peak
        assert 211 <= sp4.MAX_PI_GRID_N < self.N
        assert 72 * sp4.MAX_PI_GRID_N ** 3 <= 1.1e9

    def test_refused_on_every_route(self):
        HI = HalfIntegralForm(1, 0, 1)
        for call in (lambda: sp4._pI_grid(self.N),
                     lambda: expsums.kloosterman_pI(HI, HI, self.N),
                     lambda: expsums.kloosterman(HI, HI,
                                                 IntMat2.scalar(self.N)),
                     lambda: expsums.kloosterman_factored(HI, HI, self.N, I)):
            with pytest.raises(ValueError, match="exceeds the cap"):
                call()
