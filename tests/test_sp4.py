import itertools
import random

import pytest

from siegelsums import expsums, sp4
from siegelsums.acceptance import _random_unimodular
from siegelsums.matcore import HalfIntegralForm, IntMat2, SingularModulusError
from siegelsums.sp4 import (
    CompletionError,
    complete_to_symplectic,
    enumerate_bottom_cosets,
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


def blocks_to_mat4(a, b, c, d):
    """The 4x4 integer matrix [[A, B], [C, D]] as nested lists."""
    return [
        [a.a, a.b, b.a, b.b],
        [a.c, a.d, b.c, b.d],
        [c.a, c.b, d.a, d.b],
        [c.c, c.d, d.c, d.d],
    ]


def is_bottom_pair(c, d):
    """(C, D) is the bottom row of some element of Sp4(Z): C D^T symmetric
    and the 2x4 block (C D) primitive.  Holds for singular C too; for
    det C != 0 the first condition is C^{-1} D symmetric."""
    cdt = c.mul(d.t())
    return cdt.b == cdt.c and minor_gcd(c, d) == 1


def completed(c, d):
    """The 4x4 matrix of ``complete_to_symplectic``'s completion of (C, D)."""
    return blocks_to_mat4(*complete_to_symplectic(c, d), c, d)


class TestPredicates:
    def test_identity_symplectic(self):
        assert is_symplectic_reference([[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_j_symplectic(self):
        assert is_symplectic_reference(J4)

    def test_diag_2111_not(self):
        assert not is_symplectic_reference([[2, 0, 0, 0], [0, 1, 0, 0],
                                            [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_bottom_pair_examples(self):
        assert is_bottom_pair(I, IntMat2.zero())
        assert not is_bottom_pair(I, IntMat2(0, 1, 0, 0))  # asymmetric
        # minor-gcd oracle: all minors of (3I | ones) share the factor 3
        assert minor_gcd(IntMat2.scalar(3), IntMat2(1, 1, 1, 1)) == 3
        assert not is_bottom_pair(IntMat2.scalar(3), IntMat2(1, 1, 1, 1))

    def test_singular_rejected(self):
        # a singular C is a bottom row but no Kloosterman modulus
        with pytest.raises(SingularModulusError):
            enumerate_bottom_cosets(IntMat2(1, 1, 1, 1))

    def test_symplectic_matches_reference_on_completions(self):
        # every completion is symplectic; with one entry moved by +-1 it
        # mostly is not (a move of A by S C keeps it, so the count of broken
        # matrices depends on which completion the solver returns)
        rng = random.Random(5)
        checked = broken = 0
        for entries in itertools.product(range(-3, 4), repeat=4):
            c = IntMat2(*entries)
            if not 0 < abs(c.det()) <= 12:
                continue
            for d in enumerate_bottom_cosets(c):
                m = completed(c, d)
                assert is_symplectic_reference(m)
                m[rng.randrange(4)][rng.randrange(4)] += rng.choice((1, -1))
                broken += not is_symplectic_reference(m)
                checked += 1
        assert (checked, broken) == (6096, 5895)


class TestCompletion:
    def test_identity_zero(self):
        a, b = complete_to_symplectic(I, IntMat2.zero())
        assert a == IntMat2.zero() and b == IntMat2(-1, 0, 0, -1)
        assert is_symplectic_reference(blocks_to_mat4(a, b, I, IntMat2.zero()))

    def test_scalar_modulus_valid_pairs(self):
        c = IntMat2.scalar(3)
        for d in enumerate_bottom_cosets(c):
            assert is_symplectic_reference(completed(c, d))

    def test_invalid_pair_rejected(self):
        # an imprimitive and an asymmetric pair: no integer solution
        for c, d in ((IntMat2.scalar(3), IntMat2(1, 1, 1, 1)),
                     (I, IntMat2(0, 1, 0, 0))):
            assert not is_bottom_pair(c, d)
            with pytest.raises(CompletionError,
                               match="not a symplectic bottom row"):
                complete_to_symplectic(c, d)

    def test_generic_moduli(self):
        rng = random.Random(7)
        done = 0
        while done < 60:
            c = IntMat2(*(rng.randint(-4, 4) for _ in range(4)))
            if c.det() == 0 or c.is_scalar():
                continue
            for d in enumerate_bottom_cosets(c)[:4]:
                assert is_symplectic_reference(completed(c, d))
                done += 1

    def test_completions_differ_by_symmetric_multiple(self):
        # A' - A = S C with S symmetric integral; then tr((A'-A) C^{-1} Q)
        # = tr(S Q) is an integer for every half-integral Q
        c = IntMat2(2, 1, 0, 3)
        d = enumerate_bottom_cosets(c)[0]
        a, b = complete_to_symplectic(c, d)
        for s in (IntMat2(1, 0, 0, 0), IntMat2(0, 1, 1, 0), IntMat2(2, 1, 1, -1)):
            a2 = a.add(s.mul(c))
            b2 = b.add(s.mul(d))
            assert is_symplectic_reference(blocks_to_mat4(a2, b2, c, d))
            diff = a2.add(a.scale(-1))
            # recover S = diff C^{-1} and check integrality of tr(S Q)
            q = HalfIntegralForm(2, 1, 3)
            num = diff.mul(c.adj()).mul(q.doubled())
            tr2det = num.a + num.d  # 2 det(C) tr(S Q)
            assert tr2det % (2 * c.det()) == 0


class TestSingularCompletion:
    @pytest.mark.parametrize("c, d", [
        (IntMat2.zero(), I),
        (IntMat2.diag(1, 0), IntMat2.diag(0, 1)),
    ], ids=["0-I", "diag10-diag01"])
    def test_singular_bottom_rows_complete(self, c, d):
        # (0, I) is the bottom row of I4; det C = 0 is no obstruction
        assert is_bottom_pair(c, d)
        assert is_symplectic_reference(completed(c, d))

    def test_completes_exactly_the_bottom_rows(self):
        # every (C, D) with entries in {-1, 0, 1}: the solve succeeds
        # exactly on the oracle's bottom rows, singular C included, and
        # each completion is symplectic
        completed_rows = singular = 0
        for entries in itertools.product((-1, 0, 1), repeat=8):
            c, d = IntMat2(*entries[:4]), IntMat2(*entries[4:])
            try:
                m = completed(c, d)
            except CompletionError:
                assert not is_bottom_pair(c, d), (c, d)
                continue
            assert is_bottom_pair(c, d) and is_symplectic_reference(m), (c, d)
            completed_rows += 1
            singular += c.det() == 0
        assert (completed_rows, singular) == (1440, 488)


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

    @pytest.mark.parametrize("coset_data_first", [True, False])
    def test_one_smith_decomposition_per_modulus(self, monkeypatch,
                                                 coset_data_first):
        # the derived table of C' and the factored sum at 5 C' read one
        # memo entry, whichever comes first: the Smith form runs once on
        # C' and once on its class diag(1, 2), whose table both read.
        # expsums holds no Smith form of its own for the spy to miss
        assert not hasattr(expsums, "elementary_divisors")
        sp4.clear_caches()
        calls = []
        real = sp4.elementary_divisors

        def spy(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(sp4, "elementary_divisors", spy)
        HI = HalfIntegralForm(1, 0, 1)
        c = IntMat2(1, 1, -1, 1)
        reads = [lambda: sp4.coset_data(c),
                 lambda: expsums.kloosterman_factored(HI, HI, 5, c)]
        for read in reads if coset_data_first else reads[::-1]:
            read()
        assert calls == [c, IntMat2.diag(1, 2)]


class TestPIGridCap:
    # an n far above the cap: were the check missing, building its grid
    # would fail at once for want of memory, not run for minutes
    N = 10_007

    def test_cap_admits_level_211_within_a_gigabyte(self):
        # about 72 n^3 bytes at peak
        assert 211 <= sp4.MAX_PI_GRID_N < self.N
        assert 72 * sp4.MAX_PI_GRID_N ** 3 <= 1.1e9

    def test_refused_on_every_route(self):
        # the grid and the coset sum of N I, whose table is the grid, are
        # refused; kloosterman_pI and kloosterman_factored take the closed
        # form at odd N and build no grid (tests/test_expsums.py runs them
        # at this N)
        HI = HalfIntegralForm(1, 0, 1)
        for call in (lambda: sp4._pI_grid(self.N),
                     lambda: expsums.kloosterman(HI, HI,
                                                 IntMat2.scalar(self.N))):
            with pytest.raises(ValueError, match="exceeds the cap"):
                call()
        for call in (lambda: expsums.kloosterman_pI(HI, HI, self.N),
                     lambda: expsums.kloosterman_factored(HI, HI, self.N, I)):
            assert call().terms % (self.N ** 3 - self.N ** 2) == 0
