import cmath
import functools
import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from siegelsums import acceptance, expsums, kernels, petersson, sp4
from siegelsums.expsums import SumValue, kloosterman, kloosterman_factored
from siegelsums.kernels import (
    KernelArg,
    bessel_j,
    script_j,
    script_j_for_forms,
    shell_matrices,
    truncation_set,
)
from siegelsums.matcore import (
    HalfIntegralForm,
    IntMat2,
    _xgcd,
    elementary_divisors,
    is_fundamental_discriminant,
    is_prime,
    prime_factors,
)
from siegelsums.lfun import dirichlet_l, dirichlet_l_grid, dirichlet_l_vec
from siegelsums.petersson import (
    SpectralParams,
    h_fourier,
    leading_coeff_fit,
    main_term_residue,
    residue_fit_degree,
    spectral_gram,
)
from support import (
    EPS,
    factored_bound,
    joint_tally,
    mats,
    rank2_bound,
    salie_bound,
    tally_bound,
    term_bound,
)
from siegelsums.petersson import (
    _complete_bottom_row,
    _primitive_reps,
    _rank1_forms,
    _rank1_sum,
    _rank1_tail_bound,
    _rank2_shell_bound,
    _rank2_sum,
    _rank2_terms,
)

HI = HalfIntegralForm.identity()
D12 = HalfIntegralForm(1, 0, 2)
PAIRS = {"I-I": (HI, HI),
         "111-112": (HalfIntegralForm(1, 1, 1), HalfIntegralForm(1, 1, 2)),
         "I-D12": (HI, D12)}
A4 = math.pi / 4  # L(1, chi_{-4})


# main_term_residue against the trapezoid double sum on two nested circles,
# as a share of the grid product's sum of |terms|: 1e-13, where the worst
# gap seen over the 120 oracle pairs, k = 10, 12, 14 and the four oracle
# radii is 2.7e-15
ORACLE_TOL = 1e-13


@functools.lru_cache(maxsize=16)
def _oracle_factors(q1, q2, k, radius, nodes, poly):
    """The integrand's factors but the coupled one on the s-circle
    |s| = 2 radius and the t-circle |t| = radius, nodes points each, the
    1/s and 1/t poles cancelled by the contour measure: (s, t, alpha,
    beta)."""
    theta = 2 * np.pi * np.arange(nodes) / nodes
    s, t = 2 * radius * np.exp(1j * theta), radius * np.exp(1j * theta)

    def factor(u, q):
        return (dirichlet_l_vec(u + 1, q) * dirichlet_l_vec(u + 1, -4 * q)
                * kernels.gamma_factor(u, k) * kernels.poly_factor(u, poly)
                * np.exp(2 * u * math.log(abs(q))))

    return s, t, 4.0 * factor(s, q1), factor(t, q2)


@functools.lru_cache(maxsize=None)
def _coupled_grid(q, radius, nodes):
    theta = 2 * np.pi * np.arange(nodes) / nodes
    s, t = 2 * radius * np.exp(1j * theta), radius * np.exp(1j * theta)
    return dirichlet_l_grid(s + 1, t, q)


def _grid_oracle(q1, q2, level, k, radius=0.08, nodes=128, poly="(1-s)^2"):
    """The iterated residue Res_s Res_t as the nodes x nodes trapezoid
    double sum on the s- and t-circles: (value, sum of |terms|).  The
    t-circle leaves out the coupled pole at t = -s."""
    s, t, alpha, beta = _oracle_factors(q1, q2, k, radius, nodes, poly)
    aw = alpha * np.exp(s * math.log(level))
    bw = beta * np.exp(t * math.log(level))
    grid = _coupled_grid(q1 * q2, radius, nodes)
    n2 = nodes * nodes
    return (aw @ grid @ bw / n2,
            np.abs(aw) @ np.abs(grid) @ np.abs(bw) / n2)


def _oracle_pairs():
    """Coprime pairs of 1 and the fundamental discriminants with |q| <= 40
    and phi(|q1 q2|) <= 36, plus five pairs outside that pool."""
    discs = [1] + [q for q in range(-40, 41)
                   if q not in (0, 1) and is_fundamental_discriminant(q)]

    def phi(n):
        for p, _ in prime_factors(n):
            n = n // p * (p - 1)
        return n

    pairs = {(a, b) for a in discs for b in discs
             if math.gcd(abs(a), abs(b)) == 1 and phi(abs(a * b)) <= 36}
    return sorted(pairs | {(1, 1), (1, -4), (5, 13), (-3, 65), (-31, 40)})


def rank1_envelope_sum(n, z, ell):
    """sum of s^2 (c s)^{-ell} over c = n j and s >= 1 with c s > z, term by
    term up to j < 10 z / n + 400 and s < 10 z / c + 400: a partial sum, so
    at most the full envelope."""
    total = 0.0
    for j in range(1, 10 * z // n + 400):
        c = n * j
        s = np.arange(z // c + 1, 10 * (z // c) + 400, dtype=float)
        total += float(np.sum(s ** 2 * (c * s) ** -ell))
    return total


# ---------------------------------------------------------------------------
# Term-by-term references for the rank-1 and rank-2 sums: every rank-1 term
# is added in turn, its Salie value taken from a per-call memo, and every
# modulus of the box in turn, the term of -C' taken from C'.  They call
# the library's functions through ``petersson``, so spies see them too.


def reference_completion(v1, v3):
    """A determinant-one matrix [[v1, b], [v3, d]], its second column
    reduced toward the smallest norm."""
    g, x, y = _xgcd(v1, v3)
    assert g == 1
    b, d = -y, x
    nrm = v1 * v1 + v3 * v3
    t = -((v1 * b + v3 * d + nrm // 2) // nrm)
    return IntMat2(v1, b + t * v1, v3, d + t * v3)


def reference_rank1(q, t, params):
    """(rank-1 sum, number of terms, sum of |term|), term by term."""
    n = params.level
    det_tq = q.det() * t.det()
    cs_max = params.rank1_cut(det_tq)
    c_hi = cs_max if params.rank1_cutoff is None else params.rank1_cutoff
    sign_k = -1 if (params.k // 2) % 2 else 1
    memo, forms_of = {}, {}

    def value(p, sf, c, sign):
        # H^-(P, S; c) is H^+(P, (s1, -s2, s4); c)
        key = (p, sf if sign == 1 else HalfIntegralForm(sf.t1, -sf.t2, sf.t4),
               c)
        if key not in memo:
            memo[key] = petersson.salie(*key).value
        return memo[key]

    def forms(s):
        ureps = _primitive_reps(q, s, mod_sign=True)
        wreps = _primitive_reps(t, s, mod_sign=False) if ureps else []
        if not wreps:
            return None
        us = [_complete_bottom_row(u3, u4) for u3, u4 in ureps]
        u = us[0]
        shifted = IntMat2(u.a + u.c, u.b + u.d, u.c, u.d)
        return ([q.conjugate_right(u) for u in us],
                [t.conjugate_right(reference_completion(w2, -w1).adj())
                 for w1, w2 in wreps],
                q.conjugate_right(shifted))

    total, count, size = 0j, 0, 0.0
    for c in range(n, c_hi + 1, n):
        for s in range(1, max(1, cs_max // c) + 1):
            if s not in forms_of:
                forms_of[s] = forms(s)
            if forms_of[s] is None:
                continue
            ps, ss, p_shifted = forms_of[s]
            bess = bessel_j(params.ell,
                            4 * math.pi * math.sqrt(det_tq) / (c * s))
            coeff = sign_k * math.sqrt(2) * math.pi / (c ** 1.5 * math.sqrt(s))
            value(ps[0], ss[0], c, 1)
            value(p_shifted, ss[0], c, 1)
            for p in ps:
                for sf in ss:
                    for sg in (1, -1):
                        term = coeff * bess * value(p, sf, c, sg)
                        total += term
                        count += 1
                        size += abs(term)
    return total, count, size


def reference_rank2_terms(q, t, params, moduli):
    """{C': term} over every C' of the ``moduli`` rows, one modulus at a
    time, with the term of -C' taken from C' where ``moduli`` holds C'
    first."""
    n, ell = params.level, params.ell
    terms = {}
    for cp in mats(moduli):
        if cp.scale(-1) in terms:
            terms[cp] = terms[cp.scale(-1)]
            continue
        c = cp.scale(n)
        kv = (expsums.kloosterman_factored(q, t, n, cp) if cp.det() % n
              else petersson.kloosterman(q, t, c))
        if kv.value == 0:
            terms[cp] = 0j
            continue
        arg = petersson.script_j_for_forms(t, q, c)
        kern = petersson._script_j_cached(ell, arg.eig1, arg.eig2)
        terms[cp] = kv.value * kern / abs(c.det()) ** 1.5
    return terms


def reference_shell_envelopes(q, t, params):
    """{C': envelope} over the shell of width 1, one modulus at a time,
    the envelope of -C' taken from C'."""
    n, ell = params.level, params.ell
    envs = {}
    for cp in mats(shell_matrices(params.m_bound, 1)):
        if cp.scale(-1) in envs:
            envs[cp] = envs[cp.scale(-1)]
            continue
        c = cp.scale(n)
        c1, c2, _, v = petersson.elementary_divisors(c)
        gcd = math.gcd(c2, t.conjugate_left(v).t4)
        k_env = 8.0 * c1 * c1 * math.sqrt(c2) * math.sqrt(gcd)
        arg = petersson.script_j_for_forms(t, q, c)
        kern = petersson._script_j_cached(ell, arg.eig1, arg.eig2)
        envs[cp] = k_env * abs(kern) / abs(c.det()) ** 1.5
    return envs


def exact_trace_det(t, q, c):
    """Trace and determinant of T C^{-1} Q C^{-T} in exact rationals."""
    det = c.det()
    cinv = [[Fraction(c.d, det), Fraction(-c.b, det)],
            [Fraction(-c.c, det), Fraction(c.a, det)]]
    tm, qm = ([[Fraction(f.t1), Fraction(f.t2, 2)],
               [Fraction(f.t2, 2), Fraction(f.t4)]] for f in (t, q))

    def mul(x, y):
        return [[sum(x[i][j] * y[j][k] for j in range(2)) for k in range(2)]
                for i in range(2)]

    m = mul(mul(mul(tm, cinv), qm), [list(r) for r in zip(*cinv)])
    return m[0][0] + m[1][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]


def exact_eigenvalues(tr, det):
    """The two eigenvalues of trace tr and determinant det, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        disc = tr * tr - 4 * det
        root = (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt()
        trace = Decimal(tr.numerator) / Decimal(tr.denominator)
        return (trace - root) / 2, (trace + root) / 2


def numpy_script_j_for_forms(t, q, c):
    """The kernel argument of T C^{-1} Q C^{-T} from a float numpy chain
    and the quadratic formula, the route script_j_for_forms replaced; the
    smaller eigenvalue, 0.5 * (tr - r), loses digits to cancellation."""
    cinv = np.array([[c.d, -c.b], [-c.c, c.a]], dtype=float) / c.det()
    tm, qm = (np.array([[f.t1, f.t2 / 2], [f.t2 / 2, f.t4]]) for f in (t, q))
    m = tm @ cinv @ qm @ cinv.T
    tr = float(m[0, 0] + m[1, 1])
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    r = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return KernelArg(0.5 * (tr - r), 0.5 * (tr + r))


def kernel_shift_bound(ell, arg, d1, d2):
    """First-order bound on the relative move of script_j(ell, arg) when
    the eigenvalues move by the relative amounts d1 and d2, valid while
    z = x^2 / (4 ell + 4) < 1 at the largest argument x = 4 pi s2.

    A move of log e_i by d_i moves J(x_i) (J = J_ell, x_i = 4 pi s_i sin t)
    by d_i x_i J'(x_i) / 2.  x J'(x) = ell J(x) - x J_{ell+1}(x), with
    |J_{ell+1}(x)| <= (x/2)^{ell+1} / Gamma(ell + 2) (DLMF 10.14.4) and
    J(x) >= (1 - z) (x/2)^ell / Gamma(ell + 1) (the power series alternates
    with falling terms while z < 1), gives |x J'(x)| / J(x) <= ell + 2 z /
    (1 - z).  Near 0 this is the ell (d1 + d2) / 2 of the kernel's scaling
    (s1 s2)^ell.  The integrand is positive, so the bound holds for the
    quadrature's positive-weight sum as for the integral."""
    z = (4 * math.pi) ** 2 * arg.eig2 / (4 * ell + 4)
    assert z < 1
    return (d1 + d2) * (ell + 2 * z / (1 - z)) / 2


def kernel_moduli(params):
    """The moduli N C' of the box and its shell of width 1, whose kernels a
    coefficient looks up."""
    return [cp.scale(params.level)
            for cp in mats(truncation_set(params.m_bound))
            + mats(shell_matrices(params.m_bound, 1))]


def assert_rank2_route_within_bound(monkeypatch, q, t, params, oracle):
    """h_fourier against h_fourier with the seam where the rank-2 pass
    reads its factored Kloosterman sums, ``_kloosterman_factored_values``
    as ``petersson`` binds it, replaced by ``oracle(q, t, n, C')`` for
    each modulus, which returns (value, terms, m) of a tally of ``terms``
    summands mod m.  Every field but rank2 and total is equal; those agree
    within the bound derived from the two routes' rounding
    (tests/support.py): each K within ``factored_bound`` plus the oracle's
    ``tally_bound``, each term within ``term_bound``, and the sum within
    ``rank2_bound``, scaled by the coefficient's factors.  Returns the
    number of moduli the oracle ran for in the replaced h_fourier, each of
    them once: the one of each pair C', -C' of the box with N prime to
    det C', in their order."""
    n, ell = params.level, params.ell
    cache, calls = {}, []

    def replaced(q, t, n, moduli, *args, **kwargs):
        out = []
        for cp in moduli:
            calls.append(cp)
            if (q, t, n, cp) not in cache:
                value, terms, m = oracle(q, t, n, cp)
                cache[q, t, n, cp] = ((value, terms), tally_bound(terms, m))
            out.append(cache[q, t, n, cp][0])
        return out

    box = truncation_set(params.m_bound)
    half = mats(petersson._one_of_each_pair(box))
    fast = h_fourier(q, t, params)
    fast_terms = _rank2_terms(q, t, params, box)
    monkeypatch.setattr(petersson, "_kloosterman_factored_values", replaced)
    slow = h_fourier(q, t, params)
    ran = list(calls)
    slow_terms = _rank2_terms(q, t, params, box)
    monkeypatch.undo()
    assert ran == [cp for cp in half if cp.det() % n]
    for name in ("diagonal", "rank1", "rank1_tail", "rank2_tail",
                 "tail_bound"):
        assert getattr(fast, name) == getattr(slow, name), name
    pairs = []
    assert len(fast_terms) == len(slow_terms) == len(half)
    for cp, a, b in zip(half, fast_terms, slow_terms):
        if cp.det() % n == 0:
            assert a == b, cp  # the coset route on both sides
            pairs.append((a, b, 0.0))
            continue
        right = sp4.coset_data(cp)
        k_bound = (factored_bound(n, right.count, right.m)
                   + cache[q, t, n, cp][1])
        c = cp.scale(n)
        arg = script_j_for_forms(t, q, c)
        kern = petersson._script_j_cached(ell, arg.eig1, arg.eig2)
        bound = term_bound(k_bound, kern, c.det(), a, b)
        assert abs(a - b) <= bound, cp
        pairs.append((a, b, bound))
    scale = 8 * math.pi ** 2 * (t.det() / q.det()) ** params.kappa
    r2_bound = (scale * 2 * rank2_bound(pairs, len(pairs)) * (1 + 4 * EPS)
                + 2 * EPS * (abs(fast.rank2) + abs(slow.rank2)))
    assert abs(fast.rank2 - slow.rank2) <= r2_bound
    assert abs(fast.total - slow.total) <= (
        r2_bound + 2 * EPS * (abs(fast.total) + abs(slow.total)))
    return len(ran)


def coset_oracle(q, t, n, cp):
    """K(Q, T; n C') by the coset sum of n C', as (value, terms, m)."""
    kv = kloosterman(q, t, cp.scale(n))
    return kv.value, kv.terms, 2 * abs(cp.scale(n).det())


@pytest.fixture(scope="module")
def params():
    return SpectralParams(k=10, level=3)


class TestNormalization:
    def test_index_formula(self):
        assert SpectralParams(10, 3).index == 40  # (3^4 - 1)/(3 - 1)
        assert SpectralParams(10, 7).index == 400

    def test_prime_required(self):
        with pytest.raises(ValueError):
            SpectralParams(10, 6)

    def test_positive(self):
        assert SpectralParams(10, 3).c_n > 0


class TestHFourier:
    def test_diagonal_dominates_identity(self, params):
        h = h_fourier(HI, HI, params)
        assert h.diagonal == 8  # #Aut(I)
        assert abs(h.total - 8) < 1.0
        assert abs(h.total - (h.diagonal + h.rank1 + h.rank2)) < 1e-13
        assert h.tail_bound >= 0

    def test_tail_bound_splits_by_rank(self, params):
        for q, t in ((HI, HI), (HI, D12)):
            h = h_fourier(q, t, params)
            assert h.rank1_tail >= 0 and h.rank2_tail >= 0
            assert h.tail_bound == h.rank1_tail + h.rank2_tail

    def test_inequivalent_forms_small(self, params):
        h = h_fourier(HI, D12, params)
        assert h.diagonal == 0
        assert abs(h.total) < 1.0

    def test_rank1_empty_below_level(self):
        p = SpectralParams(k=10, level=3, rank1_cutoff=2)
        r1, _ = _rank1_sum(HI, HI, p)
        assert r1 == 0

    def test_rank1_cutoff_must_be_positive(self):
        for cmax in (0, -3):
            with pytest.raises(ValueError, match="rank1_cutoff"):
                SpectralParams(k=10, level=3, rank1_cutoff=cmax)

    def test_rejects_indefinite(self, params):
        with pytest.raises(ValueError):
            h_fourier(HalfIntegralForm(1, 5, 1), HI, params)

    def test_rank1_pair_count_within_tail_cap(self):
        # _rank1_tail_bound caps the (U, V, sign) triples of one s at
        # 400 s^2; check it on the 43 forms with t1, t4 <= 3, |t2| <= 2
        forms = [HalfIntegralForm(t1, t2, t4) for t1 in range(1, 4)
                 for t4 in range(1, 4) for t2 in range(-2, 3)
                 if 4 * t1 * t4 > t2 * t2]
        assert len(forms) == 43
        for s in range(1, 201):
            u = max(len(_primitive_reps(f, s, True)) for f in forms)
            v = max(len(_primitive_reps(f, s, False)) for f in forms)
            assert 2 * u * v <= 400 * s * s, s

    def test_rank1_tail_covers_envelope(self):
        # the budget bounds the termwise envelope k_const s^2 (c s)^{-ell}
        # summed over every dropped block (c = N j, c s > z); a 49-term
        # partial sum of sum_j (N j)^{-3} in its place fell short of it for
        # (I, I) at N = 31, 41, 43, 67, 71 and 73
        for n in filter(is_prime, range(3, 200)):
            params = SpectralParams(k=10, level=n)
            ell = params.ell
            for q, t in PAIRS.values():
                det_tq = q.det() * t.det()
                w = 2 * math.pi * math.sqrt(det_tq)
                k_const = (400 * math.sqrt(2) * math.pi * w ** ell
                           / math.gamma(ell + 1))
                for z in (n, 2 * n, params.rank1_cut(det_tq)):
                    envelope = k_const * rank1_envelope_sum(n, z, ell)
                    assert _rank1_tail_bound(det_tq, n, z, ell) >= envelope, (
                        n, z)

    @pytest.mark.parametrize("k", [10, 12, 14])
    def test_rank1_cut_is_least_below_envelope(self, k):
        # the cut is the least c s >= N whose Bessel envelope
        # (x/2)^ell / Gamma(ell + 1), x = 4 pi (det Q det T)^{1/2} / (c s),
        # is at most 1e-16
        ell = k - 1.5
        for n in filter(is_prime, range(3, 200)):
            params = SpectralParams(k=k, level=n)
            for q, t in PAIRS.values():
                x = 4 * math.pi * math.sqrt(q.det() * t.det())
                cut = params.rank1_cut(q.det() * t.det())
                envelope = [(x / cs / 2) ** ell / math.gamma(ell + 1)
                            for cs in (cut, cut - 1)]
                assert cut >= n and envelope[0] <= 1e-16, (n, q, t)
                assert cut == n or envelope[1] > 1e-16, (n, q, t)

    @pytest.mark.parametrize("level, pairs", [
        (3, [(HalfIntegralForm(1, b, 1), HalfIntegralForm(1, d, 2))
             for b in (1, -1) for d in (1, -1)] + [(HI, HI)]),
        (5, [(HI, HI)]),
    ])
    def test_rank1_terms_independent_of_completion(self, monkeypatch, level,
                                                   pairs):
        # _rank1_sum checks the first term of each (c, s) block against a
        # second completion of U; here every Salie argument it asks for is
        # recomputed with other completions of both U (free top row, P ->
        # E P E^T) and V^{-1} (free top row, S -> F S F^T).  The sum asks
        # once per distinct argument, so the spy sees every term's value.
        e = IntMat2(1, -2, 0, 1)
        f = IntMat2(1, -3, 0, 1)
        real = petersson.salie
        for q, t in pairs:
            calls = []

            def record(*args):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(petersson, "salie", record)
            _rank1_sum(q, t, SpectralParams(k=10, level=level))
            assert calls, (q, t)
            for p, s, c in calls:
                val = real(p, s, c).value
                alt = real(p.conjugate_right(e), s.conjugate_right(f), c).value
                assert abs(val - alt) <= 1e-8 * max(1.0, abs(val)), (p, s, c)

    def test_rank1_representations_once_per_s(self, monkeypatch, params):
        # the Salie arguments of s are built once per call, not once per
        # (c, s) block: at most one representation list each of Q and T
        real = petersson.representations
        calls = []

        def record(form, s):
            calls.append(s)
            return real(form, s)

        monkeypatch.setattr(petersson, "representations", record)
        _rank1_sum(HI, HI, params)
        assert len(set(calls)) == 40
        assert len(calls) <= 2 * len(set(calls))

    @pytest.mark.parametrize("level", list(filter(is_prime, range(5, 68))))
    def test_rank1_character_vanishing(self, monkeypatch, level):
        # every Salie value of the rank-1 sum vanishes when the product of
        # the discriminants is a non-residue mod N; when it is a residue
        # some value is of size c^{3/2}, so the check is not vacuous.  From
        # N = 71 on, the residue pair (1,1,1), (2,1,2) has no terms at all
        # (its only block, c = N and s = 1, is empty), so the levels stop
        # at 67
        forms = [HalfIntegralForm(*f) for f in ((1, 1, 1), (1, 0, 1),
                 (1, 1, 2), (1, 0, 2), (1, 1, 3), (1, 0, 3), (2, 1, 2))]
        discs = {f: f.t2 * f.t2 - 4 * f.t1 * f.t4 for f in forms}
        assert sorted(discs.values()) == [-15, -12, -11, -8, -7, -4, -3]
        real = petersson.salie
        params = SpectralParams(k=10, level=level)
        seen = set()
        for q in forms:
            for t in forms:
                dd = discs[q] * discs[t] % level
                if dd == 0:
                    continue
                symbol = 1 if pow(dd, (level - 1) // 2, level) == 1 else -1
                sizes = []

                def record(p, s, c):
                    sv = real(p, s, c)
                    sizes.append(abs(sv.value) / c ** 1.5)
                    return sv

                monkeypatch.setattr(petersson, "salie", record)
                _rank1_sum(q, t, params)
                if symbol == -1:
                    assert max(sizes, default=0.0) == 0.0, (q, t)
                else:
                    assert max(sizes) >= 1e-3, (q, t)
                seen.add(symbol)
        assert seen == {1, -1}

    @pytest.mark.parametrize("level, q, t", [
        (5, (1, 0, 1), (1, 1, 1)), (7, (1, 0, 1), (1, 1, 1)),
        (11, (1, 1, 1), (1, 1, 2)), (13, (1, 1, 1), (1, 1, 2)),
        (7, (2, 1, 3), (1, 0, 5)), (13, (2, 1, 3), (1, 0, 5))])
    def test_rank1_exact_zero_for_inert_pairs(self, level, q, t):
        # (D_Q D_T | N) = -1: every term has N prime to s4 = s (a form
        # whose discriminant is a non-residue mod N represents no multiple
        # of N primitively), so every Salie value is exactly 0j, and so is
        # the rank-1 part; the rank-1 budget stays
        q, t = HalfIntegralForm(*q), HalfIntegralForm(*t)
        dd = q.det4() * t.det4()
        assert pow(dd % level, (level - 1) // 2, level) == level - 1
        h = h_fourier(q, t, SpectralParams(k=10, level=level))
        assert h.rank1 == 0j
        assert h.rank1_tail > 0

    @pytest.mark.parametrize("level", [3, 5, 13, 47])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_rank1_within_bound_of_grid_route(self, monkeypatch, level,
                                              pair):
        # the rank-1 sum is linear in its Salie values, so with every value
        # from the whole-c grid (the route before the closed form) it moves
        # by at most the sum run on twice each value's bound, with each
        # Bessel factor replaced by its modulus, plus the rounding of both
        # sums, each within n 2^-52 of its sum of |term|
        q, t = PAIRS[pair]
        params = SpectralParams(k=10, level=level)
        got = _rank1_sum(q, t, params)[0]
        _, n, size = reference_rank1(q, t, params)
        real_salie, real_j = petersson.salie, petersson.bessel_j
        monkeypatch.setattr(petersson, "salie", expsums._salie_grid)
        grid = _rank1_sum(q, t, params)[0]

        def bound(p, s, c):
            terms = real_salie(p, s, c).terms
            return SumValue(complex(2 * salie_bound(terms, c)), terms, "bound")

        monkeypatch.setattr(petersson, "salie", bound)
        monkeypatch.setattr(petersson, "bessel_j",
                            lambda ell, x: abs(real_j(ell, x)))
        gap = abs(_rank1_sum(q, t, params)[0])
        assert abs(got - grid) <= gap + n * EPS * (2 * size + gap)

    @pytest.mark.parametrize("level, want", [(31, 1.72127630069),
                                             (101, -0.257181188508)])
    def test_rank1_of_large_discriminant(self, level, want):
        # Q = T = (1, 1, 100) runs c up to about 12,000: the grid route
        # took 581 s at N = 31, and 170 s and 2 GB at N = 101, for the same
        # values to 12 digits.  At N = 101 a cold sum, timed once the
        # first run has imported what the Bessel factors need, takes under
        # 1 s and 200 MB
        q = HalfIntegralForm(1, 1, 100)
        params = SpectralParams(k=10, level=level)
        r1, _ = _rank1_sum(q, q, params)
        assert abs(r1 - want) <= 1e-10 and abs(r1.imag) <= 1e-10
        if level == 101:
            acceptance.clear_all_caches()
            t0 = time.perf_counter()
            _rank1_sum(q, q, params)
            assert time.perf_counter() - t0 < 1
            acceptance.clear_all_caches()
            tracemalloc.start()
            _rank1_sum(q, q, params)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 200 * 2 ** 20

    def test_completion_dependence_raises(self, monkeypatch, params):
        # a stand-in Salie value that sees U's free top row through P = U Q U^T
        monkeypatch.setattr(petersson, "salie", lambda p, s, c: SumValue(
            complex(p.t1, p.t2), 1, "stand-in"))
        with pytest.raises(ArithmeticError, match="completion"):
            h_fourier(HI, HI, params)

    @pytest.mark.parametrize("discrepancy", [0.0, 1e-6])
    def test_completion_check_floor_grows_with_terms(self, monkeypatch,
                                                     discrepancy):
        # Q = T = (1, 1, 100) at N = 101 runs c up to 12,019.  From about
        # c = 9,000 on its real Salie values are rounding noise near 1e-8,
        # which the relative tolerance 1e-8 * max(1, |val|) alone rejected
        # at c = 9,191 (the real sum takes minutes and 2 GB).  The stand-in
        # returns noise of 1 ulp of each tally's terms, phi(c) * c, with
        # phase -i for the checked value and i for the shifted completion,
        # so the two differ by 2 ulps of one tally (2.9e-8 at c = 9,191):
        # this must pass.  A genuine 1e-6 discrepancy of the shifted
        # completion from c = 9,000 on must still raise, at its first c.
        q = HalfIntegralForm(1, 1, 100)
        args, _, shifted = _rank1_forms(q, q, 1)
        assert args[0][0] != shifted

        def noise(p, s, c):
            phi = c
            for prime, _ in prime_factors(c):
                phi = phi // prime * (prime - 1)
            value = phi * c * 2.0 ** -52 * cmath.exp(0.5j * math.pi * p.t2)
            if p == shifted and c >= 9000:
                value += discrepancy
            return SumValue(value, phi * c, "stand-in")

        monkeypatch.setattr(petersson, "salie", noise)
        params = SpectralParams(k=10, level=101)
        if discrepancy:
            with pytest.raises(ArithmeticError,
                               match="c = 9090, s = 1 depends"):
                _rank1_sum(q, q, params)
        else:
            _rank1_sum(q, q, params)

    def test_shell_decay(self, params):
        # partial rank-2 sums grouped by |det C'|
        shells = {}
        box = truncation_set(params.m_bound)
        for cp, term in zip(mats(petersson._one_of_each_pair(box)),
                            _rank2_terms(HI, HI, params, box)):
            d = abs(cp.det())
            shells[d] = shells.get(d, 0j) + term
        assert sorted(shells) == [1, 2]
        assert abs(shells[2]) <= 0.5 * abs(shells[1])

    @pytest.mark.parametrize("level, pair", [
        pytest.param(n, pair, id=pair if n == 3 else f"N{n}-{pair}")
        for n, pairs in ((3, PAIRS), (13, PAIRS), (31, ["I-I"]))
        for pair in pairs])
    def test_rank2_budget_covers_three_shells(self, level, pair):
        # the budget doubles the envelope of shell 1 to cover all moduli
        # beyond the box; here it must cover the exact terms of shells 1-3
        params = SpectralParams(k=10, level=level)
        q, t = PAIRS[pair]
        shell = shell_matrices(params.m_bound, 3)
        # each term stands for the pair C', -C'
        exact = 2 * sum(abs(term)
                        for term in _rank2_terms(q, t, params, shell))
        assert _rank2_shell_bound(q, t, params) >= exact

    # the oracle runs once for each modulus of the box that does not take
    # the coset route, among one of each pair C', -C': 144 at an odd level
    # with M = 2, 448 with M = 3, and 52 at N = 2, where 92 of the 144
    # have an even determinant
    ORACLE_RUNS = {2: 52, 3: 144, 5: 144, 7: 144, 13: 144, 47: 448,
                   101: 448}

    @pytest.mark.parametrize("level", [2, 3, 5])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_rank2_route_bit_identical_to_coset_sum(self, monkeypatch, level,
                                                    pair):
        # with each factored Kloosterman sum replaced by the coset sum of
        # N C', the diagonal, rank-1 and budget fields are bit-identical;
        # rank2 and total move by rounding only, within the derived bound
        q, t = PAIRS[pair]
        params = SpectralParams(k=10, level=level)
        assert assert_rank2_route_within_bound(
            monkeypatch, q, t, params, coset_oracle) == self.ORACLE_RUNS[level]

    @pytest.mark.parametrize("level", [3, 5, 7, 13, 47, 101])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_rank2_route_matches_joint_tally(self, monkeypatch, level, pair):
        # against the joint tally of the grid's pI histogram and the table
        # of C' that the rank-2 route ran before the product of two values
        q, t = PAIRS[pair]
        params = SpectralParams(k=10, level=level)
        assert assert_rank2_route_within_bound(
            monkeypatch, q, t, params, joint_tally) == self.ORACLE_RUNS[level]

    def test_pI_grid_cache_is_bounded(self):
        # a cold coefficient at an odd level reads one grid, grid(1) for
        # the class of C' = +-I, and none of its level (level 2 reads
        # grid(2) too); a sweep over levels keeps no more than two grids
        # and four prime tables
        acceptance.clear_all_caches()
        h_fourier(HI, HI, SpectralParams(k=10, level=13, rank1_cutoff=3))
        assert sp4._pI_grid.cache_info().misses == 1
        for n in (2, 3, 5, 7, 11, 13, 17, 19):
            h_fourier(HI, HI, SpectralParams(k=10, level=n, rank1_cutoff=3))
        assert sp4._pI_grid.cache_info().currsize <= 2
        assert expsums._prime_tables.cache_info().currsize <= 4

    def test_script_j_cache_is_bounded(self):
        # one cold coefficient looks up 69 distinct kernels at N <= 43 and
        # 145 at N = 47, far below the bound; a sweep over levels stays
        # inside it
        cache = petersson._script_j_cached
        acceptance.clear_all_caches()
        q, t = PAIRS["111-112"]
        for n in filter(is_prime, range(3, 48)):
            misses = cache.cache_info().misses
            h_fourier(q, t, SpectralParams(k=10, level=n, rank1_cutoff=3))
            assert cache.cache_info().misses - misses <= 400, n
            assert cache.cache_info().currsize <= cache.cache_info().maxsize
        assert cache.cache_info().maxsize == 4096

    def test_rank1_salie_called_once_per_argument(self, monkeypatch, params):
        # each distinct Salie argument (P, S, c) is computed once per call,
        # whether a plus sum or a minus sum H^-(P, S; c) = H^+(P, S'; c)
        # asks for it, and a second call computes it again and gives the
        # same coefficient
        q, t = PAIRS["111-112"]
        want = h_fourier(q, t, params)
        real = petersson.salie
        calls = []

        def record(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(petersson, "salie", record)
        assert h_fourier(q, t, params) == want
        assert len(calls) == len(set(calls)) == 270
        h_fourier(q, t, params)
        assert len(calls) == 2 * 270

    @pytest.mark.parametrize("level", [3, 5, 7, 13])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_rank2_reuse_of_negated_modulus_is_exact(self, monkeypatch,
                                                     level, pair):
        # the rank-2 sum and the shell budget visit one C' of each pair
        # C', -C' and count it twice; that rests on term(-C') == term(C')
        # and envelope(-C') == envelope(C'), here computed afresh for every
        # modulus of the box and the shell and compared with ==
        q, t = PAIRS[pair]
        params = SpectralParams(k=10, level=level)
        n, ell = params.level, params.ell
        box = mats(truncation_set(params.m_bound))
        shell = mats(shell_matrices(params.m_bound, 1))
        assert len(box) == 288
        kernel = {cp: script_j(ell, script_j_for_forms(t, q, cp.scale(n)))
                  for cp in box + shell}

        def direct_term(cp):
            c = cp.scale(n)
            kv = (kloosterman_factored(q, t, n, cp) if cp.det() % n
                  else kloosterman(q, t, c))
            if kv.value == 0:
                return 0j
            return kv.value * kernel[cp] / abs(c.det()) ** 1.5

        def direct_envelope(cp):
            c = cp.scale(n)
            c1, c2, _, v = elementary_divisors(c)
            gcd = math.gcd(c2, t.conjugate_left(v).t4)
            k_env = 8.0 * c1 * c1 * math.sqrt(c2) * math.sqrt(gcd)
            return k_env * abs(kernel[cp]) / abs(c.det()) ** 1.5

        term = {cp: direct_term(cp) for cp in box + shell}
        envelope = {cp: direct_envelope(cp) for cp in shell}
        for cp in box + shell:
            assert term[cp.scale(-1)] == term[cp], cp
        for cp in shell:
            assert envelope[cp.scale(-1)] == envelope[cp], cp
        real = petersson._kloosterman_factored_values
        calls = []

        def counted(q, t, n, moduli, *args):
            calls.extend(moduli)
            return real(q, t, n, moduli, *args)

        monkeypatch.setattr(petersson, "_kloosterman_factored_values", counted)
        terms = _rank2_terms(q, t, params, truncation_set(params.m_bound))
        assert calls == box[144:]
        assert terms == [term[cp] for cp in box[144:]]

    def test_box_and_shell_lists_are_mirrored(self):
        # entry i is minus entry n - 1 - i, so the second half holds one
        # C' of each pair C', -C', the one whose first nonzero entry is
        # positive
        lists = [mats(truncation_set(m)) for m in range(1, 5)]
        lists += [mats(shell_matrices(m, w)) for m in range(1, 5)
                  for w in range(1, 4)]
        for mlist in lists:
            assert mlist and len(mlist) % 2 == 0
            assert mlist == [cp.scale(-1) for cp in reversed(mlist)]
            for cp in mlist[len(mlist) // 2:]:
                assert next(x for x in cp.entries() if x) > 0, cp

    @pytest.mark.parametrize("level", [2, 3, 5, 7, 13])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_rank_sums_match_term_by_term_reference(self, monkeypatch, level,
                                                    pair):
        # the multiplicity sums against the term-by-term references: each
        # part within n 2^-52 sum |term| (n terms), the rank-2 terms equal,
        # and the same Salie, Kloosterman and kernel work, a factored sum
        # counted once per modulus whether one call of
        # _kloosterman_factored_values covers many or kloosterman_factored
        # one.  Level 2 is the only default-beta level whose box takes the
        # coset route
        q, t = PAIRS[pair]
        params = SpectralParams(k=10, level=level)
        box = truncation_set(params.m_bound)
        shell = shell_matrices(params.m_bound, 1)
        eps = 2.0 ** -52

        def run(compute):
            counts = {}
            spied = [(petersson, "salie", "salie", lambda args: 1),
                     (petersson, "kloosterman", "kloosterman", lambda a: 1),
                     (petersson, "_kloosterman_factored_values", "factored",
                      lambda args: len(args[3])),
                     (expsums, "kloosterman_factored", "factored",
                      lambda args: 1)]
            for module, name, key, weight in spied:
                def spy(*args, _key=key, _weight=weight,
                        _real=getattr(module, name)):
                    counts[_key] = counts.get(_key, 0) + _weight(args)
                    return _real(*args)
                monkeypatch.setattr(module, name, spy)
            acceptance.clear_all_caches()
            out = compute()
            counts["kernel misses"] = (
                petersson._script_j_cached.cache_info().misses)
            monkeypatch.undo()
            return out, counts

        (r1, r2, bound), counts = run(lambda: (
            _rank1_sum(q, t, params)[0], _rank2_sum(q, t, params)[0],
            _rank2_shell_bound(q, t, params)))
        (ref1, ref_terms, ref_envs), ref_counts = run(lambda: (
            reference_rank1(q, t, params),
            reference_rank2_terms(q, t, params, box),
            reference_shell_envelopes(q, t, params)))
        assert counts == ref_counts
        assert ("kloosterman" in counts) == (level == 2)

        ref_r1, n1, size1 = ref1
        assert abs(r1 - ref_r1) <= n1 * eps * size1
        for cp, term in zip(mats(petersson._one_of_each_pair(box)),
                            _rank2_terms(q, t, params, box)):
            assert term == ref_terms[cp] == ref_terms[cp.scale(-1)], cp
        ref_r2 = 0j
        for cp in mats(box):
            ref_r2 += ref_terms[cp]
        size2 = sum(abs(ref_terms[cp]) for cp in mats(box))
        assert abs(r2 - ref_r2) <= len(box) * eps * size2
        ref_bound = 0.0
        for cp in mats(shell):
            ref_bound += ref_envs[cp]
        ref_bound *= 2.0
        assert abs(bound - ref_bound) <= len(shell) * eps * ref_bound

    @pytest.mark.parametrize("level", [2, 3, 5, 13, 47])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_rank2_fields_bit_identical_to_term_by_term_reference(
            self, level, pair):
        # the references, one modulus at a time, summed in the order and
        # arithmetic of the per-modulus loop that the array pass replaced:
        # one C' of each pair, twice the sum, four times the envelopes
        q, t = PAIRS[pair]
        params = SpectralParams(k=10, level=level)
        box = truncation_set(params.m_bound)
        shell = shell_matrices(params.m_bound, 1)
        acceptance.clear_all_caches()
        h = h_fourier(q, t, params)
        ref_terms = reference_rank2_terms(q, t, params, box)
        ref_envs = reference_shell_envelopes(q, t, params)
        total = 0j
        for cp in mats(petersson._one_of_each_pair(box)):
            total += ref_terms[cp]
        bound = 0.0
        for cp in mats(petersson._one_of_each_pair(shell)):
            bound += ref_envs[cp]
        scale = 8 * math.pi ** 2 * (t.det() / q.det()) ** params.kappa
        assert h.rank2 == scale * (2.0 * total)
        assert h.rank2_tail == scale * (4.0 * bound)

    @pytest.mark.parametrize("level", [3, 13])
    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_tail_diagnostic_bit_identical_to_reference(self, level, width):
        params = SpectralParams(k=10, level=level)
        shell = shell_matrices(params.m_bound, width)
        ref = reference_rank2_terms(HI, HI, params, shell)
        want = 2.0 * sum(abs(ref[cp])
                         for cp in mats(petersson._one_of_each_pair(shell)))
        rep = petersson.tail_diagnostic(1, 1, params, width)
        assert rep.shell_size == len(shell)
        assert rep.observed_tail == want

    def test_exact_integers_of_large_forms(self):
        # forms of any size: the pass computes in Python ints, and its
        # determinants, x' and adjugate forms equal the per-modulus
        # IntMat2 arithmetic, past 2^63 too
        shell = shell_matrices(3, 1)
        big = 2 ** 40
        for q, t in [(HalfIntegralForm(big + 1, 3, big + 5),
                      HalfIntegralForm(big - 1, -7, big)),
                     (HalfIntegralForm(3, 1, 2), HalfIntegralForm(1, 1, 5)),
                     (HalfIntegralForm(10 ** 30, 1, 10 ** 30), HI)]:
            got = petersson._rank2_pass(q, t, shell)
            want_mats = mats(petersson._one_of_each_pair(shell))
            assert got[0] == want_mats
            assert got[1] == [cp.det() for cp in want_mats]
            adj = [q.conjugate_right(cp.adj()) for cp in want_mats]
            assert got[2] == [16 * (t.t1 * p.t1 + t.t4 * p.t4)
                              + 8 * t.t2 * p.t2 for p in adj]
            assert got[3] == [(p.t1, p.t2, p.t4) for p in adj]


class TestKernelArguments:
    @pytest.mark.parametrize("level", [3, 47, 101])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_eigenvalues_within_two_ulps(self, level, pair):
        # the float numpy route lost up to 6e-13 of the smaller eigenvalue
        # to cancellation
        q, t = PAIRS[pair]
        for c in kernel_moduli(SpectralParams(k=10, level=level)):
            arg = script_j_for_forms(t, q, c)
            want = exact_eigenvalues(*exact_trace_det(t, q, c))
            for got, exact in zip((arg.eig1, arg.eig2), want):
                ulp = Decimal(math.ulp(float(exact)))
                assert abs(Decimal(got) - exact) <= 2 * ulp, (c, got, exact)

    @pytest.mark.parametrize("level", [3, 47, 101])
    @pytest.mark.parametrize("pair", PAIRS)
    def test_one_float_pair_per_exact_argument(self, level, pair):
        q, t = PAIRS[pair]
        seen = set()
        for c in kernel_moduli(SpectralParams(k=10, level=level)):
            arg = script_j_for_forms(t, q, c)
            seen.add((exact_trace_det(t, q, c), (arg.eig1, arg.eig2)))
        exact = {e for e, _ in seen}
        floats = {f for _, f in seen}
        assert len(seen) == len(exact) == len(floats)

    @pytest.mark.parametrize("level, misses", [(3, 69), (47, 145)])
    def test_cold_coefficient_runs_one_kernel_per_exact_argument(
            self, level, misses):
        q, t = PAIRS["111-112"]
        params = SpectralParams(k=10, level=level)
        exact = {exact_trace_det(t, q, c) for c in kernel_moduli(params)}
        assert len(exact) == misses
        acceptance.clear_all_caches()
        h_fourier(q, t, params)
        assert petersson._script_j_cached.cache_info().misses == misses

    def test_cold_coefficient_kernel_nodes(self, monkeypatch):
        # the rank-2 sum and shell budget of one cold coefficient evaluate
        # the kernel integrand at 1,988 trapezoid nodes at N = 3, two Bessel
        # values each; composite Gauss-Legendre took 16,848
        q, t = PAIRS["111-112"]
        values = []
        real = kernels._jv

        def spy(nu, x):
            values.append(np.size(x))
            return real(nu, x)

        acceptance.clear_all_caches()
        monkeypatch.setattr(kernels, "_jv", spy)
        _rank2_sum(q, t, SpectralParams(k=10, level=3))
        assert sum(values) <= 2 * 2_500

    def test_rank2_matches_numpy_argument_route(self, monkeypatch):
        # the rank-2 sum and the shell budget against the term-by-term
        # references run on the float numpy route, at the level and pair
        # where the routes differ most: each kernel moves by at most
        # kernel_shift_bound of the routes' eigenvalue discrepancy, and the
        # sums add n 2^-52 sum |term| for their n terms, which also covers
        # the kernels' own rounding
        q, t = PAIRS["111-112"]
        params = SpectralParams(k=10, level=47)
        n, ell = params.level, params.ell
        box = truncation_set(params.m_bound)
        shell = shell_matrices(params.m_bound, 1)
        eps = 2.0 ** -52
        r2 = _rank2_sum(q, t, params)[0]
        bound = _rank2_shell_bound(q, t, params)
        rows, box, shell = box, mats(box), mats(shell)
        move = {}  # bound on the kernel's relative move
        for cp in box + shell:
            c = cp.scale(n)
            new = script_j_for_forms(t, q, c)
            old = numpy_script_j_for_forms(t, q, c)
            move[cp] = kernel_shift_bound(
                ell, new, abs(old.eig1 - new.eig1) / new.eig1,
                abs(old.eig2 - new.eig2) / new.eig2)
        monkeypatch.setattr(petersson, "script_j_for_forms",
                            numpy_script_j_for_forms)
        ref_terms = reference_rank2_terms(q, t, params, rows)
        ref_envs = reference_shell_envelopes(q, t, params)

        ref_r2 = 0j
        for cp in box:
            ref_r2 += ref_terms[cp]
        size2 = sum(abs(ref_terms[cp]) for cp in box)
        tol2 = (sum(move[cp] * abs(ref_terms[cp]) for cp in box)
                + len(box) * eps * size2)
        assert abs(r2 - ref_r2) <= tol2
        ref_bound = 0.0
        for cp in shell:
            ref_bound += ref_envs[cp]
        ref_bound *= 2.0
        tol_bound = (2.0 * sum(move[cp] * ref_envs[cp] for cp in shell)
                     + len(shell) * eps * ref_bound)
        assert abs(bound - ref_bound) <= tol_bound


class TestGram:
    def test_two_form_gram(self, params):
        # h((1,1,1), (1,0,1)) is far from 0 (entries ~1e12), so the second
        # pair shows whether mirrored entries carry the determinant scale
        # the same way round
        for forms in ([HI, D12], [HalfIntegralForm(1, 1, 1), HI]):
            res = spectral_gram(forms, params)
            g, budget = res.matrix, res.tail_budget
            # diagonal entries approximate sums of |a_F|^2 / ||F||^2: real,
            # positive
            for i in range(2):
                assert g[i, i].real > 0
                assert abs(g[i, i].imag) <= budget[i, i]
            for i in range(2):
                for j in range(2):
                    assert (abs(g[i, j] - g[j, i].conjugate())
                            <= budget[i, j] + budget[j, i])
            assert res.min_eigenvalue >= -float(np.sum(budget))

    def test_six_reduced_forms(self, params):
        # every reduced form with t1, t4 in {1, 2} and |t2| <= 1
        forms = [HalfIntegralForm(*f) for f in
                 ((1, 1, 1), (1, -1, 1), (1, 0, 1),
                  (1, 1, 2), (1, -1, 2), (1, 0, 2))]
        res = spectral_gram(forms, params)
        g, budget = res.matrix, res.tail_budget
        for i in range(6):
            assert g[i, i].real > 0
            assert abs(g[i, i].imag) <= budget[i, i]
            for j in range(6):
                assert (abs(g[i, j] - g[j, i].conjugate())
                        <= budget[i, j] + budget[j, i]), (forms[i], forms[j])
        assert res.min_eigenvalue >= -float(np.sum(budget))

    def test_empty(self, params):
        res = spectral_gram([], params)
        assert res.matrix.shape == (0, 0)
        assert res.hermitian_defect == 0.0


class TestMainTerm:
    def test_five_l_product(self):
        prod = 4.0
        for q in (5, -20, 13, -52, 65):
            prod *= dirichlet_l(1.0, q).real
        rep = main_term_residue(5, 13, 1000.0, 10)
        assert abs(rep.residue - prod) < 1e-6
        assert rep.imag_defect < 1e-10

    def test_level_independence_for_nonprincipal_pair(self):
        r1 = main_term_residue(5, 13, 100.0, 10)
        r2 = main_term_residue(5, 13, 100000.0, 10)
        assert abs(r1.residue - r2.residue) < 1e-8

    @staticmethod
    def _on_circle(monkeypatch, radius):
        """The residue of (1, 1) at N = 1000, k = 10, from Taylor circles of
        the given radius."""
        acceptance.clear_all_caches()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(petersson, "_TAYLOR_RADIUS", radius)
                return main_term_residue(1, 1, 1e3, 10)
        finally:
            acceptance.clear_all_caches()

    def test_radius_robustness(self, monkeypatch):
        # the residue is the circle's Taylor coefficients, whatever circle
        # inside the pole of Gamma(s+1) at s = -1 they come from
        ref = main_term_residue(1, 1, 1e3, 10)
        for radius in (0.25, 0.4):
            rep = self._on_circle(monkeypatch, radius)
            assert rep.radius == radius
            assert abs(rep.residue - ref.residue) <= 1e-13 * ref.residue

    def test_radius_limit_from_trapezoid_error(self, monkeypatch):
        # the FFT is the trapezoid rule of the Cauchy integral: the
        # aliased terms of the q1-factor decay like radius^m from the
        # Gamma pole at -1, 0.9^48 = 6e-3 in the top quarter at 0.9
        with pytest.raises(ArithmeticError, match=(
                r"the chi_1, chi_-4 factor on \|u\| = 0.9 have not decayed")):
            self._on_circle(monkeypatch, 0.9)

    def test_radius_must_leave_out_the_gamma_pole(self, monkeypatch):
        # a circle around the pole of Gamma(s+1) at s = -1 samples a
        # Laurent series, whose principal part fills the top quarter; for
        # q1 = 1 the pole survives, as zeta(0) L(0, chi_-4) = -1/4
        with pytest.raises(ArithmeticError, match="have not decayed"):
            self._on_circle(monkeypatch, 1.2)

    @pytest.mark.parametrize("level", [math.inf, -math.inf, math.nan, 1.0])
    def test_level_must_be_finite_above_one(self, level):
        # unchecked, an infinite level gives residue=nan
        with pytest.raises(ValueError, match="level must be a finite number"):
            main_term_residue(1, 1, level, 10)

    @pytest.mark.parametrize("k", [8, 9, 11])
    def test_weight_contract(self, k):
        with pytest.raises(ValueError, match="even integer >= 10"):
            main_term_residue(5, 13, 1e3, k)
        with pytest.raises(ValueError, match="even integer >= 10"):
            leading_coeff_fit(5, 13, k, levels=[1e2, 1e3])

    def test_coprimality_enforced(self):
        with pytest.raises(ValueError):
            main_term_residue(-4, -4, 100.0, 10)
        with pytest.raises(ValueError):
            main_term_residue(9, 1, 100.0, 10)  # not a fundamental discriminant

    def test_unknown_poly_raises(self):
        # the residue and the fit share weight_w's polynomial factor, which
        # knows only "1-s^2" and "(1-s)^2"
        with pytest.raises(ValueError):
            main_term_residue(5, 13, 1e3, 10, poly="1+s")
        with pytest.raises(ValueError):
            leading_coeff_fit(1, 1, 10, poly="bogus")

    def test_fit_degrees(self):
        assert residue_fit_degree(1, 1) == 3
        assert residue_fit_degree(1, -4) == 2
        assert residue_fit_degree(-4, 1) == 2
        assert residue_fit_degree(5, 13) == 0
        assert residue_fit_degree(1, 5) == 1

    @pytest.mark.parametrize("q1, q2", [(1, 1), (1, -4), (-4, 1), (5, 13),
                                        (1, 5)])
    def test_polynomial_of_fit_degree_in_log_level(self, q1, q2):
        # on equally spaced log N the (d+1)-th finite difference of a
        # degree-d polynomial vanishes and its d-th is d! h^d times the
        # leading coefficient
        d = residue_fit_degree(q1, q2)
        res = np.array([main_term_residue(q1, q2, 10.0 ** (2 + j), 10).residue
                        for j in range(d + 2)])

        def difference(order):
            w = np.array([(-1) ** (order - i) * math.comb(order, i)
                          for i in range(order + 1)])
            return abs(w @ res[:order + 1]), np.abs(w) @ np.abs(res[:order + 1])

        top, scale = difference(d + 1)
        assert top <= 1e-13 * scale
        lead, scale = difference(d)
        assert lead >= 1e-3 * scale

    def test_cubic_fit_leading_coefficient(self):
        fit = leading_coeff_fit(1, 1, 10, levels=[1e2, 1e3, 1e4, 1e5])
        assert fit.degree == 3
        assert abs(fit.leading - (4.0 / 3.0) * A4 ** 2) < 1e-4
        assert fit.residual < 1e-6

    def test_mixed_fit_leading_coefficient(self):
        # The integrand's five L-factors contribute L(1, chi_{-4}) three
        # times at the origin for {q1, q2} = {1, -4} (one from each decomposed
        # pair and one from the coupled factor), and the imprimitive
        # chi_16 Euler factor halves the 4: iterated-residue expansion gives
        # leading coefficient 2 L(1, chi_{-4})^3.  Verified here against the
        # quadrature to 1e-4; the Laurent-series oracle value is frozen below.
        fit = leading_coeff_fit(1, -4, 10, levels=[1e2, 1e3, 1e4, 1e5])
        assert fit.degree == 2
        assert abs(fit.leading - 2.0 * A4 ** 3) < 1e-4
        assert fit.residual < 1e-6
        swapped = leading_coeff_fit(-4, 1, 10, levels=[1e2, 1e3, 1e4, 1e5])
        assert abs(swapped.leading - fit.leading) < 1e-9

    def test_constant_fit_for_generic_pair(self):
        fit = leading_coeff_fit(5, 13, 10, levels=[1e2, 1e3, 1e4])
        assert fit.degree == 0
        assert fit.residual < 1e-8

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            leading_coeff_fit(1, 1, 10, levels=[1e2, 1e3])
        # four levels, but one distinct: the cubic is not determined
        with pytest.raises(ValueError, match="4 distinct sample levels"):
            leading_coeff_fit(1, 1, 10, levels=[1e2] * 4)

    def test_negative_degree_rejected_before_any_residue(self, monkeypatch):
        calls = []
        monkeypatch.setattr(petersson, "main_term_residue",
                            lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match="degree must be non-negative"):
            leading_coeff_fit(5, 13, 10, levels=[1e2, 1e3], degree=-1)
        assert calls == []

    def test_poly_variant_changes_subleading_only(self):
        fit_a = leading_coeff_fit(1, 1, 10, levels=[1e2, 1e3, 1e4, 1e5],
                                  poly="(1-s)^2")
        fit_b = leading_coeff_fit(1, 1, 10, levels=[1e2, 1e3, 1e4, 1e5],
                                  poly="1-s^2")
        assert abs(fit_a.leading - fit_b.leading) < 1e-9
        assert (abs(np.array(fit_a.coefficients)
                    - np.array(fit_b.coefficients)) > 1e-6).any()


class TestCoupledFactor:
    @pytest.mark.parametrize("radius", [0.05, 0.08, 0.15, 0.3])
    def test_matches_grid_oracle(self, radius):
        # every pair at every weight at radius 0.08; at the other oracle
        # radii each pair at one weight, in turn
        pairs = _oracle_pairs()
        assert len(pairs) == 120
        for i, (q1, q2) in enumerate(pairs):
            weights = (10, 12, 14) if radius == 0.08 else ((10, 12, 14)[i % 3],)
            for k in weights:
                for level in (1e2, 1e3, 1e4, 1e5):
                    rep = main_term_residue(q1, q2, level, k)
                    want, scale = _grid_oracle(q1, q2, level, k, radius)
                    assert (abs(rep.residue - want.real)
                            <= ORACLE_TOL * scale), (q1, q2, k, level)
        _coupled_grid.cache_clear()

    @pytest.mark.parametrize("q", [1, -4, 5, 120, -104, -1147])
    def test_factor_reproduces_grid(self, q):
        # the Taylor series of g(u) = L(1 + u, chi_q) - [q = 1]/u from its
        # circle, summed at u = s_i + t_j, plus [q = 1]/u, is the grid
        # oracle L(1 + s_i + t_j, chi_q)
        coeffs = petersson._taylor(
            lambda u: dirichlet_l_vec(u + 1, q) - (q == 1) / u, "g",
            petersson._TAYLOR_NODES)
        nodes, radius = 128, 0.08
        theta = 2 * np.pi * np.arange(nodes) / nodes
        st = 2 * radius * np.exp(1j * theta)[:, None] + radius * np.exp(
            1j * theta)
        got = np.polyval(coeffs[::-1], st) + (q == 1) / st
        want = _coupled_grid(q, radius, nodes)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_non_decaying_tail_raises(self, monkeypatch):
        # an L-evaluator good to single precision only leaves a flat tail
        # of Taylor coefficients near 1e-8, far above rounding, on any of
        # the three circles
        for q, circle in ((65, r"L\(1 \+ u, chi_65\)"),
                          (5, "the chi_5, chi_-20 factor"),
                          (13, "the chi_13, chi_-52 factor")):
            def single_precision(s, chi, q=q):
                val = dirichlet_l_vec(s, chi)
                return (val.astype(np.complex64).astype(complex) if chi == q
                        else val)

            acceptance.clear_all_caches()
            monkeypatch.setattr(petersson, "dirichlet_l_vec", single_precision)
            try:
                with pytest.raises(ArithmeticError, match=(
                        circle + r" on \|u\| = 0.5 have not decayed")):
                    main_term_residue(5, 13, 1e3, 10)
            finally:
                acceptance.clear_all_caches()
