"""Acceptance battery: one function per criterion, deterministic records.

Each criterion function returns a JSON-serializable record with a "pass"
flag and the measured quantities; ``run_all`` executes the battery in
order, one criterion at a time, and reports wall times separately so the
records themselves are byte-stable across repeat runs and cache states.
"""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np

from .matcore import (
    GaussianInt,
    HalfIntegralForm,
    IntMat2,
    _xgcd,
    gaussian_totient,
)
from . import expsums, kernels, lfun, petersson, sp4


TOL = 1e-9


def _pd_forms() -> list[HalfIntegralForm]:
    """The 43 positive definite forms with t1, t4 <= 3 and |t2| <= 2."""
    out = []
    for t1 in range(1, 4):
        for t4 in range(1, 4):
            for t2 in range(-2, 3):
                f = HalfIntegralForm(t1, t2, t4)
                if f.is_positive_definite():
                    out.append(f)
    return out


def _random_unimodular(rng, max_rounds: int = 3) -> IntMat2:
    """A product of 1 to ``max_rounds`` rounds of shears with entries in
    [-2, 2], times the swap with probability 1/2."""
    u = IntMat2.identity()
    for _ in range(rng.randint(1, max_rounds)):
        u = u.mul(IntMat2(1, rng.randint(-2, 2), 0, 1))
        u = u.mul(IntMat2(1, 0, rng.randint(-2, 2), 1))
    if rng.random() < 0.5:
        u = u.mul(IntMat2(0, 1, 1, 0))
    return u


def criterion_1() -> dict:
    """Kloosterman oracle equivalence: the enumerated coset sum against
    the pI closed form (``kloosterman_pI``) and the pI grid (the table of
    pI in ``kloosterman``)."""
    forms = _pd_forms()
    max_dev = 0.0
    for p in (3, 5, 7):
        table = sp4._enumerated_table(IntMat2.scalar(p))
        for q in forms:
            for t in forms:
                nums = (table.weights @ expsums._form_vector(q, t)) % table.m
                a = expsums._tally_value(nums, table.m)
                b = expsums.kloosterman_pI(q, t, p).value
                c = expsums.kloosterman(q, t, IntMat2.scalar(p)).value
                max_dev = max(max_dev, abs(a - b), abs(a - c))
    pinned = expsums.kloosterman(HalfIntegralForm.identity(),
                                 HalfIntegralForm.identity(),
                                 IntMat2.scalar(3)).value
    pinned_dev = abs(pinned - 15.0)
    ok = max_dev <= TOL and pinned_dev <= TOL
    return {
        "criterion": 1,
        "name": "kloosterman pI oracle equivalence",
        "pass": bool(ok),
        "max_deviation": max_dev,
        "pinned_K_I_I_3I": [pinned.real, pinned.imag],
        "pinned_deviation": pinned_dev,
        "pairs_tested": 3 * len(forms) ** 2,
    }


def criterion_2() -> dict:
    """Coprime factorization vs enumerated cosets, with Bezout invariance."""
    mats = [IntMat2.identity(), IntMat2.diag(1, 2), IntMat2(1, 1, -1, 1),
            IntMat2.diag(2, 2)]
    forms = [HalfIntegralForm.identity(), HalfIntegralForm(1, 1, 1),
             HalfIntegralForm(1, 0, 2)]
    max_dev = 0.0
    max_bezout_dev = 0.0
    for c in mats:
        cdet = c.det()
        table = sp4._enumerated_table(c.scale(3))
        for q in forms:
            for t in forms:
                fact = expsums.kloosterman_factored(q, t, 3, c)
                nums = (table.weights @ expsums._form_vector(q, t)) % table.m
                brute = expsums._tally_value(nums, table.m)
                max_dev = max(max_dev, abs(fact.value - brute))
                g, s0, t0 = _xgcd(3, cdet)
                alt = expsums.kloosterman_factored(
                    q, t, 3, c, bezout=(s0 + cdet, t0 - 3))
                max_bezout_dev = max(max_bezout_dev,
                                     abs(fact.value - alt.value))
    ok = max_dev <= TOL and max_bezout_dev <= TOL
    return {
        "criterion": 2,
        "name": "kloosterman factorization vs brute force",
        "pass": bool(ok),
        "max_deviation": max_dev,
        "max_bezout_deviation": max_bezout_dev,
    }


def criterion_3() -> dict:
    """Equivariance under unimodular row/column twists, 100 random draws."""
    rng = random.Random(20240817)
    forms = _pd_forms()
    max_dev = 0.0
    for _ in range(100):
        q = forms[rng.randrange(len(forms))]
        t = forms[rng.randrange(len(forms))]
        while True:
            c = IntMat2(*(rng.randint(-2, 2) for _ in range(4)))
            if 0 < abs(c.det()) <= 6:
                break
        u, v = _random_unimodular(rng), _random_unimodular(rng)
        cc = u.adj().scale(u.det()).mul(c).mul(v.adj().scale(v.det()))
        lhs = expsums.kloosterman(q, t, cc).value
        rhs = expsums.kloosterman(q.conjugate_right(u), t.conjugate_left(v),
                                  c).value
        max_dev = max(max_dev, abs(lhs - rhs))
    return {
        "criterion": 3,
        "name": "kloosterman equivariance",
        "pass": bool(max_dev <= TOL),
        "max_deviation": max_dev,
        "instances": 100,
    }


def _isotropic_count(n: int) -> int:
    """#{(x, y) mod n : x^2 + y^2 == 0 mod n}, by enumeration."""
    return sum(1 for x in range(n) for y in range(n) if (x * x + y * y) % n == 0)


def criterion_4() -> dict:
    """Congruence counts: main case against its derived value, off-main <= N + 1.

    In the main case (c1 == c4, c2 == h1 == h2 == 0 mod N) both congruences
    of ``expsums.congruence_count`` reduce to d1 + d4 == 0, so the count is
    #{(d1, d2) : d1^2 + d2^2 != 0 mod N} = N^2 - #{x^2 + y^2 == 0 mod N}.
    The subtracted count is enumerated here, not taken from the library;
    for N = 3 mod 4 it is 1, so the count is N^2 - 1.  The published value
    N^2 - 2N is kept in the record for reference only.
    """
    main_ok = True
    main_counts = {}
    main_derived = {}
    for n in (3, 7, 11):
        cnt = expsums.congruence_count(n, 1, 0, 1, 0, 0, 1, 1)
        want = n * n - _isotropic_count(n)
        main_counts[str(n)] = cnt
        main_derived[str(n)] = want
        if cnt != want:
            main_ok = False
    ab_ok = True
    for n in (3, 7, 11):
        ref = expsums.congruence_count(n, 1, 0, 1, 0, 0, 1, 1)
        for (a, b) in ((2, 1), (1, 2), (n - 1, n - 2), (2, n - 1)):
            if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
                continue
            if expsums.congruence_count(n, 1, 0, 1, 0, 0, a, b) != ref:
                ab_ok = False
    rng = random.Random(1105)
    off_ok = True
    worst_off = 0
    tested = 0
    while tested < 200:
        n = (3, 7, 11)[rng.randrange(3)]
        c1, c2, c4 = (rng.randrange(n) for _ in range(3))
        if (4 * c1 * c4 - c2 * c2) % n == 0:
            continue
        h1, h2 = rng.randrange(n), rng.randrange(n)
        is_main = (h1 % n == 0 and h2 % n == 0
                   and (c1 - c4) % n == 0 and c2 % n == 0)
        if is_main:
            continue
        a = 1 + rng.randrange(n - 1)
        b = 1 + rng.randrange(n - 1)
        cnt = expsums.congruence_count(n, c1, c2, c4, h1, h2, a, b)
        worst_off = max(worst_off, cnt - (n + 1))
        if cnt > n + 1:
            off_ok = False
        tested += 1
    ok = main_ok and ab_ok and off_ok
    return {
        "criterion": 4,
        "name": "congruence solution counts",
        "pass": bool(ok),
        "main_case_counts": main_counts,
        "main_case_derived": main_derived,
        "main_case_published": {str(n): n * n - 2 * n for n in (3, 7, 11)},
        "main_case_matches_derived": bool(main_ok),
        "ab_independent": bool(ab_ok),
        "off_main_within_N_plus_1": bool(off_ok),
    }


def criterion_5() -> dict:
    """Twisted character average against the Gaussian-totient closed form."""
    qpairs = [(1, 1), (1, -4), (1, 5), (-4, 1), (-4, 5), (5, 1), (5, -4)]
    max_dev = 0.0
    count = 0
    for x in range(-3, 4):
        for y in range(-3, 4):
            nrm = x * x + y * y
            if nrm == 0 or nrm > 10:
                continue
            for c in (IntMat2(x, y, -y, x), IntMat2(x, y, y, -x)):
                cdet = abs(c.det())
                for (q1, q2) in qpairs:
                    got = expsums.twisted_average(c, q1, q2).value
                    want = (cdet * cdet * gaussian_totient(GaussianInt(x, y))
                            if q1 == q2 == 1 else 0.0)
                    max_dev = max(max_dev, abs(got - want))
                    count += 1
    return {
        "criterion": 5,
        "name": "twisted average closed form",
        "pass": bool(max_dev <= TOL),
        "max_deviation": max_dev,
        "identities_tested": count,
    }


def criterion_6() -> dict:
    """Gauss-sum bound (exhaustive, c <= 50) and Salie vanishing + bound."""
    gauss_ok = True
    worst_gauss = 0.0
    for c in range(1, 51):
        for a in range(c):
            ga = math.gcd(a, c) if a else c
            cap = math.sqrt(ga) * math.sqrt(c) * math.sqrt(2)
            for b in range(c):
                val = expsums.gauss_sum(a, b, c).value
                ratio = abs(val) / cap
                worst_gauss = max(worst_gauss, ratio)
                if ratio > 1 + 1e-12:
                    gauss_ok = False
    vanish_ok = True
    for p4 in (1, 2, 3):
        for s4 in (1, 2, 3):
            if s4 == p4:
                continue
            sv = expsums.salie(HalfIntegralForm(1, 0, p4),
                               HalfIntegralForm(1, 1, s4), 6)
            if sv.value != 0 or sv.terms != 0:
                vanish_ok = False
    bound_ok = True
    worst_salie = 0.0
    worst_grid_dev = 0.0
    pforms = _pd_forms()
    for p in pforms:
        for s1 in (1, 2, 3):
            for s2 in (-2, -1, 0, 1, 2):
                s = HalfIntegralForm(s1, s2, p.t4)
                if not s.is_positive_definite():
                    continue
                for c in range(1, 21):
                    cap = c ** 1.5 * math.sqrt(math.gcd(c, s.t4))
                    # H^-(P, S; c) is H^+(P, (s1, -s2, s4); c), which the
                    # symmetric s2 range also visits
                    h = expsums.salie(p, s, c)
                    ratio = abs(h.value) / cap
                    worst_salie = max(worst_salie, ratio)
                    if ratio > 1 + 1e-12:
                        bound_ok = False
                    # the closed form against the whole grid of c
                    grid = expsums._salie_grid(p, s, c)
                    worst_grid_dev = max(worst_grid_dev,
                                         abs(h.value - grid.value))
    ok = (gauss_ok and vanish_ok and bound_ok
          and worst_grid_dev <= TOL)
    return {
        "criterion": 6,
        "name": "gauss and salie envelopes",
        "pass": bool(ok),
        "worst_gauss_ratio": worst_gauss,
        "salie_vanishing": bool(vanish_ok),
        "worst_salie_ratio": worst_salie,
        "worst_salie_grid_deviation": worst_grid_dev,
    }


def _script_j_small_constant(ell: float) -> float:
    """C_ell with |script_j(ell, s1, s2)| <= C_ell (s1 s2)^ell.

    From |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1) (DLMF 10.14.4) and
    int_0^{pi/2} sin^{2 ell + 1} t dt = sqrt(pi) Gamma(ell + 1)
    / (2 Gamma(ell + 3/2)); sharp as both eigenvalues tend to 0.
    """
    return ((2 * math.pi) ** (2 * ell) * math.sqrt(math.pi)
            / (2 * math.gamma(ell + 1) * math.gamma(ell + 1.5)))


def _weight_w_expansion(x: float, k: int) -> float:
    """W(x) to O(x^4) from the residues at s = 0, -2, -3 of the integrand
    of ``kernels.weight_w`` (default polynomial 1 - s^2, which cancels the
    pole at s = -1)."""
    c2 = -1.5 * (2 * math.pi) ** 4 / ((k - 2) * (k - 3))
    c3 = (4.0 / 3.0) * (2 * math.pi) ** 6 / ((k - 2) * (k - 3) * (k - 4))
    return 1.0 + c2 * x ** 2 + c3 * x ** 3


def criterion_7() -> dict:
    """Bessel closed forms, kernel envelopes, and weight-function values.

    Envelope (i): |script_j| <= C_ell (s1 s2)^ell with C_ell the closed form
    of ``_script_j_small_constant`` (758.97 at ell = 8.5; the grid maximum
    is ~701 and the ratio tends to C_ell at small eigenvalues, so the
    published constant 10 cannot hold).  Envelope (ii), the trace-weighted
    one, keeps the constant 10.  W(1e-3, 10) is checked to 1e-8 against
    its residue expansion through x^3, 1 - 4.1503e-5 (the x^4 term is
    ~ -9e-10); the published band of 1e-5 around 1 excludes it.  Published
    values are kept in the record for reference only.
    """
    closed_ok = True
    worst_closed = 0.0
    for x in np.geomspace(0.1, 100.0, 40):
        cf1 = math.sqrt(2 / (math.pi * x)) * math.sin(x)
        cf2 = math.sqrt(2 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        d1 = abs(kernels.bessel_j(0.5, x) - cf1) / (1 + abs(cf1))
        d2 = abs(kernels.bessel_j(1.5, x) - cf2) / (1 + abs(cf2))
        worst_closed = max(worst_closed, d1, d2)
        if d1 > 1e-10 or d2 > 1e-10:
            closed_ok = False
    ell = 8.5
    const_i = 0.0
    const_ii = 0.0
    for e1 in np.geomspace(1e-2, 10.0, 12):
        for e2 in np.geomspace(1e-2, 10.0, 12):
            v = abs(kernels.script_j(ell, kernels.KernelArg(e1, e2)))
            s1s2 = math.sqrt(e1 * e2)
            const_i = max(const_i, v / s1s2 ** ell)
            const_ii = max(const_ii,
                           v / ((e1 * e2) ** (ell / 2)
                                * (e1 + e2) ** (-ell / 2 - 0.25)))
    bound_i = _script_j_small_constant(ell)
    env_ok = const_i <= bound_i * (1 + 1e-10) and const_ii <= 10.0
    w_small = kernels.weight_w(1e-3, 10)
    w_small_expansion = _weight_w_expansion(1e-3, 10)
    w_large = kernels.weight_w(100.0, 10)
    w_small_ok = abs(w_small - w_small_expansion) <= 1e-8
    w_large_ok = abs(w_large) <= 1e-6
    ok = closed_ok and env_ok and w_small_ok and w_large_ok
    return {
        "criterion": 7,
        "name": "bessel kernels and weight function",
        "pass": bool(ok),
        "worst_closed_form_deviation": worst_closed,
        "envelope_constant_i": const_i,
        "envelope_bound_i": bound_i,
        "envelope_bound_i_published": 10.0,
        "envelope_constant_ii": const_ii,
        "envelope_bound_ii": 10.0,
        "envelope_constants_within_bounds": bool(env_ok),
        "w_small": w_small,
        "w_small_expansion": w_small_expansion,
        "w_small_matches_expansion": bool(w_small_ok),
        "w_small_published_band": 1e-5,
        "w_large": w_large,
    }


def criterion_8() -> dict:
    """Main-term constants: cubic fit, mixed fit, and the five-L product.

    For (q1, q2) = (1, -4) the integrand of ``petersson.main_term_residue``
    has L(s+1, chi_1) ~ 1/s, L(t+1, chi_16) ~ (1/2)/t (chi_16 is the
    imprimitive principal character mod 2), and the three remaining
    factors L(s+1, chi_{-4}), L(t+1, chi_{-4}), L(s+t+1, chi_{-4}) tend to
    L(1, chi_{-4}).  So the log^2 N coefficient is 4 * (1/2) * L(1, chi_{-4})^3
    = 2 L(1, chi_{-4})^3, taken from ``lfun``.  The published 2 L(1, chi_{-4})^2
    is what the integrand gives without the coupled factor, which would also
    remove the cubic (1, 1) term pinned here; it is kept for reference only.
    """
    a_val = math.pi / 4  # L(1, chi_{-4})
    fit11 = petersson.leading_coeff_fit(1, 1, 10,
                                        levels=[1e2, 1e3, 1e4, 1e5])
    lead11_ok = abs(fit11.leading - (4.0 / 3.0) * a_val ** 2) <= 1e-4
    fitmx = petersson.leading_coeff_fit(1, -4, 10,
                                        levels=[1e2, 1e3, 1e4, 1e5])
    mixed_expected = 2.0 * lfun.dirichlet_l(1.0, -4).real ** 3
    leadmx_ok = abs(fitmx.leading - mixed_expected) <= 1e-4
    prod = 4.0
    for q in (5, -20, 13, -52, 65):
        prod *= lfun.dirichlet_l(1.0, q).real
    r_a = petersson.main_term_residue(5, 13, 1e3, 10)
    r_b = petersson.main_term_residue(5, 13, 1e5, 10)
    prod_ok = abs(r_a.residue - prod) <= 1e-6
    indep_ok = abs(r_a.residue - r_b.residue) <= 1e-8
    ok = lead11_ok and leadmx_ok and prod_ok and indep_ok
    return {
        "criterion": 8,
        "name": "main-term residue constants",
        "pass": bool(ok),
        "cubic_leading": fit11.leading,
        "cubic_expected": (4.0 / 3.0) * a_val ** 2,
        "cubic_ok": bool(lead11_ok),
        "mixed_leading": fitmx.leading,
        "mixed_expected": mixed_expected,
        "mixed_published": 2.0 * a_val ** 2,
        "mixed_ok": bool(leadmx_ok),
        "five_L_product": prod,
        "five_L_residue": r_a.residue,
        "five_L_ok": bool(prod_ok),
        "level_independence_ok": bool(indep_ok),
    }


def criterion_9() -> dict:
    """Spectral Gram consistency at N = 3, k = 10 over {I, diag(1, 2)}."""
    params = petersson.SpectralParams(k=10, level=3)
    forms = [HalfIntegralForm.identity(), HalfIntegralForm(1, 0, 2)]
    gram = petersson.spectral_gram(forms, params)
    g, budget = gram.matrix, gram.tail_budget
    defect_ok = True
    for i in range(2):
        for j in range(2):
            defect = abs(g[i, j] - g[j, i].conjugate())
            if defect > budget[i, j] + budget[j, i] + 1e-12:
                defect_ok = False
    h = petersson.h_fourier(forms[0], forms[0], params)
    eps = abs(h.total - 8.0)
    eps_ok = eps < 1.0
    eig_ok = gram.min_eigenvalue >= -float(np.sum(budget))
    ok = defect_ok and eps_ok and eig_ok
    return {
        "criterion": 9,
        "name": "spectral gram consistency",
        "pass": bool(ok),
        "hermitian_defect": gram.hermitian_defect,
        "defect_within_budget": bool(defect_ok),
        "h_II_total": [h.total.real, h.total.imag],
        "h_II_epsilon": eps,
        "min_eigenvalue": gram.min_eigenvalue,
    }


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9]


def clear_all_caches() -> None:
    """Empty every memo table of the library, so the next call runs cold."""
    sp4.clear_caches()
    expsums._roots_of_unity.cache_clear()
    expsums._prime_tables.cache_clear()
    expsums._unit_table.cache_clear()
    petersson._script_j_cached.cache_clear()
    petersson._residue_series.cache_clear()
    lfun._character.cache_clear()


def run_all() -> tuple[list[dict], dict[int, float]]:
    """Run criteria 1-9 in order; returns (records, wall_times)."""
    records, timings = [], {}
    for criterion in CRITERIA:
        t0 = time.perf_counter()
        rec = criterion()
        timings[rec["criterion"]] = time.perf_counter() - t0
        records.append(rec)
    return records, timings


def records_json(records: list[dict]) -> str:
    return json.dumps(records, sort_keys=True)

