import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import loggamma

from siegelsums import kernels, petersson
from siegelsums.lfun import _STIRLING, _STIRLING_MIN_RE
from siegelsums.matcore import HalfIntegralForm, IntMat2
from siegelsums.kernels import (
    KernelArg,
    _panel_sum,
    bessel_j,
    default_beta,
    gamma_factor,
    require_weight,
    script_j,
    script_j_for_forms,
    shell_matrices,
    truncation_set,
    weight_w,
)
from siegelsums.petersson import SpectralParams, tail_diagnostic
from support import mats, scan_box, scan_shell

ROOT = Path(__file__).resolve().parents[1]


def kernel_arg_from_matrix(m: np.ndarray) -> KernelArg:
    """Eigenvalues of a float 2x2 matrix via the quadratic formula, an
    oracle for the exact route of script_j_for_forms; they must be real
    and positive.  The smaller one, 0.5 * (tr - r), loses digits to
    cancellation."""
    tr = float(m[0, 0] + m[1, 1])
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    disc = tr * tr - 4.0 * det
    if disc < 0:
        if disc < -1e-9 * max(tr * tr, 1.0):
            raise ValueError("matrix has non-real eigenvalues")
        disc = 0.0
    r = math.sqrt(disc)
    return KernelArg(0.5 * (tr - r), 0.5 * (tr + r))


def bessel_j_series(nu: float, x: float) -> float:
    """Ascending power series for J_nu(x), an oracle for bessel_j.

    Stops at the first term below 1e-17 of the partial sum.  Raises
    ArithmeticError when 500 terms do not get there, or when the rounding
    left by cancellation (largest term * 2^-52) exceeds 1e-10 * max(1, |J|);
    at nu = 1/2 the latter happens from about x = 20.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    log_lead = nu * math.log(x / 2) - math.lgamma(nu + 1)
    term = math.exp(log_lead)
    total = term
    largest = abs(term)
    q = -0.25 * x * x
    for m in range(1, 501):
        term *= q / (m * (m + nu))
        total += term
        largest = max(largest, abs(term))
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            break
    else:
        raise ArithmeticError(
            f"bessel_j_series({nu}, {x}) did not converge in 500 terms")
    if largest * 2.0 ** -52 > 1e-10 * max(1.0, abs(total)):
        raise ArithmeticError(
            f"bessel_j_series({nu}, {x}) loses its accuracy to cancellation")
    return total


def bessel_j_integral(nu: float, x: float) -> float:
    """J_nu(x) from the Schlaefli integral representation, an oracle for
    bessel_j independent of the series.

    (1/pi) * int_0^pi cos(nu*tau - x*sin(tau)) dtau
        - sin(nu*pi)/pi * int_0^inf exp(-nu*t - x*sinh(t)) dt
    """
    if x <= 0:
        raise ValueError("x must be positive")
    panels = max(24, int(x / 2) + 24)
    first = kernels._panel_sum(lambda tau: np.cos(nu * tau - x * np.sin(tau)),
                               math.pi / panels, panels) / math.pi
    s = math.sin(nu * math.pi)
    if abs(s) < 1e-15:
        return first
    # find T with nu*T + x*sinh(T) ~ 46 so the dropped tail is ~1e-20
    t_hi = 1.0
    while nu * t_hi + x * math.sinh(t_hi) < 46:
        t_hi *= 1.5
    total2 = kernels._panel_sum(lambda t: np.exp(-nu * t - x * np.sinh(t)),
                                t_hi / 24, 24)
    return first - s / math.pi * total2


def script_j_gauss_legendre(ell: float, arg: KernelArg) -> float:
    """script_j by composite 16-point Gauss-Legendre on [0, pi/2], an
    oracle independent of the trapezoid rule: panels double, with no node
    reused, until the value moves by at most SCRIPT_J_TOL times its size.
    Raises ArithmeticError if 12 doublings do not get there."""
    s1, s2 = arg.s_values()
    a1 = 4.0 * math.pi * s1
    a2 = 4.0 * math.pi * s2

    def integrand(t):
        st = np.sin(t)
        return kernels._jv(ell, a1 * st) * kernels._jv(ell, a2 * st) * st

    prev = None
    panels = max(4, int((a1 + a2) / 8) + 4)
    for _ in range(12):
        total = kernels._panel_sum(integrand, (math.pi / 2) / panels, panels)
        if (prev is not None
                and abs(total - prev) <= kernels.SCRIPT_J_TOL * abs(total)):
            return float(total)
        prev = total
        panels *= 2
    raise ArithmeticError(f"script_j_gauss_legendre({ell}, {arg}) did not "
                          "converge")


# Relative gap allowed between script_j and script_j_gauss_legendre.  Each
# rule stops once a doubling moves its value by at most SCRIPT_J_TOL of its
# size.  Both converge geometrically, each doubling cutting the error by far
# more than half (the Gauss-Legendre error falls by about 2^-32 per doubling
# once the panels resolve the integrand; the trapezoid error on an entire
# periodic integrand is squared), so the accepted value is closer to the
# integral than the value before it, and within SCRIPT_J_TOL of it.  The two
# routes are then within twice that of each other.
ORACLE_TOL = 2 * kernels.SCRIPT_J_TOL

# The three form pairs of the coefficient tests, as (Q, T)
PAIRS = [(HalfIntegralForm.identity(), HalfIntegralForm.identity()),
         (HalfIntegralForm(1, 1, 1), HalfIntegralForm(1, 1, 2)),
         (HalfIntegralForm.identity(), HalfIntegralForm(1, 0, 2))]


def drifting_jv(scale, drift, calls):
    """A stand-in for kernels._jv: a constant that grows by the relative
    ``drift`` with every call, so that no two trapezoid sums agree.  Each
    call's node count goes to ``calls``."""
    def jv(nu, x):
        calls.append(np.size(x))
        return np.full(np.shape(x), scale * (1 + drift * len(calls)))
    return jv


# Run in a fresh interpreter: the other tests load scipy.special.
SCIPY_SPECIAL_PROBE = """
import sys

from siegelsums import (HalfIntegralForm, IntMat2, KernelArg, dirichlet_l,
                        kloosterman, leading_coeff_fit, main_term_residue,
                        salie, script_j, weight_w)

form = HalfIntegralForm(1, 0, 1)
steps = [
    ("import", lambda: None),
    ("kloosterman", lambda: kloosterman(form, form, IntMat2(3, 0, 0, 3))),
    ("salie", lambda: salie(form, form, 5)),
    ("dirichlet_l", lambda: dirichlet_l(0.5 + 3j, 5)),
    ("main_term_residue", lambda: main_term_residue(1, 1, 1000.0, 10)),
    ("leading_coeff_fit", lambda: leading_coeff_fit(5, 13, 10)),
    ("weight_w", lambda: weight_w(1.0, 10)),
]
for name, run in steps:
    run()
    assert "scipy.special" not in sys.modules, name
script_j(8.5, KernelArg(1.0, 2.0))
assert "scipy.special" in sys.modules, "script_j"
"""


class TestBessel:
    def test_scipy_special_loaded_by_the_bessel_route_alone(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", SCIPY_SPECIAL_PROBE],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x; at x = pi/2 the value is 2/pi
        assert abs(bessel_j(0.5, math.pi / 2) - 2 / math.pi) < 1e-12
        for x in np.geomspace(0.1, 100, 60):
            cf = math.sqrt(2 / (math.pi * x)) * math.sin(x)
            assert abs(bessel_j(0.5, x) - cf) < 1e-10 * (1 + abs(cf))
            cf = math.sqrt(2 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            assert abs(bessel_j(1.5, x) - cf) < 1e-10 * (1 + abs(cf))

    def test_small_argument_decay(self):
        # leading term (x/2)^nu / Gamma(nu+1)
        assert bessel_j(8.5, 1e-3) < 1e-30

    def test_dual_method_oracle(self):
        for nu in (0.5, 1.5, 8.5, 12.5):
            for x in (0.3, 2.0, 7.0, 10.0, 15.0):
                a = bessel_j_series(nu, x)
                b = bessel_j_integral(nu, x)
                assert abs(a - b) < 1e-10, (nu, x)
        assert abs(bessel_j_series(8.5, 10.0) - bessel_j(8.5, 10.0)) < 1e-10

    def test_series_raises_outside_its_range(self):
        # at x = 50 the alternating series cancels terms of size ~1e19 and
        # returns -1267.05 for J_{1/2}(50) = -0.0296; at x = 1000 it does
        # not converge in its 500 terms
        for x in (50.0, 1000.0):
            with pytest.raises(ArithmeticError):
                bessel_j_series(0.5, x)

    def test_nonpositive_rejected(self):
        for fn in (bessel_j, bessel_j_series, bessel_j_integral):
            with pytest.raises(ValueError):
                fn(0.5, 0.0)

    def test_order_from_weight(self):
        assert SpectralParams(k=10, level=3).ell == 8.5
        for k in (8, 9, 11):
            with pytest.raises(ValueError, match="even integer >= 10"):
                require_weight(k)

    def test_panel_sum_exact_for_low_degree(self):
        # 16 Gauss-Legendre nodes per panel integrate degree <= 31 exactly
        assert abs(_panel_sum(lambda t: t ** 3, 0.5, 4) - 4.0) < 1e-14
        assert abs(_panel_sum(lambda t: t ** 31, 1.0, 1) - 1 / 32) < 1e-15

    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda: script_j_gauss_legendre(
            8.5, KernelArg(1e-3, 2e-3)), id="J-small"),
        pytest.param(lambda: script_j_gauss_legendre(
            8.5, KernelArg(1.0, 2.0)), id="J-medium"),
        pytest.param(lambda: script_j_gauss_legendre(
            8.5, KernelArg(40.0, 90.0)), id="J-large"),
        pytest.param(lambda: bessel_j_integral(8.5, 30.0), id="bessel"),
        pytest.param(lambda: weight_w(0.3, 10), id="W-below-1"),
        pytest.param(lambda: weight_w(5.0, 10), id="W-above-1"),
    ])
    def test_panel_sum_one_call_equals_per_panel_loop(self, monkeypatch,
                                                      evaluate):
        # every caller's integrand, called once on all panels x 16 nodes,
        # gives the value of a loop that calls it once per panel, bit for bit
        real = kernels._panel_sum
        sums = []

        def checked(f, h, panels):
            shapes = []

            def counted(x):
                shapes.append(np.shape(x))
                return f(x)

            value = real(counted, h, panels)
            assert shapes == [(panels, 16)]
            loop = 0.0
            for i in range(panels):
                loop += h * np.dot(kernels._GL_WEIGHTS,
                                   f(i * h + h * kernels._GL_NODES))
            assert value == loop
            sums.append(panels)
            return value

        monkeypatch.setattr(kernels, "_panel_sum", checked)
        evaluate()
        assert sums


class TestScriptJ:
    def test_depends_only_on_eigenvalues(self):
        m = np.array([[2.0, 0.3], [0.1, 1.0]])
        u = np.array([[1.0, 1.0], [0.0, 1.0]])
        a1 = kernel_arg_from_matrix(m)
        a2 = kernel_arg_from_matrix(u @ m @ np.linalg.inv(u))
        assert abs(a1.eig1 - a2.eig1) < 1e-12 and abs(a1.eig2 - a2.eig2) < 1e-12
        assert abs(script_j(8.5, a1) - script_j(8.5, a2)) < 1e-10

    def test_go2_moduli_reduce_to_scalar(self):
        # C C^T = 5 I, so T C^{-1} Q C^{-T} = (6 / 5) I: the reduced triple
        # is (x, y, den) = (60, 36, 25) with a zero discriminant
        c = IntMat2(2, 1, -1, 2)
        t, q = HalfIntegralForm.scalar(2), HalfIntegralForm.scalar(3)
        assert script_j_for_forms(t, q, c) == KernelArg(6 / 5, 6 / 5)

    def test_dual_resolution(self, monkeypatch):
        for eigs in ((1.0, 1.0), (0.04, 9.0), (2.5, 0.3)):
            v1 = script_j(8.5, KernelArg(*eigs))
            with monkeypatch.context() as m:
                m.setattr(kernels, "SCRIPT_J_TOL", 1e-13)
                v2 = script_j(8.5, KernelArg(*eigs))
            assert abs(v1 - v2) < 1e-10

    def test_unconverged_raises(self, monkeypatch):
        # two Bessel calls for the first sum and two for each of exactly 12
        # doublings, each doubling on twice the nodes of the one before
        calls = []
        monkeypatch.setattr(kernels, "_jv", drifting_jv(1.0, 1e-3, calls))
        with pytest.raises(ArithmeticError, match="did not converge"):
            script_j(8.5, KernelArg(1.0, 2.0))
        m = calls[0]
        assert calls[::2] == calls[1::2] == [m] + [m << i for i in range(12)]

    def test_tolerance_is_relative(self, monkeypatch):
        # a value near 1e-17 whose doublings move it by a relative 1e-6
        # has not converged, although every step is far below tol
        calls = []
        monkeypatch.setattr(kernels, "_jv",
                            drifting_jv(math.sqrt(1e-17), 1e-6, calls))
        with pytest.raises(ArithmeticError, match="did not converge"):
            script_j(8.5, KernelArg(1.0, 2.0))
        assert len(calls) == 2 * 13

    @pytest.mark.parametrize("cap", [12, 52])
    def test_interval_cap_bounds_every_evaluation(self, monkeypatch, cap):
        # KernelArg(1, 2) starts from 13 intervals: a cap of 12 refuses it
        # before any Bessel call, one of 52 stops after the stage of 52 new
        # midpoints
        calls = []
        monkeypatch.setattr(kernels, "_jv", drifting_jv(1.0, 1e-3, calls))
        monkeypatch.setattr(kernels, "SCRIPT_J_MAX_INTERVALS", cap)
        with pytest.raises(ArithmeticError, match=f" {cap} intervals"):
            script_j(8.5, KernelArg(1.0, 2.0))
        assert calls[::2] == ([] if cap < 13 else [13, 13, 26, 52])

    def test_doubling_evaluates_only_new_midpoints(self, monkeypatch):
        # the first sum takes m nodes and each doubling the m' new
        # midpoints of its m' intervals; together they are the final grid
        # j pi / (2 m_final), 0 < j <= m_final, each node evaluated once
        real = kernels._jv
        stages = []

        def spy(nu, x):
            stages.append(np.atleast_1d(x))
            return real(nu, x)

        monkeypatch.setattr(kernels, "_jv", spy)
        # equal eigenvalues: both calls of a stage see x = a sin t
        script_j(8.5, KernelArg(2.0, 2.0))
        xs = stages[::2]
        m = len(xs[0])
        assert len(xs) > 1 and all(
            np.array_equal(x, y) for x, y in zip(xs, stages[1::2]))
        assert [len(x) for x in xs] == [m] + [m << i
                                              for i in range(len(xs) - 1)]
        m_final = m << (len(xs) - 1)
        # a sin t rises on (0, pi/2], so sorting x sorts the nodes
        a = 4 * math.pi * math.sqrt(2.0)
        grid = a * np.sin((math.pi / 2) / m_final * np.arange(1, m_final + 1))
        assert np.allclose(np.sort(np.concatenate(xs)), grid, rtol=1e-14,
                           atol=0)

    def test_small_eigenvalue_envelope(self):
        # |J_nu(x)| <= (x/2)^nu / Gamma(nu+1) (DLMF 10.14.4) inside the
        # integral gives |script_j| <= C (s1 s2)^ell, with C sharp as the
        # eigenvalues tend to 0
        ell = 8.5
        c_ell = ((2 * math.pi) ** (2 * ell) * math.sqrt(math.pi)
                 / (2 * math.gamma(ell + 1) * math.gamma(ell + 1.5)))
        for e1 in np.geomspace(1e-3, 10.0, 9):
            for e2 in np.geomspace(1e-3, 10.0, 9):
                v = abs(script_j(ell, KernelArg(e1, e2)))
                assert v <= c_ell * (e1 * e2) ** (ell / 2) * (1 + 1e-10)
        ratios = [script_j(ell, KernelArg(e, e)) / e ** ell / c_ell
                  for e in (1e-2, 1e-3, 1e-4)]
        assert ratios[0] < ratios[1] < ratios[2] < 1 + 1e-10
        assert ratios[2] > 1 - 1e-3

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError):
            KernelArg(0.0, 1.0)

    @pytest.mark.parametrize("ell", [8.0, 0.0, -0.5, 8.25, math.nan])
    def test_rejects_order_outside_half_integers(self, ell):
        with pytest.raises(ValueError, match="order must lie in 1/2"):
            script_j(ell, KernelArg(1.0, 2.0))

    @pytest.mark.parametrize("ell", [8.5, 10.5, 12.5, 18.5])
    def test_matches_gauss_legendre_on_envelope_grid(self, ell):
        # criterion 7's grid, and the largest argument the tests use
        grid = np.geomspace(1e-2, 10.0, 12)
        for eigs in [*itertools.product(grid, grid), (40.0, 90.0)]:
            arg = KernelArg(*eigs)
            want = script_j_gauss_legendre(ell, arg)
            assert abs(script_j(ell, arg) - want) <= ORACLE_TOL * abs(want), \
                eigs

    @pytest.mark.parametrize("level", [3, 13, 47])
    def test_matches_gauss_legendre_on_coefficient_arguments(self, level):
        # every distinct argument that the rank-2 sums and shell budgets of
        # the three pairs look up
        params = SpectralParams(k=10, level=level)
        moduli = (mats(truncation_set(params.m_bound))
                  + mats(shell_matrices(params.m_bound, 1)))
        args = {script_j_for_forms(t, q, cp.scale(level))
                for q, t in PAIRS for cp in moduli}
        for arg in args:
            want = script_j_gauss_legendre(params.ell, arg)
            got = script_j(params.ell, arg)
            assert abs(got - want) <= ORACLE_TOL * abs(want), arg


class TestWeight:
    def test_small_argument_near_one(self):
        # contour-shift oracle: residues at s = 0, -2, -3 give
        # W(x) = 1 - (3/2)(2 pi)^4 / ((k-2)(k-3)) x^2 + c3 x^3 + O(x^4)
        k = 10
        c2 = -1.5 * (2 * math.pi) ** 4 / ((k - 2) * (k - 3))
        c3 = ((2 * math.pi) ** 6 * math.gamma(6) / math.gamma(9)
              * (1 - 9) / (-3) * 0.5)
        for x in (1e-3, 1e-4, 1e-6, 1e-10):
            oracle = 1 + c2 * x ** 2 + c3 * x ** 3
            assert abs(weight_w(x, k) - oracle) < 1e-8, x

    def test_large_argument_decay(self):
        assert abs(weight_w(100.0, 10)) < 1e-6

    def test_real_and_decaying(self):
        worst = 0.0
        for x in np.geomspace(1e-3, 1e3, 21):
            w = weight_w(x, 10)
            worst = max(worst, abs(w) * (1 + x) ** 3)
        assert worst < 1e3  # recorded decay constant

    def test_poly_variants_differ(self):
        assert weight_w(1.0, 10) != weight_w(1.0, 10, poly="(1-s)^2")

    def test_bad_input(self):
        with pytest.raises(ValueError):
            weight_w(-1.0, 10)
        with pytest.raises(ValueError):
            weight_w(1.0, 9)


def gamma_factor_scipy(s, k):
    """gamma_factor with scipy's complex loggamma as the log-gamma."""
    return np.exp(-2 * s * math.log(2 * math.pi) + loggamma(s + 1)
                  + loggamma(s + k - 1) - math.lgamma(k - 1))


def gamma_exponent_magnitudes(s, k):
    """The sum M of the magnitudes of the summands of the exponent that
    gamma_factor forms: |2 s log 2 pi|, lgamma(k - 1) and, for z = s + 1 and
    z = s + k - 1 shifted to w = z + n, the five pieces of lfun.log_gamma:
    (w - 1/2) log w, w, log(2 pi) / 2, the Stirling series and the log of
    the shift product z (z + 1) ... (z + n - 1)."""
    total = np.abs(2 * s * math.log(2 * math.pi)) + math.lgamma(k - 1)
    for z in (s + 1, s + k - 1):
        n = max(0, math.ceil(_STIRLING_MIN_RE - z.real.min()))
        w = z + n
        prod = np.ones_like(z)
        for j in range(n):
            prod *= z + j
        series = sum(c / w ** (2 * i + 1) for i, c in enumerate(_STIRLING))
        total += (np.abs((w - 0.5) * np.log(w)) + np.abs(w)
                  + 0.5 * math.log(2 * math.pi) + np.abs(series)
                  + np.abs(np.log(prod)))
    return total


# Ulps (2^-52) of gamma_exponent_magnitudes by which gamma_factor may differ
# from gamma_factor_scipy, relative to the value.  The exponent has 12
# summands; its 11 additions each round by at most 2^-53 of a partial sum,
# and every partial sum is at most M: 5.5 ulps.  Each summand carries at
# most 3 ulps of its own magnitude (a complex log, then a product), and the
# log of the shift product, of at most 11 factors, an absolute
# 11 (sqrt 5 + 1) 2^-53 < 18 ulps of 1, below 1 ulp of M >= 2 |w| >= 20.
# exp adds 1 ulp: 10.5 ulps in all.  scipy's loggamma forms a log-sum of the
# same magnitudes, so the oracle is granted as much: 24 ulps.
GAMMA_FACTOR_ULPS = 24


def assert_gamma_factor_matches_scipy(s, k):
    want = gamma_factor_scipy(s, k)
    tol = GAMMA_FACTOR_ULPS * 2.0 ** -52 * gamma_exponent_magnitudes(s, k)
    assert np.all(np.abs(gamma_factor(s, k) - want) <= tol * np.abs(want))


class TestGammaFactor:
    @pytest.mark.parametrize("k", [10, 12, 14, 20])
    @pytest.mark.parametrize("radius", [0.08, 0.16])
    def test_matches_scipy_on_residue_contours(self, radius, k):
        # the s- and t-circles of the tests' grid oracle of
        # main_term_residue, 128 nodes
        theta = 2 * np.pi * np.arange(128) / 128
        for r in (2 * radius, radius):
            assert_gamma_factor_matches_scipy(r * np.exp(1j * theta), k)

    @pytest.mark.parametrize("k", [10, 12, 14, 20])
    def test_matches_scipy_on_taylor_circle(self, k):
        # the circle |s| = 1/2 of main_term_residue's Taylor series
        n = petersson._TAYLOR_NODES
        assert_gamma_factor_matches_scipy(
            petersson._TAYLOR_RADIUS * np.exp(2j * np.pi * np.arange(n) / n), k)

    @pytest.mark.parametrize("k", [10, 12, 14, 20])
    @pytest.mark.parametrize("sigma", [2.0, -0.5])
    def test_matches_scipy_on_weight_lines(self, sigma, k):
        # weight_w's lines, out to its truncation |Im s| = 60
        s = sigma + 1j * np.linspace(-60.0, 60.0, 2401)
        assert_gamma_factor_matches_scipy(s, k)


def brute_box_members(m):
    out = []
    for a in range(-m, m + 1):
        for b in range(-m, m + 1):
            for c in range(-m, m + 1):
                for d in range(-m, m + 1):
                    det = a * d - b * c
                    if det != 0 and abs(det) <= m:
                        out.append((a, b, c, d))
    return out


class TestTruncation:
    def test_box_parameters(self):
        assert abs(default_beta(10) - 12 / 22) < 1e-12
        assert SpectralParams(k=10, level=3).m_bound == 2
        assert SpectralParams(k=10, level=3).beta == default_beta(10)
        # beta owns the box: N^((1 + beta) / ell) = 3^(21 / 8.5) = 15.1
        params = SpectralParams(k=10, level=3, beta=20.0)
        assert params.beta == 20.0 and params.m_bound == 16

    @pytest.mark.parametrize("k, level, m", [
        (10, 43, 2), (10, 47, 3), (12, 47, 2), (12, 211, 3)])
    def test_box_bound_steps(self, k, level, m):
        # the levels at which the default box grows from 2 to 3
        assert SpectralParams(k=k, level=level).m_bound == m

    def test_membership(self):
        box = set(mats(truncation_set(SpectralParams(k=10, level=3).m_bound)))
        assert IntMat2.identity() in box
        assert IntMat2.diag(0, 1) not in box     # singular
        assert IntMat2.diag(3, 1) not in box     # entry too large
        assert IntMat2(2, 2, -2, 2) not in box   # determinant too large

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stream_matches_exhaustive_filter(self, m):
        got = [tuple(row) for row in truncation_set(m).tolist()]
        want = sorted(brute_box_members(m))
        assert got == want

    @pytest.mark.parametrize("m, size", [(1, 40), (2, 288), (3, 896),
                                         (8, 16_448), (16, 130_528)])
    def test_box_sizes(self, m, size):
        # counted independently of the scan, by a divisor walk over
        # b*c = a*d - det
        assert len(truncation_set(m)) == size

    def test_unit_box_count(self):
        # entries and determinant bounded by 1: exhaustive filter gives 40
        elems = mats(truncation_set(1))
        assert len(elems) == len(brute_box_members(1)) == 40
        assert all(abs(c.det()) == 1 for c in elems)

    def test_shell_disjoint_from_box(self):
        m = SpectralParams(k=10, level=3).m_bound
        shell = mats(shell_matrices(m, 1))
        assert shell and not set(shell) & set(mats(truncation_set(m)))

    @pytest.mark.parametrize("level", [3, 5, 7, 11, 13, 31, 47, 101])
    @pytest.mark.parametrize("k", [10, 12])
    def test_shell_matches_exhaustive_filter(self, level, k):
        # reference: the exhaustive four-entry scan, filtered to the
        # shell; the members and their order must agree
        m = SpectralParams(k=k, level=level).m_bound
        box = set(mats(truncation_set(m)))
        for width in (-1, 0, 1, 2):
            want = [c for c in (IntMat2(*e) for e in
                                brute_box_members(m + width))
                    if c not in box]
            assert mats(shell_matrices(m, width)) == want, width

    @pytest.mark.parametrize("scan", [lambda: truncation_set(34),
                                      lambda: shell_matrices(2, 200)],
                             ids=["box", "shell"])
    def test_oversized_scan_raises_before_scanning(self, scan):
        # 34 is one past the width-1 shell of the largest box; a scan at
        # 202 would visit 405^4 entry tuples.  Nothing is allocated first:
        # the smallest slab of a scan at 34 would take megabytes
        t0 = time.perf_counter()
        tracemalloc.start()
        with pytest.raises(ValueError, match="exceeds 33"):
            scan()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 64 * 1024

    @pytest.mark.parametrize("m", range(1, 7))
    def test_rows_equal_the_itertools_scan(self, m):
        # the array scan against the plain four-entry scan it replaced,
        # row for row, for the box and its shells of widths 0 to 3; every
        # list is mirrored, row i minus row n - 1 - i, which
        # petersson._one_of_each_pair relies on
        arrays = [truncation_set(m)] + [shell_matrices(m, w)
                                        for w in range(4)]
        oracles = [scan_box(m)] + [scan_shell(m, w) for w in range(4)]
        for rows, want in zip(arrays, oracles):
            assert rows.dtype == np.int64 and rows.shape == (len(want), 4)
            assert mats(rows) == want
            assert np.array_equal(rows, -rows[::-1])

    def test_largest_shell_memory(self):
        # the width-1 shell of the largest box, 96,832 rows: the list of
        # IntMat2 it replaced peaked at 122 MiB under tracemalloc, and a
        # one-shot grid of its 67^4 entry tuples would take 0.65 GB
        tracemalloc.start()
        shell = shell_matrices(kernels.MAX_BOX_BOUND, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(shell) == 96_832
        assert peak <= 122 * 2 ** 20


class TestTailDiagnostic:
    def test_empty_shell_zero_tail(self):
        rep = tail_diagnostic(1, 1, SpectralParams(k=10, level=3),
                              shell_width=0)
        assert rep.observed_tail == 0.0 and rep.shell_size == 0

    def test_default_shell_report(self):
        params = SpectralParams(k=10, level=3)
        rep = tail_diagnostic(1, 1, params)
        assert rep.params is params
        assert rep.shell_size == len(shell_matrices(params.m_bound, 1)) > 0
        assert rep.observed_tail <= 10 * rep.predicted_envelope

    @pytest.mark.parametrize("beta", [0.0, -0.5, math.inf, math.nan])
    def test_nonpositive_beta_raises(self, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            SpectralParams(k=10, level=3, beta=beta)

    def test_negative_shell_width_raises(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="shell_width must be non-neg"):
            tail_diagnostic(1, 1, SpectralParams(k=10, level=3),
                            shell_width=-3)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("m1, m2", [(0, 1), (1, -2)])
    def test_non_positive_scalar_raises(self, m1, m2):
        with pytest.raises(ValueError, match="not positive definite"):
            tail_diagnostic(m1, m2, SpectralParams(k=10, level=3))
