"""Archimedean ingredients: Bessel functions, the double-Bessel kernel,
the gamma and polynomial factors of the smooth Mellin weight, and the
rank-2 truncation set and its shell.

Bessel functions come from scipy's jv alone, imported on the first call
of ``bessel_j`` or ``script_j``, so the exact sums, the L-values and the
main term run without loading scipy.special.  ``script_j`` is a periodic
trapezoid sum, spectrally accurate at the kernels' half-integer orders
(Trefethen and Weideman, SIAM Review 56 (2014)).  The gamma factor takes
its log-gamma from ``lfun.log_gamma``.  The tests keep a series and an
integral for J_nu, and Gauss-Legendre for the kernel, as oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lfun import log_gamma
from .matcore import HalfIntegralForm, IntMat2


# ---------------------------------------------------------------------------
# Bessel functions of real order


def _jv(nu, x):
    """scipy.special.jv, imported here so that only the Bessel routes
    load scipy.special."""
    import scipy.special

    return scipy.special.jv(nu, x)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function J_nu(x) for nu >= 1/2, x > 0."""
    if x <= 0:
        raise ValueError("x must be positive")
    return float(_jv(nu, x))


# 16-point Gauss-Legendre nodes and weights, moved from [-1, 1] to [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def _panel_sum(f, h: float, panels: int):
    """Composite 16-point Gauss-Legendre rule for the integral of ``f`` over
    [0, panels * h], summed one panel [i h, (i + 1) h] at a time, in order.

    ``f`` must be elementwise: it is called once, on the panels x 16 array
    of all nodes.  Each node is i * h + h * x_j as in a per-panel loop, and
    each panel keeps its own dot with the weights, so the value is the
    loop's bit for bit."""
    vals = f(np.arange(panels)[:, None] * h + h * _GL_NODES)
    total = 0.0
    for row in vals:
        total += h * np.dot(_GL_WEIGHTS, row)
    return total


def require_weight(k: int) -> None:
    """Raise ValueError unless k is an even integer >= 10, the weights for
    which the kernels, the coefficient sums and the main term are written."""
    if k < 10 or k % 2:
        raise ValueError("weight must be an even integer >= 10")


# ---------------------------------------------------------------------------
# The double-Bessel kernel


@dataclass(frozen=True)
class KernelArg:
    """Positive eigenvalue pair (s1^2, s2^2) of a diagonalizable 2x2 matrix."""

    eig1: float
    eig2: float

    def __post_init__(self):
        if self.eig1 <= 0 or self.eig2 <= 0:
            raise ValueError("eigenvalues must be positive")

    def s_values(self) -> tuple[float, float]:
        return math.sqrt(self.eig1), math.sqrt(self.eig2)


# Relative change between two doublings at which script_j stops, and the
# most intervals of [0, pi/2] it evaluates at once (8 MB an array)
SCRIPT_J_TOL = 1e-11
SCRIPT_J_MAX_INTERVALS = 1 << 20


def require_order(ell: float) -> float:
    """Return ell if it lies in 1/2 + Z>=0, the kernels' orders k - 3/2 and
    those at which script_j's integrand is entire and periodic; raise
    ValueError otherwise."""
    if not (ell >= 0.5 and float(ell - 0.5).is_integer()):
        raise ValueError(f"order must lie in 1/2 + Z>=0, got {ell}")
    return ell


def script_j(ell: float, arg: KernelArg) -> float:
    """int_0^{pi/2} J_ell(4 pi s1 sin t) J_ell(4 pi s2 sin t) sin t dt, for
    ell in 1/2 + Z>=0 (else ValueError).

    By DLMF 10.2.2 the integrand is f(t) = sin^{2 ell + 1} t Phi1(sin^2 t)
    Phi2(sin^2 t), Phi_i entire.  2 ell + 1 is even, so f is entire and
    pi-periodic with f(pi - t) = f(t): the integral is half of one period's,
    and the periodic trapezoid rule, evaluated at its nodes in (0, pi/2],
    converges geometrically (Trefethen and Weideman, SIAM Review 56 (2014),
    Thm 3.2).  Starting from about f's bandwidth, max(8, ceil((ell + 1 +
    (a1 + a2) / 2) / 2)) intervals of [0, pi/2] with a_i = 4 pi s_i, the
    rule doubles its intervals, evaluating only the new midpoints, until
    the value moves by at most SCRIPT_J_TOL times its size (the kernels of
    one coefficient span many decades, from 1e-21 up at level 13).  Raises
    ArithmeticError if 12 doublings do not get there, or before evaluating
    more than SCRIPT_J_MAX_INTERVALS nodes at once.
    """
    require_order(ell)
    s1, s2 = arg.s_values()
    a1 = 4.0 * math.pi * s1
    a2 = 4.0 * math.pi * s2

    def f(t):
        st = np.sin(t)
        return _jv(ell, a1 * st) * _jv(ell, a2 * st) * st

    m = max(8, math.ceil((ell + 1 + (a1 + a2) / 2) / 2))
    if m > SCRIPT_J_MAX_INTERVALS:
        raise ArithmeticError(f"script_j({ell}, {arg}) needs more than "
                              f"{SCRIPT_J_MAX_INTERVALS} intervals")
    h = (math.pi / 2) / m
    # f(0) = 0, and the last node, pi/2, carries the trapezoid's half weight
    vals = f(h * np.arange(1, m + 1))
    total = h * (np.sum(vals[:-1]) + 0.5 * vals[-1])
    for _ in range(12):
        h /= 2
        new = 0.5 * total + h * np.sum(f(h * np.arange(1, 2 * m, 2)))
        m *= 2
        if abs(new - total) <= SCRIPT_J_TOL * abs(new):
            return float(new)
        total = new
        if m > SCRIPT_J_MAX_INTERVALS:
            break
    raise ArithmeticError(
        f"script_j({ell}, {arg}) did not converge to {SCRIPT_J_TOL} in 12 "
        f"doublings of at most {SCRIPT_J_MAX_INTERVALS} intervals")


def script_j_for_forms(t_form: HalfIntegralForm, q_form: HalfIntegralForm,
                       c: IntMat2) -> KernelArg:
    """Eigenvalue argument of the kernel attached to T C^{-1} Q C^{-T}.

    With A = adj C and delta = det C, the matrix is T A Q A^T / delta^2 for
    the symmetric matrices of the forms.  Its trace is x / den and its
    determinant y / den for the integers x = 16 tr(T A Q A^T), y = det4 T
    det4 Q and den = 16 delta^2, taken in lowest terms.  The eigenvalues
    are (x +- sqrt(x^2 - 4 y den)) / (2 den), the smaller one formed as
    2 y / (x + sqrt(x^2 - 4 y den)): the discriminant is an exact integer
    and no subtraction follows.  The reduced triple is unique for a given
    trace and determinant, so equal arguments give bit-equal floats and
    one cached kernel each."""
    p = q_form.conjugate_right(c.adj())  # A Q A^T
    x = 16 * (t_form.t1 * p.t1 + t_form.t4 * p.t4) + 8 * t_form.t2 * p.t2
    y = t_form.det4() * q_form.det4()
    den = 16 * c.det() ** 2
    g = math.gcd(x, y, den)
    x, y, den = x // g, y // g, den // g
    root = x + math.sqrt(x * x - 4 * y * den)
    return KernelArg(2 * y / root, root / (2 * den))


# ---------------------------------------------------------------------------
# Smooth weight from the shifted Mellin transform of the gamma factors


def weight_w(x: float, k: int, poly: str = "1-s^2") -> float:
    """The approximate-functional-equation weight W(x) for even weight k.

    (1 / 2 pi i) times the contour integral on Re s = 2 of

        (2 pi)^{-2s} Gamma(s+1) Gamma(s+k-1) / Gamma(k-1) * poly(s) * x^{-s} / s,

    truncated at |Im s| = 60 (the integrand decays like exp(-pi |Im s|),
    so the truncation error is far below 1e-12), in 0.75-wide panels.
    ``poly`` selects the polynomial factor: "1-s^2" (default) or "(1-s)^2".
    That line serves x >= 1.  For x < 1 its x^{-2} factor would cost the
    result its digits to cancellation, so the integral runs on Re s = -1/2
    instead, plus the residue 1 at s = 0, the only pole between the two
    lines for either ``poly``.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    require_weight(k)
    sigma, residue = (2.0, 0.0) if x >= 1 else (-0.5, 1.0)

    def integrand(tau):
        s = sigma + 1j * tau
        return (gamma_factor(s, k) * poly_factor(s, poly)
                * np.exp(-s * math.log(x)) / s).real

    total = _panel_sum(integrand, 0.75, 80)  # 80 panels reach |Im s| = 60
    # conjugate symmetry: the full line integral is twice the real half
    return float(residue + total / math.pi)


def gamma_factor(s: np.ndarray, k: int) -> np.ndarray:
    """(2 pi)^{-2s} Gamma(s+1) Gamma(s+k-1) / Gamma(k-1)."""
    return np.exp(-2 * s * math.log(2 * math.pi) + log_gamma(s + 1)
                  + log_gamma(s + k - 1) - math.lgamma(k - 1))


def poly_factor(s, poly: str):
    """The polynomial factor named by ``poly``: "1-s^2" or "(1-s)^2"."""
    if poly == "1-s^2":
        return 1.0 - s * s
    if poly == "(1-s)^2":
        return (1.0 - s) ** 2
    raise ValueError(f"unknown poly factor {poly!r}")


# ---------------------------------------------------------------------------
# Truncation set for the rank-2 sum


def default_beta(k: int) -> float:
    """The error-balancing choice beta = (2k - 8) / (2k + 2)."""
    return (2.0 * k - 8.0) / (2.0 * k + 2.0)


# Largest box bound M that box_bound returns.  truncation_set scans all
# (2M+1)^4 entry tuples: 0.27 s at M = 16, 4.0 s at M = 32 and 4.6 s at 33,
# the width-1 shell's scan (two vCPUs).  The shell's terms cost more: a
# level-3 tail diagnostic takes about 2.6-2.9 s at M = 16, mostly scan and
# Kloosterman sums.  The default beta gives M <= 3 for N <= 211.
MAX_BOX_BOUND = 32


def box_bound(level: int, ell: float, beta: float) -> int:
    """The box bound M = ceil(N^((1 + beta) / ell)) for finite beta > 0;
    raises ValueError when M would exceed MAX_BOX_BOUND."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    exponent = (1.0 + beta) / ell
    if exponent * math.log(level) > math.log(MAX_BOX_BOUND):
        raise ValueError(f"box bound exceeds {MAX_BOX_BOUND} at beta = {beta}")
    return int(math.ceil(level ** exponent - 1e-12))


def truncation_set(m: int) -> list[IntMat2]:
    """The box of bound m: a list of the nonsingular matrices with entries
    and |det| at most m, in lexicographic order of (a, b, c, d), the order
    in which the scan over the four entries meets them.  Raises ValueError
    before scanning when m exceeds MAX_BOX_BOUND + 1, the bound of the
    largest box's width-1 shell."""
    if m > MAX_BOX_BOUND + 1:
        raise ValueError(f"box bound {m} exceeds {MAX_BOX_BOUND + 1}, the "
                         "width-1 shell of the largest box")
    return [IntMat2(a, b, c, d)
            for a, b, c, d in itertools.product(range(-m, m + 1), repeat=4)
            if 0 < abs(a * d - b * c) <= m]


# ---------------------------------------------------------------------------
# The shell just outside the box


def shell_matrices(m: int, width: int = 1) -> list[IntMat2]:
    """Nonsingular matrices just outside the box of bound m: entries and
    |det| at most m + width, but some entry or |det| above m, in
    lexicographic order."""
    return [c for c in truncation_set(m + width)
            if abs(c.det()) > m or max(map(abs, c.entries())) > m]

