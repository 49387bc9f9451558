"""Exact and numeric toolkit for symplectic Kloosterman sums, Salie and
Gauss sums, Bessel kernels, Dirichlet L-values, and the Kitaoka-Petersson
spectral identities at prime level."""

from .matcore import (
    GaussianInt,
    HalfIntegralForm,
    IntMat2,
    aut_count,
    elementary_divisors,
    gaussian_totient,
    gl2_equivalence,
    is_go2,
    kronecker,
)
from .sp4 import complete_to_symplectic, enumerate_bottom_cosets
from .expsums import (
    SumValue,
    congruence_count,
    gauss_sum,
    kloosterman,
    kloosterman_factored,
    kloosterman_pI,
    salie,
    twisted_average,
)
from .kernels import (
    KernelArg,
    bessel_j,
    script_j,
    truncation_set,
    weight_w,
)
from .lfun import dirichlet_l, r_coeff
from .petersson import (
    HCoefficient,
    ResidueReport,
    SpectralParams,
    h_fourier,
    leading_coeff_fit,
    main_term_residue,
    spectral_gram,
    tail_diagnostic,
)

__version__ = "0.1.0"
