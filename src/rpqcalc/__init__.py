"""Exact deformed quantum calculus with p-adic special functions.

Modules
-------
padic       rational helpers and truncated p-adic arithmetic
deform      structure functions, deformed numbers/factorials/binomials
poly        exact polynomials and the spectral derivative/antiderivative
series      formal power series: exponentials, trig, special families
quadrature  geometric node sums, definite/improper integrals
gammabeta   power basis, deformed gamma/beta, Taylor expansions
padicfun    p-adic gamma/beta, Volkenborn measure/integral, Carlitz
spinzeta    spin generators over Z_p, matrix exp/log, local zeta values
cli         command-line front end (``rpqcalc``)

The modular-integer loops of the Riemann sums live in the pure-Python
module ``rpqcalc._kernel``; ``KERNEL_BACKEND`` names it (``"python"``).
"""

from .deform import (DeformParams, StructureFunction, bm_identity_suite,
                     rpq_binomial, rpq_factorial, rpq_number)
from .errors import RpqError
from .gammabeta import (beta_rpq, gamma_rpq, power_basis, rpq_number_at,
                        taylor_expand, taylor_reconstruct)
from .padic import (PadicNumber, padic_exp, padic_log, padic_norm,
                    padic_power, padic_valuation)
from .padicfun import (TwistParams, carlitz_bernoulli, delta_factor,
                       fermionic_integral, padic_beta_rpq,
                       padic_factorial_rpq, padic_gamma_rpq,
                       volkenborn_integral, volkenborn_measure,
                       volkenborn_moment)
from .poly import Polynomial
from .quadrature import (QuadratureSpec, definite_integral_poly,
                         improper_integral, jackson_sum)
from .series import (FormalSeries, exp_lower, exp_upper,
                     generating_polynomials, rpq_antiderivative,
                     rpq_derivative, trig_series, zigzag_numbers)
from .spinzeta import (Mat2Padic, commutator, congruence_level,
                       ghost_boundary, igusa_Zf, mat_exp, mat_log,
                       spin_generators, zeta_p_factor, zeta_spin_half)

__version__ = "0.1.0"

KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND", "RpqError", "PadicNumber", "padic_valuation",
    "padic_norm", "padic_exp", "padic_log", "padic_power",
    "StructureFunction", "DeformParams", "rpq_number", "rpq_factorial",
    "rpq_binomial", "bm_identity_suite", "Polynomial", "FormalSeries",
    "rpq_derivative", "rpq_antiderivative", "exp_lower", "exp_upper",
    "trig_series", "zigzag_numbers", "generating_polynomials",
    "QuadratureSpec", "definite_integral_poly", "jackson_sum",
    "improper_integral", "power_basis", "gamma_rpq", "beta_rpq",
    "rpq_number_at", "taylor_expand", "taylor_reconstruct",
    "TwistParams", "padic_factorial_rpq", "padic_gamma_rpq",
    "delta_factor", "volkenborn_measure", "volkenborn_integral",
    "volkenborn_moment", "carlitz_bernoulli", "fermionic_integral",
    "padic_beta_rpq", "Mat2Padic", "spin_generators", "commutator",
    "mat_exp", "mat_log", "congruence_level", "zeta_p_factor",
    "igusa_Zf", "zeta_spin_half", "ghost_boundary",
]
