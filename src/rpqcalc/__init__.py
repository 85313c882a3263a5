"""Exact deformed quantum calculus with p-adic special functions.

Modules
-------
padic       truncated p-adic arithmetic and the p-adic power
deform      structure functions, deformed numbers/factorials/binomials
poly        exact polynomials and the spectral derivative/antiderivative
series      deformed exponentials, zigzag numbers, Bernoulli/Euler/
            Genocchi families
quadrature  geometric node sums, definite integrals
gammabeta   power basis, deformed gamma/beta
padicfun    p-adic gamma/beta, Volkenborn measure/moments, Carlitz,
            fermionic moments
spinzeta    spin generators over Z_p, matrix exp/log, local zeta values
cli         command-line front end (``rpqcalc``)

Each module checked by ``rpqcalc check`` (all but ``padic`` and
``poly``) defines ``check_suites()``, which returns its identity
reports.

Importing the package loads no submodule: each public name is
imported from its submodule on first access (PEP 562), so a command
pays only for the modules it uses.  ``KERNEL_BACKEND`` names the
implementation of the modular-integer loop in ``rpqcalc._kernel``
(``"python"``), which no library module uses: it serves the tests'
Riemann-sum oracle and the benchmark's tracer, while the Volkenborn
and fermionic moments and the Carlitz values are closed forms.
"""

import importlib

__version__ = "0.1.0"

KERNEL_BACKEND = "python"

# submodule -> the public names it defines, in the order of __all__
_EXPORTS = {
    "errors": ("RpqError",),
    "padic": ("PadicNumber", "padic_power"),
    "deform": ("StructureFunction", "DeformParams", "rpq_number",
               "rpq_factorial", "rpq_binomial", "bm_identity_suite"),
    "poly": ("Polynomial", "rpq_derivative_poly"),
    "series": ("exp_lower", "exp_upper", "zigzag_numbers",
               "generating_polynomials"),
    "quadrature": ("definite_integral_poly", "jackson_sum"),
    "gammabeta": ("power_basis", "gamma_rpq", "beta_rpq"),
    "padicfun": ("TwistParams", "padic_factorial_rpq", "padic_gamma_rpq",
                 "delta_factor", "volkenborn_measure", "volkenborn_moment",
                 "carlitz_bernoulli", "fermionic_integral", "padic_beta_rpq"),
    "spinzeta": ("Mat2Padic", "spin_generators", "commutator", "mat_exp",
                 "mat_log", "congruence_level", "zeta_spin_half",
                 "ghost_boundary"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = ["KERNEL_BACKEND", *_SOURCE]


def __getattr__(name):
    if name in _EXPORTS:  # rpqcalc.deform etc. after a bare import rpqcalc
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
