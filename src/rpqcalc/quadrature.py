"""Jackson-type definite integrals.

The geometric node sum is exposed for the two-base (p, q) family with
rational 0 < q < p <= 1, where the telescoping prefactor is exactly 1
and the sum provably inverts the derivative on monomials.  Its nodes
q^j/p^(j+1) shrink geometrically (ratio q/p < 1) as j grows; the sum
reads them at j = 0, 1, ..., terms.  For every other kernel, definite
integration of polynomials goes through the exact spectral
antiderivative.
"""

from __future__ import annotations

from fractions import Fraction

from ._util import IdentityResult, SuiteReport
from .deform import DeformParams
from .errors import InvalidParameterError
from .poly import (Polynomial, rpq_antiderivative_poly,
                   rpq_derivative_poly)


def definite_integral_poly(f: Polynomial, a, b,
                           params: DeformParams):
    """Exact definite integral of a polynomial: F(b) - F(a) with F the
    spectral antiderivative."""
    F = rpq_antiderivative_poly(f, params)
    return F(b) - F(a)


def jackson_sum(f, a, params: DeformParams, terms: int = 200):
    """Truncated geometric node sum for the integral over [0, a]:

        (p - q) a sum_{r=0}^{terms} (q^r/p^(r+1)) f(q^r a / p^(r+1)),

    over the nodes q^r/p^(r+1) of the two-base family only.
    Untruncated, it telescopes on polynomials to
    ``definite_integral_poly(f, 0, a, params)``; the truncation
    evaluates any evaluable f.
    """
    if terms < 1:
        raise InvalidParameterError("terms must be >= 1")
    if params.structure.kind != "jagannathan_srinivasa":
        raise InvalidParameterError(
            "node-sum quadrature is defined for the two-base (p, q) "
            "family only; use the exact antiderivative for other kernels")
    p, q, a = params.p, params.q, Fraction(a)
    total = Fraction(0)
    for r in range(terms + 1):  # ascending r: deterministic order
        w = q ** r / p ** (r + 1)
        total += w * f(w * a)
    return (p - q) * a * total


def integration_by_parts_check(f: Polynomial, g: Polynomial, a, b,
                               params: DeformParams) -> SuiteReport:
    """Exact check of

        int_a^b f(xi1 z) (Dg)(z) = f(b)g(b) - f(a)g(a)
                                   - int_a^b g(xi2 z) (Df)(z)

    on polynomials (for the two-base family the twists are p and q)."""
    df = rpq_derivative_poly(f, params)
    dg = rpq_derivative_poly(g, params)
    lhs = definite_integral_poly(f.scale_arg(params.xi1) * dg, a, b, params)
    boundary = f(b) * g(b) - f(a) * g(a)
    rhs = boundary - definite_integral_poly(
        g.scale_arg(params.xi2) * df, a, b, params)
    return SuiteReport("integration_by_parts", (
        IdentityResult("int f(xi1 z) Dg = [fg] - int g(xi2 z) Df",
                       lhs, rhs),))


def fundamental_theorem_check(f: Polynomial, a, b,
                              params: DeformParams) -> SuiteReport:
    """int_a^b (Df) = f(b) - f(a), exact on polynomials."""
    df = rpq_derivative_poly(f, params)
    lhs = definite_integral_poly(df, a, b, params)
    return SuiteReport("fundamental_theorem", (
        IdentityResult("int_a^b Df = f(b) - f(a)", lhs, f(b) - f(a)),))


def check_suites() -> tuple:
    """The reports of ``rpqcalc check --module quadrature``."""
    js = DeformParams.preset("jagannathan_srinivasa", p=1, q=Fraction(1, 2))
    f = Polynomial({3: Fraction(2), 1: Fraction(-1), 0: Fraction(5)})
    g = Polynomial({2: Fraction(1, 2), 1: Fraction(3)})
    return (fundamental_theorem_check(f, Fraction(1, 3), Fraction(7, 8), js),
            integration_by_parts_check(f, g, Fraction(0), Fraction(1), js))
