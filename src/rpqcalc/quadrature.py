"""Jackson-type definite and improper integrals.

The geometric node sum is exposed for the two-base (p, q) family with
rational 0 < q < p <= 1, where the telescoping prefactor is exactly 1
and the sum provably inverts the derivative on monomials.  Its nodes
q^j/p^(j+1) shrink geometrically (ratio q/p < 1) as j grows and grow
without bound as j falls, for every integer j.  For every other
kernel, definite integration of polynomials goes through the exact
spectral antiderivative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ._util import Frozen
from .deform import DeformParams, IdentityResult, SuiteReport
from .errors import DecayCertificateError, InvalidParameterError
from .poly import (Polynomial, rpq_antiderivative_poly,
                   rpq_derivative_poly)


class QuadratureSpec(Frozen):
    """Node-sum configuration: nodes q^j/p^(j+1), strictly decreasing
    in j, over rational p and q of the two-base family."""

    _fields = ("params", "terms")

    def __init__(self, params: DeformParams, terms: int = 200):
        self._set(params, terms)
        if self.terms < 1:
            raise InvalidParameterError("terms must be >= 1")
        if self.params.structure.kind != "jagannathan_srinivasa":
            raise InvalidParameterError(
                "node-sum quadrature is defined for the two-base "
                "(p, q) family only; use the exact antiderivative "
                "for other kernels")

    def node(self, j: int) -> Fraction:
        p, q = self.params.p, self.params.q
        return q ** j / p ** (j + 1)

    def prefactor(self) -> Fraction:
        return self.params.p - self.params.q


def definite_integral_poly(f: Polynomial, a, b,
                           params: DeformParams):
    """Exact definite integral of a polynomial: F(b) - F(a) with F the
    spectral antiderivative."""
    F = rpq_antiderivative_poly(f, params)
    return F(b) - F(a)


def jackson_sum(f, a, spec: QuadratureSpec,
                terms: Optional[int] = None):
    """Geometric node sum for the integral over [0, a]:

        (p - q) a sum_{r=0}^{terms} (q^r/p^(r+1)) f(q^r a / p^(r+1)).

    ``terms=None`` requests the closed form (the geometric series
    summed exactly), available for polynomial integrands only; a finite
    term count evaluates the truncated node sum for any evaluable f.
    """
    params = spec.params
    if terms is None:
        if not isinstance(f, Polynomial):
            raise InvalidParameterError(
                "closed form needs a polynomial integrand")
        # per monomial the node sum telescopes to a^(n+1)/[n+1]
        return definite_integral_poly(f, Fraction(0), a, params)
    a = Fraction(a)
    total = Fraction(0)
    for r in range(terms + 1):  # ascending r: deterministic order
        w = spec.node(r)
        total += w * f(w * a)
    return spec.prefactor() * a * total


class DecayCertificate(Frozen):
    """Caller-supplied bound |f(z) z^gamma| <= bound on the node set.

    ``gamma`` in (0, 1) certifies the small-node tail.  The large-node
    tail (nodes growing without bound) needs an additional exponent
    ``gamma_large`` > 1 with its own bound; without it that tail is
    reported as uncertified.
    """

    _fields = ("gamma", "bound", "gamma_large", "bound_large")

    def __init__(self, gamma: Fraction, bound: Fraction,
                 gamma_large: Optional[Fraction] = None,
                 bound_large: Optional[Fraction] = None):
        self._set(gamma, bound, gamma_large, bound_large)
        if not 0 < self.gamma < 1:
            raise DecayCertificateError(
                f"need 0 < gamma < 1; got {self.gamma}")
        if self.gamma_large is not None and self.gamma_large <= 1:
            raise DecayCertificateError(
                f"large-z exponent must exceed 1; got {self.gamma_large}")


class ImproperResult(NamedTuple):
    value: Fraction
    small_tail_bound: Fraction
    large_tail_bound: Optional[Fraction]
    nodes: int


def improper_integral(f: Callable, spec: QuadratureSpec,
                      cert: DecayCertificate) -> ImproperResult:
    """Bilateral node sum for the integral over (0, infinity):

        (p - q) * sum_j (q^j/p^(j+1)) f(q^j/p^(j+1)),  j in [-terms, terms]

    with geometric tail bounds derived from the decay certificate.
    """
    if cert is None:
        raise DecayCertificateError("decay certificate required")
    params = spec.params
    p, q = params.p, params.q
    terms = spec.terms
    total = Fraction(0)
    for j in range(-terms, terms + 1):  # ascending: deterministic
        z = spec.node(j)
        val = f(z)
        # certificate check |f(z)| <= bound * z^(-gamma), done through
        # the equivalent integer-power comparison to stay rational
        if val != 0 and not _decay_ok(val, z, cert.gamma, cert.bound):
            raise DecayCertificateError(
                f"certificate violated at node {z}: |f| = {abs(val)}")
        total += z * val
    value = spec.prefactor() * total
    ratio = q / p
    # small-node tail: |z_j f(z_j)| <= bound z_j^(1-gamma), geometric in j
    z_edge = spec.node(terms + 1)
    small = abs(spec.prefactor()) * cert.bound * _rational_pow_bound(
        z_edge, 1 - cert.gamma) / (1 - _rational_pow_bound(
            ratio, 1 - cert.gamma))
    large = None
    if cert.gamma_large is not None:
        z_big = spec.node(-(terms + 1))
        large = abs(spec.prefactor()) * cert.bound_large \
            * _rational_pow_bound(1 / z_big, cert.gamma_large - 1) \
            / (1 - _rational_pow_bound(ratio, cert.gamma_large - 1))
    return ImproperResult(value, small, large, 2 * terms + 1)


def _decay_ok(val, z: Fraction, gamma: Fraction, bound: Fraction) -> bool:
    # |f(z)| z^gamma <= bound  <=>  |f|^d z^(g) <= bound^d z^... with
    # gamma = g/d; compare integer powers to avoid irrational roots
    g, d = gamma.numerator, gamma.denominator
    return abs(val) ** d * z ** g <= bound ** d


def _rational_pow_bound(x: Fraction, e: Fraction) -> Fraction:
    """A rational upper bound for x^e (x > 0, e > 0): exact when e is
    integral, else ceil through the d-th root."""
    if x == 0:
        return Fraction(0)
    g, d = Fraction(e).numerator, Fraction(e).denominator
    if d == 1:
        return x ** g
    target = x ** g
    # smallest binary rational r with r^d >= target, within 2^-40
    lo, hi = Fraction(0), max(Fraction(1), target)
    while hi ** d < target:
        hi *= 2
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid ** d >= target:
            hi = mid
        else:
            lo = mid
    return hi


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
