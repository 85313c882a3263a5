"""Truncated formal power series and the deformed special series.

Series keep exact rational coefficients c_0..c_M (``int`` or
``Fraction``).  Arithmetic truncates to the smaller order.  A
``pole_order`` of 1 marks the Laurent results 1/z * (series) produced
by csc and coth; products add pole orders, sums need equal ones.  The
polynomial families and the zigzag numbers are read off in factorial
normalisation, c_n [n]!.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._util import IdentityResult, SuiteReport
from .deform import DeformParams, rpq_factorial, rpq_number
from .errors import (InvalidParameterError, PoleAtOriginError,
                     SingularDeformationError)
from .poly import Polynomial, rpq_derivative_poly


def _dot(xs, ys):
    """sum(x * y) over paired rational coefficients.

    The terms go over one common denominator and are reduced once,
    instead of one gcd-reduced ``Fraction`` addition per term."""
    nums, dens = [], []
    for x, y in zip(xs, ys):
        nums.append(x.numerator * y.numerator)
        dens.append(x.denominator * y.denominator)
    L = math.lcm(*dens)
    return Fraction(sum(n * (L // d) for n, d in zip(nums, dens)), L)


class FormalSeries:
    """Truncated power series sum(c_n z^n, n = 0..order)."""

    __slots__ = ("coeffs", "pole_order")

    def __init__(self, coeffs, pole_order=0):
        object.__setattr__(self, "coeffs", list(coeffs))
        object.__setattr__(self, "pole_order", pole_order)
        if not self.coeffs:
            raise InvalidParameterError("series needs at least one slot")
        for c in self.coeffs:
            if not isinstance(c, (int, Fraction)):
                raise InvalidParameterError(
                    "series coefficients must be int or Fraction; got "
                    f"{type(c).__name__}")

    def __setattr__(self, *_):
        raise AttributeError("FormalSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        return self.coeffs[n]

    def truncate(self, order: int) -> "FormalSeries":
        if order >= self.order:
            return self
        return FormalSeries(self.coeffs[:order + 1], self.pole_order)

    def _check_compat(self, other: "FormalSeries"):
        if self.pole_order != other.pole_order:
            raise InvalidParameterError(
                "mixed Laurent pole orders; align first")

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return (self.pole_order == other.pole_order
                and all(self.coeffs[k] == other.coeffs[k]
                        for k in range(n + 1)))

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, FormalSeries):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return FormalSeries(out, self.pole_order)
        self._check_compat(other)
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[k] + other.coeffs[k]
                             for k in range(n + 1)], self.pole_order)

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries([-c for c in self.coeffs], self.pole_order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries([c * other for c in self.coeffs],
                                self.pole_order)
        # z^(-a) f * z^(-b) g = z^(-a-b) fg: pole orders add
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [_dot(a[:k + 1], b[k::-1]) for k in range(n + 1)]
        return FormalSeries(out, self.pole_order + other.pole_order)

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse; needs an invertible constant term."""
        b0 = self.coeffs[0]
        if b0 == 0:
            raise PoleAtOriginError(
                "series has zero constant term; use Laurent mode")
        b = self.coeffs
        out = [Fraction(1) / b0]
        for n in range(1, self.order + 1):
            out.append(-_dot(out, b[n:0:-1]) / b0)
        return FormalSeries(out, -self.pole_order)

    def __truediv__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries([Fraction(c) / other for c in self.coeffs],
                                self.pole_order)
        return self * other.inverse()

    def scale_arg(self, c) -> "FormalSeries":
        """f(c z)."""
        return FormalSeries([self.coeffs[n] * c ** n
                             for n in range(self.order + 1)],
                            self.pole_order)

    def shift_down(self) -> "FormalSeries":
        """f(z)/z for a series with zero constant term (order drops)."""
        if self.coeffs[0] != 0:
            raise PoleAtOriginError("constant term nonzero: f/z not a "
                                    "power series")
        if self.order == 0:
            raise InvalidParameterError("series too short to shift")
        return FormalSeries(self.coeffs[1:], self.pole_order)

    def even_part(self, signed=False) -> "FormalSeries":
        """Coefficients at even degrees as a series in z (degree 2k term
        lands at slot 2k); odd slots zero.  ``signed`` applies (-1)^k."""
        out = [Fraction(0)] * (self.order + 1)
        for k in range(0, self.order + 1, 2):
            s = (-1) ** (k // 2) if signed else 1
            out[k] = s * self.coeffs[k]
        return FormalSeries(out, self.pole_order)

    def odd_part(self, signed=False) -> "FormalSeries":
        out = [Fraction(0)] * (self.order + 1)
        for k in range(1, self.order + 1, 2):
            s = (-1) ** ((k - 1) // 2) if signed else 1
            out[k] = s * self.coeffs[k]
        return FormalSeries(out, self.pole_order)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        pole = f", pole={self.pole_order}" if self.pole_order else ""
        return f"FormalSeries([{head}{tail}]{pole})"


def _factorial_coeffs(f: FormalSeries, params: DeformParams) -> list:
    """The coefficients c_n [n]! of f in factorial normalisation."""
    return [c * rpq_factorial(params, n) for n, c in enumerate(f.coeffs)]


# -- derivative -----------------------------------------------------------

def rpq_derivative(f, params: DeformParams):
    """Spectral derivative z^n -> [n] z^(n-1) on polynomials or series."""
    if isinstance(f, Polynomial):
        return rpq_derivative_poly(f, params)
    if f.order == 0:
        return FormalSeries([Fraction(0)])
    out = [f.coeffs[n + 1] * rpq_number(params, n + 1)
           for n in range(f.order)]
    return FormalSeries(out)


# -- deformed exponentials ----------------------------------------------

def _exp_series(params: DeformParams, order: int, xi) -> FormalSeries:
    coeffs = []
    for n in range(order + 1):
        f = rpq_factorial(params, n)
        if f == 0:
            raise SingularDeformationError(f"[{n}]! = 0")
        coeffs.append(xi ** math.comb(n, 2) / f)
    return FormalSeries(coeffs)


def exp_lower(params: DeformParams, order: int) -> FormalSeries:
    """e(z): coefficient xi1^C(n,2)/[n]! at z^n."""
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
    return _exp_series(params, order, params.xi1)


def exp_upper(params: DeformParams, order: int) -> FormalSeries:
    """E(z): coefficient xi2^C(n,2)/[n]! at z^n."""
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
    return _exp_series(params, order, params.xi2)


# -- trigonometric / hyperbolic families ---------------------------------

_TRIG_BASE = {
    "sin": ("lower", "odd", True), "cos": ("lower", "even", True),
    "sinh": ("lower", "odd", False), "cosh": ("lower", "even", False),
    "SIN": ("upper", "odd", True), "COS": ("upper", "even", True),
    "SINH": ("upper", "odd", False), "COSH": ("upper", "even", False),
}

_TRIG_QUOTIENT = {
    "tan": ("sin", "cos"), "TAN": ("SIN", "COS"),
    "tanh": ("sinh", "cosh"), "TANH": ("SINH", "COSH"),
    "sec": (None, "cos"), "SEC": (None, "COS"),
    "sech": (None, "cosh"), "SECH": (None, "COSH"),
    "csc": (None, "sin"), "CSC": (None, "SIN"),
    "coth": ("cosh", "sinh"), "COTH": ("COSH", "SINH"),
}


def trig_series(params: DeformParams, which: str, order: int,
                laurent: bool = False) -> FormalSeries:
    """Deformed trigonometric/hyperbolic series.

    Lower-case names split the e-family exponential, upper-case the
    E-family.  csc and coth have a simple pole at the origin and need
    ``laurent=True``; the result then carries pole_order 1.
    """
    if which in _TRIG_BASE:
        family, part, signed = _TRIG_BASE[which]
        e = exp_lower(params, order) if family == "lower" \
            else exp_upper(params, order)
        return e.even_part(signed) if part == "even" \
            else e.odd_part(signed)
    if which not in _TRIG_QUOTIENT:
        raise InvalidParameterError(f"unknown trig function {which!r}")
    num_name, den_name = _TRIG_QUOTIENT[which]
    if which in ("csc", "CSC", "coth", "COTH"):
        if not laurent:
            raise PoleAtOriginError(
                f"{which} has a pole at the origin; pass laurent=True")
        den = trig_series(params, den_name, order + 1)  # sin-like: z * g
        g = den.shift_down()
        inv = g.inverse()
        if num_name is None:  # csc = (1/z) (1/g)
            return FormalSeries(inv.coeffs, pole_order=1)
        num = trig_series(params, num_name, order)
        quot = num * inv
        return FormalSeries(quot.coeffs, pole_order=1)
    den = trig_series(params, den_name, order)
    if num_name is None:
        return den.inverse()
    num = trig_series(params, num_name, order)
    return num / den


# -- zigzag numbers -------------------------------------------------------

def zigzag_numbers(params: DeformParams, count: int) -> list:
    """A_n extracted from sec + tan: even entries from sec, odd from
    tan, factorial-normalized.  In the classical limit these count the
    alternating permutations."""
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    order = count - 1
    f = trig_series(params, "sec", order) + trig_series(params, "tan", order)
    return _factorial_coeffs(f, params)[:count]


# -- Bernoulli / Euler / Genocchi families --------------------------------

FAMILIES = ("bernoulli", "euler", "genocchi")


def generating_polynomials(params: DeformParams, family: str, x,
                           order: int, convention: str = "lower") -> list:
    """Values P_0(x)..P_order(x) of the deformed Bernoulli, Euler or
    Genocchi polynomials, read off the generating series

        z/(e(z)-1) e(xz),   [2]/(e(z)+1) e(xz),   [2]z/(e(z)+1) e(xz)

    with e the lower or upper exponential per ``convention``."""
    if family not in FAMILIES:
        raise InvalidParameterError(f"unknown family {family!r}")
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
    if convention not in ("lower", "upper"):
        raise InvalidParameterError("convention must be lower or upper")
    make = exp_lower if convention == "lower" else exp_upper
    e = make(params, order + 1)
    exz = e.scale_arg(x)
    if family == "bernoulli":
        em1 = e - 1
        if em1.coeffs[1] == 0:
            raise SingularDeformationError(
                "e(z) - 1 has zero linear term: [1] = 0")
        kernel = em1.shift_down().inverse()          # z/(e(z)-1)
    else:
        two = rpq_number(params, 2)
        ep1 = e + 1
        kernel = ep1.inverse() * two                 # [2]/(e(z)+1)
    series = (kernel * exz).truncate(order)
    if family == "genocchi":
        # numerator carries a factor z: G_0 = 0, G_(n+1) from slot n
        shifted = [Fraction(0)] + series.coeffs[:order]
        series = FormalSeries(shifted)
    return _factorial_coeffs(series, params)


# -- quantum-algebra realization check ------------------------------------

def operator_algebra_check(params: DeformParams, n_max: int) -> SuiteReport:
    """On monomials z^n: lowering A = the deformed derivative, raising
    A+ = multiplication by z; checks A+A z^n = [n] z^n,
    AA+ z^n = [n+1] z^n and the commutator spectrum."""
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    results = []
    z = Polynomial.monomial(1)
    for n in range(n_max + 1):
        zn = Polynomial.monomial(n)
        lowered = rpq_derivative_poly(zn, params)
        ada = z * lowered
        aad = rpq_derivative_poly(z * zn, params)
        results.append(IdentityResult(
            f"A+A z^{n} = [{n}] z^{n}",
            ada.coefficient(n), rpq_number(params, n)))
        results.append(IdentityResult(
            f"AA+ z^{n} = [{n + 1}] z^{n}",
            aad.coefficient(n), rpq_number(params, n + 1)))
        comm = aad - ada
        results.append(IdentityResult(
            f"[A, A+] z^{n} = ([{n + 1}] - [{n}]) z^{n}",
            comm.coefficient(n),
            rpq_number(params, n + 1) - rpq_number(params, n)))
    return SuiteReport("operator_algebra", tuple(results))


def _series_suite(js: DeformParams) -> SuiteReport:
    """E(-z) e(z) = 1 coefficientwise, and G_(n+1) = [n+1] E_n."""
    e = exp_lower(js, 10)
    E = exp_upper(js, 10)
    prod = E.scale_arg(Fraction(-1)) * e
    results = [IdentityResult("E(-z) e(z) = 1 (z^0)",
                              prod.coefficient(0), Fraction(1))]
    for n in range(1, 11):
        results.append(IdentityResult(
            f"E(-z) e(z) = 1 (z^{n})", prod.coefficient(n), Fraction(0)))
    G = generating_polynomials(js, "genocchi", Fraction(0), 9)
    Eu = generating_polynomials(js, "euler", Fraction(0), 8)
    for n in range(0, 9):
        results.append(IdentityResult(
            f"G_{n + 1} = [{n + 1}] E_{n}", G[n + 1],
            rpq_number(js, n + 1) * Eu[n]))
    return SuiteReport("series_identities", tuple(results))


def check_suites() -> tuple:
    """The reports of ``rpqcalc check --module series``."""
    js = DeformParams.preset("jagannathan_srinivasa", p=1, q=Fraction(1, 2))
    return operator_algebra_check(js, 8), _series_suite(js)
