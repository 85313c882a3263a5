"""Exact univariate polynomials with rational coefficients.

Sparse coefficient map keyed by degree; zero coefficients are never
stored.  Used as the exact carrier for derivative/integral rules and
the power-basis expansions.
"""

from __future__ import annotations

from fractions import Fraction

from ._util import is_int, rational
from .errors import InvalidParameterError, SingularDeformationError


class Polynomial:
    """Immutable sparse polynomial sum(c_n z^n)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for n, c in (coeffs.items() if isinstance(coeffs, dict)
                     else enumerate(coeffs or ())):
            if not is_int(n) or n < 0:
                raise InvalidParameterError(
                    f"polynomial degrees must be ints >= 0; got {n!r}")
            c = rational("polynomial coefficient", c)
            if c:
                clean[n] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def monomial(cls, n: int, c=Fraction(1)) -> "Polynomial":
        return cls({n: c})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({0: c})

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def coefficient(self, n: int):
        return self.coeffs.get(n, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs  # no zero is ever stored

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, 0) + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial({n: c * other
                               for n, c in self.coeffs.items()})
        out = {}
        for n, a in self.coeffs.items():
            for m, b in other.coeffs.items():
                out[n + m] = out.get(n + m, 0) + a * b
        return Polynomial(out)

    def __rmul__(self, other):
        return self * other

    def scale_arg(self, c) -> "Polynomial":
        """f(c z)."""
        return Polynomial({n: coef * c ** n
                           for n, coef in self.coeffs.items()})

    def __call__(self, x):
        """Sparse Horner evaluation at a rational x."""
        x = rational("x", x)
        acc, last = 0, max(self.coeffs, default=0)
        for n in sorted(self.coeffs, reverse=True):
            acc = acc * x ** (last - n) + self.coeffs[n]
            last = n
        return acc * x ** last

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = [f"{c}*z^{n}" for n, c in sorted(self.coeffs.items())]
        return "Polynomial(" + " + ".join(parts) + ")"


def rpq_derivative_poly(f: Polynomial, params) -> Polynomial:
    """Spectral derivative: z^n -> [n] z^(n-1)."""
    from .deform import rpq_number
    return Polynomial({n - 1: c * rpq_number(params, n)
                       for n, c in f.coeffs.items() if n >= 1})


def rpq_antiderivative_poly(f: Polynomial, params) -> Polynomial:
    """z^n -> z^(n+1)/[n+1], integration constant 0."""
    from .deform import rpq_number
    out = {}
    for n, c in f.coeffs.items():
        d = rpq_number(params, n + 1)
        if d == 0:
            raise SingularDeformationError(
                f"[{n + 1}] = 0: antiderivative undefined at degree {n}")
        out[n + 1] = c / d
    return Polynomial(out)
