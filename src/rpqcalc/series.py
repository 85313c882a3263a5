"""Deformed exponentials and the special series read off them.

A series is a plain list of its exact rational coefficients c_0..c_M
(``int`` or ``Fraction``) at z^0..z^M.  The one operation on them is
the quotient, ``_divide``, which truncates to the shorter list.  The
polynomial families and the zigzag numbers are read off in factorial
normalisation, c_n [n]!.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from ._util import IdentityResult, SuiteReport
from .deform import DeformParams, _rational, rpq_factorial, rpq_number
from .errors import InvalidParameterError, SingularDeformationError
from .poly import Polynomial, rpq_derivative_poly


def _divide(a: list, b: list) -> list:
    """The quotient series a/b, truncated to the shorter list; b_0 != 0.

    Each operand goes over its own common denominator once, and the
    quotient coefficients found so far stay integers over theirs, so

        y_n = (a_n - sum_{k>=1} b_k y_(n-k)) / b_0

    is one integer sum, reduced once."""
    n = min(len(a), len(b))
    da = math.lcm(*(c.denominator for c in a[:n]))
    db = math.lcm(*(c.denominator for c in b[:n]))
    A = [c.numerator * (db * da // c.denominator) for c in a[:n]]
    B = [c.numerator * (db // c.denominator) for c in b[:n]]
    out, Y, D = [], [], 1                       # y_k = Y_k / D, k < len(Y)
    for m in range(n):
        y = Fraction(A[m] * D - da * sum(map(mul, B[m:0:-1], Y)),
                     da * B[0] * D)
        scale = y.denominator // math.gcd(D, y.denominator)
        if scale > 1:
            Y, D = [v * scale for v in Y], D * scale
        Y.append(y.numerator * (D // y.denominator))
        out.append(y)
    return out


def _factorial_coeffs(f: list, params: DeformParams) -> list:
    """The coefficients c_n [n]! of f in factorial normalisation."""
    return [c * rpq_factorial(params, n) for n, c in enumerate(f)]


# -- deformed exponentials ----------------------------------------------

def _exp_series(params: DeformParams, order: int, xi) -> list:
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
    coeffs = []
    for n in range(order + 1):
        f = rpq_factorial(params, n)
        if f == 0:
            raise SingularDeformationError(f"[{n}]! = 0")
        coeffs.append(xi ** math.comb(n, 2) / f)
    return coeffs


def exp_lower(params: DeformParams, order: int) -> list:
    """e(z): coefficient xi1^C(n,2)/[n]! at z^n, n = 0..order."""
    return _exp_series(params, order, params.xi1)


def exp_upper(params: DeformParams, order: int) -> list:
    """E(z): coefficient xi2^C(n,2)/[n]! at z^n, n = 0..order."""
    return _exp_series(params, order, params.xi2)


# -- zigzag numbers -------------------------------------------------------

def _sin_cos(e: list) -> tuple:
    """The deformed sin and cos: the odd and the even part of e, with
    the sign (-1)^k at degrees 2k + 1 and 2k, zero elsewhere."""
    sin, cos = [Fraction(0)] * len(e), [Fraction(0)] * len(e)
    for n, c in enumerate(e):
        (cos if n % 2 == 0 else sin)[n] = c if n % 4 < 2 else -c
    return sin, cos


def zigzag_numbers(params: DeformParams, count: int) -> list:
    """A_n read off sec + tan = (1 + sin)/cos, factorial-normalised:
    even entries from sec, odd from tan.  In the classical limit these
    count the alternating permutations."""
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    sin, cos = _sin_cos(exp_lower(params, count - 1))
    sin[0] += 1                                      # now 1 + sin
    return _factorial_coeffs(_divide(sin, cos), params)


# -- Bernoulli / Euler / Genocchi families --------------------------------

FAMILIES = ("bernoulli", "euler", "genocchi")


def generating_polynomials(params: DeformParams, family: str, x,
                           order: int) -> list:
    """Values P_0(x)..P_order(x) of the deformed Bernoulli, Euler or
    Genocchi polynomials, read off the generating series

        z/(e(z)-1) e(xz),   [2]/(e(z)+1) e(xz),   [2]z/(e(z)+1) e(xz)

    with e the lower exponential."""
    if family not in FAMILIES:
        raise InvalidParameterError(f"unknown family {family!r}")
    if order < 0:
        raise InvalidParameterError("order must be >= 0")
    x = _rational("x", x)
    e = exp_lower(params, order + 1)
    exz = [c * x ** n for n, c in enumerate(e[:order + 1])]
    if family == "bernoulli":
        if e[1] == 0:
            raise SingularDeformationError(
                "e(z) - 1 has zero linear term: [1] = 0")
        series = _divide(exz, e[1:])                 # e(xz) z/(e(z)-1)
    else:                                            # [2] e(xz)/(e(z)+1)
        two = rpq_number(params, 2)
        series = _divide([two * c for c in exz], [e[0] + 1] + e[1:])
    if family == "genocchi":
        # numerator carries a factor z: G_0 = 0, G_(n+1) from slot n
        series = [Fraction(0)] + series[:order]
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
    E_neg = [-c if n % 2 else c for n, c in enumerate(exp_upper(js, 10))]
    prod = _divide(E_neg, _divide([1] + [0] * 10, exp_lower(js, 10)))
    results = [IdentityResult("E(-z) e(z) = 1 (z^0)", prod[0], Fraction(1))]
    for n in range(1, 11):
        results.append(IdentityResult(
            f"E(-z) e(z) = 1 (z^{n})", prod[n], Fraction(0)))
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
