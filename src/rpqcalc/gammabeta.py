"""Deformed power basis, gamma and beta functions.

The power basis (x (-) y)^n is the finite product over the indices
0..n-1, for n >= 0 only; the reciprocal rules of its derivative are
checked on 1 / (x (-) y)^n.

The gamma function takes the exact finite-product (factorial) path at
positive integers.  At rational arguments it is evaluated through the
normalized product ratio in the reduced base xh = xi2/xi1,

    Gamma(z) = c^(z-1) xi1^((z-1)(z-2)/2) (1-xh)^(1-z)
               prod_{i>=0} (1 - xh^(i+1)) / (1 - xh^(z+i)),

with c = [1] the twist scale; this is the unique continuation of the
product-ratio definition consistent with Gamma(n+1) = [n]! and
Gamma(z+1) = [z] Gamma(z) for every preset.  All scalar powers are
taken exactly: rational arguments must admit exact rational roots of
the bases involved, otherwise an error explains the constraint.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .deform import DeformParams, rpq_factorial, rpq_number
from .errors import (ConvergenceDomainError, InvalidParameterError,
                     PoleError)
from ._util import (DEFAULT_TRUNCATION, MAX_VALUE_BITS, IdentityResult,
                    SuiteReport, exact_str, is_int, ratio_product, rational)
from .poly import Polynomial, rpq_derivative_poly

DEFAULT_REL_TOL = Fraction(1, 10 ** 30)


# -- exact rational powers ----------------------------------------------

def _int_nth_root(n: int, b: int) -> Optional[int]:
    """Exact integer b-th root of n >= 0, or None.  A root r >= 2 has
    2^b <= r^b = n < 2^L (L the bit length of n), so b < L and r < 2^(L/b)."""
    if n < 2:
        return n
    bits = n.bit_length()
    if b >= bits:
        return None
    lo, hi = 2, 1 << -(-bits // b)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** b < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** b == n else None


def rational_pow_exact(x: Fraction, e: Fraction) -> Fraction:
    """x^e as an exact rational, for x > 0 (x = 0 with e > 0 gives 0).

    Raises when the required root is irrational: exact arithmetic can
    only evaluate gamma/beta at arguments whose twist-base powers are
    rational."""
    x, e = rational("x", x), rational("e", e)
    if x == 0:
        if e > 0:
            return Fraction(0)
        raise InvalidParameterError("0 to a nonpositive power")
    if x < 0:
        raise InvalidParameterError("negative base in rational power")
    if e.denominator == 1:
        return x ** e.numerator
    num = _int_nth_root(x.numerator, e.denominator)
    den = _int_nth_root(x.denominator, e.denominator)
    if num is None or den is None:
        raise InvalidParameterError(
            f"{x}^{e} is irrational; pick parameters whose "
            f"{e.denominator}-th roots are exact")
    return Fraction(num, den) ** e.numerator


# -- power basis ----------------------------------------------------------

def power_basis(x, y, n: int, mode: str, params: DeformParams):
    """(x (-) y)^n = prod_{i=0}^{n-1} (x xi1^i -+ y xi2^i) for n >= 0;
    the plus mode flips the sign.  A slot may hold a ``Polynomial``,
    which expands the product in that variable."""
    if mode not in ("minus", "plus"):
        raise InvalidParameterError("mode must be 'minus' or 'plus'")
    if not is_int(n) or n < 0:
        raise InvalidParameterError(f"the power basis needs n >= 0; got {n}")
    x, y = (v if isinstance(v, Polynomial) else rational(name, v)
            for name, v in (("x", x), ("y", y)))
    sign = -1 if mode == "minus" else 1
    x1, x2 = params.xi1, params.xi2
    acc = Fraction(1)
    for i in range(n):
        acc = acc * (x * x1 ** i + sign * y * x2 ** i)
    return acc


def _expanded(x, y, n: int, mode: str, params: DeformParams) -> Polynomial:
    """``power_basis`` with a ``Polynomial`` slot, as a polynomial."""
    return Polynomial.constant(Fraction(1)) * power_basis(
        x, y, n, mode, params)


def power_basis_poly(a, n: int, mode: str,
                     params: DeformParams) -> Polynomial:
    """The same product expanded as a polynomial in the first slot."""
    return _expanded(Polynomial.monomial(1), a, n, mode, params)


def power_basis_poly_reversed(a, n: int,
                              params: DeformParams) -> Polynomial:
    """(a (-) x)^n = prod (a xi1^i - x xi2^i), expanded in x."""
    return _expanded(a, Polynomial.monomial(1), n, "minus", params)


# -- gamma ----------------------------------------------------------------

class GammaValue(NamedTuple):
    value: Fraction
    terms: int
    tail_bound: Fraction  # relative; 0 on the exact integer path
    exact: bool


def _log2_ceil(r: Fraction) -> int:
    """ceil(log2) of the larger of |numerator| and denominator of r."""
    return max((abs(r.numerator) - 1).bit_length(),
               (r.denominator - 1).bit_length())


def _product_plan(name: str, z: Fraction, params: DeformParams,
                  truncation: int):
    """Every refusal of ``gamma_rpq`` at z, raised before any power is
    taken; then None on the exact integer path, else (xh, terms, bound)
    of the truncated product.

    The value's bit size is predicted from the bit lengths of the bases
    and the exponents: each power x^e holds about |e| ceil(log2 x) bits,
    and factor i of the product carries xh^(z+i).  A prediction over
    ``MAX_VALUE_BITS`` refuses the argument ``name``."""
    if truncation < 1:
        raise InvalidParameterError(
            f"truncation must be >= 1; got {truncation}")
    if z.denominator == 1:
        if z < 1:
            raise PoleError(f"gamma has a pole at z = {z}")
        return None
    if not params.is_twist_consistent():
        raise ConvergenceDomainError(
            "kernel is not consistent with its twist bases; the "
            "product-ratio gamma is undefined for it")
    x1, x2 = params.xi1, params.xi2
    xh = x2 / x1
    if not 0 < abs(xh) < 1:
        raise ConvergenceDomainError(
            f"product ratio needs |xi2/xi1| < 1; got {xh}")
    # tail of the normalized product: factors 1 + O(xh^i); relative
    # bound 2 xh^M/(1-xh)^2 once that is below 1/2
    terms = min(32, truncation)
    while True:
        bound = 2 * abs(xh) ** terms / (1 - abs(xh)) ** 2
        if bound <= DEFAULT_REL_TOL or terms >= truncation:
            break
        terms = min(2 * terms, truncation)
    bits = (abs(z - 1) * _log2_ceil(params.twist_scale())
            + abs((z - 1) * (z - 2) / 2) * _log2_ceil(x1)
            + abs(1 - z) * _log2_ceil(1 - xh)
            + terms * (abs(z) + Fraction(terms + 1, 2)) * _log2_ceil(xh))
    if bits > MAX_VALUE_BITS:
        raise InvalidParameterError(
            f"{name} = {z} needs an exact value of about {round(bits)} bits, "
            f"over MAX_VALUE_BITS = {MAX_VALUE_BITS}")
    return xh, terms, bound


def gamma_rpq(z, params: DeformParams,
              truncation: int = DEFAULT_TRUNCATION) -> GammaValue:
    """Deformed gamma.  Positive integers take the exact factorial
    path Gamma(n+1) = [n]!; rational arguments use the truncated
    normalized product with a reported geometric tail bound."""
    z = rational("z", z)
    plan = _product_plan("z", z, params, truncation)
    if plan is None:
        n = z.numerator - 1
        return GammaValue(rpq_factorial(params, n), n, Fraction(0), True)
    xh, terms, bound = plan
    x1, c = params.xi1, params.twist_scale()
    pre = (rational_pow_exact(c, z - 1)
           * rational_pow_exact(x1, (z - 1) * (z - 2) / 2)
           * rational_pow_exact(1 - xh, 1 - z))
    xh_z = rational_pow_exact(xh, z)
    # with xh = a/b and xh^z = s/t, factor i of the product,
    # (1 - xh^(i+1))/(1 - xh^(z+i)), is the integer ratio
    # t (b^(i+1) - a^(i+1)) / (b (t b^i - s a^i))
    a, b = xh.numerator, xh.denominator
    s, t = xh_z.numerator, xh_z.denominator
    nums, dens = [], []
    ai, bi = 1, 1               # a^i, b^i
    for _ in range(terms):
        dens.append(b * (t * bi - s * ai))
        ai, bi = ai * a, bi * b
        nums.append(t * (bi - ai))
    return GammaValue(pre * ratio_product(nums, dens), terms, bound,
                      False)


class BetaValue(NamedTuple):
    value: Fraction
    tail_bound: Fraction
    exact: bool


def beta_rpq(x, y, params: DeformParams,
             truncation: int = DEFAULT_TRUNCATION) -> BetaValue:
    """beta(x, y) = Gamma(x) Gamma(y) / Gamma(x+y).  With relative
    bounds a, b and c on the three gammas, the quotient's relative
    bound is (1 + a)(1 + b)/(1 - c) - 1, which needs c < 1."""
    x, y = rational("x", x), rational("y", y)
    for name, v in (("x", x), ("y", y), ("x + y", x + y)):
        _product_plan(name, v, params, truncation)
    gx = gamma_rpq(x, params, truncation)
    gy = gamma_rpq(y, params, truncation)
    gxy = gamma_rpq(x + y, params, truncation)
    if gxy.tail_bound >= 1:
        raise ConvergenceDomainError("divisor bound too loose")
    bound = ((1 + gx.tail_bound) * (1 + gy.tail_bound)
             / (1 - gxy.tail_bound) - 1)
    return BetaValue(gx.value * gy.value / gxy.value, bound,
                     gx.exact and gy.exact and gxy.exact)


# -- identity suites --------------------------------------------------------

def power_basis_identity_suite(params: DeformParams, n: int, k: int,
                               x=Fraction(2, 3),
                               y=Fraction(1, 5)) -> SuiteReport:
    """Exact checks of the splitting, quotient, doubling and k-fold
    regrouping identities of the power products."""
    if n < 0 or k < 1:
        raise InvalidParameterError("need n >= 0 and k >= 1")
    x1, x2 = params.xi1, params.xi2
    p2 = params.powered(2)
    pk = params.powered(k)
    results = []
    # (viii) (x (-) y)^(n+k) = (x (-) y)^n (x xi1^n (-) y xi2^n)^k
    results.append(IdentityResult(
        "splitting (viii)",
        power_basis(x, y, n + k, "minus", params),
        power_basis(x, y, n, "minus", params)
        * power_basis(x * x1 ** n, y * x2 ** n, k, "minus", params)))
    # (ix) (x xi1^k (-) y xi2^k)^(n-k) = (x (-) y)^n / (x (-) y)^k
    if n >= k:
        results.append(IdentityResult(
            "quotient (ix)",
            power_basis(x * x1 ** k, y * x2 ** k, n - k, "minus", params),
            power_basis(x, y, n, "minus", params)
            / power_basis(x, y, k, "minus", params)))
    # (xi) (x (-) y)^(2n) = (x (-) y)^n_{R(p^2,q^2)} (x xi1 (-) y xi2)^n_{R(p^2,q^2)}
    results.append(IdentityResult(
        "doubling (xi)",
        power_basis(x, y, 2 * n, "minus", params),
        power_basis(x, y, n, "minus", p2)
        * power_basis(x * x1, y * x2, n, "minus", p2)))
    # (xiv) (x (+) y)^(kn) = prod_i (x xi1^i (+) y xi2^i)^n_{R(p^k,q^k)}
    rhs = Fraction(1)
    for i in range(k):
        rhs = rhs * power_basis(x * x1 ** i, y * x2 ** i, n, "plus", pk)
    results.append(IdentityResult(
        "k-fold (xiv)",
        power_basis(x, y, k * n, "plus", params), rhs))
    # n = 0 degeneracies
    results.append(IdentityResult(
        "empty product", power_basis(x, y, 0, "minus", params),
        Fraction(1)))
    return SuiteReport("power_basis_identities", tuple(results))


def _iterate_derivative(f: Polynomial, params: DeformParams,
                        k: int) -> Polynomial:
    for _ in range(k):
        f = rpq_derivative_poly(f, params)
    return f


def power_basis_derivative_suite(params: DeformParams, n: int, k: int,
                                 a=Fraction(3, 7)) -> SuiteReport:
    """Exact polynomial checks of the derivative rules of the power
    basis, including the k-fold forms with their xi^C(k,2) prefactors
    and the reciprocal rules (verified at sample points)."""
    if not n >= k >= 1:
        raise InvalidParameterError("need n >= k >= 1")
    x1, x2 = params.xi1, params.xi2
    results = []
    base = power_basis_poly(a, n, "minus", params)
    # D (x (-) a)^n = [n] (xi1 x (-) a)^(n-1)
    lhs = rpq_derivative_poly(base, params)
    rhs = rpq_number(params, n) * power_basis_poly(
        a, n - 1, "minus", params).scale_arg(x1)
    results.append(IdentityResult("forward n=1 rule", lhs, rhs))
    # D^k (x (-) a)^n = xi1^C(k,2) [n]!/[n-k]! (xi1^k x (-) a)^(n-k)
    lhs_k = _iterate_derivative(base, params, k)
    coeff = x1 ** math.comb(k, 2) * rpq_factorial(params, n) \
        / rpq_factorial(params, n - k)
    rhs_k = coeff * power_basis_poly(
        a, n - k, "minus", params).scale_arg(x1 ** k)
    results.append(IdentityResult(f"forward k={k} rule", lhs_k, rhs_k))
    # D (a (-) x)^n = -[n] (a (-) xi2 x)^(n-1)
    rev = power_basis_poly_reversed(a, n, params)
    lhs_r = rpq_derivative_poly(rev, params)
    rhs_r = -rpq_number(params, n) * power_basis_poly_reversed(
        a, n - 1, params).scale_arg(x2)
    results.append(IdentityResult("reverse n=1 rule", lhs_r, rhs_r))
    # D^k (a (-) x)^n = (-1)^k xi2^C(k,2) [n]!/[n-k]! (a (-) xi2^k x)^(n-k)
    lhs_rk = _iterate_derivative(rev, params, k)
    coeff_r = Fraction(-1) ** k * x2 ** math.comb(k, 2) \
        * rpq_factorial(params, n) / rpq_factorial(params, n - k)
    rhs_rk = coeff_r * power_basis_poly_reversed(
        a, n - k, params).scale_arg(x2 ** k)
    results.append(IdentityResult(f"reverse k={k} rule", lhs_rk, rhs_rk))
    # reciprocal rules, checked at sample points through the
    # finite-difference form of the derivative
    c = params.twist_scale()
    for x0 in (Fraction(5, 6), Fraction(9, 4), Fraction(13, 3)):
        g = lambda t: 1 / power_basis(t, a, n, "minus", params)
        dg = c * (g(x1 * x0) - g(x2 * x0)) / ((x1 - x2) * x0)
        rhs_rec = -x2 * rpq_number(params, n) \
            / power_basis(x2 * x0, a, n + 1, "minus", params)
        results.append(IdentityResult(
            f"reciprocal forward at x={x0}", dg, rhs_rec))
        h = lambda t: 1 / power_basis(a, t, n, "minus", params)
        dh = c * (h(x1 * x0) - h(x2 * x0)) / ((x1 - x2) * x0)
        rhs_rec2 = x1 * rpq_number(params, n) \
            / power_basis(a, x1 * x0, n + 1, "minus", params)
        results.append(IdentityResult(
            f"reciprocal reverse at x={x0}", dh, rhs_rec2))
    return SuiteReport("power_basis_derivatives", tuple(results))


def _beta_recurrence_suite(params: DeformParams) -> SuiteReport:
    """The recurrences (i)-(iii) and the product form (vi) of beta."""
    results = []
    for (x, y) in ((1, 1), (2, 3), (4, 2)):
        b = beta_rpq(x, y, params).value
        nx, ny = rpq_number(params, x), rpq_number(params, y)
        nxy = rpq_number(params, x + y)
        results.append(IdentityResult(
            f"(i) beta({x},{y}+1)",
            beta_rpq(x, y + 1, params).value, ny / nxy * b))
        results.append(IdentityResult(
            f"(ii) beta({x}+1,{y})",
            beta_rpq(x + 1, y, params).value, nx / nxy * b))
        results.append(IdentityResult(
            "(iii) cross form",
            beta_rpq(x + 1, y, params).value,
            nx / ny * beta_rpq(x, y + 1, params).value))
        results.append(IdentityResult(
            f"(vi) beta({x}+1,{y}+1) product form",
            beta_rpq(x + 1, y + 1, params).value,
            nx * ny / (rpq_number(params, x + y + 1) * nxy) * b))
    return SuiteReport("beta_recurrences", tuple(results))


def check_suites() -> tuple:
    """The reports of ``rpqcalc check --module gammabeta``."""
    js = DeformParams.preset("jagannathan_srinivasa", p=1, q=Fraction(1, 2))
    return (power_basis_identity_suite(js, 3, 2),
            power_basis_derivative_suite(js, 3, 2),
            _beta_recurrence_suite(js))


# -- measured-only reports ---------------------------------------------------

def gamma_duplication_report(params: DeformParams, z,
                             truncation: int = DEFAULT_TRUNCATION) -> dict:
    """Both sides of the doubling relation

        Gamma(2z) Gamma_{R(p^2,q^2)}(1/2)
            vs (xi1+xi2)^(2z-1) Gamma_{R(p^2,q^2)}(z) Gamma_{R(p^2,q^2)}(z+1/2)

    measured, never asserted: no proof exists under general deformation."""
    z = rational("z", z)
    p2 = params.powered(2)
    lhs = gamma_rpq(2 * z, params, truncation).value \
        * gamma_rpq(Fraction(1, 2), p2, truncation).value
    rhs = rational_pow_exact(params.xi1 + params.xi2, 2 * z - 1) \
        * gamma_rpq(z, p2, truncation).value \
        * gamma_rpq(z + Fraction(1, 2), p2, truncation).value
    return {"identity": "gamma duplication", "asserted": False,
            "lhs": exact_str(lhs), "rhs": exact_str(rhs),
            "difference": exact_str(lhs - rhs)}


def beta_reflection_report(params: DeformParams, x,
                           truncation: int = DEFAULT_TRUNCATION) -> dict:
    """beta(x, 1-x) beside its product form Gamma(x) Gamma(1-x).  The
    deformed gamma lacks the classical reflection formula, so no closed
    form is compared and nothing is asserted."""
    x = rational("x", x)
    b = beta_rpq(x, 1 - x, params, truncation)
    gg = gamma_rpq(x, params, truncation).value \
        * gamma_rpq(1 - x, params, truncation).value
    return {"identity": "beta reflection", "asserted": False,
            "beta(x,1-x)": exact_str(b.value),
            "gamma(x)gamma(1-x)": exact_str(gg),
            "product_form_matches": b.value == gg}


def classical_limit_reports() -> list:
    """The measured-only entries of ``rpqcalc check --module gammabeta
    --classical-limit``."""
    js35 = DeformParams.preset("jagannathan_srinivasa", p=1,
                               q=Fraction(3, 5))
    js9 = DeformParams.preset("jagannathan_srinivasa", p=1,
                              q=Fraction(9, 25))
    return [gamma_duplication_report(js35, 2, truncation=96),
            beta_reflection_report(js9, Fraction(1, 2), truncation=96)]
