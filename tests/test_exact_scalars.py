"""Every entry point of the exact layers takes its rationals through
``_util.rational`` and its integers through ``_util.is_int``: a float,
a string, a ``Decimal`` or a bool is refused at once, never rounded or
parsed.  ``tests/test_no_float.py`` checks the source; this module
checks the inputs."""

from decimal import Decimal
from fractions import Fraction as F

import pytest

from rpqcalc.deform import (DeformParams, rpq_binomial, rpq_factorial,
                            rpq_number)
from rpqcalc.errors import InvalidParameterError
from rpqcalc.gammabeta import (beta_reflection_report, beta_rpq,
                               gamma_duplication_report, gamma_rpq,
                               power_basis, rational_pow_exact)
from rpqcalc.padic import PadicNumber
from rpqcalc.padicfun import (TwistParams, padic_factorial_rpq,
                              padic_gamma_rpq)
from rpqcalc.poly import Polynomial
from rpqcalc.quadrature import definite_integral_poly, jackson_sum
from rpqcalc.series import generating_polynomials
from rpqcalc.spinzeta import zeta_spin_half

JS = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
# square-friendly parameters, so that the half-integer gammas are exact
JS9 = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(9, 25))
JS35 = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(3, 5))
TW = TwistParams.make(5, 6, 11, 4)
LINE = Polynomial([1, 2])

# entry point -> (the name its refusal gives, call on the scalar)
RATIONAL_SLOTS = {
    "from_rational": ("the p-adic embedding's x",
                      lambda v: PadicNumber.from_rational(v, 5, 4)),
    "Polynomial": ("polynomial coefficient", lambda v: Polynomial([1, v])),
    "Polynomial.__call__": ("x", lambda v: LINE(v)),
    "DeformParams": ("q", lambda v: DeformParams(1, v)),
    "generating_polynomials": (
        "x", lambda v: generating_polynomials(JS, "bernoulli", v, 2)),
    "rational_pow_exact.x": ("x", lambda v: rational_pow_exact(v, 2)),
    "rational_pow_exact.e": ("e", lambda v: rational_pow_exact(F(4), v)),
    "gamma_rpq": ("z", lambda v: gamma_rpq(v, JS9, truncation=8)),
    "beta_rpq.x": ("x", lambda v: beta_rpq(v, 2, JS9, truncation=8)),
    "beta_rpq.y": ("y", lambda v: beta_rpq(2, v, JS9, truncation=8)),
    "gamma_duplication_report": (
        "z", lambda v: gamma_duplication_report(JS35, v, truncation=8)),
    "beta_reflection_report": (
        "x", lambda v: beta_reflection_report(JS9, v, truncation=8)),
    "power_basis.x": ("x", lambda v: power_basis(v, F(1, 5), 3, "minus",
                                                 JS)),
    "power_basis.y": ("y", lambda v: power_basis(F(2, 3), v, 3, "minus",
                                                 JS)),
    "jackson_sum": ("a", lambda v: jackson_sum(LINE, v, JS, terms=4)),
    "definite_integral_poly": (
        "x", lambda v: definite_integral_poly(LINE, 0, v, JS)),
}

# each one a rational that Fraction() would have read
NON_RATIONALS = {"float": 0.5, "str": "1/2", "Decimal": Decimal("0.5"),
                 "bool": True}


@pytest.mark.parametrize("kind", NON_RATIONALS)
@pytest.mark.parametrize("entry", RATIONAL_SLOTS)
def test_non_rational_refused(entry, kind):
    name, call = RATIONAL_SLOTS[entry]
    value = NON_RATIONALS[kind]
    with pytest.raises(InvalidParameterError,
                       match=f"^{name} must be an int or Fraction; "
                             f"got {type(value).__name__}$"):
        call(value)


# entry point -> (its refusal, call on the integer argument)
INT_SLOTS = {
    "rpq_number": ("deformed number needs n >= 0",
                   lambda n: rpq_number(JS, n)),
    "rpq_factorial": ("factorial needs n >= 0",
                      lambda n: rpq_factorial(JS, n)),
    "rpq_binomial.m": ("binomial needs 0 <= n <= m",
                       lambda m: rpq_binomial(JS, m, 1)),
    "rpq_binomial.n": ("binomial needs 0 <= n <= m",
                       lambda n: rpq_binomial(JS, 3, n)),
    "power_basis": ("the power basis needs n >= 0",
                    lambda n: power_basis(F(2, 3), F(1, 5), n, "minus",
                                          JS)),
    "padic_factorial_rpq": ("factorial needs n >= 0",
                            lambda n: padic_factorial_rpq(n, TW)),
    "padic_gamma_rpq": ("p-adic gamma needs an int n",
                        lambda n: padic_gamma_rpq(n, TW)),
    "zeta_spin_half": ("exact evaluation needs integer s",
                       lambda s: zeta_spin_half(3, s)),
}


@pytest.mark.parametrize("value", [2.5, -1.5, True],
                         ids=["float", "negative_float", "bool"])
@pytest.mark.parametrize("entry", INT_SLOTS)
def test_non_int_refused(entry, value):
    message, call = INT_SLOTS[entry]
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        call(value)


@pytest.mark.parametrize("entry", [e for e in INT_SLOTS if e not in
                                   ("padic_gamma_rpq", "zeta_spin_half")])
def test_negative_int_refused_as_before(entry):
    message, call = INT_SLOTS[entry]
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        call(-1)


@pytest.mark.parametrize("coeffs", [{-1: F(1)}, {1.5: F(1)}, {True: F(1)},
                                    {"2": F(1)}],
                         ids=["negative", "float", "bool", "str"])
def test_polynomial_degree_refused(coeffs):
    # a degree -1 term read as the zero polynomial's degree, and 1.5 as 1
    with pytest.raises(InvalidParameterError,
                       match="^polynomial degrees must be ints >= 0; got "):
        Polynomial(coeffs)
