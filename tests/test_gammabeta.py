"""Power basis, deformed gamma/beta, Taylor expansions."""

import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpqcalc import gammabeta
from rpqcalc._util import MAX_VALUE_BITS
from rpqcalc.deform import (PRESET_KINDS, DeformParams, rpq_factorial,
                            rpq_number)
from rpqcalc.errors import (ConvergenceDomainError, InvalidParameterError,
                            PoleError, RpqError)
from rpqcalc.gammabeta import (DEFAULT_REL_TOL, DEFAULT_TRUNCATION,
                               GammaValue, _int_nth_root, beta_rpq,
                               gamma_rpq,
                               gamma_duplication_report, power_basis,
                               power_basis_derivative_suite,
                               power_basis_identity_suite, power_basis_poly,
                               power_basis_poly_reversed,
                               beta_reflection_report, rational_pow_exact)
from rpqcalc.poly import Polynomial, rpq_derivative_poly

from oracles import rpq_number_at

JS = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
# square-friendly parameters: both q and 1-q are exact squares
JS9 = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(9, 25))
JS16 = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(16, 25))
PRESETS = [
    JS,
    DeformParams.preset("heine", q=F(1, 2)),
    DeformParams.preset("biedenharn_macfarlane", q=F(1, 2)),
    DeformParams.preset("quesne", q=F(1, 2)),
    DeformParams.preset("hounkonnou_ngompe", p=F(9, 10), q=F(1, 2)),
    DeformParams.preset("chakrabarty_jagannathan", p=F(9, 10), q=F(1, 2)),
]


# Reference loops: the power products as each form computed its own,
# before they were all expressed through ``power_basis``.

def ref_power_basis(x, y, n, mode, params):
    sign = -1 if mode == "minus" else 1
    x1, x2 = params.xi1, params.xi2
    acc = F(1)
    for i in range(n):
        acc = acc * (x * x1 ** i + sign * y * x2 ** i)
    return acc


def ref_power_basis_poly(a, n, mode, params):
    sign = -1 if mode == "minus" else 1
    x1, x2 = params.xi1, params.xi2
    acc = Polynomial.constant(F(1))
    for i in range(n):
        acc = acc * Polynomial({1: x1 ** i, 0: sign * a * x2 ** i})
    return acc


def ref_power_basis_poly_reversed(a, n, params):
    x1, x2 = params.xi1, params.xi2
    acc = Polynomial.constant(F(1))
    for i in range(n):
        acc = acc * Polynomial({0: a * x1 ** i, 1: -(x2 ** i)})
    return acc


def ref_gamma_rpq(z, params, truncation=DEFAULT_TRUNCATION):
    """gamma_rpq as it was before the product tree: one Fraction
    multiplication and division per factor of the product."""
    if truncation < 1:
        raise InvalidParameterError(
            f"truncation must be >= 1; got {truncation}")
    z = F(z)
    if z.denominator == 1:
        n = z.numerator - 1
        if n < 0:
            raise PoleError(f"gamma has a pole at z = {z}")
        return GammaValue(rpq_factorial(params, n), n, F(0), True)
    if not params.is_twist_consistent():
        raise ConvergenceDomainError(
            "kernel is not consistent with its twist bases; the "
            "product-ratio gamma is undefined for it")
    x1, x2 = params.xi1, params.xi2
    xh = x2 / x1
    if not 0 < abs(xh) < 1:
        raise ConvergenceDomainError(
            f"product ratio needs |xi2/xi1| < 1; got {xh}")
    c = params.twist_scale()
    pre = (rational_pow_exact(c, z - 1)
           * rational_pow_exact(x1, (z - 1) * (z - 2) / 2)
           * rational_pow_exact(1 - xh, 1 - z))
    xh_z = rational_pow_exact(xh, z)
    terms = min(32, truncation)
    while True:
        bound = 2 * abs(xh) ** terms / (1 - abs(xh)) ** 2
        if bound <= DEFAULT_REL_TOL or terms >= truncation:
            break
        terms = min(2 * terms, truncation)
    prod = F(1)
    top, bot = F(1), xh_z
    for _ in range(terms):
        top = top * xh          # xh^(i+1)
        prod = prod * (1 - top) / (1 - bot)
        bot = bot * xh          # xh^(z+i)
    return GammaValue(pre * prod, terms, bound, False)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message it raises."""
    try:
        return fn(*args)
    except (RpqError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# q and 1 - q both exact squares, so heine at any p, and
# jagannathan_srinivasa and chakrabarty_jagannathan at p = 1, have every
# root a half-integer z needs; 4/9 and 1/4 (1 - q not a square) and
# p = 9/10 take the refusal of an irrational power
EXACT_ROOT_Q = [F(9, 25), F(16, 25), F(25, 169), F(64, 289), F(4, 9),
                F(1, 4)]
# the presets whose xi2/xi1 lies in (0, 1); the others refuse the product
PRODUCT_KINDS = ["heine", "jagannathan_srinivasa", "chakrabarty_jagannathan"]


small = st.fractions(min_value=-3, max_value=3, max_denominator=20)


class TestRationalPow:
    def test_integer_exponents(self):
        assert rational_pow_exact(F(2, 3), F(-2)) == F(9, 4)

    def test_exact_roots(self):
        assert rational_pow_exact(F(9, 25), F(1, 2)) == F(3, 5)
        assert rational_pow_exact(F(8, 27), F(2, 3)) == F(4, 9)

    def test_irrational_rejected(self):
        with pytest.raises(InvalidParameterError):
            rational_pow_exact(F(1, 2), F(1, 2))

    @given(st.integers(0, 5000), st.integers(1, 16))
    def test_int_root_matches_brute_force(self, n, b):
        r = next(r for r in itertools.count() if r ** b >= n)
        assert _int_nth_root(n, b) == (r if r ** b == n else None)

    @given(st.integers(0, 10 ** 30), st.integers(1, 64))
    def test_int_root_of_a_power(self, r, b):
        assert _int_nth_root(r ** b, b) == r


class TestPowerBasis:
    def test_single_factor(self):
        x, a = F(2), F(1, 3)
        assert power_basis(x, a, 1, "minus", JS) == x - a

    def test_two_factors(self):
        x, a = F(2), F(1, 3)
        assert power_basis(x, a, 2, "minus", JS) == \
            (x - a) * (x * JS.xi1 - a * JS.xi2)

    def test_worked_example(self):
        assert power_basis(F(1), F(1, 2), 3, "minus", JS) == F(21, 64)

    def test_plus_mode(self):
        x, y = F(2), F(1, 3)
        assert power_basis(x, y, 2, "plus", JS) == \
            (x + y) * (x * JS.xi1 + y * JS.xi2)

    def test_poly_expansion_matches_values(self):
        a = F(1, 3)
        poly = power_basis_poly(a, 3, "minus", JS)
        for x in (F(2), F(-1, 2), F(7, 5)):
            assert poly(x) == power_basis(x, a, 3, "minus", JS)


class TestMergedPowerBasis:
    """Every power-product form against its reference loop."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(PRESETS), st.sampled_from(["minus", "plus"]),
           st.integers(min_value=0, max_value=6), small)
    def test_polynomial_slots(self, params, mode, n, a):
        z = Polynomial.monomial(1)
        first = power_basis_poly(a, n, mode, params)
        assert first.coeffs == ref_power_basis_poly(a, n, mode, params).coeffs
        # (a (+) x)^n is (a (-) x)^n at -x
        want = ref_power_basis_poly_reversed(a, n, params)
        if mode == "plus":
            want = want.scale_arg(-1)
        else:
            assert power_basis_poly_reversed(a, n, params).coeffs \
                == want.coeffs
        second = Polynomial.constant(F(1)) * power_basis(a, z, n, mode,
                                                          params)
        assert second.coeffs == want.coeffs

    def test_polynomial_forms_refuse_negative_n(self):
        # the power basis, scalar or polynomial, is defined for n >= 0
        with pytest.raises(InvalidParameterError):
            power_basis_poly(F(1, 3), -1, "minus", JS)
        with pytest.raises(InvalidParameterError):
            power_basis_poly_reversed(F(1, 3), -2, JS)
        with pytest.raises(InvalidParameterError):
            power_basis(F(2), F(1, 3), -1, "minus", JS)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(PRESETS), st.sampled_from(["minus", "plus"]),
           st.integers(min_value=0, max_value=6), small, small)
    def test_scalar_slots(self, params, mode, n, x, y):
        assert power_basis(x, y, n, mode, params) == \
            ref_power_basis(x, y, n, mode, params)


class TestIdentitySuites:
    @pytest.mark.parametrize("params", PRESETS)
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (0, 1), (4, 3)])
    def test_regrouping_identities(self, params, n, k):
        assert power_basis_identity_suite(params, n, k).passed

    @pytest.mark.parametrize("params", PRESETS)
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 2), (3, 2), (5, 3)])
    def test_derivative_rules(self, params, n, k):
        assert power_basis_derivative_suite(params, n, k).passed

    def test_rejects_bad_orders(self):
        with pytest.raises(InvalidParameterError):
            power_basis_derivative_suite(JS, 1, 2)


class TestGamma:
    def test_factorial_link(self):
        for n in range(33):
            g = gamma_rpq(n + 1, JS)
            assert g.exact and g.tail_bound == 0
            assert g.value == rpq_factorial(JS, n)

    def test_base_value(self):
        assert gamma_rpq(1, JS).value == 1

    def test_worked_example(self):
        assert gamma_rpq(4, JS).value == F(21, 8)

    def test_pole_at_nonpositive_integers(self):
        for z in (0, -1, -3):
            with pytest.raises(PoleError):
                gamma_rpq(z, JS)

    @pytest.mark.parametrize("params", [JS9, JS16])
    def test_recurrence_at_half_integers(self, params):
        for k in (1, 3, 5, 7, 9):
            z = F(k, 2)
            gz = gamma_rpq(z, params)
            gz1 = gamma_rpq(z + 1, params)
            expected = rpq_number_at(params, z) * gz.value
            rel = abs(gz1.value - expected) / abs(expected)
            budget = (1 + gz.tail_bound) * (1 + gz1.tail_bound) - 1
            assert rel <= 2 * budget + F(1, 10 ** 25)

    def test_chain_consistency_with_integer_path(self):
        # walking the recurrence from 1/2 lands on the product value
        g = gamma_rpq(F(1, 2), JS9)
        chain = g.value
        for k in range(5):
            chain *= rpq_number_at(JS9, F(1, 2) + k)
        direct = gamma_rpq(F(11, 2), JS9)
        rel = abs(direct.value - chain) / abs(chain)
        assert rel < F(1, 10 ** 20)

    def test_tail_bound_meets_default_tolerance(self):
        g = gamma_rpq(F(3, 2), JS9)
        assert g.tail_bound <= F(1, 10 ** 30)

    def test_convergence_domain(self):
        # quesne's bases (1, 25/9) give xi2/xi1 = 25/9 > 1
        flipped = DeformParams.preset("quesne", p=1, q=F(9, 25))
        with pytest.raises(ConvergenceDomainError):
            gamma_rpq(F(1, 2), flipped)


    @pytest.mark.parametrize("truncation", [0, -5])
    @pytest.mark.parametrize("z", [F(1, 2), F(3)])
    def test_truncation_below_one_refused(self, truncation, z):
        with pytest.raises(InvalidParameterError, match="truncation"):
            gamma_rpq(z, JS9, truncation)
        with pytest.raises(InvalidParameterError, match="truncation"):
            beta_rpq(z, F(1, 3), JS9, truncation)

    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    @pytest.mark.parametrize("z,truncation", [
        (F(1, 2), 256), (F(-401, 2), 8), (F(201, 2), 64), (F(-5, 2), 1)])
    def test_value_size_prediction_bounds_the_value(self, monkeypatch, kind,
                                                    z, truncation):
        # with the budget one bit below the value's size, the same call
        # is refused
        params = DeformParams.preset(kind, p=1, q=F(9, 25))
        v = gamma_rpq(z, params, truncation).value
        size = max(v.numerator.bit_length(), v.denominator.bit_length())
        monkeypatch.setattr(gammabeta, "MAX_VALUE_BITS", size - 1)
        with pytest.raises(InvalidParameterError, match=(
                rf"^z = {z} needs an exact value of about \d+ bits, over "
                rf"MAX_VALUE_BITS = {size - 1}$")):
            gamma_rpq(z, params, truncation)

    @pytest.mark.parametrize("x, y, name", [
        (F(47001, 2), 1, "x = 47001/2"), (2, F(47001, 2), "y = 47001/2"),
        (F(46001, 2), F(2001, 4), "x + y = 94003/4")])
    def test_beta_names_the_argument_over_the_budget(self, x, y, name):
        # x = 46001/2 alone is under the budget; beta refuses x + y
        # before it builds gamma(x)
        with pytest.raises(InvalidParameterError, match=(
                rf"^{re.escape(name)} needs an exact value of about \d+ "
                rf"bits, over MAX_VALUE_BITS = {MAX_VALUE_BITS}$")):
            beta_rpq(x, y, JS9, 8)

    def test_truncation_one_is_a_product_of_one_term(self):
        assert gamma_rpq(F(1, 2), JS9, 1).terms == 1


class TestGammaProductTree:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.one_of(st.sampled_from(PRESET_KINDS),
                          st.sampled_from(PRODUCT_KINDS)),
           p=st.sampled_from([F(1), F(1), F(9, 10)]),
           q=st.sampled_from(EXACT_ROOT_Q),
           k=st.integers(-15, 15).filter(lambda k: k % 2),
           truncation=st.integers(1, 256))
    def test_matches_factor_loop(self, kind, p, q, k, truncation):
        assume(q < p)
        params = DeformParams.preset(kind, p=p, q=q)
        z = F(k, 2)
        assert outcome(gamma_rpq, z, params, truncation) == \
            outcome(ref_gamma_rpq, z, params, truncation)

    @pytest.mark.parametrize("kind", PRODUCT_KINDS)
    @pytest.mark.parametrize("z,truncation", [
        (F(1, 2), 256), (F(-5, 2), 33), (F(7, 2), 7), (F(-1, 2), 1),
        (F(13, 2), 2)])
    def test_values_match_factor_loop(self, kind, z, truncation):
        params = DeformParams.preset(kind, p=1, q=F(9, 25))
        g = gamma_rpq(z, params, truncation)
        assert g == ref_gamma_rpq(z, params, truncation)
        assert g.terms == min(truncation, 128) and not g.exact

    def test_beta_matches_factor_loop(self):
        x, y = F(7, 2), F(-3, 2)
        gx, gy, gxy = (ref_gamma_rpq(z, JS9) for z in (x, y, x + y))
        b = beta_rpq(x, y, JS9)
        assert (b.value, b.tail_bound, b.exact) == (
            gx.value * gy.value / gxy.value,
            (1 + gx.tail_bound) * (1 + gy.tail_bound)
            / (1 - gxy.tail_bound) - 1, False)


class TestBeta:
    @pytest.mark.parametrize("x, y, truncation", [
        (F(1, 2), F(3, 2), 8), (F(1, 2), 1, 256), (2, F(5, 2), 3),
        (F(-1, 2), F(7, 2), 2), (2, 3, 1)])
    def test_bound_composes_the_gamma_bounds(self, x, y, truncation):
        # relative bounds a, b, c of the three gammas give the quotient
        # (1 + a)(1 + b)/(1 - c) - 1
        a, b, c = (gamma_rpq(z, JS9, truncation)
                   for z in (x, y, F(x) + F(y)))
        beta = beta_rpq(x, y, JS9, truncation)
        assert beta.tail_bound == (1 + a.tail_bound) * (1 + b.tail_bound) \
            / (1 - c.tail_bound) - 1
        assert beta.value == a.value * b.value / c.value
        assert beta.exact == (a.exact and b.exact and c.exact)

    def test_unit_values(self):
        b = beta_rpq(1, 1, JS)
        assert b.value == 1 / rpq_number(JS, 1) and b.exact

    def test_symmetry(self):
        for (x, y) in ((1, 2), (3, 2), (4, 5)):
            assert beta_rpq(x, y, JS).value == beta_rpq(y, x, JS).value

    @pytest.mark.parametrize("x,y", [(1, 1), (2, 3), (4, 2), (3, 5)])
    def test_recurrences(self, x, y):
        b = beta_rpq(x, y, JS).value
        nx, ny = rpq_number(JS, x), rpq_number(JS, y)
        nxy = rpq_number(JS, x + y)
        assert beta_rpq(x, y + 1, JS).value == ny / nxy * b
        assert beta_rpq(x + 1, y, JS).value == nx / nxy * b
        assert beta_rpq(x + 1, y, JS).value == \
            nx / ny * beta_rpq(x, y + 1, JS).value
        assert beta_rpq(x + 1, y + 1, JS).value == \
            nx * ny / (rpq_number(JS, x + y + 1) * nxy) * b

    def test_shift_product_form(self):
        # iterating the one-step recurrence n times multiplies by the
        # factor-ratio product of the power bases
        x, y, n = 2, 3, 3
        x1, x2 = JS.xi1, JS.xi2
        num = power_basis(x1 ** x, x2 ** x, n, "minus", JS)
        den = power_basis(x1 ** (x + y), x2 ** (x + y), n, "minus", JS)
        assert beta_rpq(x + n, y, JS).value == \
            num / den * beta_rpq(x, y, JS).value

    def test_four_gamma_product_form(self):
        x, y, z, w = 1, 2, 3, 2
        lhs = beta_rpq(x, y, JS).value \
            * beta_rpq(x + y, z, JS).value \
            * beta_rpq(x + y + z, w, JS).value
        rhs = (gamma_rpq(x, JS).value * gamma_rpq(y, JS).value
               * gamma_rpq(z, JS).value * gamma_rpq(w, JS).value
               / gamma_rpq(x + y + z + w, JS).value)
        assert lhs == rhs


class TestMeasuredReports:
    def test_duplication_is_reported_not_asserted(self):
        js35 = DeformParams.preset("jagannathan_srinivasa", p=1,
                                   q=F(3, 5))
        rep = gamma_duplication_report(js35, 2, truncation=96)
        assert rep["asserted"] is False
        assert "difference" in rep

    def test_reflection_product_part_exact(self):
        rep = beta_reflection_report(JS9, F(1, 2), truncation=96)
        assert rep["asserted"] is False
        assert rep["product_form_matches"] is True


def taylor_expand(f, a, params, form):
    """The deformed Taylor coefficients of a polynomial, read off its
    iterated derivatives:

    forward: f = sum_k c_k (x (-) a)^k with
             c_k = xi1^(-C(k,2)) (D^k f)(a xi1^(-k)) / [k]!
    reverse: f = sum_k c_k (a (-) x)^k with
             c_k = (-1)^k xi2^(-C(k,2)) (D^k f)(a xi2^(-k)) / [k]!
    """
    xi = params.xi1 if form == "forward" else params.xi2
    sign = 1 if form == "forward" else -1
    coeffs, g = [], f
    for k in range(max(f.degree, 0) + 1):
        coeffs.append(sign ** k * xi ** -math.comb(k, 2)
                      * g(a * xi ** -k) / rpq_factorial(params, k))
        g = rpq_derivative_poly(g, params)
    return coeffs


def taylor_reconstruct(coeffs, a, params, form):
    """sum_k c_k times the k-th forward or reverse power basis."""
    out = Polynomial({})
    for k, c in enumerate(coeffs):
        basis = power_basis_poly(a, k, "minus", params) \
            if form == "forward" else power_basis_poly_reversed(a, k, params)
        out = out + basis * c
    return out


class TestTaylor:
    """The deformed Taylor formula: the derivative rules of the power
    basis make the expansion reconstruct the polynomial exactly."""

    def test_monomial_at_origin(self):
        cs = taylor_expand(Polynomial.monomial(3), F(0), JS, "forward")
        assert cs[3] != 0
        assert all(c == 0 for i, c in enumerate(cs) if i != 3)

    @pytest.mark.parametrize("params", PRESETS)
    @pytest.mark.parametrize("form", ["forward", "reverse"])
    def test_reconstruction(self, params, form):
        rng = random.Random(13)
        f = Polynomial({k: F(rng.randint(-9, 9), rng.randint(1, 7))
                        for k in range(4)})
        a = F(rng.randint(1, 5), rng.randint(1, 4))
        cs = taylor_expand(f, a, params, form)
        assert taylor_reconstruct(cs, a, params, form) == f

    @pytest.mark.parametrize("form", ["forward", "reverse"])
    def test_degree_twelve(self, form):
        rng = random.Random(17)
        f = Polynomial({k: F(rng.randint(-9, 9), rng.randint(1, 7))
                        for k in range(13)})
        a = F(3, 7)
        cs = taylor_expand(f, a, JS, form)
        assert taylor_reconstruct(cs, a, JS, form) == f

    def test_exponential_coefficients(self):
        # expanding the truncated exponential at a: the k-th coefficient
        # times [k]!/lambda^k equals the exponential's own truncation
        from rpqcalc.series import exp_lower
        lam, a, order = F(2, 3), F(1, 4), 12
        e = Polynomial([c * lam ** n
                        for n, c in enumerate(exp_lower(JS, order))])
        cs = taylor_expand(e, a, JS, "forward")
        for k in range(5):
            partial = exp_lower(JS, order - k)
            expected = sum(c * (lam * a) ** i
                           for i, c in enumerate(partial))
            assert cs[k] * rpq_factorial(JS, k) / lam ** k == expected
