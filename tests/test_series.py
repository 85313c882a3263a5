"""Formal series: derivatives, exponentials, trig, special families."""

import math
import operator
from decimal import Decimal
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpqcalc.deform import DeformParams, rpq_factorial, rpq_number
from rpqcalc.errors import InvalidParameterError, PoleAtOriginError
from rpqcalc.poly import Polynomial, rpq_antiderivative_poly
from rpqcalc.series import (FormalSeries, _dot, _factorial_coeffs,
                            exp_lower, exp_upper, generating_polynomials,
                            operator_algebra_check, rpq_derivative,
                            trig_series, zigzag_numbers)

JS = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
CL = DeformParams.preset("classical", p=1, q=1)
PRESETS = [
    JS,
    DeformParams.preset("heine", q=F(1, 2)),
    DeformParams.preset("biedenharn_macfarlane", q=F(1, 2)),
    DeformParams.preset("jagannathan_srinivasa", p=F(9, 10), q=F(1, 3)),
    DeformParams.preset("quesne", q=F(1, 2)),
]


def classical_bernoulli(count):
    """Independent oracle: recursive generating-function inversion."""
    B = [F(1)]
    for n in range(1, count):
        s = sum(math.comb(n + 1, k) * B[k] for k in range(n))
        B.append(-s / F(n + 1))
    return B


def alternating_permutation_count(n):
    """Independent oracle: brute-force count of zigzag arrangements."""
    if n == 0:
        return 1
    count = 0
    for perm in permutations(range(n)):
        if all((perm[i] < perm[i + 1]) == (i % 2 == 0)
               for i in range(n - 1)):
            count += 1
    return count


class TestDerivative:
    @pytest.mark.parametrize("params", PRESETS)
    def test_monomial_rule(self, params):
        for n in range(1, 65):
            d = rpq_derivative(Polynomial.monomial(n), params)
            assert d == Polynomial.monomial(
                n - 1, rpq_number(params, n))

    def test_constants_die(self):
        assert rpq_derivative(Polynomial.constant(F(5)), JS).is_zero()

    def test_linear_combination(self):
        f = Polynomial({2: F(2), 1: F(1)})
        d = rpq_derivative(f, JS)
        assert d == Polynomial({1: F(3), 0: F(1)})

    def test_series_order_drops(self):
        s = FormalSeries([F(1), F(2), F(3)])
        d = rpq_derivative(s, JS)
        assert d.order == 1
        assert d.coefficient(0) == F(2) * rpq_number(JS, 1)


class TestAntiderivative:
    def test_monomial(self):
        out = rpq_antiderivative_poly(Polynomial.monomial(2), JS)
        assert out == Polynomial.monomial(3, 1 / rpq_number(JS, 3))

    def test_inverts_derivative(self):
        for n in range(1, 12):
            f = Polynomial.monomial(n)
            assert rpq_antiderivative_poly(rpq_derivative(f, JS), JS) == f

    def test_constant_integrates_to_z(self):
        assert rpq_antiderivative_poly(Polynomial.constant(F(1)), JS) == \
            Polynomial.monomial(1)

    @pytest.mark.parametrize("params", PRESETS)
    def test_two_sided_identities(self, params):
        f = Polynomial({3: F(2), 1: F(5), 0: F(7)})
        assert rpq_derivative(rpq_antiderivative_poly(f, params), params) == f
        no_const = Polynomial({3: F(2), 1: F(5)})
        assert rpq_antiderivative_poly(
            rpq_derivative(no_const, params), params) == no_const


class TestExponentials:
    def test_unit_constant_terms(self):
        assert exp_lower(JS, 4).coefficient(0) == 1
        assert exp_upper(JS, 4).coefficient(0) == 1

    def test_quadratic_coefficients(self):
        assert exp_lower(JS, 2).coefficient(2) == F(2, 3)
        shifted = DeformParams.preset("jagannathan_srinivasa", p=1,
                                      q=F(1, 2), xi1=F(1), xi2=F(1, 2))
        assert exp_upper(shifted, 2).coefficient(2) == F(1, 3)

    @pytest.mark.parametrize("params", PRESETS)
    def test_derivative_shifts_argument(self, params):
        lam = F(2, 3)
        lhs = rpq_derivative(exp_lower(params, 12).scale_arg(lam), params)
        rhs = exp_lower(params, 11).scale_arg(lam * params.xi1) * lam
        assert lhs == rhs
        lhs_u = rpq_derivative(exp_upper(params, 12).scale_arg(lam),
                               params)
        rhs_u = exp_upper(params, 11).scale_arg(lam * params.xi2) * lam
        assert lhs_u == rhs_u

    @pytest.mark.parametrize("params", PRESETS)
    def test_product_inverse_pair(self, params):
        e = exp_lower(params, 10)
        E = exp_upper(params, 10)
        prod = E.scale_arg(F(-1)) * e
        assert prod.coefficient(0) == 1
        assert all(prod.coefficient(n) == 0 for n in range(1, 11))

    def test_classical_limit_is_plain_exponential(self):
        e = exp_lower(CL, 8)
        for n in range(9):
            assert e.coefficient(n) == F(1, math.factorial(n))


class TestTrig:
    def test_cos_constant(self):
        assert trig_series(JS, "cos", 6).coefficient(0) == 1
        assert trig_series(JS, "COS", 6).coefficient(0) == 1

    @pytest.mark.parametrize("which,family", [("cos", "lower"),
                                              ("COS", "upper")])
    def test_even_odd_split(self, which, family):
        base = exp_lower(JS, 10) if family == "lower" \
            else exp_upper(JS, 10)
        cos = trig_series(JS, which, 10)
        sin = trig_series(JS, which.replace("COS", "SIN").replace(
            "cos", "sin"), 10)
        for n in range(11):
            if n % 2 == 0:
                assert cos.coefficient(n) == \
                    (-1) ** (n // 2) * base.coefficient(n)
                assert sin.coefficient(n) == 0
            else:
                assert sin.coefficient(n) == \
                    (-1) ** ((n - 1) // 2) * base.coefficient(n)
                assert cos.coefficient(n) == 0

    def test_hyperbolic_unsigned(self):
        cosh = trig_series(JS, "cosh", 8)
        e = exp_lower(JS, 8)
        for n in range(0, 9, 2):
            assert cosh.coefficient(n) == e.coefficient(n)

    def test_classical_tangent(self):
        t = trig_series(CL, "tan", 7)
        assert t.coefficient(1) == 1
        assert t.coefficient(3) == F(1, 3)
        assert t.coefficient(5) == F(2, 15)
        assert t.coefficient(7) == F(17, 315)

    def test_pole_needs_laurent(self):
        with pytest.raises(PoleAtOriginError):
            trig_series(JS, "csc", 6)
        with pytest.raises(PoleAtOriginError):
            trig_series(JS, "coth", 6)

    def test_laurent_csc(self):
        csc = trig_series(CL, "csc", 6, laurent=True)
        assert csc.pole_order == 1
        assert csc.coefficient(0) == 1       # 1/z coefficient
        assert csc.coefficient(2) == F(1, 6)

    def test_tanh_times_cosh_is_sinh(self):
        tanh = trig_series(JS, "tanh", 9)
        cosh = trig_series(JS, "cosh", 9)
        assert tanh * cosh == trig_series(JS, "sinh", 9)

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            trig_series(JS, "cot", 5)


class TestZigzag:
    def test_classical_values(self):
        expected = [alternating_permutation_count(n) for n in range(8)]
        assert zigzag_numbers(CL, 8) == expected
        assert expected == [1, 1, 1, 2, 5, 16, 61, 272]

    def test_leading_entry(self):
        for params in PRESETS:
            assert zigzag_numbers(params, 1)[0] == 1

    def test_deformed_matches_series_division(self):
        count = 8
        f = trig_series(JS, "sec", count - 1) \
            + trig_series(JS, "tan", count - 1)
        expected = [f.coefficient(n) * rpq_factorial(JS, n)
                    for n in range(count)]
        assert zigzag_numbers(JS, count) == expected


class TestGeneratingFamilies:
    def test_classical_bernoulli(self):
        vals = generating_polynomials(CL, "bernoulli", F(0), 8)
        assert vals == classical_bernoulli(9)

    def test_classical_euler_numbers(self):
        # E_n(0) values of the classical Euler polynomials
        vals = generating_polynomials(CL, "euler", F(0), 6)
        assert vals == [F(1), F(-1, 2), F(0), F(1, 4), F(0), F(-1, 2),
                        F(0)]

    def test_genocchi_starts_at_zero(self):
        for params in (CL, JS):
            assert generating_polynomials(
                params, "genocchi", F(0), 5)[0] == 0

    @pytest.mark.parametrize("params", PRESETS)
    def test_genocchi_euler_link(self, params):
        G = generating_polynomials(params, "genocchi", F(0), 17)
        E = generating_polynomials(params, "euler", F(0), 16)
        for n in range(17):
            assert G[n] == (rpq_number(params, n) * E[n - 1] if n
                            else 0)

    def test_upper_convention_differs(self):
        lo = generating_polynomials(JS, "euler", F(0), 6, "lower")
        up = generating_polynomials(JS, "euler", F(0), 6, "upper")
        assert lo != up

    def test_argument_shift_classical(self):
        # B_n(1) - B_n(0) = n 0^(n-1) classically: differs only at n=1
        b0 = generating_polynomials(CL, "bernoulli", F(0), 6)
        b1 = generating_polynomials(CL, "bernoulli", F(1), 6)
        assert b1[0] == b0[0]
        assert b1[1] - b0[1] == 1
        assert b1[2:] == b0[2:]

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            generating_polynomials(JS, "tangent", F(0), 4)

    def test_euler_star_family(self):
        # [2]/(e(z) + e(-z)) = ([2]/2) sech, classically the sech
        # numbers: 1, 0, -1, 0, 5, 0, -61
        star = _factorial_coeffs(trig_series(CL, "sech", 6), CL)
        assert star == [F(1), F(0), F(-1), F(0), F(5), F(0), F(-61)]


class TestOperatorAlgebra:
    def test_monomial_spectrum(self):
        rep = operator_algebra_check(JS, 8)
        assert rep.passed

    def test_raising_on_square(self):
        rep = operator_algebra_check(JS, 2)
        by_name = {r.name: r for r in rep.results}
        key = "AA+ z^2 = [3] z^2"
        assert by_name[key].lhs == F(7, 4)

    @pytest.mark.parametrize("params", PRESETS)
    def test_all_presets(self, params):
        assert operator_algebra_check(params, 6).passed


class TestSeriesProtocol:
    def test_normalization_conversion(self):
        # slot n of e(z) in factorial normalisation is xi1^C(n,2)
        for params in PRESETS:
            got = _factorial_coeffs(exp_lower(params, 6), params)
            assert got == [params.xi1 ** math.comb(n, 2) for n in range(7)]

    def test_mixed_pole_orders_rejected(self):
        csc = trig_series(JS, "csc", 6, laurent=True)
        for op in (operator.add, operator.sub):
            with pytest.raises(InvalidParameterError):
                op(csc, exp_lower(JS, 6))

    def test_laurent_products_add_pole_orders(self):
        csc = trig_series(JS, "csc", 6, laurent=True)
        e = exp_lower(JS, 6)
        prod = csc * e
        assert prod.pole_order == 1
        assert prod.coeffs == [
            sum(csc.coeffs[j] * e.coeffs[k - j] for j in range(k + 1))
            for k in range(7)]
        assert (e * csc).coeffs == prod.coeffs
        one = csc.inverse() * csc
        assert one.pole_order == 0
        assert one.coeffs == [1] + [0] * 6

    def test_scalar_shift(self):
        e = exp_lower(JS, 6)
        assert (e - 1).coeffs == [F(0)] + e.coeffs[1:]
        assert (e + 1).coeffs == [F(2)] + e.coeffs[1:]
        assert (1 - e).coeffs == [-c for c in (e - 1).coeffs]

    @pytest.mark.parametrize("make", [
        lambda: FormalSeries([0.5]),
        lambda: FormalSeries([1, Decimal("0.5")]),
        lambda: FormalSeries([F(1), "1/2"]),
        lambda: FormalSeries([1]) * 0.5,
        lambda: FormalSeries([1]) + 0.5,
        lambda: FormalSeries([1]) / 2.0,
        lambda: exp_lower(JS, 3).scale_arg(0.5),
    ])
    def test_non_rational_coefficients_refused(self, make):
        with pytest.raises(InvalidParameterError,
                           match="series coefficients must be int or "
                                 "Fraction; got "):
            make()


@pytest.mark.parametrize("make", [
    lambda: Polynomial([0.5, 1]),
    lambda: Polynomial({2: Decimal("0.5")}),
    lambda: Polynomial([F(1), "1/2"]),
    lambda: Polynomial.constant(0.0),
    lambda: Polynomial.monomial(1) * 0.5,
    lambda: Polynomial.monomial(1) + 0.5,
    lambda: Polynomial.monomial(2).scale_arg(0.5),
], ids=["float", "Decimal", "str", "float_zero", "mul", "add", "scale_arg"])
def test_non_rational_polynomial_coefficients_refused(make):
    # only int and Fraction: a float would carry its binary expansion
    with pytest.raises(InvalidParameterError,
                       match="polynomial coefficients must be int or "
                             "Fraction; got "):
        make()


def term_sum(xs, ys):
    """The term-by-term sum the convolutions used to take."""
    acc = F(0)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def reference_mul(a, b):
    n = min(a.order, b.order)
    return [term_sum(a.coeffs[:k + 1], b.coeffs[k::-1]) for k in range(n + 1)]


def reference_inverse(s):
    b0 = s.coeffs[0]
    out = [F(1) / b0]
    for n in range(1, s.order + 1):
        out.append(-term_sum(out, s.coeffs[n:0:-1]) / b0)
    return out


scalars = st.one_of(st.integers(-10**6, 10**6),
                    st.builds(F, st.integers(-10**6, 10**6),
                              st.integers(1, 10**4)))


class TestDot:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(scalars, scalars), max_size=12))
    def test_matches_term_sum(self, pairs):
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        got = _dot(xs, ys)
        assert got == term_sum(xs, ys)
        assert type(got) is F

    def test_empty_and_int(self):
        assert _dot([], []) == 0 and type(_dot([], [])) is F
        got = _dot([2, -3], [5, 7])
        assert got == -11 and type(got) is F

    @settings(max_examples=40, deadline=None)
    @given(st.lists(scalars, min_size=1, max_size=10),
           st.lists(scalars, min_size=1, max_size=10))
    @example([1, 3, 2], [1, 2])
    @example([2, 1], [3, 2])
    def test_mul_and_inverse(self, a, b):
        # integer coefficients divide exactly, never into floats
        exact = lambda s: all(type(c) in (int, F) for c in s.coeffs)
        sa, sb = FormalSeries(a), FormalSeries(b)
        assert (sa * sb).coeffs == reference_mul(sa, sb)
        assert exact(sa * sb)
        if a[0] != 0:
            inv = sa.inverse()
            assert inv.coeffs == reference_inverse(sa) and exact(inv)
            for quot, divisor in ((sb / sa, sa), (sb / a[0], a[0])):
                assert exact(quot) and quot * divisor == sb
