"""Series on coefficient lists: derivatives, exponentials, the signed
parts sin and cos, zigzag numbers and the special families."""

import math
from decimal import Decimal
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpqcalc.deform import DeformParams, rpq_factorial, rpq_number
from rpqcalc.errors import InvalidParameterError
from rpqcalc.poly import (Polynomial, rpq_antiderivative_poly,
                          rpq_derivative_poly)
from rpqcalc.series import (_divide, _factorial_coeffs, _sin_cos,
                            exp_lower, exp_upper, generating_polynomials,
                            operator_algebra_check, zigzag_numbers)

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


def scale_arg(f, c):
    """f(c z) for a coefficient list."""
    return [a * c ** n for n, a in enumerate(f)]


class TestDerivative:
    @pytest.mark.parametrize("params", PRESETS)
    def test_monomial_rule(self, params):
        for n in range(1, 65):
            d = rpq_derivative_poly(Polynomial.monomial(n), params)
            assert d == Polynomial.monomial(
                n - 1, rpq_number(params, n))

    def test_constants_die(self):
        assert rpq_derivative_poly(Polynomial.constant(F(5)), JS).is_zero()

    def test_linear_combination(self):
        f = Polynomial({2: F(2), 1: F(1)})
        d = rpq_derivative_poly(f, JS)
        assert d == Polynomial({1: F(3), 0: F(1)})


class TestAntiderivative:
    def test_monomial(self):
        out = rpq_antiderivative_poly(Polynomial.monomial(2), JS)
        assert out == Polynomial.monomial(3, 1 / rpq_number(JS, 3))

    def test_inverts_derivative(self):
        for n in range(1, 12):
            f = Polynomial.monomial(n)
            assert rpq_antiderivative_poly(
                rpq_derivative_poly(f, JS), JS) == f

    def test_constant_integrates_to_z(self):
        assert rpq_antiderivative_poly(Polynomial.constant(F(1)), JS) == \
            Polynomial.monomial(1)

    @pytest.mark.parametrize("params", PRESETS)
    def test_two_sided_identities(self, params):
        f = Polynomial({3: F(2), 1: F(5), 0: F(7)})
        assert rpq_derivative_poly(
            rpq_antiderivative_poly(f, params), params) == f
        no_const = Polynomial({3: F(2), 1: F(5)})
        assert rpq_antiderivative_poly(
            rpq_derivative_poly(no_const, params), params) == no_const


class TestExponentials:
    def test_unit_constant_terms(self):
        assert exp_lower(JS, 4)[0] == 1
        assert exp_upper(JS, 4)[0] == 1

    def test_quadratic_coefficients(self):
        assert exp_lower(JS, 2)[2] == F(2, 3)
        assert exp_upper(JS, 2)[2] == F(1, 3)

    @pytest.mark.parametrize("params", PRESETS)
    def test_derivative_shifts_argument(self, params):
        # the spectral derivative of a series: slot n gets c_(n+1) [n+1]
        derivative = lambda c: [c[n + 1] * rpq_number(params, n + 1)
                                for n in range(len(c) - 1)]
        lam = F(2, 3)
        for exp, xi in ((exp_lower, params.xi1), (exp_upper, params.xi2)):
            lhs = derivative(scale_arg(exp(params, 12), lam))
            rhs = [lam * c for c in scale_arg(exp(params, 11), lam * xi)]
            assert lhs == rhs

    @pytest.mark.parametrize("params", PRESETS)
    def test_product_inverse_pair(self, params):
        e = exp_lower(params, 10)
        E = exp_upper(params, 10)
        assert reference_mul(scale_arg(E, -1), e) == [1] + [0] * 10

    def test_classical_limit_is_plain_exponential(self):
        e = exp_lower(CL, 8)
        for n in range(9):
            assert e[n] == F(1, math.factorial(n))


class TestTrig:
    """The signed parts of e(z) whose quotient gives the zigzag numbers."""

    def test_cos_constant(self):
        assert _sin_cos(exp_lower(JS, 6))[1][0] == 1
        assert _sin_cos(exp_upper(JS, 6))[1][0] == 1

    @pytest.mark.parametrize("exp", [exp_lower, exp_upper],
                             ids=["cos-lower", "COS-upper"])
    def test_even_odd_split(self, exp):
        base = exp(JS, 10)
        sin, cos = _sin_cos(base)
        for n in range(11):
            if n % 2 == 0:
                assert cos[n] == (-1) ** (n // 2) * base[n]
                assert sin[n] == 0
            else:
                assert sin[n] == (-1) ** ((n - 1) // 2) * base[n]
                assert cos[n] == 0

    def test_classical_tangent(self):
        sin, cos = _sin_cos(exp_lower(CL, 7))
        t = _divide(sin, cos)
        assert t[1] == 1
        assert t[3] == F(1, 3)
        assert t[5] == F(2, 15)
        assert t[7] == F(17, 315)


class TestZigzag:
    def test_classical_values(self):
        expected = [alternating_permutation_count(n) for n in range(8)]
        assert zigzag_numbers(CL, 8) == expected
        assert expected == [1, 1, 1, 2, 5, 16, 61, 272]

    def test_leading_entry(self):
        for params in PRESETS:
            assert zigzag_numbers(params, 1)[0] == 1

    def test_deformed_matches_series_division(self):
        assert zigzag_numbers(JS, 8) == oracle_zigzag(JS, 8)


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

    def test_scalar_shift(self):
        # at x = 0 the families are their kernels: z/(e(z)-1) inverts
        # (e(z) - 1)/z, and [2]/(e(z)+1) times e(z) + 1 is [2]
        for params in PRESETS:
            e = exp_lower(params, 7)
            kernel = lambda family: [
                c / rpq_factorial(params, n) for n, c in
                enumerate(generating_polynomials(params, family, 0, 6))]
            assert reference_mul(kernel("bernoulli"), e[1:]) == [1] + [0] * 6
            two = rpq_number(params, 2)
            assert reference_mul(kernel("euler"), [e[0] + 1] + e[1:]) == \
                [two] + [0] * 6

    @pytest.mark.parametrize("make", [
        lambda: generating_polynomials(JS, "bernoulli", 0.5, 3),
        lambda: generating_polynomials(JS, "euler", Decimal("0.5"), 3),
        lambda: generating_polynomials(JS, "genocchi", "1/2", 3),
        lambda: generating_polynomials(JS, "bernoulli", 0.0, 0),
        lambda: generating_polynomials(CL, "euler", 1.0, 5),
        lambda: generating_polynomials(CL, "genocchi", complex(2), 5),
        lambda: generating_polynomials(JS, "euler", None, 3),
    ])
    def test_non_rational_coefficients_refused(self, make):
        # x enters every coefficient of e(xz): only int and Fraction
        with pytest.raises(InvalidParameterError,
                           match="x must be an int or Fraction; got "):
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
                       match="polynomial coefficient must be an int or "
                             "Fraction; got "):
        make()


def term_sum(xs, ys):
    """The term-by-term sum the convolutions used to take."""
    acc = F(0)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def reference_mul(a, b):
    n = min(len(a), len(b))
    return [term_sum(a[:k + 1], b[k::-1]) for k in range(n)]


def reference_inverse(b):
    out = [F(1) / b[0]]
    for n in range(1, len(b)):
        out.append(-term_sum(out, b[n:0:-1]) / b[0])
    return out


scalars = st.one_of(st.integers(-10**6, 10**6),
                    st.builds(F, st.integers(-10**6, 10**6),
                              st.integers(1, 10**4)))


zero_heavy = st.one_of(st.just(0), st.just(F(0)), scalars)


class TestDivide:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(zero_heavy, max_size=12),
           st.lists(zero_heavy, max_size=11),
           scalars.filter(bool))
    @example([1, 3, 2], [2], 1)                  # int only
    @example([2, 1], [2, 5, 7], 3)               # a shorter than b
    @example([1, 1, 0, -F(1, 6), 0, F(1, 120)],  # 1 + sin over cos
             [0, -F(1, 2), 0, F(1, 24), 0], 1)
    def test_matches_reference_loops(self, a, tail, b0):
        # the quotient truncates to the shorter list, equals the product
        # with the inverse taken term by term, stays exact (integer
        # coefficients never divide into floats) and times b gives a
        b = [b0] + tail
        got = _divide(a, b)
        assert got == reference_mul(a, reference_inverse(b))
        assert len(got) == min(len(a), len(b))
        assert all(type(c) in (int, F) for c in got)
        assert reference_mul(got, b) == a[:len(got)]


# -- the series arithmetic the families were first written in -------------

class OracleSeries:
    """Truncated series with the arithmetic the families and the zigzag
    numbers were first read off with: a constant adds to slot 0,
    products truncate to the smaller order and sum term by term."""

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        if not isinstance(other, OracleSeries):
            return OracleSeries([self.coeffs[0] + other] + self.coeffs[1:])
        n = min(self.order, other.order)
        return OracleSeries([self.coeffs[k] + other.coeffs[k]
                             for k in range(n + 1)])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, OracleSeries):
            return OracleSeries([c * other for c in self.coeffs])
        return OracleSeries(reference_mul(self.coeffs, other.coeffs))

    def inverse(self):
        return OracleSeries(reference_inverse(self.coeffs))

    def scale_arg(self, c):
        return OracleSeries([a * c ** n for n, a in enumerate(self.coeffs)])

    def shift_down(self):
        assert self.coeffs[0] == 0 and self.order > 0
        return OracleSeries(self.coeffs[1:])

    def signed_part(self, parity):
        """The even (0) or odd (1) part, with (-1)^k at degree 2k + parity."""
        return OracleSeries([
            (-1) ** (n // 2) * c if n % 2 == parity else F(0)
            for n, c in enumerate(self.coeffs)])


def oracle_exp(params, order):
    return OracleSeries([params.xi1 ** math.comb(n, 2)
                         / rpq_factorial(params, n)
                         for n in range(order + 1)])


def oracle_families(params, family, x, order):
    e = oracle_exp(params, order + 1)
    if family == "bernoulli":
        kernel = (e - 1).shift_down().inverse()
    else:
        kernel = (e + 1).inverse() * rpq_number(params, 2)
    coeffs = (kernel * e.scale_arg(x)).coeffs[:order + 1]
    if family == "genocchi":
        coeffs = [F(0)] + coeffs[:order]
    return [c * rpq_factorial(params, n) for n, c in enumerate(coeffs)]


def oracle_zigzag(params, count):
    e = oracle_exp(params, count - 1)
    sin, cos = e.signed_part(1), e.signed_part(0)
    f = cos.inverse() + sin * cos.inverse()        # sec + tan
    return [c * rpq_factorial(params, n) for n, c in enumerate(f.coeffs)]


ORACLE_PRESETS = [
    DeformParams.preset("jagannathan_srinivasa", p=F(9, 10), q=F(1, 3)),
    DeformParams.preset("heine", q=F(1, 2)),
    DeformParams.preset("quesne", q=F(1, 2)),
    DeformParams.preset("biedenharn_macfarlane", q=F(1, 2)),
    CL,
]


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(ORACLE_PRESETS),
           st.sampled_from(("bernoulli", "euler", "genocchi")),
           st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
           st.integers(0, 24))
    @example(CL, "euler", F(0), 24)
    def test_families(self, params, family, x, order):
        assert generating_polynomials(params, family, x, order) == \
            oracle_families(params, family, x, order)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(ORACLE_PRESETS), st.integers(1, 25))
    def test_zigzag(self, params, count):
        assert zigzag_numbers(params, count) == oracle_zigzag(params, count)
