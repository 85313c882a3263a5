"""Truncated p-adic arithmetic, and the rational valuation oracle."""

import math
import operator
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (padic_tuple, padic_valuation, residue_exp, residue_log,
                     tuple_add, tuple_mul, tuple_neg, tuple_pow,
                     tuple_residue, tuple_view, tuple_with_precision)
from rpqcalc.errors import (ConvergenceDomainError, InvalidParameterError,
                            PrecisionError, RpqError)
from rpqcalc.padic import PadicNumber, is_prime, padic_power


def factor_valuation(n: int, p: int) -> int:
    """Independent oracle: count factors of p by explicit factorization."""
    v = 0
    n = abs(n)
    while n and n % p == 0:
        n //= p
        v += 1
    return v


class TestValuation:
    def test_integer_powers(self):
        assert padic_valuation(F(8), 2) == 3
        assert padic_valuation(F(8), 2) == factor_valuation(8, 2)

    def test_unit(self):
        assert padic_valuation(F(1), 5) == 0

    def test_prime_itself(self):
        assert padic_valuation(F(5), 5) == 1
        assert PadicNumber.from_rational(5, 5, 8).valuation == 1

    def test_zero_is_infinite(self):
        assert padic_valuation(F(0), 7) == math.inf

    def test_rational_mixed(self):
        assert padic_valuation(F(50, 3), 5) == 2
        assert padic_valuation(F(3, 50), 5) == -2

    def test_nonprime_rejected(self):
        with pytest.raises(InvalidParameterError):
            padic_valuation(F(1), 6)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_matches_factorization(self, n):
        assert padic_valuation(F(n), 3) == factor_valuation(n, 3)


class TestNorm:
    """|x|_p = p^(-v(x)), and 0 at 0: the element's valuation and
    zero test are what the norm is read from."""

    def test_positive_valuation(self):
        x = PadicNumber.from_rational(9, 3, 8)
        assert x.valuation == 2 and not x.is_unit()

    def test_zero(self):
        z = PadicNumber.zero(3, 8)
        assert z.is_zero() and not z.is_unit()

    def test_unit(self):
        x = PadicNumber.from_rational(F(2, 7), 3, 8)
        assert x.valuation == 0 and x.is_unit()


class TestArithmetic:
    def test_doubling_gains_valuation_at_two(self):
        x = PadicNumber.from_rational(3, 2, 10)
        assert (x + x).valuation >= x.valuation + 1

    def test_exact_integer_product(self):
        one_plus = PadicNumber.from_rational(6, 5, 12)
        one_minus = PadicNumber.from_rational(-4, 5, 12)
        assert one_plus * one_minus == PadicNumber.from_rational(-24, 5, 12)

    def test_mixed_primes_rejected(self):
        x = PadicNumber.from_rational(1, 3, 8)
        y = PadicNumber.from_rational(1, 5, 8)
        with pytest.raises(InvalidParameterError):
            _ = x + y

    def test_division_roundtrip(self):
        x = PadicNumber.from_rational(F(7, 3), 5, 10)
        y = PadicNumber.from_rational(F(11, 4), 5, 10)
        assert (x / y) * y == x

    def test_integer_pow(self):
        x = PadicNumber.from_rational(F(2, 3), 7, 10)
        assert x ** 5 == x * x * x * x * x
        assert x ** 0 == 1
        assert x ** -2 == 1 / (x * x)

    @pytest.mark.parametrize("bad", [0.1, "1/3", True],
                             ids=["float", "str", "bool"])
    def test_embedding_takes_only_rationals(self, bad):
        # 0.1 would embed the binary float, of valuation 0, not 1/10
        with pytest.raises(InvalidParameterError,
                           match=f"int or Fraction; got "
                                 f"{type(bad).__name__}"):
            PadicNumber.from_rational(bad, 5, 4)

    def test_rational_embedding_resums(self):
        # digits of a/b with p not dividing b re-sum to a/b mod p^N
        x = PadicNumber.from_rational(F(22, 7), 5, 9)
        acc = 0
        for i, d in enumerate(x.digits):
            acc += d * 5 ** i
        resummed = acc * 5 ** x.valuation
        assert (F(22, 7) - resummed) % (5 ** x.absolute_precision) == 0 \
            or padic_valuation(F(22, 7) - resummed, 5) \
            >= x.absolute_precision


small_rationals = st.fractions(
    min_value=F(-50), max_value=F(50),
    max_denominator=40).filter(lambda f: f.denominator % 5 != 0)


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals)
def test_ultrametric_and_multiplicativity(a, b):
    x = PadicNumber.from_rational(a, 5, 14)
    y = PadicNumber.from_rational(b, 5, 14)
    s = x + y
    if not (x.is_zero() or y.is_zero() or s.is_zero()):
        # |x + y| <= max(|x|, |y|) and |xy| = |x||y|, in valuations
        assert s.valuation >= min(x.valuation, y.valuation)
        assert (x * y).valuation == x.valuation + y.valuation


@settings(max_examples=40, deadline=None)
@given(small_rationals, small_rationals, small_rationals)
def test_ring_laws_to_precision(a, b, c):
    x = PadicNumber.from_rational(a, 5, 14)
    y = PadicNumber.from_rational(b, 5, 14)
    z = PadicNumber.from_rational(c, 5, 14)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def _operands(p):
    """Embedded rationals of valuation -3..5 at 1-20 digits, zeros
    O(p^k) for k in -3..20, and the zeros cancellation leaves."""
    rational = st.builds(
        lambda a, k, prec: PadicNumber.from_rational(a * F(p) ** k, p, prec),
        st.fractions(min_value=-50, max_value=50, max_denominator=40)
        .filter(lambda f: f.denominator % p), st.integers(-3, 5),
        st.integers(1, 20))
    zero = st.builds(PadicNumber.zero, st.just(p), st.integers(-3, 20))
    cancelled = st.one_of(rational.map(lambda x: x - x),
                          st.builds(operator.mul, rational, zero))
    return st.one_of(rational, zero, cancelled)


@st.composite
def operand_pairs(draw):
    """Two operands at one prime; now and then y = p^j - x, whose sum
    with x cancels its leading digits."""
    p = draw(st.sampled_from([3, 5, 7]))
    x = draw(_operands(p))
    near = st.builds(lambda j, prec: PadicNumber.from_rational(
        F(p) ** j, p, prec) - x, st.integers(-3, 25), st.integers(1, 20))
    return x, draw(st.one_of(_operands(p), near))


def _outcome(f, *args):
    """f(*args) seen as (valuation, unit, precision, absolute precision),
    an int, or the PrecisionError it raises."""
    try:
        out = f(*args)
    except PrecisionError:
        return PrecisionError
    if isinstance(out, PadicNumber):
        out = padic_tuple(out)
    return tuple_view(out) if isinstance(out, tuple) else out


@settings(max_examples=150, deadline=None)
@given(operand_pairs(), st.integers(0, 5), st.integers(0, 24))
def test_one_rule_matches_the_case_by_case_rules(pair, n, k):
    # the class's single formulas against tests/oracles.py's branches,
    # zero operands and cancelled results included
    x, y = pair
    a, b = padic_tuple(x), padic_tuple(y)
    assert _outcome(operator.add, x, y) == _outcome(tuple_add, a, b)
    assert _outcome(operator.sub, x, y) == \
        _outcome(tuple_add, a, tuple_neg(b))
    assert _outcome(operator.neg, x) == _outcome(tuple_neg, a)
    assert _outcome(operator.mul, x, y) == _outcome(tuple_mul, a, b)
    assert _outcome(operator.pow, x, n) == _outcome(tuple_pow, a, n)
    assert _outcome(x.with_precision, k) == \
        _outcome(tuple_with_precision, a, k)
    assert _outcome(x.residue, k) == _outcome(tuple_residue, a, k)


class TestPrecisionRule:
    """unit * p^val is known modulo p^(val + prec) for every value."""

    def test_vanishing_unit_keeps_val_plus_prec(self):
        x = PadicNumber(5, 2, 0, 3)
        assert x.is_zero() and x.absolute_precision == 5
        # as a unit that cancels mod p^prec, 250 = 2 * 5^3, already did
        assert PadicNumber(5, 2, 250, 3).absolute_precision == 5

    def test_all_zero_digits_read_as_zero_mod_val_plus_prec(self):
        x = PadicNumber.from_json({"prime": 5, "valuation": 1,
                                   "precision": 3, "digits": [0, 0, 0]})
        assert x.is_zero() and x.absolute_precision == 4

    @pytest.mark.parametrize("unit,prec", [(1, 0), (0, -1), (3, -2)])
    def test_negative_or_empty_precision_refused(self, unit, prec):
        with pytest.raises(PrecisionError):
            PadicNumber(5, 0, unit, prec)

    def test_negative_residue_refused(self):
        # p ** k is a float for k < 0, and so was the residue
        with pytest.raises(PrecisionError, match="k >= 0; got -1"):
            PadicNumber.from_rational(7, 5, 3).residue(-1)


@st.composite
def exact_operand_cases(draw):
    """A prime, a value x with valuation -5..60 and 1-60 digits (a zero
    now and then), and an exact int or Fraction r (0 included) whose
    valuation ranges about as widely."""
    p = draw(st.sampled_from([3, 5, 7]))
    val, prec = draw(st.integers(-5, 60)), draw(st.integers(1, 60))
    x = draw(st.one_of(
        st.integers(0, p ** prec - 1).map(
            lambda unit: PadicNumber(p, val, unit, prec)),
        st.just(PadicNumber.zero(p, val + prec))))
    unit = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                          st.fractions(max_denominator=10 ** 6)))
    r = unit * F(p) ** draw(st.integers(-5, 70))
    return x, r.numerator if r.denominator == 1 and draw(st.booleans()) \
        else r


@settings(max_examples=300, deadline=None)
@given(exact_operand_cases())
@example((PadicNumber(5, 40, 7, 16), 1))
@example((PadicNumber.zero(5, 50), 0))
def test_exact_operands_never_limit_a_result(case):
    """An int or a Fraction is exact: a sum keeps x's absolute
    precision, a product or quotient x's relative precision, and each
    equals the result with r embedded to ample precision."""
    x, r = case
    p = x.prime
    sums = (x + r, x - r, r - x)
    assert [s.absolute_precision for s in sums] == [x.absolute_precision] * 3
    if r:
        big = PadicNumber.from_rational(r, p, 200)  # more than x has
        assert [repr(s) for s in sums] == \
            [repr(x + big), repr(x - big), repr(big - x)]
        products = [(x * r, x * big), (x / r, x / big)]
        if not x.is_zero():
            products.append((r / x, big / x))
        for got, want in products:
            assert got.precision == x.precision
            assert repr(got) == repr(want)
    else:
        assert repr(x + r) == repr(x) and (x * r).is_zero()
        with pytest.raises(ZeroDivisionError):
            x / r
    one = x ** 0
    assert one == 1 and one.valuation == 0
    assert one.precision == (x.precision or max(x.absolute_precision, 1))


class TestExpLog:
    def test_exp_zero(self):
        assert PadicNumber.zero(5, 10).exp() == 1

    def test_log_one(self):
        assert PadicNumber.one(5, 10).log().is_zero()

    def test_exp_additivity(self):
        # both sides checked against the truncated-series oracle too
        e1 = PadicNumber.from_rational(5, 5, 8).exp()
        e2 = PadicNumber.from_rational(10, 5, 8).exp()
        assert e1 * e1 == e2
        oracle = sum(F(5) ** n / math.factorial(n) for n in range(40))
        assert PadicNumber.from_rational(oracle, 5, 8) == e1

    def test_roundtrips(self):
        x = PadicNumber.from_rational(15, 5, 10)
        assert x.exp().log() == x
        u = PadicNumber.from_rational(1 + 5 * 3, 5, 10)
        assert u.log().exp() == u

    def test_exp_domain_error_names_bound(self):
        with pytest.raises(ConvergenceDomainError, match="p"):
            PadicNumber.one(5, 10).exp()

    def test_log_domain_error(self):
        with pytest.raises(ConvergenceDomainError):
            PadicNumber.from_rational(2, 5, 10).log()

    @pytest.mark.parametrize("p, k, bound", [
        (2, 1, "v(x) > 1; got v(x) = 1"),
        (5, 0, "v(x) > 1/4; got v(x) = 0"),
        (5, -1, "v(x) > 1/4; got v(x) = -1"),
    ])
    def test_exp_of_zero_outside_domain_refused(self, p, k, bound):
        # zero mod p^k stands for values of valuation k, outside the
        # domain, so no digit of exp is certified
        with pytest.raises(ConvergenceDomainError, match=re.escape(bound)):
            PadicNumber.zero(p, k).exp()

    def test_log_of_zero_outside_domain_refused(self):
        # zero mod 5^0 - 1 is zero mod 5^0: v(u - 1) >= 0 only
        with pytest.raises(ConvergenceDomainError,
                           match=re.escape("< 1; got v(u - 1) = 0")):
            PadicNumber.zero(5, 0).log()

    def test_power(self):
        q = PadicNumber.from_rational(6, 5, 8)
        assert padic_power(q, 0) == 1
        assert padic_power(q, 1) == q
        assert padic_power(q, 2) == q * q
        x = PadicNumber.from_rational(2, 5, 8)
        assert padic_power(q, x) == q * q
        # an integral Fraction is the exact power, like an int
        for n in (-3, 0, 2):
            assert repr(padic_power(q, F(n))) == repr(q ** n)
            assert repr(padic_power(q, n)) == repr(q ** n)
        for bad in (2.0, 0.5, "2", None):
            with pytest.raises(InvalidParameterError,
                               match=f"exponent .*; got {type(bad).__name__}"):
                padic_power(q, bad)

    def test_power_domain(self):
        q = PadicNumber.from_rational(2, 5, 8)
        with pytest.raises(ConvergenceDomainError):
            padic_power(q, 2)

    def test_power_refusal_names_the_power(self):
        # v(1/5) = -1 and v(log 6) = 1, so x log q has valuation 0
        q = PadicNumber.from_rational(6, 5, 8)
        with pytest.raises(ConvergenceDomainError, match=re.escape(
                "exp requires |x log q|_p < p^(-1/(p-1)), i.e. "
                "v(x log q) > 1/4; got v(x log q) = 0")):
            padic_power(q, F(1, 5))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), k=st.integers(1, 4),
       num=st.integers(-50, 50).filter(bool), den=st.integers(1, 50),
       prec=st.integers(1, 10))
def test_exp_log_match_rational_series(p, k, num, den, prec):
    """exp and log against their rational partial sums, taken far past
    the term counts the library certifies."""
    assume(num % p and den % p)
    x = F(num, den) * p ** k
    px = PadicNumber.from_rational(x, p, prec)
    if k * (p - 1) <= 1:  # p = 2, v(x) = 1: outside the exp domain
        with pytest.raises(ConvergenceDomainError):
            px.exp()
    else:
        oracle = sum(x ** n / math.factorial(n) for n in range(4 * (k + prec)))
        assert px.exp() == PadicNumber.from_rational(oracle, p, k + prec)
    oracle = sum((-1) ** (n - 1) * x ** n / n
                 for n in range(1, 4 * (k + prec)))
    assert (1 + px).log() == PadicNumber.from_rational(oracle, p, k + prec)


@st.composite
def series_arguments(draw):
    """unit * p^val at p in {2, 3, 5, 7, 11}, val in -2..40 and 1-60
    digits; a zero unit gives zero modulo p^(val + digits)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    prec = draw(st.integers(1, 60))
    unit = draw(st.one_of(st.just(0), st.integers(1, p ** prec - 1)))
    return PadicNumber(p, draw(st.integers(-2, 40)), unit, prec)


def _series_outcome(f, x):
    try:
        return repr(f(x))
    except RpqError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(series_arguments())
@example(PadicNumber.zero(2, 1))
@example(PadicNumber.zero(5, 0))
@example(PadicNumber(5, -1, 1, 1))
def test_exp_log_match_the_residue_loops(x):
    """exp of x, and log of x and of 1 + x, give the repr or the error
    class of the residue loops of tests/oracles.py, except where the
    argument is a zero whose certified digits leave the domain open:
    the loops returned a digit there, the series refuse."""
    if x.is_zero() and x.absolute_precision * (x.prime - 1) <= 1:
        assert _series_outcome(PadicNumber.exp, x) is ConvergenceDomainError
    else:
        assert _series_outcome(PadicNumber.exp, x) == \
            _series_outcome(residue_exp, x)
    for u in (x, 1 + x):
        if (u - 1).is_zero() and (u - 1).absolute_precision <= 0:
            assert _series_outcome(PadicNumber.log, u) \
                is ConvergenceDomainError
        else:
            assert _series_outcome(PadicNumber.log, u) == \
                _series_outcome(residue_log, u)


class TestSqrt:
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([3, 7, 11, 13, 17, 41]),
           r=st.integers(1, 10 ** 6), k=st.integers(-2, 2),
           prec=st.integers(1, 12))
    def test_root_squares_back(self, p, r, k, prec):
        """p = 3, 7, 11 take the (p+1)/4 power, p = 13, 17, 41 the
        Tonelli-Shanks loop."""
        assume(r % p)
        x = PadicNumber.from_rational(F(r * r) * F(p) ** (2 * k), p, prec)
        root = x.sqrt()
        assert root.valuation == k and root.precision == prec
        assert root * root == x

    def test_zero(self):
        root = PadicNumber.zero(5, 10).sqrt()
        assert root.is_zero() and root.absolute_precision == 5

    def test_non_residue_refused(self):
        with pytest.raises(ConvergenceDomainError, match="residue"):
            PadicNumber.from_rational(2, 5, 8).sqrt()

    def test_odd_valuation_refused(self):
        with pytest.raises(ConvergenceDomainError, match="odd valuation"):
            PadicNumber.from_rational(F(4, 5), 5, 8).sqrt()

    def test_prime_two_refused(self):
        with pytest.raises(InvalidParameterError):
            PadicNumber.from_rational(9, 2, 8).sqrt()


class TestExternalForms:
    def test_text_form(self):
        x = PadicNumber.from_rational(50, 5, 4)
        text = str(x)
        assert text.startswith("5^2 * (2")
        assert "[4 digits]" in text

    def test_json_roundtrip(self):
        x = PadicNumber.from_rational(F(7, 3), 5, 10)
        assert PadicNumber.from_json(x.to_json()) == x
        obj = x.to_json()
        assert obj["prime"] == 5 and len(obj["digits"]) == 10

    def test_json_zero(self):
        z = PadicNumber.zero(7, 6)
        assert PadicNumber.from_json(z.to_json()).is_zero()


ONE_5 = {"prime": 5, "precision": 3, "valuation": 0, "digits": [1, 0, 0]}
BAD_JSON = {
    "digit_at_prime": (dict(ONE_5, digits=[6, 4, 4]), "digits"),
    "digit_negative": (dict(ONE_5, digits=[1, -1, 0]), "digits"),
    "too_few_digits": (dict(ONE_5, digits=[1, 0]), "digits"),
    "too_many_digits": (dict(ONE_5, digits=[1, 0, 0, 0]), "digits"),
    "bool_digit": (dict(ONE_5, digits=[True, 0, 0]), "digits"),
    "float_digit": (dict(ONE_5, digits=[1.0, 0, 0]), "digits"),
    "digits_not_list": (dict(ONE_5, digits="100"), "digits"),
    "float_zero_mod": ({"prime": 5, "valuation": None, "zero_mod": 1e9},
                       "zero_mod"),
    "negative_zero_mod": ({"prime": 5, "valuation": None, "zero_mod": -1},
                          "zero_mod"),
    "bool_zero_mod": ({"prime": 5, "valuation": None, "zero_mod": True},
                      "zero_mod"),
    "negative_precision": (dict(ONE_5, precision=-3, digits=[]),
                           "precision"),
    "zero_precision": (dict(ONE_5, precision=0, digits=[]), "precision"),
    "bool_precision": (dict(ONE_5, precision=True, digits=[1]),
                       "precision"),
    "float_valuation": (dict(ONE_5, valuation=0.5), "valuation"),
    "bool_valuation": (dict(ONE_5, valuation=False), "valuation"),
    "no_valuation": ({"prime": 5}, "valuation"),
    "no_valuation_key": ({"prime": 5, "precision": 1, "digits": [1]},
                         "valuation"),
    "null_valuation_no_zero_mod": ({"prime": 5, "valuation": None,
                                    "digits": [], "precision": 0},
                                   "zero_mod"),
}


class TestFromJson:
    @pytest.mark.parametrize("case", sorted(BAD_JSON))
    def test_refused_naming_the_field(self, case):
        obj, field = BAD_JSON[case]
        with pytest.raises(InvalidParameterError, match=repr(field)):
            PadicNumber.from_json(obj)

    def test_bool_prime_refused(self):
        with pytest.raises(InvalidParameterError, match="not prime"):
            PadicNumber.from_json(dict(ONE_5, prime=True))

    def test_leading_zero_digit_normalised(self):
        x = PadicNumber.from_json(dict(ONE_5, digits=[0, 1, 0]))
        assert x == PadicNumber.from_rational(5, 5, 3)

    @settings(max_examples=200, deadline=None)
    @given(p=st.sampled_from([2, 3, 5, 7, 101]),
           x=st.fractions(max_denominator=10 ** 6), prec=st.integers(1, 20),
           zero_mod=st.integers(0, 40))
    def test_to_json_survives(self, p, x, prec, zero_mod):
        for value in (PadicNumber.from_rational(x, p, prec),
                      PadicNumber.zero(p, zero_mod)):
            obj = value.to_json()
            assert PadicNumber.from_json(obj).to_json() == obj


def test_is_prime_basics():
    assert is_prime(2) and is_prime(97) and is_prime(2 ** 61 - 1)
    assert not is_prime(1) and not is_prime(91)
