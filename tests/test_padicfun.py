"""p-adic gamma/beta, Volkenborn measure/moments, Carlitz values."""

import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpqcalc import _kernel, padicfun
from rpqcalc.deform import DeformParams
from rpqcalc.errors import ConvergenceDomainError, InvalidParameterError
from rpqcalc.padic import PadicNumber, padic_power
from rpqcalc.padicfun import (ConvergenceReport, TwistParams,
                              carlitz_bernoulli, delta_factor,
                              factorial_decomposition_check,
                              fermionic_integral, gamma_recurrence_check,
                              number_at, padic_beta_rpq, padic_beta_suite,
                              padic_factorial_rpq, padic_gamma_rpq,
                              volkenborn_measure, volkenborn_moment)
from rpqcalc.poly import Polynomial
from rpqcalc.series import generating_polynomials

from oracles import (fermionic_limit, morita_gamma, padic_valuation,
                     twisted_level_sums, untwisted_fermionic_sums,
                     untwisted_level_sums)

TW5 = TwistParams.make(5, 6, 11, precision=12)
TW3 = TwistParams.make(3, 4, 7, precision=12)

MAKERS = {
    "twisted5": lambda: TwistParams.make(5, 6, 11, precision=12),
    "twisted3": lambda: TwistParams.make(3, 4, 7, precision=12),
}


class TestFactorialAndGamma:
    def test_empty_products(self):
        assert padic_factorial_rpq(0, TW5) == 1
        assert padic_factorial_rpq(1, TW5) == 1

    def test_classical_limit_values(self):
        # Morita's Gamma_p, the rho = q = 1 limit, as the oracle has it
        assert morita_gamma(4, 5, 16) == 6
        assert morita_gamma(6, 5, 16) == 24  # j = 5 is skipped
        assert morita_gamma(-1, 5, 16) == 1

    def test_multiples_skipped(self):
        # at p = 5, j = 5 is excluded: product over {1,2,3,4} only
        expected = PadicNumber.one(5, 20)
        for j in (1, 2, 3, 4):
            expected = expected * number_at(TW5, j)
        assert padic_factorial_rpq(6, TW5) == expected

    def test_base_values(self):
        for tw in (TW5, TW3):
            assert padic_gamma_rpq(0, tw) == 1
            assert padic_gamma_rpq(1, tw) == -1

    def test_unit_norm(self):
        for n in (2, 3, 7, 11, 14, 20):
            assert padic_gamma_rpq(n, TW5).valuation == 0

    def test_recurrence(self):
        for tw in (TW5, TW3):
            assert gamma_recurrence_check(tw, 3 * tw.prime).passed

    def test_negative_arguments_via_recurrence(self):
        g = padic_gamma_rpq(-3, TW5)
        walked = padic_gamma_rpq(0, TW5)
        for z in (-1, -2, -3):
            walked = walked / delta_factor(z, TW5)
        assert g == walked


class TestDelta:
    def test_nonunit_branch(self):
        assert delta_factor(5, TW5) == -1
        assert delta_factor(0, TW5) == -1

    def test_unit_branch(self):
        assert delta_factor(1, TW5) == -number_at(TW5, 1)
        assert delta_factor(7, TW5) == -number_at(TW5, 7)


class TestDecomposition:
    @pytest.mark.parametrize("p,rho,q", [(3, 4, 7), (5, 6, 11),
                                         (7, 8, 15)])
    def test_theorems(self, p, rho, q):
        tw = TwistParams.make(p, rho, q, precision=16)
        for n in (3, 7, 12, 19):
            rep = factorial_decomposition_check(n, tw)
            assert rep.passed, [r.name for r in rep.results
                                if not r.passed]

    def test_factorials_embed_the_rational_product(self):
        # [n]! as the running product of number_at equals the embedding
        # of the exact product of (6^k - 11^k)/(6 - 11)
        want = F(1)
        for n, got in enumerate(padicfun._factorials(TW5, 12)):
            if n:
                want *= F(6 ** n - 11 ** n, 6 - 11)
            emb = PadicNumber.from_rational(want, 5, TW5.work_precision)
            assert got == emb and got.precision >= TW5.precision, n

    def test_small_n_degenerates(self):
        # n < p: the quotient part is empty and the check reduces to
        # the plain restricted factorial
        rep = factorial_decomposition_check(2, TW5)
        assert rep.passed


class TestMeasure:
    def test_distribution_relation(self):
        for tw in (TW5, TW3):
            p = tw.prime
            for N in (1, 2):
                for a in (0, p ** N - 1):
                    lhs = volkenborn_measure(a, N, tw)
                    rhs = PadicNumber.zero(p, 50)
                    for i in range(p):
                        rhs = rhs + volkenborn_measure(
                            a + i * p ** N, N + 1, tw)
                    assert (lhs - rhs).is_zero()

    def test_range_check(self):
        with pytest.raises(InvalidParameterError):
            volkenborn_measure(25, 2, TW5)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([3, 5, 7]),
           st.lists(st.tuples(st.integers(min_value=-1, max_value=3),
                              st.fractions(max_denominator=50)),
                    min_size=2, max_size=2))
    def test_strong_bound_required(self, p, offsets):
        # the exp/log domain v(x - 1) > 1/(p - 1) of the Volkenborn
        # operations holds for every twist the constructor accepts
        rho, q = (PadicNumber.from_rational(1 + F(p) ** k * u, p, 12)
                  for k, u in offsets)
        try:
            tw = TwistParams(p, rho, q, 8)
        except InvalidParameterError:
            return
        for x in (tw.rho, tw.q):
            d = x - 1
            assert d.is_zero() or F(d.valuation) > F(1, p - 1)


class TestVolkenbornIntegral:
    def test_constant_total_mass(self):
        # the zeroth moment is the total mass, rho at every level
        rep = volkenborn_moment(0, TW5, 4)
        for v in rep.values:
            assert (v - TW5.rho).is_zero()

    def test_classical_first_moment(self):
        # the untwisted oracle: level N of int x is (5^N - 1)/2, which
        # agrees with the limit B_1 = -1/2 to valuation N
        sums = untwisted_level_sums(F, 5, 6)
        assert [padic_valuation(b - a, 5)
                for a, b in zip(sums, sums[1:])] == [1, 2, 3, 4, 5]
        assert [padic_valuation(s + F(1, 2), 5) for s in sums] == \
            [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("r", range(6), ids="r{}".format)
    @pytest.mark.parametrize("p,rho,q,levels", [(3, 4, 7, 5), (5, 6, 11, 4),
                                                (7, 8, 15, 3)],
                             ids=["p3", "p5", "p7"])
    def test_moment_fast_path_matches_generic(self, p, rho, q, levels, r):
        tw = TwistParams.make(p, rho, q, precision=12)
        mom = volkenborn_moment(r, tw, levels)
        def f(x):
            return ((tw.rho ** x - tw.q ** x) / (tw.rho - tw.q)) ** r
        gen = twisted_level_sums(f, tw, levels)
        assert len(mom.values) == len(gen) == levels
        for a, b in zip(mom.values, gen):
            assert (a - b).is_zero() and repr(a) == repr(b)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_residue_and_padic_paths_agree(self, make, seed):
        # in the oracle, Fraction values take the kernel's residue path,
        # PadicNumber values the running PadicNumber total; the two must
        # agree level by level
        tw = make()
        p, W = tw.prime, tw.work_precision
        rng = random.Random(seed)
        dens = [d for d in range(1, 30) if d % p]
        poly = Polynomial([F(rng.randrange(-50, 50), rng.choice(dens))
                           for _ in range(rng.randrange(1, 6))])
        exact = twisted_level_sums(lambda x: poly(F(x)), tw, 4)
        padic = twisted_level_sums(
            lambda x: PadicNumber.from_rational(poly(F(x)), p, W), tw, 4)
        assert [repr(v) for v in exact] == [repr(v) for v in padic]

    def test_shift_identity_converges(self):
        # q I(f1) - rho I(f) = -rho (rho - q) (f'(0)/(log q - log rho)
        # + f(0)) for f1(x) = f(x + 1); the sign is fixed by the total
        # mass (I(1) = rho at every level)
        f = lambda x: F(x) ** 2 + 2 * x + 3  # f'(0) = 2, f(0) = 3
        rho, q = TW5.rho, TW5.q
        sums = twisted_level_sums(f, TW5, 5)
        sums1 = twisted_level_sums(lambda x: f(x + 1), TW5, 5)
        rhs = -rho * (rho - q) * (2 / (q.log() - rho.log()) + 3)
        agreement = [(q * v1 - rho * v - rhs).valuation
                     for v, v1 in zip(sums, sums1)]
        assert agreement == [1, 2, 3, 4, 5]

    @settings(max_examples=40, deadline=None)
    @given(p=st.sampled_from([3, 5, 7]), r=st.integers(0, 10),
           levels=st.integers(1, 5))
    def test_untwisted_sums_tend_to_bernoulli(self, p, r, levels):
        # the untwisted oracle against the classical Bernoulli numbers of
        # rpqcalc.series: level N of int x^r agrees with B_r to
        # valuation N - 1 at least
        b_r = generating_polynomials(DeformParams.preset("classical"),
                                     "bernoulli", 0, r)[r]
        sums = untwisted_level_sums(lambda x: x ** r, p, levels)
        for N, s in enumerate(sums, 1):
            assert padic_valuation(s - b_r, p) >= N - 1, (N, s, b_r)

    def test_report_json(self):
        rep = volkenborn_moment(1, TW5, 3)
        obj = rep.to_json()
        assert obj["levels"] == [1, 2, 3]
        assert len(obj["values"]) == 3


def bracket_stream(r, rx, qx, rho, q, mod):
    """(rx rho^t - qx q^t)^r modulo mod for t = 0, 1, 2, ...: the
    summands of the moment Riemann sums, term by term."""
    a = b = 1
    while True:
        yield pow((rx * a - qx * b) % mod, r, mod)
        a = a * rho % mod
        b = b * q % mod


# enough levels to sum a few hundred terms per case
ORACLE_LEVELS = {3: 6, 5: 4, 7: 3}


@st.composite
def moment_cases(draw):
    """r, b, rx, qx, rho, q, p, W with units = 1 mod p; edge "one" makes
    some ratio A_k = b rho^(r-k) q^k equal 1 mod p^W, edge "deep" gives
    it v_p(A_k - 1) >= 2."""
    p = draw(st.sampled_from(sorted(ORACLE_LEVELS)))
    W = draw(st.integers(min_value=1, max_value=14))
    mod = p ** W
    unit = st.integers(min_value=0, max_value=p ** (W - 1) - 1).map(
        lambda u: 1 + p * u)
    r = draw(st.integers(min_value=0, max_value=6))
    rho, q, b = draw(unit), draw(unit), draw(unit)
    x = draw(st.integers(min_value=-40, max_value=40).filter(bool))
    rx, qx = pow(rho, x, mod), pow(q, x, mod)
    edge = draw(st.sampled_from(["none", "one", "deep"]))
    if edge != "none":
        k = draw(st.integers(min_value=0, max_value=r))
        target = 1 if edge == "one" else draw(unit.map(
            lambda u: (1 + p * p * u) % mod))
        b = target * pow(rho ** (r - k) * q ** k, -1, mod) % mod
    return r, b, rx, qx, rho, q, p, W


class TestClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(moment_cases())
    def test_matches_riemann_sum(self, case):
        r, b, rx, qx, rho, q, p, W = case
        levels, mod = ORACLE_LEVELS[p], p ** W
        closed = list(islice(
            padicfun._moment_residues(r, b, rx, qx, rho, q, p, W), levels))
        riemann = _kernel.level_sums(bracket_stream(r, rx, qx, rho, q, mod),
                                     b, p, levels, mod)
        assert closed == riemann

    @pytest.mark.parametrize("a", [1, 1 + 5 ** 12, 1 + 2 * 5 ** 3, 6, 0, 5])
    def test_geometric_sums(self, a):
        W = 12
        mod = 5 ** W
        sums = list(islice(padicfun._geometric_sums(a, 5, W), 4))
        assert sums == [sum(pow(a, t, mod) for t in range(5 ** N)) % mod
                        for N in range(1, 5)]

    @pytest.mark.parametrize("r", range(4))
    def test_unit_ratio_matches_generic(self, r):
        # q = 1/rho makes A_k = rho^(r - 2k - 2), which is 1 at k = r/2 - 1
        tw = TwistParams.make(5, 6, F(1, 6), precision=12)
        mom = volkenborn_moment(r, tw, 4)
        def f(x):
            return ((tw.rho ** x - tw.q ** x) / (tw.rho - tw.q)) ** r
        gen = twisted_level_sums(f, tw, 4)
        assert [repr(v) for v in mom.values] == [repr(v) for v in gen]

    def test_no_kernel_needed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the kernel was called")
        for name in _kernel.__all__:
            monkeypatch.setattr(_kernel, name, refuse)
        reports = [volkenborn_moment(3, TW5, 5)] + [
            carlitz_bernoulli(3, F(1), 2, TW5, 5, method=m)
            for m in ("direct", "moments")]
        for rep in reports:
            assert isinstance(rep, ConvergenceReport)
            assert rep.levels == (1, 2, 3, 4, 5)


class TestDeepLevels:
    # TW5's working precision is 26 digits
    @pytest.mark.parametrize("call", [
        lambda N: volkenborn_moment(2, TW5, N),
        lambda N: carlitz_bernoulli(2, F(1), 0, TW5, N, method="direct"),
        lambda N: carlitz_bernoulli(2, F(1), 0, TW5, N, method="moments"),
    ], ids=["moment", "carlitz_direct", "carlitz_moments"])
    def test_too_deep_is_a_parameter_error(self, call):
        with pytest.raises(InvalidParameterError,
                           match=r"level \d+ is beyond the working "
                                 r"precision of 26 digits"):
            call(40)

    def test_bracket_vanishing(self):
        with pytest.raises(InvalidParameterError,
                           match=r"level 25 .*\[p\^25\] vanishes"):
            volkenborn_moment(0, TW5, 10 ** 9)

    def test_value_without_digits(self):
        with pytest.raises(InvalidParameterError,
                           match=r"level 24 .*keeps no digit"):
            volkenborn_moment(2, TW5, 24)
        rep = volkenborn_moment(2, TW5, 23)
        assert not rep.values[-1].is_zero()


class TestCarlitz:
    def test_total_mass_case(self):
        rep = carlitz_bernoulli(0, F(0), 0, TW5, 4)
        for v in rep.values:
            assert (v - TW5.rho).is_zero()

    def test_paths_agree(self):
        d = carlitz_bernoulli(2, F(1), 0, TW5, 4, method="direct")
        m = carlitz_bernoulli(2, F(1), 0, TW5, 4, method="moments")
        for a, b in zip(d.values, m.values):
            assert (a - b).is_zero()

    def test_padic_argument(self):
        x = PadicNumber.from_rational(F(1, 2), 5, 24)
        d = carlitz_bernoulli(2, F(1), x, TW5, 3, method="direct")
        m = carlitz_bernoulli(2, F(1), x, TW5, 3, method="moments")
        for a, b in zip(d.values, m.values):
            assert (a - b).is_zero()

    @pytest.mark.parametrize("method", ["direct", "moments"])
    @pytest.mark.parametrize("n", range(1, 5), ids="n{}".format)
    @pytest.mark.parametrize("p,rho,q", [(3, 4, 7), (5, 6, 11), (7, 8, 15)],
                             ids=["p3", "p5", "p7"])
    def test_rational_x_is_the_padic_x(self, p, rho, q, n, method):
        """A Fraction x is a p-adic exponent like the PadicNumber it
        embeds as, not its integer part: x = 1/2 is not x = 0."""
        tw = TwistParams.make(p, rho, q)
        half = PadicNumber.from_rational(F(1, 2), p, tw.work_precision)
        rational, padic, zero = (
            carlitz_bernoulli(n, F(1), x, tw, 3, method).values
            for x in (F(1, 2), half, 0))
        assert [repr(v) for v in rational] == [repr(v) for v in padic]
        for v, w in zip(rational, zero):
            assert not (v - w).is_zero()

    @pytest.mark.parametrize("bad", [2.7, 0.5, "1/2"], ids=repr)
    def test_float_or_str_power_refused(self, bad):
        for a, x in ((F(1), bad), (bad, 0)):
            with pytest.raises(InvalidParameterError,
                               match=f"got {type(bad).__name__}$"):
                carlitz_bernoulli(2, a, x, TW5, 3)

    def test_rejects_bad_method(self):
        with pytest.raises(InvalidParameterError):
            carlitz_bernoulli(1, F(0), 0, TW5, 3, method="fast")

    def test_trivial_rho_with_rational_a(self):
        """rho = 1 makes rho^(at) = 1, so a drops out (the old twist
        power died taking the valuation of log 1 = 0)."""
        tw = TwistParams.make(5, 1, 6, precision=12)
        base = carlitz_bernoulli(2, F(0), 0, tw, 3)
        for a in (F(1, 2), F(1, 5)):
            rep = carlitz_bernoulli(2, a, 0, tw, 3)
            assert [str(v) for v in rep.values] == \
                [str(v) for v in base.values]


def _carlitz_outcome(n, a, x, tw, levels, method):
    """The values (by repr) and difference valuations of a Carlitz
    report, or the type and message of the error it raises."""
    try:
        rep = carlitz_bernoulli(n, a, x, tw, levels, method)
    except (ConvergenceDomainError, InvalidParameterError) as exc:
        return type(exc), str(exc)
    return [repr(v) for v in rep.values], rep.diff_valuations


@settings(max_examples=120, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), precision=st.integers(1, 80),
       levels=st.integers(1, 4), n=st.integers(0, 4),
       a=st.sampled_from([0, 1, -2, F(1, 2), 3]),
       x=st.sampled_from([0, 1, -2, F(1, 2), 3]))
@example(p=5, precision=60, levels=4, n=3, a=0, x=0)
def test_carlitz_methods_agree_digit_for_digit(p, precision, levels, n, a,
                                               x):
    """The umbral form prints what the direct integral prints, at every
    precision: no step of it caps the digits."""
    tw = TwistParams.make(p, 1 + p, 1 + 2 * p, precision)
    assert _carlitz_outcome(n, a, x, tw, levels, "moments") == \
        _carlitz_outcome(n, a, x, tw, levels, "direct")


def _old_twist_power(base, a, tw):
    """base^a as the Carlitz values computed it before it went through
    ``padic.padic_power``: exp(a log base) with its own domain check."""
    a = F(a)
    if a.denominator == 1:
        return base ** a.numerator
    lg = base.log()
    x = PadicNumber.from_rational(a, tw.prime, tw.work_precision)
    arg = x * lg
    if F(arg.valuation) <= F(1, tw.prime - 1):
        raise ConvergenceDomainError(
            f"rho^a leaves the exp domain: v(a log rho) = {arg.valuation}")
    return arg.exp()


def _power_outcome(f, *args):
    try:
        return repr(f(*args))
    except ConvergenceDomainError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([3, 5, 7]),
       offsets=st.lists(st.tuples(st.integers(0, 3),
                                  st.fractions(max_denominator=50)),
                        min_size=2, max_size=2),
       precision=st.integers(2, 12),
       a=st.fractions(max_denominator=60), a_shift=st.integers(-2, 1))
@example(p=5, offsets=[(0, F(0)), (1, F(1))], precision=4, a=F(1, 2),
         a_shift=1)
def test_twist_power_matches_old_loop(p, offsets, precision, a, a_shift):
    """The Carlitz twist power through ``padic_power``: identical repr
    and identical refusals on every twist ``TwistParams.make`` accepts,
    except where log base = 0 (base = 1), which the old loop could not
    take the valuation of and which now gives 1."""
    try:
        tw = TwistParams.make(p, *(1 + F(p) ** k * u for k, u in offsets),
                              precision)
    except InvalidParameterError:
        return
    a = a * F(p) ** a_shift
    for base in (tw.rho, tw.q):
        new = _power_outcome(padic_power, base, a)
        if (base - 1).is_zero() and a.denominator != 1:
            assert (padic_power(base, a) - 1).is_zero()
            continue
        assert new == _power_outcome(_old_twist_power, base, a, tw)


def unit_rationals(p):
    """Rationals whose numerator and denominator p does not divide."""
    return st.builds(F, st.integers(-200, 200).filter(lambda n: n % p),
                     st.integers(1, 50).filter(lambda d: d % p))


class TestFermionic:
    def test_zeroth_moment_is_one(self):
        # sum_{t<p^N} (-1)^t = 1, as p^N is odd
        for tw in (TW3, TW5):
            assert all(v == 1 for v in fermionic_integral(0, tw, 4).values)

    def test_direct_summation_oracle(self):
        # level N against the term-by-term sum of (-1)^t [t]^r, compared
        # with ==, to the common precision (the closed form can keep
        # one digit fewer, so repr may differ)
        for p, rho, q, levels in ((3, 4, 13, 4), (5, 6, 11, 4),
                                  (7, 8, 15, 3)):
            tw = TwistParams.make(p, rho, q, precision=12)
            totals = [PadicNumber.zero(p, tw.work_precision)] * 7
            reports = [fermionic_integral(r, tw, levels) for r in range(7)]
            start = 0
            for N in range(1, levels + 1):
                for t in range(start, p ** N):
                    b = number_at(tw, t)
                    sign = -1 if t % 2 else 1
                    totals = [s + sign * b ** r
                              for r, s in enumerate(totals)]
                start = p ** N
                for r, rep in enumerate(reports):
                    assert rep.values[N - 1] == tw.shown(totals[r]), \
                        (p, r, N)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), p=st.sampled_from([3, 5, 7]),
           e=st.integers(1, 3), r=st.integers(0, 8),
           precision=st.integers(12, 30))
    def test_levels_tend_to_exact_limit(self, data, p, e, r, precision):
        # rho = 1 + p u, q = rho + p^e w with u, w units: v(rho - q) = e
        rho = 1 + p * data.draw(unit_rationals(p))
        q = rho + p ** e * data.draw(unit_rationals(p))
        tw = TwistParams.make(p, rho, q, precision)
        limit = fermionic_limit(r, rho, q)
        rep = fermionic_integral(r, tw, 4)
        for N, v in enumerate(rep.values, 1):
            d = v - PadicNumber.from_rational(limit, p, precision + 40)
            assert d.valuation >= min(N, v.absolute_precision), (N, v)

    def test_default_twist_first_moment(self):
        # p = 5, rho = 6, q = 11: the limit is -1/42, met to valuation N
        rep = fermionic_integral(1, TwistParams.make(5, 6, 11), 5)
        assert fermionic_limit(1, 6, 11) == F(-1, 42)
        limit = PadicNumber.from_rational(F(-1, 42), 5, 40)
        assert [(v - limit).valuation for v in rep.values] == [1, 2, 3, 4, 5]

    def test_negative_exponent_refused(self):
        with pytest.raises(InvalidParameterError,
                           match="moment exponent must be >= 0"):
            fermionic_integral(-1, TW5)

    # the untwisted oracle, rho = q = 1: exact alternating partial sums

    def test_constant_alternating(self):
        assert untwisted_fermionic_sums(lambda x: 1, 5, 5) == [1] * 5

    def test_square_shift_identity(self):
        # I(f1) + I(f) = 2 f(0) for f1(x) = f(x + 1): level N misses it
        # by f(p^N) - f(0) = p^(2N)
        f = lambda x: x ** 2 + 3
        sums = untwisted_fermionic_sums(f, 5, 6)
        sums1 = untwisted_fermionic_sums(lambda x: f(x + 1), 5, 6)
        assert [padic_valuation(a + b - 2 * f(0), 5)
                for a, b in zip(sums, sums1)] == [2, 4, 6, 8, 10, 12]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_untwisted_sums_tend_to_euler(self, p):
        # level N of int x^n dmu_{-1} agrees with the Euler value E_n(0)
        # of rpqcalc.series to valuation N at least
        euler = generating_polynomials(DeformParams.preset("classical"),
                                       "euler", 0, 10)
        for n, e_n in enumerate(euler):
            sums = untwisted_fermionic_sums(lambda x: x ** n, p, 3)
            for N, s in enumerate(sums, 1):
                assert padic_valuation(s - e_n, p) >= N, (n, N, s, e_n)


class TestPadicBeta:
    def test_unit_value(self):
        b = padic_beta_rpq(1, 1, TW3)
        expected = padic_gamma_rpq(1, TW3) ** 2 / padic_gamma_rpq(2, TW3)
        assert b == expected

    def test_property_suite(self):
        for tw in (TW3, TW5):
            rep = padic_beta_suite(tw, [(1, 1), (2, 3), (4, 2)])
            assert rep.passed, [r.name for r in rep.results
                                if not r.passed]

    def test_reflection_on_negatives(self):
        for x in (1, 2, 4):
            lhs = padic_beta_rpq(x, 1 - x, TW5)
            rhs = -(padic_gamma_rpq(x, TW5)
                    * padic_gamma_rpq(1 - x, TW5))
            assert lhs == rhs


def reference_product(m, sign, tw):
    """prod [sign k] over 1 <= k < m, p not | k, as the PadicNumber
    product of the number_at values themselves."""
    g = PadicNumber.one(tw.prime, tw.work_precision)
    for k in range(1, m):
        if k % tw.prime:
            g = g * number_at(tw, sign * k)
    return g


@st.composite
def twists(draw):
    """A two-base twist with v(rho - q) in {1, 2, 3} and rho, q
    embedded at different precisions."""
    p = draw(st.sampled_from([3, 5, 7]))
    v = draw(st.sampled_from([1, 2, 3]))
    prime_to_p = st.integers(min_value=1, max_value=500).filter(
        lambda k: k % p)
    rho = 1 + p * F(draw(st.integers(min_value=-500, max_value=500)),
                    draw(prime_to_p))
    q = rho + p ** v * F(draw(prime_to_p) * draw(st.sampled_from([1, -1])),
                         draw(prime_to_p))
    precision = st.integers(min_value=v + 1, max_value=24)
    return TwistParams(p, PadicNumber.from_rational(rho, p, draw(precision)),
                       PadicNumber.from_rational(q, p, draw(precision)), 12)


class TestResidueProduct:
    @settings(max_examples=150, deadline=None)
    @given(twists(), st.integers(min_value=-60, max_value=200))
    def test_matches_padic_product(self, tw, n):
        sign, m = (1, n) if n >= 0 else (-1, 1 - n)
        got = padicfun._bracket_product(m, sign, tw)
        want = reference_product(m, sign, tw)
        assert str(got) == str(want)
        assert got.to_json() == want.to_json()
        gamma = padic_gamma_rpq(n, tw)
        want_gamma = want if n >= 0 else want.inverse()
        if n % 2:
            want_gamma = -want_gamma
        assert str(gamma) == str(want_gamma)
        assert gamma.to_json() == want_gamma.to_json()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_morita_recurrence(self, p):
        # the oracle's Gamma_p(x+1) = -x Gamma_p(x) for p not | x,
        # -Gamma_p(x) else, and every value a unit
        W = 16
        mod = p ** W
        for x in range(-50, 201):
            g, g1 = morita_gamma(x, p, W), morita_gamma(x + 1, p, W)
            want = (-x * g if x % p else -g) % mod
            assert g1 % p and g1 == want, x


class TestRestrictedFactorialMemo:
    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_filled_memo_matches_fresh_params(self, make):
        filled = make()
        padic_factorial_rpq(60, filled)
        for n in range(-6, 40):
            got, want = padic_gamma_rpq(n, filled), padic_gamma_rpq(n, make())
            assert got == want and str(got) == str(want), n
        for x, y in ((1, 1), (3, 7), (4, -2), (-3, 5), (-2, -1), (20, 19)):
            got = padic_beta_rpq(x, y, filled)
            want = padic_beta_rpq(x, y, make())
            assert got == want and str(got) == str(want), (x, y)
        assert filled == make() and repr(filled) == repr(make())


class TestGammaLimit:
    def test_digit_truncation_convergence(self):
        # Gamma at the digit truncations x mod 5^k of x = 1/2 settles
        # digit by digit
        x = PadicNumber.from_rational(F(1, 2), 5, 12)
        values = [padic_gamma_rpq(x.residue(k), TW5) for k in range(1, 6)]
        diffs = [(b - a).valuation for a, b in zip(values, values[1:])]
        assert all(b > a for a, b in zip(diffs, diffs[1:]))


class TestLevelBudget:
    @pytest.mark.parametrize("levels", [0, -1])
    @pytest.mark.parametrize("call", [
        lambda N: volkenborn_moment(2, TW5, N),
        lambda N: carlitz_bernoulli(2, F(1), 0, TW5, N, method="direct"),
        lambda N: carlitz_bernoulli(2, F(1), 0, TW5, N, method="moments"),
        lambda N: fermionic_integral(1, TW5, N),
    ], ids=["moment", "carlitz_direct", "carlitz_moments", "fermionic"])
    def test_needs_a_level(self, call, levels):
        with pytest.raises(InvalidParameterError, match="at least one"):
            call(levels)

    @pytest.mark.parametrize("tw", [
        TwistParams(3, PadicNumber.from_rational(4, 3, 4),
                    PadicNumber.from_rational(7, 3, 5), 4),
        TwistParams(3, PadicNumber.from_rational(4, 3, 5),
                    PadicNumber.from_rational(4 + 9, 3, 5), 4),
    ], ids=["v1", "v2"])
    def test_budget_edge(self, tw):
        # level 3 is the first refused: [3^3] vanishes at working
        # precision (W - v(rho - q) = 3); level 2 still runs
        assert number_at(tw, 27).is_zero() and not number_at(tw, 9).is_zero()
        with pytest.raises(InvalidParameterError,
                           match=r"level 3 .*\[p\^3\] vanishes"):
            volkenborn_moment(1, tw, 3)
        assert len(volkenborn_moment(1, tw, 2).values) == 2

    def test_single_level_has_no_differences(self):
        rep = volkenborn_moment(1, TW5, 1)
        assert rep.levels == (1,) and rep.diff_valuations == ()
        assert not rep.converged and len(rep.values) == 1


class TestTwistValidation:
    def test_even_prime_rejected(self):
        with pytest.raises(InvalidParameterError):
            TwistParams.make(2, 3, 5)

    @pytest.mark.parametrize("bad", [0.1, "1/3", True],
                             ids=["float", "str", "bool"])
    def test_twist_takes_only_rationals(self, bad):
        for rho, q in ((bad, 11), (6, bad)):
            with pytest.raises(InvalidParameterError,
                               match=f"got {type(bad).__name__}"):
                TwistParams.make(5, rho, q)

    def test_weak_twist_rejected(self):
        with pytest.raises(InvalidParameterError):
            TwistParams.make(5, 2, 11)  # |2 - 1| = 1, not < 1
        with pytest.raises(InvalidParameterError):
            TwistParams.make(5, 6, 2)

    def test_equal_twists_rejected(self):
        with pytest.raises(InvalidParameterError):
            TwistParams.make(5, 6, 6)

    def test_unhashable(self):
        # PadicNumber's precision-aware == is not transitive, so neither
        # it nor a frozen parameter set holding one can be hashed
        a, b, c = (PadicNumber(5, 0, 1, 1), PadicNumber(5, 0, 1, 2),
                   PadicNumber(5, 0, 6, 2))
        assert a == b and a == c and b != c
        for obj in (a, TW5):
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)

    def test_powered(self):
        tw = TW5.powered(5)
        assert (tw.rho - TW5.rho ** 5).is_zero()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_default_twist(self, p):
        assert TwistParams.make(p, precision=12) == \
            TwistParams.make(p, 1 + p, 1 + 2 * p, precision=12)


# each integer argument of the p-adic layer, with the error a bool or a
# float there raises: the integer gate of the same check as its sign
INT_ARGUMENTS = {
    "PadicNumber-val": (lambda v: PadicNumber(5, v, 7, 3),
                        InvalidParameterError),
    "PadicNumber-unit": (lambda v: PadicNumber(5, 0, v, 3),
                         InvalidParameterError),
    "PadicNumber-prec": (lambda v: PadicNumber(5, 0, 7, v),
                         InvalidParameterError),
    "pow-exponent": (lambda v: PadicNumber(5, 0, 7, 3) ** v, TypeError),
    "carlitz-n": (lambda v: carlitz_bernoulli(v, 0, 0, TW5, 2),
                  InvalidParameterError),
    "volkenborn-r": (lambda v: volkenborn_moment(v, TW5, 2),
                     InvalidParameterError),
    "fermionic-r": (lambda v: fermionic_integral(v, TW5, 2),
                    InvalidParameterError),
    "levels": (lambda v: volkenborn_moment(1, TW5, v),
               InvalidParameterError),
    "make-precision": (lambda v: TwistParams.make(5, 6, 11, precision=v),
                       InvalidParameterError),
}


@pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("call, error", INT_ARGUMENTS.values(),
                         ids=INT_ARGUMENTS)
def test_integer_arguments_refuse_bool_and_float(call, error, value):
    with pytest.raises(error):
        call(value)
