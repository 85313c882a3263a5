"""p-adic gamma/beta, Volkenborn measure/integral, Carlitz values."""

import random
from fractions import Fraction as F

import pytest

from rpqcalc import padicfun
from rpqcalc.deform import DeformParams
from rpqcalc.errors import InvalidParameterError, NoConvergenceError
from rpqcalc.padic import PadicNumber
from rpqcalc.padicfun import (ConvergenceReport, TwistParams,
                              carlitz_bernoulli, delta_factor,
                              factorial_decomposition_check,
                              fermionic_integral, fermionic_shift_check,
                              gamma_limit_at, gamma_recurrence_check,
                              number_at, padic_beta_rpq, padic_beta_suite,
                              padic_factorial_rpq, padic_gamma_rpq,
                              volkenborn_integral, volkenborn_measure,
                              volkenborn_moment, volkenborn_shift_check)
from rpqcalc.poly import Polynomial

TW5 = TwistParams.make(5, 6, 11, precision=12)
TW3 = TwistParams.make(3, 4, 7, precision=12)
CL5 = TwistParams.classical_limit(5)

MAKERS = {
    "twisted5": lambda: TwistParams.make(5, 6, 11, precision=12),
    "twisted3": lambda: TwistParams.make(3, 4, 7, precision=12),
    "classical5": lambda: TwistParams.classical_limit(5),
}


class TestFactorialAndGamma:
    def test_empty_products(self):
        assert padic_factorial_rpq(0, TW5) == 1
        assert padic_factorial_rpq(1, TW5) == 1

    def test_classical_limit_values(self):
        assert padic_factorial_rpq(4, CL5) == \
            PadicNumber.from_rational(6, 5, 16)
        assert padic_gamma_rpq(4, CL5) == \
            PadicNumber.from_rational(6, 5, 16)

    def test_multiples_skipped(self):
        # at p = 5, j = 5 is excluded: product over {1,2,3,4} only
        assert padic_factorial_rpq(6, CL5) == \
            PadicNumber.from_rational(24, 5, 16)
        expected = PadicNumber.one(5, 20)
        for j in (1, 2, 3, 4):
            expected = expected * number_at(TW5, j)
        assert padic_factorial_rpq(6, TW5) == expected

    def test_base_values(self):
        for tw in (TW5, TW3, CL5):
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

    def test_small_n_degenerates(self):
        # n < p: the quotient part is empty and the check reduces to
        # the plain restricted factorial
        rep = factorial_decomposition_check(2, TW5)
        assert rep.passed

    def test_classical(self):
        rep = factorial_decomposition_check(7, TwistParams.classical_limit(3))
        # product-ratio rows are two-base-only; the rest must pass
        assert all(r.passed for r in rep.results)


class TestMeasure:
    def test_classical_is_uniform(self):
        for N in (1, 2):
            for a in (0, 2):
                assert volkenborn_measure(a, N, CL5) == \
                    PadicNumber.from_rational(F(1, 5 ** N), 5, 12)

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

    def test_strong_bound_required(self):
        weak_q = PadicNumber.from_rational(11, 5, 20)
        tw = TwistParams(5, PadicNumber.from_rational(6, 5, 20), weak_q,
                         TW5.structure, 12)
        # bounds hold here; a genuinely weak twist needs p = 2 which is
        # rejected earlier, so check the guard directly
        tw.require_volkenborn()


class TestVolkenbornIntegral:
    def test_constant_total_mass(self):
        rep = volkenborn_integral(lambda x: F(1), CL5, 5)
        assert rep.converged and rep.value == 1
        rep5 = volkenborn_integral(lambda x: F(1), TW5, 4)
        for v in rep5.values:
            assert (v - TW5.rho).is_zero()

    def test_classical_first_moment(self):
        rep = volkenborn_integral(lambda x: F(x), CL5, 6)
        assert rep.converged
        assert list(rep.diff_valuations) == [1, 2, 3, 4, 5]
        assert rep.value == PadicNumber.from_rational(F(-1, 2), 5, 6)

    def test_no_convergence_is_loud(self):
        rep = ConvergenceReport((1, 2, 3),
                                (PadicNumber.one(5, 4),) * 3, (3, 1))
        assert not rep.converged
        with pytest.raises(NoConvergenceError):
            _ = rep.value

    @pytest.mark.parametrize("r", range(6), ids="r{}".format)
    @pytest.mark.parametrize("p,rho,q,levels", [(3, 4, 7, 5), (5, 6, 11, 4),
                                                (7, 8, 15, 3)],
                             ids=["p3", "p5", "p7"])
    def test_moment_fast_path_matches_generic(self, p, rho, q, levels, r):
        tw = TwistParams.make(p, rho, q, precision=12)
        mom = volkenborn_moment(r, tw, levels)
        def f(x):
            return ((tw.rho ** x - tw.q ** x) / (tw.rho - tw.q)) ** r
        gen = volkenborn_integral(f, tw, levels)
        assert len(mom.values) == len(gen.values) == levels
        for a, b in zip(mom.values, gen.values):
            assert (a - b).is_zero() and repr(a) == repr(b)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_residue_and_padic_paths_agree(self, make, seed):
        # Fraction values take the kernel's residue path, PadicNumber
        # values the running PadicNumber total; the path is chosen once
        # for all levels, so the two must agree level by level
        tw = make()
        p, W = tw.prime, tw.work_precision
        rng = random.Random(seed)
        dens = [d for d in range(1, 30) if d % p]
        poly = Polynomial([F(rng.randrange(-50, 50), rng.choice(dens))
                           for _ in range(rng.randrange(1, 6))])
        exact = volkenborn_integral(lambda x: poly(F(x)), tw, 4)
        padic = volkenborn_integral(
            lambda x: PadicNumber.from_rational(poly(F(x)), p, W), tw, 4)
        assert [repr(v) for v in exact.values] == \
            [repr(v) for v in padic.values]
        assert exact.diff_valuations == padic.diff_valuations

    def test_shift_identity_converges(self):
        rep = volkenborn_shift_check(Polynomial.monomial(1), TW5, 5)
        assert rep["converging"]
        levels = rep["agreement_by_level"]
        assert levels[-1] > levels[0]

    def test_report_json(self):
        rep = volkenborn_integral(lambda x: F(x), CL5, 3)
        obj = rep.to_json()
        assert obj["levels"] == [1, 2, 3]
        assert len(obj["values"]) == 3


class TestCarlitz:
    def test_total_mass_case(self):
        rep = carlitz_bernoulli(0, F(0), 0, TW5, 4)
        for v in rep.values:
            assert (v - TW5.rho).is_zero()

    def test_classical_limit_first_value(self):
        rep = carlitz_bernoulli(1, F(0), 0, CL5, 6)
        assert rep.converged
        assert rep.value == PadicNumber.from_rational(F(-1, 2), 5, 6)

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

    def test_rejects_bad_method(self):
        with pytest.raises(InvalidParameterError):
            carlitz_bernoulli(1, F(0), 0, TW5, 3, method="fast")


class TestFermionic:
    def test_constant_alternating(self):
        rep = fermionic_integral(lambda x: 1, 5, 5)
        assert all(v == 1 for v in rep.values)

    def test_square_shift_identity(self):
        rep = fermionic_shift_check(Polynomial.monomial(2), 5, 6)
        assert rep["agreement_valuation"] >= 6

    def test_direct_summation_oracle(self):
        total = sum((-1) ** x * (3 * x + 1) for x in range(5 ** 3))
        rep = fermionic_integral(lambda x: 3 * x + 1, 5, 3)
        assert rep.values[-1] == PadicNumber.from_rational(total, 5, 16)

    def test_odd_prime_required(self):
        with pytest.raises(InvalidParameterError):
            fermionic_integral(lambda x: 1, 2, 3)


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


class TestRestrictedFactorialMemo:
    def test_each_number_computed_once(self, monkeypatch):
        tw = MAKERS["twisted5"]()
        calls = []

        def counting(tw, z):
            calls.append(z)
            return number_at(tw, z)

        monkeypatch.setattr(padicfun, "number_at", counting)
        for n in range(51):
            padic_factorial_rpq(n, tw)
        assert calls == [j for j in range(1, 50) if j % 5]

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

    def test_deform_params_built_once(self):
        tw = TwistParams.make(5, 6, 11, precision=12)
        assert tw.deform_params is tw.deform_params
        assert tw.deform_params == DeformParams(tw.rho, tw.q, tw.structure)


class TestGammaLimit:
    def test_digit_truncation_convergence(self):
        x = PadicNumber.from_rational(F(1, 2), 5, 12)
        rep = gamma_limit_at(x, TW5, 5)
        assert rep.converged

    def test_rejects_nonintegral(self):
        x = PadicNumber.from_rational(F(1, 5), 5, 12)
        with pytest.raises(InvalidParameterError):
            gamma_limit_at(x, TW5, 4)


class TestLevelBudget:
    X = PadicNumber.from_rational(F(1, 2), 5, 12)

    @pytest.mark.parametrize("levels", [0, -1])
    @pytest.mark.parametrize("call", [
        lambda N: volkenborn_integral(lambda x: F(x), TW5, N),
        lambda N: volkenborn_moment(2, TW5, N),
        lambda N: volkenborn_moment(2, CL5, N),
        lambda N: carlitz_bernoulli(2, F(1), 0, TW5, N, method="direct"),
        lambda N: carlitz_bernoulli(2, F(1), 0, TW5, N, method="moments"),
        lambda N: fermionic_integral(lambda x: x, 5, N),
        lambda N: gamma_limit_at(TestLevelBudget.X, TW5, N),
    ], ids=["integral", "moment", "classical_moment", "carlitz_direct",
            "carlitz_moments", "fermionic", "gamma_limit"])
    def test_needs_a_level(self, call, levels):
        with pytest.raises(InvalidParameterError, match="at least one"):
            call(levels)

    def test_single_level_has_no_differences(self):
        rep = volkenborn_moment(1, TW5, 1)
        assert rep.levels == (1,) and rep.diff_valuations == ()
        assert not rep.converged and len(rep.values) == 1


class TestTwistValidation:
    def test_even_prime_rejected(self):
        with pytest.raises(InvalidParameterError):
            TwistParams.make(2, 3, 5)

    def test_weak_twist_rejected(self):
        with pytest.raises(InvalidParameterError):
            TwistParams.make(5, 2, 11)  # |2 - 1| = 1, not < 1

    def test_equal_twists_rejected(self):
        with pytest.raises(InvalidParameterError):
            TwistParams.make(5, 6, 6)

    def test_powered(self):
        tw = TW5.powered(5)
        assert (tw.rho - TW5.rho ** 5).is_zero()
