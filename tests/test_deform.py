"""Structure functions, deformed numbers/factorials/binomials."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpqcalc import deform
from rpqcalc._util import RATIO_LEAF, product_tree, ratio_product
from rpqcalc.deform import (PRESET_KINDS, DeformParams, StructureFunction,
                            bm_identity_suite, rpq_binomial,
                            rpq_factorial, rpq_number)
from rpqcalc.errors import InvalidParameterError, SingularDeformationError
from rpqcalc.padic import PadicNumber

from oracles import ORACLES, P, Q


def preset(kind, p=P, q=Q):
    return DeformParams.preset(kind, p=p, q=q)


class TestNumbers:
    def test_two_base_example(self):
        js = preset("jagannathan_srinivasa", p=1, q=F(1, 2))
        assert rpq_number(js, 3) == F(7, 4)

    def test_zero_always(self):
        for kind in ORACLES:
            assert rpq_number(preset(kind), 0) == 0

    def test_bm_example(self):
        bm = preset("biedenharn_macfarlane", q=F(1, 2))
        assert rpq_number(bm, 2) == F(5, 2)

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_against_oracles(self, kind):
        pr = preset(kind)
        for n in range(1, 30):
            assert rpq_number(pr, n) == ORACLES[kind](n), (kind, n)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            rpq_number(preset("heine"), -1)

    def test_two_base_degenerates_to_heine(self):
        js = DeformParams.preset("jagannathan_srinivasa", p=1, q=Q)
        h = preset("heine")
        for n in range(21):
            assert rpq_number(js, n) == rpq_number(h, n)

    def test_classical(self):
        cl = DeformParams.preset("classical", p=1, q=1)
        assert rpq_number(cl, 17) == 17

    @pytest.mark.parametrize("slot", ["p", "q", "xi1", "xi2"])
    def test_padic_parameter_refused(self, slot):
        # p-adic deformed numbers belong to padicfun.TwistParams
        args = {"p": 1, "q": F(1, 2), "xi1": 1, "xi2": F(1, 2),
                slot: PadicNumber.from_rational(6, 5, 12)}
        with pytest.raises(InvalidParameterError, match="TwistParams"):
            DeformParams(args["p"], args["q"], None, args["xi1"],
                         args["xi2"])

    @pytest.mark.parametrize("given", ["xi1", "xi2"])
    def test_one_twist_base_refused(self, given):
        with pytest.raises(InvalidParameterError,
                           match="^set both twist bases or neither$"):
            DeformParams(1, F(1, 2), None, **{given: F(1, 3)})

    @pytest.mark.parametrize("value", [0.5, Decimal("0.5"), "1/2"],
                             ids=["float", "Decimal", "str"])
    @pytest.mark.parametrize("slot", ["p", "q", "xi1", "xi2"])
    def test_non_rational_parameter_refused(self, slot, value):
        # only int and Fraction: a float would carry its binary expansion
        args = {"p": 1, "q": F(1, 2), "xi1": 1, "xi2": F(1, 2), slot: value}
        with pytest.raises(InvalidParameterError,
                           match=f"^{slot} must be an int or Fraction; "
                                 f"got {type(value).__name__}$"):
            DeformParams(args["p"], args["q"], None, args["xi1"],
                         args["xi2"])


class TestFactorials:
    def test_empty(self):
        assert rpq_factorial(preset("heine"), 0) == 1

    def test_single(self):
        for kind in ORACLES:
            pr = preset(kind)
            assert rpq_factorial(pr, 1) == rpq_number(pr, 1)

    def test_example(self):
        js = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
        assert rpq_factorial(js, 3) == F(21, 8)

    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_recursion(self, kind):
        pr = preset(kind)
        for n in range(1, 16):
            assert rpq_factorial(pr, n) == \
                rpq_number(pr, n) * rpq_factorial(pr, n - 1)


def _running_product(params, n):
    acc = F(1)
    for k in range(1, n + 1):
        acc = acc * rpq_number(params, k)
    return acc


class TestFactorialMemo:
    def test_each_number_computed_once(self, monkeypatch):
        pr = preset("jagannathan_srinivasa")
        calls = []

        def counting(params, n):
            calls.append(n)
            return rpq_number(params, n)

        monkeypatch.setattr(deform, "rpq_number", counting)
        for n in range(51):
            rpq_factorial(pr, n)
        assert sorted(calls) == list(range(1, 51))

    @pytest.mark.parametrize("make", [
        lambda: preset("biedenharn_macfarlane")], ids=["rational"])
    @settings(max_examples=25, deadline=None)
    @given(order=st.lists(st.integers(min_value=0, max_value=30),
                          min_size=1, max_size=12))
    def test_any_order_matches_running_product(self, make, order):
        pr, fresh = make(), make()
        for n in order:
            got, want = rpq_factorial(pr, n), _running_product(fresh, n)
            assert got == want and repr(got) == repr(want)
        assert pr == fresh and repr(pr) == repr(fresh)

    def test_threads_share_one_memo(self):
        pr = preset("jagannathan_srinivasa")
        want = [_running_product(preset("jagannathan_srinivasa"), n)
                for n in range(41)]
        orders = [random.Random(seed).sample(range(41), 41)
                  for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as ex:
                futures = [ex.submit(lambda o: [(n, rpq_factorial(pr, n))
                                                for n in o], order)
                           for order in orders]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert all(value == want[n] for n, value in got)
        assert [rpq_factorial(pr, n) for n in range(41)] == want


class TestBinomials:
    def test_edges(self):
        pr = preset("jagannathan_srinivasa")
        assert rpq_binomial(pr, 5, 0) == 1
        assert rpq_binomial(pr, 5, 5) == 1

    def test_example(self):
        js = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
        assert rpq_binomial(js, 3, 1) == F(7, 4)

    def test_rejects_bad_range(self):
        with pytest.raises(InvalidParameterError):
            rpq_binomial(preset("heine"), 2, 3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=14),
           st.integers(min_value=0, max_value=14))
    def test_symmetry(self, m, n):
        if n > m:
            m, n = n, m
        pr = preset("jagannathan_srinivasa")
        assert rpq_binomial(pr, m, n) == rpq_binomial(pr, m, m - n)

    def test_factorial_consistency(self):
        pr = preset("biedenharn_macfarlane")
        for m in range(8):
            for n in range(m + 1):
                assert rpq_binomial(pr, m, n) * rpq_factorial(pr, n) \
                    * rpq_factorial(pr, m - n) == rpq_factorial(pr, m)


def ref_binomial(params, m, n):
    """rpq_binomial as it was before the product tree: a quotient of
    three memoised factorials."""
    return rpq_factorial(params, m) / (
        rpq_factorial(params, n) * rpq_factorial(params, m - n))


# 0 < q < p <= 1
pq = st.tuples(st.integers(1, 40), st.integers(1, 40),
               st.integers(0, 40)).map(
    lambda t: (F(t[0] + t[1], t[0] + t[1] + t[2]),
               F(t[0], t[0] + t[1] + t[2])))


def zero_kernel(p):
    """R(u, v) = (u - v)(u - c) with c = p^65: positive for n <= 64,
    [65] = 0, negative beyond."""
    c = p ** 65
    return StructureFunction.custom(
        [[2, 0, 1], [1, 1, -1], [1, 0, -c], [0, 1, c]], [[0, 0, 1]])


class TestProductTrees:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=70))
    def test_is_the_product(self, xs):
        acc = 1
        for x in xs:
            acc *= x
        assert product_tree(xs) == acc

    def test_empty_is_one(self):
        assert product_tree([]) == 1 and product_tree(iter(())) == 1
        assert ratio_product([], []) == 1
        assert type(ratio_product([], [])) is F

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-10 ** 20, 10 ** 20),
                              st.integers(1, 10 ** 20)),
                    max_size=5 * RATIO_LEAF))
    def test_ratio_is_the_running_product(self, factors):
        acc = F(1)
        for a, b in factors:
            acc *= F(a, b)
        got = ratio_product([a for a, _ in factors],
                            [b for _, b in factors])
        assert type(got) is F and got == acc


class TestBinomialProducts:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(PRESET_KINDS), pq=pq,
           m=st.integers(0, 60),
           where=st.sampled_from(["zero", "all", "below", "above"]),
           data=st.data())
    def test_matches_factorial_quotient(self, kind, pq, m, where, data):
        n = {"zero": lambda: 0, "all": lambda: m,
             "below": lambda: data.draw(st.integers(0, m // 2)),
             "above": lambda: data.draw(st.integers((m + 1) // 2, m)),
             }[where]()
        p, q = pq
        params = DeformParams.preset(kind, p=p, q=q)
        got = rpq_binomial(params, m, n)
        assert type(got) is F
        assert got == ref_binomial(DeformParams.preset(kind, p=p, q=q),
                                   m, n)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (1, 1), (9, 4),
                                     (9, 5), (40, 13), (41, 30)])
    def test_custom_kernel_matches_factorial_quotient(self, m, n):
        kernel = StructureFunction.custom([[1, 0, 1], [0, 1, -1]],
                                          [[0, 0, F(2, 5)]])
        params = DeformParams(P, Q, kernel)
        assert rpq_binomial(params, m, n) == ref_binomial(params, m, n)

    def test_preset_reads_only_the_2j_numbers(self, monkeypatch):
        pr = preset("jagannathan_srinivasa")
        calls = []

        def counting(params, n):
            calls.append(n)
            return rpq_number(params, n)

        monkeypatch.setattr(deform, "rpq_number", counting)
        rpq_binomial(pr, 50, 7)
        assert sorted(calls) == [*range(1, 8), *range(44, 51)]
        assert len(pr._factorials) == 1  # no factorial was built

    @pytest.mark.parametrize("m,n", [(70, 3), (70, 67), (66, 1), (65, 0),
                                     (130, 65)])
    def test_zero_number_below_the_split_raises(self, m, n):
        # [65] = 0 with 65 <= max(n, m - n): [m]!/([n]! [m-n]!) is 0/0
        params = DeformParams(P, Q, zero_kernel(P))
        assert rpq_number(params, 65) == 0
        with pytest.raises(SingularDeformationError, match=r"\[65\] = 0"):
            rpq_binomial(params, m, n)

    @pytest.mark.parametrize("m,n", [(70, 35), (66, 33), (64, 20)])
    def test_zero_number_above_the_split_is_zero_or_kept(self, m, n):
        # a zero only among the top numbers [m-j+1] .. [m] gives 0, as
        # the factorial quotient does
        params = DeformParams(P, Q, zero_kernel(P))
        got = rpq_binomial(params, m, n)
        assert got == ref_binomial(params, m, n)
        assert (got == 0) == (m >= 65)


class TestTwistConsistency:
    @pytest.mark.parametrize("kind", sorted(ORACLES))
    def test_presets_consistent(self, kind):
        assert preset(kind).is_twist_consistent()

    def test_scale_is_first_number(self):
        for kind in ORACLES:
            pr = preset(kind)
            assert pr.twist_scale() == rpq_number(pr, 1)


class TestBmIdentities:
    def test_exact_suite(self):
        rep = bm_identity_suite(F(1, 2), 2, 1)
        assert rep.passed
        assert all(r.residual == 0 for r in rep.results)

    def test_m_zero(self):
        rep = bm_identity_suite(F(1, 2), 4, 0)
        assert rep.passed

    def test_pair_one(self):
        bm = DeformParams.preset("biedenharn_macfarlane", q=F(1, 2))
        assert rpq_number(bm, 2) == F(1, 2) + 2
        assert bm_identity_suite(F(1, 2), 1, 1).passed

    def test_rejects_degenerate_q(self):
        with pytest.raises(InvalidParameterError):
            bm_identity_suite(F(1), 2, 1)


class TestCustomKernels:
    def test_two_base_as_custom(self):
        sf = StructureFunction.custom(
            [[1, 0, 1], [0, 1, -1]], [[0, 0, P - Q]])
        pr = DeformParams(P, Q, sf)
        js = preset("jagannathan_srinivasa")
        for n in range(10):
            assert rpq_number(pr, n) == rpq_number(js, n)

    def test_kernel_vanishing_constraint(self):
        with pytest.raises(InvalidParameterError):
            StructureFunction.custom([[1, 0, 1]], [[0, 0, 1]])  # R(1,1)=1

    def test_positivity_window(self):
        sf = StructureFunction.custom(
            [[1, 0, 1], [0, 1, -1]], [[0, 0, Q - P]])  # negative values
        with pytest.raises(InvalidParameterError):
            DeformParams(P, Q, sf)

    def test_json_roundtrip(self):
        sf = StructureFunction.custom(
            [[1, 0, 1], [0, 1, -1]], [[0, 0, F(2, 5)]])
        again = StructureFunction.from_json(
            {"numerator": [[1, 0, "1"], [0, 1, "-1"]],
             "denominator": [[0, 0, "2/5"]]})
        assert again == sf

    @pytest.mark.parametrize("term", [
        [1, 0, 0.1], [1.7, 0, 1], [1, 0, True], [True, 0, 1],
        [1, "0", 1], [1, 0, "x"], [1, 0, "1/0"], [1, 0, None], [1, 0],
        [1, 0, 1, 1], 7,
    ])
    def test_bad_terms_refused(self, term):
        # a float is refused, not read as its binary expansion; a bool
        # is no int; the message names the term
        with pytest.raises(InvalidParameterError, match="custom kernel term"):
            StructureFunction.custom([[1, 0, 1], [0, 1, -1], term],
                                     [[0, 0, 1]])

    @pytest.mark.parametrize("coeff", [1, F(2, 5), "2/5", "0.4", "-3"])
    def test_exact_coefficients_accepted(self, coeff):
        sf = StructureFunction.custom([[1, 0, 1], [0, 1, -1]],
                                      [[0, 0, coeff]])
        assert sf.denominator == ((0, 0, F(coeff)),)


class TestParameterValidation:
    def test_order_constraint(self):
        with pytest.raises(InvalidParameterError):
            DeformParams(F(1, 2), F(3, 4))  # q >= p

    def test_p_above_one(self):
        with pytest.raises(InvalidParameterError):
            DeformParams(F(3, 2), F(1, 2))

    def test_powered(self):
        pr = preset("jagannathan_srinivasa")
        sq = pr.powered(2)
        assert sq.p == P ** 2 and sq.xi2 == Q ** 2
        for n in range(6):
            assert rpq_number(sq, n) == \
                (P ** (2 * n) - Q ** (2 * n)) / (P ** 2 - Q ** 2)
