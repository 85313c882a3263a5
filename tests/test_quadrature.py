"""Node-sum quadrature, definite integrals, by-parts."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpqcalc.deform import DeformParams, rpq_number
from rpqcalc.errors import InvalidParameterError
from rpqcalc.poly import Polynomial
from rpqcalc.quadrature import (QuadratureSpec, definite_integral_poly,
                                fundamental_theorem_check,
                                integration_by_parts_check, jackson_sum)

JS = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
SPEC = QuadratureSpec(JS, terms=200)


def old_neg_node(spec, j):
    """The negative-index node as it was computed apart from ``node``
    (its q/p branch, the only one the parameter range admits)."""
    p, q = spec.params.p, spec.params.q
    return F(p) ** (-j - 1) / F(q) ** (-j)


@st.composite
def two_base_params(draw):
    """Rational 0 < q < p <= 1 of the two-base family."""
    p = draw(st.fractions(min_value=F(1, 50), max_value=1,
                          max_denominator=60))
    q = p * draw(st.fractions(min_value=F(1, 60), max_value=F(59, 60),
                              max_denominator=60))
    return DeformParams.preset("jagannathan_srinivasa", p=p, q=q)


class TestDefinite:
    def test_linear_example(self):
        assert definite_integral_poly(
            Polynomial.monomial(1), F(0), F(1), JS) == F(2, 3)

    def test_degenerate_interval(self):
        f = Polynomial({2: F(3), 0: F(1)})
        assert definite_integral_poly(f, F(1, 3), F(1, 3), JS) == 0

    def test_constant(self):
        assert definite_integral_poly(
            Polynomial.constant(F(1)), F(0), F(1), JS) == 1

    def test_additivity(self):
        f = Polynomial({3: F(2), 1: F(-1), 0: F(5)})
        a, b = F(1, 3), F(7, 8)
        assert definite_integral_poly(f, a, b, JS) == \
            definite_integral_poly(f, F(0), b, JS) \
            - definite_integral_poly(f, F(0), a, JS)


class TestJacksonSum:
    def test_linear_closed_form(self):
        trunc = jackson_sum(Polynomial.monomial(1), F(1), SPEC)
        assert abs(trunc - F(2, 3)) < F(1, 10 ** 30)

    def test_constant_telescopes(self):
        one = Polynomial.constant(F(1))
        for a in (F(1), F(3, 5)):
            assert definite_integral_poly(one, F(0), a, JS) == a
            trunc = jackson_sum(one, a, QuadratureSpec(JS, terms=500))
            assert abs(trunc - a) < F(1, 10 ** 100)

    @pytest.mark.parametrize("n", range(9))
    def test_monomial_closed_vs_truncated(self, n):
        f = Polynomial.monomial(n)
        closed = definite_integral_poly(f, F(0), F(1), JS)
        assert closed == 1 / rpq_number(JS, n + 1)
        trunc = jackson_sum(f, F(1), SPEC)
        assert abs(trunc - closed) <= F(1, 10 ** 30) * abs(closed)

    def test_node_structure(self):
        # nodes strictly decreasing within the regime
        nodes = [SPEC.node(r) for r in range(10)]
        assert all(b < a for a, b in zip(nodes, nodes[1:]))

    @settings(max_examples=60, deadline=None)
    @given(two_base_params(), st.integers(min_value=-30, max_value=-1))
    def test_negative_nodes_match_old_formula(self, params, j):
        spec = QuadratureSpec(params, terms=5)
        assert spec.node(j) == old_neg_node(spec, j)
        assert spec.node(j) > spec.node(j + 1) > 0

    def test_general_kernels_rejected(self):
        bm = DeformParams.preset("biedenharn_macfarlane", q=F(1, 2))
        with pytest.raises(InvalidParameterError):
            QuadratureSpec(bm)

    def test_subinterval_is_single_node(self):
        # the integral over one geometric band equals its node value
        p, q = JS.p, JS.q
        f = Polynomial({2: F(1)})
        j = 3
        hi = q ** j / p ** j
        lo = q ** (j + 1) / p ** (j + 1)
        band = definite_integral_poly(f, lo, hi, JS)
        w = q ** j / p ** (j + 1)
        assert band == (p - q) * w * f(w)


class TestByParts:
    def test_linear_pair(self):
        z = Polynomial.monomial(1)
        rep = integration_by_parts_check(z, z, F(0), F(1), JS)
        assert rep.passed
        assert rep.results[0].residual == 0

    def test_constant_reduces_to_fundamental(self):
        c = Polynomial.constant(F(3))
        g = Polynomial({2: F(1), 1: F(4)})
        rep = integration_by_parts_check(c, g, F(0), F(1), JS)
        assert rep.passed

    def test_random_cubics(self):
        rng = random.Random(5)
        for _ in range(4):
            f = Polynomial({k: F(rng.randint(-6, 6), rng.randint(1, 5))
                            for k in range(4)})
            g = Polynomial({k: F(rng.randint(-6, 6), rng.randint(1, 5))
                            for k in range(4)})
            rep = integration_by_parts_check(
                f, g, F(1, 4), F(5, 6), JS)
            assert rep.passed

    def test_other_presets_via_twists(self):
        bm = DeformParams.preset("biedenharn_macfarlane", q=F(1, 2))
        f = Polynomial({2: F(1), 0: F(2)})
        g = Polynomial({3: F(1)})
        assert integration_by_parts_check(f, g, F(0), F(1), bm).passed


class TestFundamentalTheorem:
    @pytest.mark.parametrize("kind,pq", [
        ("jagannathan_srinivasa", (1, F(1, 2))),
        ("heine", (F(9, 10), F(1, 2))),
        ("biedenharn_macfarlane", (F(9, 10), F(1, 2))),
        ("quesne", (F(9, 10), F(1, 2))),
    ])
    def test_across_presets(self, kind, pq):
        params = DeformParams.preset(kind, p=pq[0], q=pq[1])
        rng = random.Random(9)
        f = Polynomial({k: F(rng.randint(-9, 9), rng.randint(1, 7))
                        for k in range(13)})
        assert fundamental_theorem_check(
            f, F(1, 5), F(4, 5), params).passed
