"""Value semantics of the result records and the validated parameter
classes: field-wise ``==`` and ``hash``, ``Name(field=...)`` reprs,
immutability, and memos that stay out of all three."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rpqcalc._util import IdentityResult, SuiteReport
from rpqcalc.deform import DeformParams, StructureFunction, rpq_factorial
from rpqcalc.gammabeta import BetaValue, GammaValue
from rpqcalc.padicfun import ConvergenceReport, TwistParams, volkenborn_moment
from rpqcalc.quadrature import QuadratureSpec
from rpqcalc.spinzeta import ZetaSpinValue, zeta_spin_half


def _js():
    return DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))


# name -> (class, factory of fresh equal instances, fields, hashable)
CASES = {
    "IdentityResult": (IdentityResult,
                       lambda: IdentityResult("[1]", F(1), F(1)),
                       ("name", "lhs", "rhs"), True),
    "SuiteReport": (SuiteReport,
                    lambda: SuiteReport("s", (IdentityResult("i", 1, 1),)),
                    ("name", "results"), True),
    "GammaValue": (GammaValue, lambda: GammaValue(F(6), 3, F(0), True),
                   ("value", "terms", "tail_bound", "exact"), True),
    "BetaValue": (BetaValue, lambda: BetaValue(F(1, 6), F(0), True),
                  ("value", "tail_bound", "exact"), True),
    "ConvergenceReport": (ConvergenceReport,
                          lambda: volkenborn_moment(
                              1, TwistParams.make(5, 6, 11), 3),
                          ("levels", "values", "diff_valuations"), False),
    "ZetaSpinValue": (ZetaSpinValue, lambda: zeta_spin_half(2, 3),
                      ("value", "factors", "s", "prime"), True),
    "StructureFunction": (StructureFunction,
                          lambda: StructureFunction.custom(
                              [[1, 0, 1], [0, 1, -1]], [[0, 0, "2/5"]]),
                          ("kind", "numerator", "denominator"), True),
    "DeformParams": (DeformParams, _js,
                     ("p", "q", "structure", "xi1", "xi2"), True),
    "TwistParams": (TwistParams, lambda: TwistParams.make(5, 6, 11),
                    ("prime", "rho", "q", "precision", "classical"), False),
    "QuadratureSpec": (QuadratureSpec,
                       lambda: QuadratureSpec(_js(), terms=10),
                       ("params", "terms"), True),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_fields(case):
    cls, make, fields, _ = case
    obj = make()
    assert type(obj) is cls and cls._fields == fields


def test_equal_fields_compare_equal(case):
    _, make, _, hashable = case
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        # a PadicNumber (whose precision-aware == admits no consistent
        # hash) or a Polynomial field leaves the whole value unhashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


def test_repr_names_every_field(case):
    cls, make, fields, _ = case
    obj = make()
    body = ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields)
    assert repr(obj) == f"{cls.__name__}({body})"


def test_immutable(case):
    _, make, fields, _ = case
    obj = make()
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == repr(make())


def test_different_classes_never_equal():
    a = QuadratureSpec(_js(), terms=3)
    assert a != StructureFunction("heine") and a != (_js(), 3)


SMALL = st.sampled_from([F(1, 3), F(1, 2), F(2, 3)])
TERMS = st.sampled_from([1, 2, 3])


@given(q1=SMALL, t1=TERMS, q2=SMALL, t2=TERMS)
def test_validated_equality_is_fieldwise(q1, t1, q2, t2):
    x = QuadratureSpec(DeformParams(1, q1), t1)
    y = QuadratureSpec(DeformParams(1, q2), t2)
    assert (x == y) == ((q1, t1) == (q2, t2))
    if x == y:
        assert hash(x) == hash(y)


@given(p=st.sampled_from([F(1), F(9, 10)]), q1=SMALL, q2=SMALL)
def test_params_equality_is_fieldwise(p, q1, q2):
    x, y = DeformParams(p, q1), DeformParams(p, q2)
    assert (x == y) == (q1 == q2)
    assert (GammaValue(p, 1, q1, True) == GammaValue(p, 1, q2, True)) \
        == (q1 == q2)


def test_memos_stay_out_of_eq_hash_and_repr():
    filled = _js()
    rpq_factorial(filled, 12)
    assert len(vars(filled)["_factorials"]) == 13
    fresh = _js()
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
