"""Decimal strings of running products: ``_util.running_product_strs``
against ``exact_str`` of the ``Fraction`` products, and the CLI
factorial table against the ``rpq_factorial`` rows."""

import csv
import decimal
import io
import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpqcalc import cli
from rpqcalc._util import exact_str, running_product_strs
from rpqcalc.deform import (PRESET_KINDS, DeformParams, StructureFunction,
                            rpq_factorial, rpq_number)


def factorial_strs(params, count):
    return [exact_str(rpq_factorial(params, n)) for n in range(count)]


def helper_strs(params, count):
    strs = running_product_strs(rpq_number(params, k)
                                for k in range(1, count))
    return list(strs)[:count]


# numerators and denominators past one machine word, so that the
# remainders of the product are taken modulo divisors of several words
rationals = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(rationals, st.integers(-10**40, 10**40)),
                max_size=40))
def test_matches_fraction_products(factors):
    expected, acc = ["1"], F(1)
    for f in factors:
        acc *= f
        expected.append(exact_str(acc))
    assert list(running_product_strs(factors)) == expected


def test_wrong_step_raises(monkeypatch):
    # a "gcd" of 9 mod 2 and 2 that does not divide 9: the exact
    # division leaves a remainder and raises instead of printing
    factors = [F(9), F(1, 2)]  # Fraction(1, 2) itself calls math.gcd
    real_gcd = math.gcd
    monkeypatch.setattr(math, "gcd",
                        lambda a, b: 2 if (a, b) == (1, 2) else real_gcd(a, b))
    with pytest.raises(decimal.Inexact):
        list(running_product_strs(factors))


def test_zero_product_has_no_sign():
    strs = list(running_product_strs([F(-3, 2), F(0), F(-5, 7), F(2)]))
    assert strs == ["1", "-3/2", "0", "0", "0"]


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_presets(kind):
    params = DeformParams.preset(kind, p=F(9, 10), q=F(1, 2))
    assert helper_strs(params, 60) == factorial_strs(params, 60)


pq = st.tuples(st.integers(1, 40), st.integers(1, 40),
               st.integers(1, 40)).map(
    lambda t: (F(t[0] + t[1], t[0] + t[1] + t[2]), F(t[0], t[0] + t[1] + t[2])))


@settings(max_examples=40, deadline=None)
@given(pq=pq, kind=st.sampled_from(PRESET_KINDS),
       count=st.integers(0, 45))
def test_random_parameters(pq, kind, count):
    p, q = pq
    params = DeformParams.preset(kind, p=p, q=q)
    assert helper_strs(params, count) == factorial_strs(params, count)


def test_custom_kernel_through_zero_to_negative():
    # R(u, v) = (u - v)(u - c), c = p^65: positive on the checked window
    # n <= 64, zero at n = 65, negative beyond
    p, q = F(9, 10), F(1, 2)
    c = p ** 65
    kernel = StructureFunction.custom(
        [[2, 0, 1], [1, 1, -1], [1, 0, -c], [0, 1, c]], [[0, 0, 1]])
    params = DeformParams(p, q, kernel)
    assert rpq_number(params, 65) == 0 and rpq_number(params, 66) < 0
    assert rpq_factorial(params, 64) != 0
    strs = helper_strs(params, 72)
    assert strs == factorial_strs(params, 72)
    assert strs[65:] == ["0"] * 7


def test_past_the_int_str_cap():
    params = DeformParams.preset("jagannathan_srinivasa", p=F(9, 10),
                                 q=F(1, 2))
    strs = helper_strs(params, 130)
    assert max(len(s) for s in strs) > sys.get_int_max_str_digits()
    assert strs == factorial_strs(params, 130)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("argv,count", [
    ((), 0), ((), 1), ((), 40),
    (("-p", "9/10", "-q", "1/2"), 130),
    (("--preset", "heine", "-q", "2/3"), 25),
])
def test_cli_table_is_byte_equal(capsys, fmt, argv, count):
    code = cli.main(["table", "--kind", "factorials", "--count", str(count),
                     "--format", fmt, *argv])
    out = capsys.readouterr().out
    assert code == 0
    argv = ["table", "--kind", "factorials", *argv]
    args = cli.build_parser(argv).parse_args(argv)
    cli._scope(args)  # the defaults of what table --kind factorials reads
    params = cli._params(args)
    rows = [[str(n), s] for n, s in enumerate(factorial_strs(params, count))]
    payload = {"kind": "factorials", "header": ["n", "value"], "rows": rows}
    if fmt == "plain":
        text = "\n".join(",".join(r) for r in [["n", "value"]] + rows)
    elif fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows([["n", "value"]] + rows)
        text = buf.getvalue().rstrip("\n")
    assert out == text + "\n"
