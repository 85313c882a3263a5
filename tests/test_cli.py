"""Command-line interface: dispatch, formats, exit codes, round trips."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpqcalc import cli
from rpqcalc._util import (MAX_VALUE_BITS, IdentityResult, SuiteReport,
                           exact_str, uncapped)
from rpqcalc.deform import DeformParams, rpq_factorial, rpq_number
from rpqcalc.gammabeta import gamma_rpq
from rpqcalc.padic import PadicNumber
from rpqcalc.padicfun import TwistParams, volkenborn_moment
from rpqcalc.poly import Polynomial
from rpqcalc.quadrature import definite_integral_poly
from rpqcalc.series import generating_polynomials, zigzag_numbers
from rpqcalc.spinzeta import Mat2Padic, zeta_spin_half

import golden

SRC = str(Path(cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_number_worked_example(self, capsys):
        code, out, err = run(capsys, "eval", "number", "--preset",
                             "jagannathan_srinivasa", "-p", "1",
                             "-q", "1/2", "-n", "3")
        assert code == 0
        assert out.strip() == "7/4"
        assert err == ""

    def test_number_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "number", "-n", "0")
        assert code == 0 and out.strip() == "0"

    def test_binomial(self, capsys):
        code, out, _ = run(capsys, "eval", "binomial", "-p", "1",
                           "-q", "1/2", "-m", "3", "-n", "1")
        assert code == 0 and out.strip() == "7/4"

    def test_gamma_json(self, capsys):
        code, out, _ = run(capsys, "eval", "gamma", "-z", "4",
                           "-p", "1", "-q", "1/2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "21/8" and obj["exact"] is True

    @pytest.mark.parametrize("argv,exact", [
        (("gamma", "-z", "2"), "true"),
        (("gamma", "-z", "1/2", "--preset", "heine", "-q", "9/25",
          "--truncation", "2"), "false"),
        (("beta", "-x", "2", "-y", "3"), "true"),
        (("beta", "-x", "1/2", "-y", "1/2", "--preset", "heine",
          "-q", "9/25", "--truncation", "2"), "false"),
    ])
    def test_csv_booleans_are_json_spelt(self, capsys, argv, exact):
        code, out, err = run(capsys, "eval", *argv, "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[-1] == ["exact", exact]
        code, out, _ = run(capsys, "eval", *argv, "--format", "json")
        assert json.loads(out)["exact"] is json.loads(exact)

    def test_integral(self, capsys):
        code, out, _ = run(capsys, "eval", "integral", "-p", "1",
                           "-q", "1/2", "--coeffs", "0,1",
                           "-a", "0", "-b", "1")
        assert code == 0 and out.strip() == "2/3"

    def test_derivative(self, capsys):
        code, out, _ = run(capsys, "eval", "derivative", "-p", "1",
                           "-q", "1/2", "--coeffs", "0,1,2")
        assert code == 0 and out.strip() == "1,3"

    def test_custom_kernel_file(self, capsys, tmp_path):
        payload = {"numerator": [[1, 0, "1"], [0, 1, "-1"]],
                   "denominator": [[0, 0, "2/5"]]}
        path = tmp_path / "kern.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "eval", "number", "--kernel",
                           str(path), "-p", "9/10", "-q", "1/2",
                           "-n", "3")
        assert code == 0
        assert F(out.strip()) == (F(9, 10) ** 3 - F(1, 2) ** 3) / F(2, 5)

    @pytest.mark.parametrize("argv", [
        ["number", "-n", "5"],
        ["factorial", "-n", "30", "-p", "9/10"],
        ["binomial", "-m", "40", "-n", "17"],
        ["gamma", "-z", "1/2", "-q", "9/25"],
        ["beta", "-x", "7/2", "-y", "3/2", "-q", "9/25"],
        ["integral", "--coeffs", "1,2,3", "-a", "1/3", "-b", "2"],
    ], ids=lambda argv: argv[0])
    def test_json_value_is_the_plain_line(self, capsys, argv):
        code, plain, _ = run(capsys, "eval", *argv)
        assert code == 0
        code, out, _ = run(capsys, "eval", *argv, "--format", "json")
        assert code == 0 and plain == json.loads(out)["value"] + "\n"

    def test_binomial_through_a_zero_number_is_three(self, capsys,
                                                     tmp_path):
        # R(u, v) = (u - v)(u - c), c = p^65, so [65] = 0 and
        # [70]!/([3]! [67]!) is 0/0
        c = F(9, 10) ** 65
        payload = {"numerator": [[2, 0, "1"], [1, 1, "-1"],
                                 [1, 0, str(-c)], [0, 1, str(c)]],
                   "denominator": [[0, 0, "1"]]}
        path = tmp_path / "kern.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "eval", "binomial", "-m", "70",
                             "-n", "3", "--kernel", str(path),
                             "-p", "9/10", "-q", "1/2")
        assert code == 3 and out == ""
        assert "[65] = 0" in err and "internal error" not in err

    def test_kernel_and_preset_exclusive(self, capsys, tmp_path):
        path = tmp_path / "kern.json"
        path.write_text(json.dumps({"numerator": [[1, 0, "1"],
                                                  [0, 1, "-1"]],
                                    "denominator": [[0, 0, "1"]]}))
        code, _, err = run(capsys, "eval", "number", "--kernel",
                           str(path), "--preset", "heine", "-n", "1")
        assert code == 2 and "exclusive" in err


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, _ = run(capsys, "eval", "number", "-q", "not-a-number")
        assert code == 2

    def test_parameter_error_is_two(self, capsys):
        code, _, err = run(capsys, "eval", "number", "-q", "3", "-n", "1")
        assert code == 2 and "parameter" in err

    def test_domain_error_is_three(self, capsys):
        code, _, err = run(capsys, "eval", "gamma", "-z", "0")
        assert code == 3 and "pole" in err.lower()

    def test_io_error_is_four(self, capsys, tmp_path):
        code, _, err = run(capsys, "table", "--kind", "numbers",
                           "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == 4

    def test_empty_check_is_two(self, capsys):
        code, _, _ = run(capsys, "check")
        assert code == 2

    @pytest.mark.parametrize("argv, code, line", [
        ("eval gamma -z 1/2 --preset classical", 3,
         "domain error: kernel is not consistent with its twist bases; "
         "the product-ratio gamma is undefined for it"),
        ("eval factorial -n -1", 2,
         "parameter error: factorial needs n >= 0; got -1"),
        ("carlitz -n -1", 2, "parameter error: need n >= 0"),
        ("volkenborn --moment -1", 2,
         "parameter error: moment exponent must be >= 0"),
        ("spin exp --prime 2", 2, "parameter error: odd prime required"),
        ("pgamma -n 3 --prime x", 2,
         "rpqcalc pgamma: error: argument --prime: not an integer: 'x'"),
        ("eval integral -a 0 -b 1", 2,
         "parameter error: --coeffs required (c0,c1,...)"),
        ("spin level", 2,
         "parameter error: provide --matrix-file or --matrix-json"),
        ("check", 2, "parameter error: no modules selected"),
        # the twist bases follow from the kernel: no option sets them
        ("eval number -n 3 --xi1 1/3", 2,
         "rpqcalc: error: unrecognized arguments: --xi1 1/3"),
        ("eval number -n 3 --xi2 1/3", 2,
         "rpqcalc: error: unrecognized arguments: --xi2 1/3"),
        # rho^a = exp(a log rho), and v(a log rho) = -1 + 1 = 0 here
        ("carlitz -n 3 --a-param=1/5 --prime 5 --method direct", 3,
         "domain error: exp requires |x log q|_p < p^(-1/(p-1)), i.e. "
         "v(x log q) > 1/4; got v(x log q) = 0"),
        ("carlitz -n 3 --a-param=1/5 --prime 5 --method moments", 3,
         "domain error: exp requires |x log q|_p < p^(-1/(p-1)), i.e. "
         "v(x log q) > 1/4; got v(x log q) = 0"),
    ])
    def test_refusal_line(self, capsys, argv, code, line):
        got, out, err = run(capsys, *argv.split())
        assert (got, out, err.splitlines()[-1]) == (code, "", line)

    @pytest.mark.parametrize("option", ["--out", "--kernel", "--matrix-file"])
    def test_missing_file_is_four(self, capsys, tmp_path, option):
        path = str(tmp_path / "no" / "file.json")
        argv = (("spin", "level") if option == "--matrix-file"
                else ("eval", "number"))
        assert run(capsys, *argv, option, path) == (
            4, "", f"i/o error: [Errno 2] No such file or directory: "
                   f"{path!r}\n")

    def test_diagnostics_on_stderr_only(self, capsys):
        code, out, err = run(capsys, "eval", "gamma", "-z", "-1")
        assert code == 3 and out == "" and err != ""

    @pytest.mark.parametrize("argv", [
        ("volkenborn", "--levels", "0"),
        ("volkenborn", "--levels", "-2"),
        ("carlitz", "--levels", "0"),
        ("carlitz", "--levels", "0", "--method", "moments"),
        ("table", "--kind", "volkenborn", "--levels", "0"),
    ])
    def test_no_levels_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "parameter" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("zeta", "eval", "--prime", "4", "-s", "3"),
        ("zeta", "table", "--primes", "3,9"),
        ("table", "--kind", "zeta", "--primes", "1"),
    ])
    def test_non_prime_zeta_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "prime" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("eval", "integral", "--coeffs", "1,x"),
        ("eval", "derivative", "--coeffs", "1/0"),
        ("spin", "log", "--matrix-json", "{"),
        ("spin", "log", "--matrix-json", '{"a":1}'),
        ("spin", "level", "--matrix-json", "[1, 2]"),
        ("eval", "number", "--kernel", "KERNEL"),
        ("table", "--kind", "numbers", "--count", "-3"),
        ("spin", "level", "--matrix-json",
         '{"prime": 5, "entries": [[1, 0], [0, 1]]}'),
        ("spin", "log", "--matrix-json",
         '{"prime": 5, "entries": [[1, 0], [0, 1]]}'),
        ("spin", "log", "--matrix-json", '{"prime": 5, "entries": [1, 0, 0, 1]}'),
        ("spin", "level", "--matrix-json", '{"prime": 5, "entries": "abcd"}'),
    ])
    def test_malformed_input_is_two(self, capsys, tmp_path, argv):
        kernel = tmp_path / "no_denominator.json"
        kernel.write_text(json.dumps({"numerator": [[1, 0, "1"],
                                                    [0, 1, "-1"]]}))
        argv = [str(kernel) if a == "KERNEL" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err != ""
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ("volkenborn", "--precision", "-20"),
        ("spin", "exp", "--precision", "-5"),
        ("pgamma", "-n", "5", "--precision", "0"),
        ("pgamma", "-n", "5", "--precision", "x"),
    ])
    def test_precision_below_one_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--precision" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("table", "--kind", "volkenborn", "--count", "2"),
        ("spin", "exp"),
        ("volkenborn",),
        ("pgamma", "-n", "5"),
        ("pbeta", "-x", "2", "-y", "3"),
        ("carlitz",),
    ], ids=" ".join)
    def test_precision_above_the_cap_is_two(self, capsys, argv):
        # refused while parsing, before any digit is computed
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--precision",
                             str(cli.MAX_PRECISION + 1))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.endswith(
            f"argument --precision: at most {cli.MAX_PRECISION} digits "
            f"(MAX_PRECISION); got {cli.MAX_PRECISION + 1}\n")

    def test_precision_at_the_cap_runs(self, capsys):
        code, out, err = run(capsys, "pgamma", "-n", "5", "--precision",
                             str(cli.MAX_PRECISION))
        assert (code, err) == (0, "") and out.startswith("5^0 * (1 + ")

    @pytest.mark.parametrize("argv", [
        ("eval", "gamma", "-z", "1/2", "-q", "9/25", "--truncation", "0"),
        ("eval", "gamma", "-z", "1/2", "-q", "9/25", "--truncation", "-5"),
        ("eval", "beta", "-x", "1/2", "-y", "1/3", "--truncation", "0"),
    ])
    def test_truncation_below_one_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--truncation" in err and "Traceback" not in err

    @pytest.mark.parametrize("prime", ["0", "1"])
    @pytest.mark.parametrize("argv", [
        ("pgamma", "-n", "5"),
        ("pbeta", "-x", "1", "-y", "2"),
        ("volkenborn",),
        ("carlitz",),
        ("table", "--kind", "volkenborn"),
    ])
    def test_prime_below_two_is_two(self, argv, prime):
        # a subprocess with a timeout: p = 1 used to loop forever
        proc = subprocess.run(
            [sys.executable, "-m", "rpqcalc.cli", *argv, "--prime", prime],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "not prime" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_irrational_root_refused_in_bounded_memory(self):
        # at z = 1/v the exponent (z-1)(z-2)/2 has denominator 2 v^2, and
        # the root search used to begin by building 2^(2 v^2)
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        proc = subprocess.run(
            [sys.executable, "-m", "rpqcalc.cli", "eval", "gamma", "-z",
             "1/1000001", "-p", "9/10", "-q", "1/2"],
            capture_output=True, text=True, timeout=10, preexec_fn=cap,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "parameter error: 9/10^1000000500000/1000002000001 is "
            "irrational; pick parameters whose 1000002000001-th roots are "
            "exact\n")

    @pytest.mark.parametrize("argv, name, bits", [
        (("eval", "gamma", "-z", "47001/2"), "z = 47001/2", 1057698),
        (("eval", "gamma", "-z", "200001/2"), "z = 200001/2", 4500198),
        (("eval", "beta", "-x", "1", "-y", "47001/2"), "y = 47001/2",
         1057698),
    ])
    def test_value_size_refused_before_any_power(self, argv, name, bits):
        # just over MAX_VALUE_BITS: the exact value would take seconds,
        # and at z = 200001/2 minutes, to build and to print
        proc = subprocess.run(
            [sys.executable, "-m", "rpqcalc.cli", *argv, "-q", "9/25",
             "--truncation", "8"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"parameter error: {name} needs an exact value of about {bits} "
            f"bits, over MAX_VALUE_BITS = {MAX_VALUE_BITS}\n")

    @pytest.mark.parametrize("argv", [
        ("check", "--module", "padicfun", "--prime", "1"),
        ("table", "--kind", "bernoulli", "--prime", "1"),
        ("eval", "number", "-n", "3", "--prime", "9"),
        ("spin", "exp", "--prime", "4"),
    ])
    def test_non_prime_is_two_everywhere(self, capsys, argv):
        # table checks --prime at parse time even for a kind that does
        # not read it; check and eval have no --prime
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        if argv[0] in ("check", "eval"):
            assert f"unrecognized arguments: --prime {argv[-1]}" in err
        else:
            assert "--prime" in err and "not prime" in err

    def test_prime_two_stays_valid(self, capsys):
        code, out, err = run(capsys, "zeta", "eval", "--prime", "2")
        assert code == 0 and out != "" and err == ""

    @pytest.mark.parametrize("argv", [
        ("volkenborn", "--moment", "2", "--levels", "29", "--prime", "5"),
        ("volkenborn", "--moment", "2", "--levels", "28", "--prime", "5"),
        ("carlitz", "-n", "2", "--levels", "40", "--prime", "7",
         "--method", "moments"),
        ("carlitz", "-n", "2", "--levels", "40", "--prime", "7",
         "--method", "direct"),
        ("table", "--kind", "volkenborn", "--levels", "30", "--prime", "3"),
    ])
    def test_too_deep_levels_are_two(self, capsys, argv):
        # at the default precision of 16 the working precision is 30
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "parameter error: level 2" in err
        assert "working precision of 30 digits" in err

    @pytest.mark.parametrize("argv", [
        ("pgamma", "-n", "5", "--preset", "heine"),
        ("volkenborn", "--moment", "1", "--kernel", "/nonexistent"),
        ("check", "--module", "deform", "--preset", "heine"),
        ("zeta", "eval", "--prime", "3", "-s", "2", "--kernel",
         "/nonexistent"),
        ("table", "--kind", "volkenborn", "--count", "2", "--preset",
         "heine"),
        ("table", "--kind", "zeta", "-p", "1"),
    ])
    def test_deform_options_only_where_used(self, capsys, argv):
        # --preset, --kernel, -p and -q build DeformParams,
        # which only eval and the Fraction table kinds use
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("zeta", "eval", "--prime", "3", "-s", "2", "-q", "7"),
        ("zeta", "eval", "--prime", "3", "-s", "2", "--rho", "4"),
        ("zeta", "eval", "--prime", "3", "-s", "2", "--precision", "8"),
        ("zeta", "table", "-q", "7"),
        ("zeta", "table", "--precision", "8"),
        ("table", "--kind", "zeta", "-q", "7"),
        ("table", "--kind", "zeta", "--rho", "4"),
        ("table", "--kind", "zeta", "--precision", "8"),
        ("check", "--module", "deform", "-q", "7"),
        ("check", "--module", "deform", "--rho", "4"),
        ("check", "--module", "deform", "--precision", "8"),
        ("eval", "number", "-n", "3", "--rho", "4"),
        ("eval", "number", "-n", "3", "--precision", "8"),
        ("spin", "exp", "-q", "7"),
        ("spin", "exp", "--rho", "4"),
        ("table", "--kind", "bernoulli", "--rho", "4"),
        ("table", "--kind", "factorials", "--precision", "8"),
    ])
    def test_twist_options_only_where_used(self, capsys, argv):
        # -q, --rho and --precision exist only where something reads them
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("table", "--kind", "volkenborn", "--count", "2", "-q", "11",
         "--rho", "6", "--precision", "8"),
        ("spin", "exp", "--precision", "8"),
        ("pgamma", "-n", "5", "--rho", "6", "--precision", "8"),
    ])
    def test_twist_options_still_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out != "" and err == ""

    @pytest.mark.parametrize("argv", [("pgamma", "-n", "5"), ("spin", "exp"),
                                      ("table", "--kind", "volkenborn")])
    def test_default_precision_is_sixteen(self, capsys, argv):
        default = run(capsys, *argv)[1]
        assert run(capsys, *argv, "--precision", "16")[1] == default
        assert run(capsys, *argv, "--precision", "8")[1] != default

    def test_q_one_half_is_not_the_twist_default(self, capsys):
        # q = 1/2 is not 1 mod 5, so it cannot be a p-adic twist
        code, out, err = run(capsys, "pgamma", "-n", "5", "-q", "1/2")
        assert code == 2 and out == "" and "parameter" in err
        code, default, _ = run(capsys, "pgamma", "-n", "5")
        assert code == 0
        assert run(capsys, "pgamma", "-n", "5", "-q", "11")[1] == default

    def test_deepest_resolved_level(self, capsys):
        code, out, _ = run(capsys, "volkenborn", "--moment", "2",
                           "--levels", "27", "--prime", "5")
        assert code == 0 and "zero" not in out


@settings(max_examples=12, deadline=None)
@given(command=st.sampled_from(["volkenborn", "carlitz", "table"]),
       n=st.integers(min_value=0, max_value=6),
       levels=st.integers(min_value=1, max_value=40),
       prime=st.sampled_from([3, 5, 7, 11]),
       method=st.sampled_from(["direct", "moments"]))
def test_riemann_commands_fuzz(command, n, levels, prime, method):
    argv = {"volkenborn": ["volkenborn", "--moment", str(n)],
            "carlitz": ["carlitz", "-n", str(n), "--method", method],
            "table": ["table", "--kind", "volkenborn", "--count", str(n)],
            }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "rpqcalc.cli", *argv, "--levels", str(levels),
         "--prime", str(prime)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr


class TestCheck:
    def test_single_module(self, capsys):
        code, out, _ = run(capsys, "check", "--module", "deform")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["modules"][0]["module"] == "deform"

    def test_classical_limit_adds_measured(self, capsys):
        code, out, _ = run(capsys, "check", "--module", "gammabeta",
                           "--classical-limit")
        assert code == 0
        report = json.loads(out)
        entry = report["modules"][0]
        assert "measured_only" in entry
        assert any(not m["asserted"] for m in entry["measured_only"])

    def test_format_json_is_the_plain_report(self, capsys):
        _, plain, _ = run(capsys, "check", "--module", "deform")
        code, as_json, _ = run(capsys, "check", "--module", "deform",
                               "--format", "json")
        assert code == 0
        assert as_json == plain == json.dumps(json.loads(plain),
                                              indent=2) + "\n"

    def test_failing_identity_exits_one(self, capsys, monkeypatch):
        from rpqcalc import deform
        bad = SuiteReport("s", (IdentityResult("ok", 1, 1),
                                IdentityResult("bad", 1, 2)))
        monkeypatch.setattr(deform, "check_suites", lambda: (bad,))
        code, out, err = run(capsys, "check", "--module", "deform")
        assert code == 1 and json.loads(out)["passed"] is False
        assert err == "first failing identity: ('deform', 'bad')\n"

    def test_format_csv_is_refused(self, capsys):
        code, out, err = run(capsys, "check", "--module", "deform",
                             "--format", "csv")
        assert code == 2 and out == ""
        assert "--format csv" in err


TABLE_KINDS = ("numbers", "factorials", "bernoulli", "euler", "genocchi",
               "zigzag", "volkenborn")


class TestTables:
    def test_zeta_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "zeta.csv"
        code, _, _ = run(capsys, "table", "--kind", "zeta",
                         "--format", "csv", "--primes", "2,3",
                         "--s-values", "3,4", "--out", str(out_path))
        assert code == 0
        with out_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p", "s", "value-num", "value-den"]
        for p, s, num, den in rows[1:]:
            expected = zeta_spin_half(int(p), int(s)).value
            assert F(int(num), int(den)) == expected

    def test_numbers_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "numbers.csv"
        code, _, _ = run(capsys, "table", "--kind", "numbers",
                         "--format", "csv", "-p", "1", "-q", "1/2",
                         "--count", "12", "--out", str(out_path))
        assert code == 0
        js = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
        with out_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "value"]
        assert len(rows) == 13
        for n_str, val in rows[1:]:
            assert F(val) == rpq_number(js, int(n_str))

    def test_bernoulli_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "bern.csv"
        code, _, _ = run(capsys, "table", "--kind", "bernoulli",
                         "--preset", "classical", "--format", "csv",
                         "--count", "9", "--out", str(out_path))
        assert code == 0
        cl = DeformParams.preset("classical", p=1, q=1)
        expected = generating_polynomials(cl, "bernoulli", F(0), 8)
        with out_path.open() as fh:
            rows = list(csv.reader(fh))
        for n_str, val in rows[1:]:
            assert F(val) == expected[int(n_str)]

    def test_empty_grid_header_only(self, capsys, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run(capsys, "table", "--kind", "numbers",
                         "--count", "0", "--format", "csv",
                         "--out", str(out_path))
        assert code == 0
        with out_path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [["n", "value"]]

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_count_zero_header_only(self, capsys, kind):
        code, out, err = run(capsys, "table", "--kind", kind,
                             "--count", "0")
        header = "r,moment,converged" if kind == "volkenborn" else "n,value"
        assert (code, out, err) == (0, header + "\n", "")

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_negative_count_is_two(self, capsys, kind):
        code, out, err = run(capsys, "table", "--kind", kind,
                             "--count", "-1")
        assert code == 2 and out == ""
        assert "--count" in err and "Traceback" not in err


# -- streamed tables ----------------------------------------------------------

def expected_rows(kind, count):
    """The rows of ``table --kind kind --count count`` at the default
    options, computed from the library."""
    params = DeformParams(F(1), F(1, 2))
    if kind == "volkenborn":
        tw = TwistParams.make(5, 6, 11, precision=cli.DEFAULT_PRECISION)
        reps = [volkenborn_moment(r, tw, 6) for r in range(count)]
        return [[str(r), str(rep.best_value), str(rep.converged)]
                for r, rep in enumerate(reps)]
    if kind == "numbers":
        vals = [rpq_number(params, n) for n in range(count)]
    elif kind == "factorials":
        vals = [rpq_factorial(params, n) for n in range(count)]
    elif kind == "zigzag":
        vals = zigzag_numbers(params, count) if count else []
    else:
        vals = (generating_polynomials(params, kind, F(0), count - 1)
                if count else [])
    return [[str(n), exact_str(v)] for n, v in enumerate(vals)]


def assembled_table(fmt, payload):
    """The table text assembled whole, as ``table`` built it before it
    streamed its rows."""
    lines = [payload["header"]] + payload["rows"]
    if fmt == "plain":
        text = "\n".join(",".join(r) for r in lines)
    elif fmt == "json":
        text = json.dumps(payload, indent=2)
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        for row in lines:
            w.writerow(row)
        text = buf.getvalue().rstrip("\n")
    return text + "\n"


ZETA_GRIDS = {(): ((2, 3), (2, 3, 4)),
              ("--primes", "7", "--s-values", "5"): ((7,), (5,))}


def table_cases():
    for kind in TABLE_KINDS:
        for count in (0, 1, 6):
            yield ("table", "--kind", kind, "--count", str(count)), (
                kind, ["r", "moment", "converged"] if kind == "volkenborn"
                else ["n", "value"], expected_rows(kind, count))
    for grid, (primes, s_values) in ZETA_GRIDS.items():
        rows = [[str(p), str(s), str(v.numerator), str(v.denominator)]
                for p in primes for s in s_values
                for v in [zeta_spin_half(p, s).value]]
        for lead in (("table", "--kind", "zeta"), ("zeta", "table")):
            yield lead + grid, (
                "zeta", ["p", "s", "value-num", "value-den"], rows)


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("argv, table", list(table_cases()))
def test_streamed_table_is_byte_identical(capsys, tmp_path, argv, table,
                                          fmt, sink):
    kind, header, rows = table
    text = assembled_table(fmt, {"kind": kind, "header": header,
                                 "rows": rows})
    path = tmp_path / "table.txt"
    extra = ("--out", str(path)) if sink == "out" else ()
    code, out, err = run(capsys, *argv, "--format", fmt, *extra)
    assert (code, err) == (0, "")
    if sink == "out":
        assert out == "" and path.read_bytes() == text.encode()
    else:
        assert out == text


class _Discard:
    """A stdout that counts what is written to it and keeps nothing."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_table_memory_is_per_row(monkeypatch, fmt):
    # 400 factorial rows print ~6 MB; the largest row is ~50 kB
    sink = _Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["table", "--kind", "factorials", "--count", "400",
                         "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < sink.written / 4, (peak, sink.written)


# (u - v)/(u - c) with c = (9/10)^70: positive on the window n <= 64
# that DeformParams checks, singular at [70]
SINGULAR_AT_70 = {"numerator": [[1, 0, "1"], [0, 1, "-1"]],
                  "denominator": [[1, 0, "1"],
                                  [0, 0, str(-F(9, 10) ** 70)]]}
# (u - v)(u - c) with c = (9/10)^65: [65] = 0, so [n]! = 0 from n = 65
ZERO_AT_65 = {"numerator": [[2, 0, "1"], [1, 1, "-1"],
                            [1, 0, str(-F(9, 10) ** 65)],
                            [0, 1, str(F(9, 10) ** 65)]],
              "denominator": [[0, 0, "1"]]}


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("argv, code", [
    (("table", "--kind", "numbers", "--count", "75", "-p", "9/10",
      "--kernel", SINGULAR_AT_70), 3),
    (("table", "--kind", "factorials", "--count", "75", "-p", "9/10",
      "--kernel", SINGULAR_AT_70), 3),
    (("table", "--kind", "bernoulli", "--count", "70", "-p", "9/10",
      "--kernel", ZERO_AT_65), 3),
    (("table", "--kind", "volkenborn", "--count", "3", "--levels", "30",
      "--prime", "3"), 2),
    (("zeta", "table", "--primes", "2,3", "--s-values", "3,0"), 3),
    (("table", "--kind", "zeta", "--primes", "2", "--s-values", "3,0"), 3),
])
def test_failing_table_writes_nothing(capsys, tmp_path, argv, code, sink):
    argv = list(argv)
    if "--kernel" in argv:
        i = argv.index("--kernel") + 1
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps(argv[i]))
        argv[i] = str(kernel)
    path = tmp_path / "table.txt"
    extra = ["--out", str(path)] if sink == "out" else []
    got, out, err = run(capsys, *argv, *extra)
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not path.exists()


class TestPadicCommands:
    def test_pgamma(self, capsys):
        code, out, _ = run(capsys, "pgamma", "-n", "1", "--prime", "5")
        assert code == 0
        assert out.strip().startswith("5^0 *")

    def test_pbeta(self, capsys):
        code, out, _ = run(capsys, "pbeta", "-x", "1", "-y", "1",
                           "--prime", "5")
        assert code == 0 and "5^0" in out

    def test_volkenborn_report(self, capsys):
        code, out, _ = run(capsys, "volkenborn", "--moment", "1",
                           "--levels", "4", "--prime", "5",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["moment"] == 1 and len(obj["values"]) == 4

    def test_carlitz(self, capsys):
        code, out, _ = run(capsys, "carlitz", "-n", "1", "--levels",
                           "4", "--prime", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "direct"


class TestSpinCommands:
    def test_exp_then_level(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spin", "exp", "--generator", "z",
                           "--scale", "5", "-t", "1", "--prime", "5",
                           "--precision", "10")
        assert code == 0
        mat = out.strip()
        mat_file = tmp_path / "g.json"
        mat_file.write_text(mat)
        code, out, _ = run(capsys, "spin", "level", "--matrix-file",
                           str(mat_file))
        assert code == 0
        assert int(out.strip()) >= 1

    def test_log_of_exp(self, capsys, tmp_path):
        code, out, _ = run(capsys, "spin", "exp", "--generator",
                           "plus", "--scale", "1", "-t", "25",
                           "--prime", "5", "--precision", "10")
        assert code == 0
        mat_file = tmp_path / "g.json"
        mat_file.write_text(out.strip())
        code, out, _ = run(capsys, "spin", "log", "--matrix-file",
                           str(mat_file))
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"][1]["valuation"] == 2  # t = 25 upper entry


# -- option scope -----------------------------------------------------------

def _subcommands():
    """name -> subparser, each from the parser the CLI builds to parse
    that subcommand."""
    def subparser(name):
        top = cli.build_parser([name])
        return next(a for a in top._actions
                    if isinstance(a, argparse._SubParsersAction)).choices[name]
    return {name: subparser(name) for name in cli.COMMANDS}


SUBCOMMANDS = _subcommands()


def _keys(name):
    """The operations of a subcommand, written as in ``cli.SCOPE``."""
    for action in SUBCOMMANDS[name]._actions:
        if action.dest == "operation":
            return [f"{name} {op}" for op in action.choices]
        if action.dest == "kind":
            return [f"{name} --kind {kind}" for kind in action.choices]
    return [name]


KEYS = [key for name in SUBCOMMANDS for key in _keys(name)]


def _options(name):
    """The options of a subcommand, but -h and the --kind selector."""
    return [a for a in SUBCOMMANDS[name]._actions
            if a.option_strings and a.dest not in ("help", "kind")]


def _required(name):
    """Values for the options argparse requires (pgamma -n, pbeta -x -y)."""
    return [tok for a in _options(name) if a.required
            for tok in (a.option_strings[0], "1")]


IDENTITY_5 = json.dumps(Mat2Padic(
    *(PadicNumber.from_rational(x, 5, 3) for x in (1, 0, 0, 1))).to_json())


class TestOptionScope:
    @pytest.mark.parametrize("key", KEYS)
    def test_unread_options_are_refused(self, capsys, key):
        # every option the subcommand has but the operation does not
        # read exits 2 before any work, naming the flag
        name = key.split()[0]
        reads = cli.SCOPE[key]
        unread = [a for a in _options(name) if a.dest not in reads]
        for action in unread:
            flag = action.option_strings[0]
            value = [] if action.nargs == 0 else \
                [action.choices[0] if action.choices else "7"]
            code, out, err = run(capsys, *key.split(), *_required(name),
                                 flag, *value)
            assert (code, out, err) == (
                2, "", f"parameter error: {key} takes no {flag}\n")

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_scope_matches_the_parser(self, name):
        # SCOPE has one entry per operation; each reads only options
        # the subcommand has, and each option is read by some operation
        keys = _keys(name)
        assert [k for k in cli.SCOPE if k.split()[0] == name] == keys
        dests = {a.dest for a in _options(name)}
        reads = set().union(*(cli.SCOPE[key] for key in keys))
        assert reads == dests

    def test_zeta_table_is_table_kind_zeta(self):
        assert cli.SCOPE["zeta table"] is cli.SCOPE["table --kind zeta"]

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_help_renders(self, capsys, name):
        code, out, err = run(capsys, name, "--help")
        assert code == 0 and err == ""
        assert out.startswith(f"usage: rpqcalc {name} [-h]")

    @pytest.mark.parametrize("key", KEYS)
    def test_bad_prime_is_two(self, capsys, key):
        # parsed (and refused) wherever --prime is registered, so
        # wherever it is read; elsewhere it is not an option
        name = key.split()[0]
        code, out, err = run(capsys, *key.split(), *_required(name),
                             "--prime", "4")
        assert code == 2 and out == ""
        if "prime" in {a.dest for a in _options(name)}:
            assert "--prime: p = 4 is not prime" in err
        else:
            assert "unrecognized arguments: --prime 4" in err

    @pytest.mark.parametrize("argv, message", [
        (("eval", "number", "-n", "3", "-z", "5", "--truncation", "9"),
         "eval number takes no -z, --truncation"),
        (("table", "--kind", "numbers", "--levels", "9", "-x", "3",
          "--primes", "5", "--prime", "7"),
         "table --kind numbers takes no --levels, -x, --primes, --prime"),
        (("table", "--kind", "zeta", "--count", "99", "-x", "4"),
         "table --kind zeta takes no --count, -x"),
        (("zeta", "table", "-s", "9", "--prime", "7"),
         "zeta table takes no -s, --prime"),
        (("spin", "level", "--matrix-json", IDENTITY_5, "--prime", "7"),
         "spin level takes no --prime"),
    ])
    def test_all_unread_flags_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"parameter error: {message}\n")

    @pytest.mark.parametrize("modules", [["deform"], ["series", "padicfun"]])
    def test_classical_limit_only_with_gammabeta(self, capsys, modules):
        # check is one SCOPE key, so --classical-limit is refused here,
        # after --module all is expanded
        argv = [tok for m in modules for tok in ("--module", m)]
        code, out, err = run(capsys, "check", *argv, "--classical-limit")
        assert (code, out, err) == (2, "", "parameter error: "
                                    "--classical-limit is read only by "
                                    "--module gammabeta\n")

    @pytest.mark.parametrize("op", ["log", "level"])
    def test_matrix_file_and_json_exclusive(self, capsys, tmp_path, op):
        mat_file = tmp_path / "g.json"
        mat_file.write_text(IDENTITY_5)
        code, out, err = run(capsys, "spin", op, "--matrix-file",
                             str(mat_file), "--matrix-json", '{"bogus": 1}')
        assert (code, out, err) == (2, "", "parameter error: --matrix-file "
                                    "and --matrix-json are mutually "
                                    "exclusive\n")


# -- every option read changes the result ----------------------------------

# [[1, 25], [0, 1]] at p = 5, of level 2 where the identity's is 3
UNIPOTENT_5 = json.dumps(Mat2Padic(
    *(PadicNumber.from_rational(x, 5, 3) for x in (1, 25, 0, 1))).to_json())
# a custom kernel [n] = p^(2n) - q^(2n), no constant multiple of a
# preset's, so that binomials change too
KERNEL = '{"numerator": [[2, 0, 1], [0, 2, -1]], "denominator": [[0, 0, 1]]}'
DEFORM_VARIANTS = {"preset": "--preset heine", "kernel": "--kernel {kernel}",
                   "p": "-p 4/5", "q": "-q 1/3"}
# the gamma product needs exact roots, so p = 1 and q, 1 - q are squares;
# there each preset with |xi2/xi1| < 1 gives the default's values, so
# the preset variant is one that refuses
GAMMA_VARIANTS = dict(DEFORM_VARIANTS, preset="--preset quesne",
                      q="-q 16/25", truncation="--truncation 3")
TWIST_VARIANTS = {"prime": "--prime 3", "rho": "--rho 16", "q": "-q 21",
                  "precision": "--precision 5"}
GRID = ("table --kind zeta --primes 3 --s-values 2",
        {"primes": "--primes 5", "s_values": "--s-values 3"})
# Each SCOPE key: a command that exits 0 and, for each option it reads
# but --format and --out, a variant: tokens appended to the command (the
# last value of an option wins) or, when they start with the subcommand,
# a command line of their own.  carlitz --method is left out: its two
# routes print the same digits by design.
OPTION_CONTRACT = {
    "eval number": ("eval number -n 3 -p 9/10",
                    dict(DEFORM_VARIANTS, n="-n 4")),
    "eval factorial": ("eval factorial -n 3 -p 9/10",
                       dict(DEFORM_VARIANTS, n="-n 4")),
    "eval binomial": ("eval binomial -m 4 -n 1 -p 9/10",
                      dict(DEFORM_VARIANTS, m="-m 5", n="-n 2")),
    "eval gamma": ("eval gamma -z 3/2 -q 9/25 --truncation 2",
                   dict(GAMMA_VARIANTS, z="-z 5/2")),
    "eval beta": ("eval beta -x 3/2 -y 3/2 -q 9/25 --truncation 2",
                  dict(GAMMA_VARIANTS, x="-x 5/2", y="-y 5/2")),
    "eval integral": ("eval integral --coeffs 1,2 -p 9/10",
                      dict(DEFORM_VARIANTS, coeffs="--coeffs 1,3",
                           a="-a 1/2", b="-b 2")),
    "eval derivative": ("eval derivative --coeffs 1,2,3 -p 9/10",
                        dict(DEFORM_VARIANTS, coeffs="--coeffs 1,2,4")),
    "check": ("check --module gammabeta",
              {"module": "--module deform",
               "classical_limit": "--classical-limit"}),
    **{f"table --kind {kind}": (f"table --kind {kind} --count 5 -p 9/10",
                                dict(DEFORM_VARIANTS, count="--count 6"))
       for kind in ("numbers", "factorials", "zigzag")},
    **{f"table --kind {kind}": (f"table --kind {kind} --count 5 -p 9/10",
                                dict(DEFORM_VARIANTS, count="--count 6",
                                     x="-x 1"))
       for kind in ("bernoulli", "euler", "genocchi")},
    "table --kind volkenborn": ("table --kind volkenborn --count 2",
                                dict(TWIST_VARIANTS, count="--count 3",
                                     levels="--levels 3")),
    "table --kind zeta": GRID,
    "spin exp": ("spin exp --precision 3 -t 15",
                 {"prime": "--prime 3", "precision": "--precision 4",
                  "generator": "--generator plus", "scale": "--scale 5",
                  "t": "-t 30"}),
    **{f"spin {op}": (f"spin {op} --matrix-json {{identity}}",
                      {"matrix_json": "--matrix-json {unipotent}",
                       "matrix_file": f"spin {op} --matrix-file {{file}}"})
       for op in ("log", "level")},
    "zeta eval": ("zeta eval", {"prime": "--prime 3", "s": "-s 4"}),
    "zeta table": GRID,
    "volkenborn": ("volkenborn --levels 2",
                   dict(TWIST_VARIANTS, moment="--moment 2",
                        levels="--levels 3")),
    "pgamma": ("pgamma -n 3", dict(TWIST_VARIANTS, n="-n 4")),
    "pbeta": ("pbeta -x 2 -y 3", dict(TWIST_VARIANTS, x="-x 3", y="-y 4")),
    "carlitz": ("carlitz -n 2 --levels 2",
                dict(TWIST_VARIANTS, n="-n 3", a_param="--a-param 1",
                     x_int="--x-int 1", levels="--levels 3")),
}


@pytest.mark.parametrize("key", cli.SCOPE)
def test_every_option_read_changes_the_result(capsys, tmp_path, key):
    # an option that is accepted and ignored leaves stdout and the exit
    # code as they were; an option with no variant here fails too
    base, variants = OPTION_CONTRACT[key]
    reads = set(cli.SCOPE[key]) - {"format", "out"} - (
        {"method"} if key == "carlitz" else set())
    assert set(variants) == reads
    (tmp_path / "kernel.json").write_text(KERNEL)
    (tmp_path / "g.json").write_text(UNIPOTENT_5)
    fill = {k: shlex.quote(str(v)) for k, v in dict(
        kernel=tmp_path / "kernel.json", file=tmp_path / "g.json",
        identity=IDENTITY_5, unipotent=UNIPOTENT_5).items()}
    result = lambda line: run(capsys, *shlex.split(line.format(**fill)))[:2]
    first = result(base)
    assert first[0] == 0
    for dest, tokens in variants.items():
        line = tokens if tokens.startswith(key.split()[0]) \
            else f"{base} {tokens}"
        assert result(line) != first, dest


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("argv", [
    ("volkenborn", "--levels", "3"),
    ("carlitz", "--levels", "3"),
    ("pgamma", "-n", "5"),
    ("pbeta", "-x", "2", "-y", "3"),
    ("spin", "exp"),
    ("spin", "log", "--matrix-json", IDENTITY_5),
    ("zeta", "eval"),
    ("check", "--module", "spinzeta"),
    ("eval", "derivative", "--coeffs", "1,2"),
])
def test_csv_refuses_nested_payloads(capsys, tmp_path, argv, sink):
    # one key,value row per field cannot hold a list or an object
    path = tmp_path / "out.csv"
    extra = ["--out", str(path)] if sink == "out" else []
    code, out, err = run(capsys, *argv, "--format", "csv", *extra)
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: --format csv ")
    assert err.count("\n") == 1
    assert not path.exists()


def test_zeta_eval_plain(capsys):
    code, out, _ = run(capsys, "zeta", "eval", "--prime", "2", "-s", "3")
    assert code == 0
    expected = zeta_spin_half(2, 3).value
    assert out.strip() == f"{expected.numerator}/{expected.denominator}"


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_zeta_table_matches_table_kind_zeta(capsys, fmt):
    grid = ("--primes", "2,3,5", "--s-values", "3,4", "--format", fmt)
    code, out, err = run(capsys, "zeta", "table", *grid)
    assert code == 0 and err == ""
    code_t, out_t, _ = run(capsys, "table", "--kind", "zeta", *grid)
    assert code_t == 0
    assert out == out_t and out != ""


@pytest.mark.parametrize("argv,prime,s", [
    (("zeta", "eval", "--prime", "3", "-s", "5000"), 3, 5000),
    (("zeta", "eval", "--prime", "3", "-s", "5000", "--format", "json"),
     3, 5000),
    (("zeta", "table", "--primes", "3", "--s-values", "5000"), 3, 5000),
    (("table", "--kind", "zeta", "--primes", "7", "--s-values", "3000"),
     7, 3000),
], ids=["eval", "eval-json", "zeta-table", "table-kind-zeta"])
def test_zeta_past_the_int_str_cap(capsys, argv, prime, s):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    z = zeta_spin_half(prime, s)
    num, den = exact_str(z.value.numerator), exact_str(z.value.denominator)
    assert len(den) > sys.get_int_max_str_digits()
    if "json" in argv:
        obj = uncapped(json.loads, out)
        assert obj["value"] == {"num": z.value.numerator,
                                "den": z.value.denominator}
        assert [(f["label"], uncapped(F, f["value"]))
                for f in obj["factors"]] == list(z.factors)
    elif argv[0] == "zeta" and argv[1] == "eval":
        assert out == f"{num}/{den}\n"
    else:
        assert out == f"p,s,value-num,value-den\n{prime},{s},{num},{den}\n"


@pytest.mark.parametrize("argv", [
    ("eval", "number", "-n", "1" + "0" * 5000),
    ("table", "--kind", "numbers", "--count", "1" + "0" * 5000),
], ids=["n", "count"])
def test_parsing_keeps_the_int_str_cap(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "invalid int value" in err


@pytest.mark.parametrize("op,option,value,rest", [
    ("gamma", "-z", "-1/2", ("-q", "9/25")),
    ("integral", "--coeffs", "-1,2", ()),
], ids=["z", "coeffs"])
def test_negative_rational_joins_with_equals(capsys, op, option, value,
                                             rest):
    argv = ["eval", op, f"{option}={value}", *rest]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    args = cli.build_parser(argv).parse_args(argv)
    cli._scope(args)  # the defaults of what the operation reads
    params = cli._params(args)
    if op == "gamma":
        expected = gamma_rpq(F(value), params).value
    else:
        expected = definite_integral_poly(Polynomial([F(-1), F(2)]),
                                          F(0), F(1), params)
    assert out == exact_str(expected) + "\n"
    code, out, err = run(capsys, "eval", op, option, value, *rest)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {option}: expected one argument\n")


IMPORT_SURFACE = r"""
import contextlib, io, sys

LIBRARY = {"rpqcalc." + m for m in (
    "_kernel", "deform", "gammabeta", "padic", "padicfun", "poly",
    "quadrature", "series", "spinzeta")}
out = {}
loaded = lambda: sorted(LIBRARY & set(sys.modules))

import rpqcalc
out["bare"] = loaded()
from rpqcalc import cli


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        out.setdefault("codes", {})[" ".join(argv)] = cli.main(list(argv))
    return text.getvalue()


# the commands before "--" run first; out["lead"] is what they loaded
args = sys.argv[1:]
cut = args.index("--")
for argv in args[:cut]:
    run(*argv.split(" "))
out["lead"] = loaded()
for argv in args[cut + 1:]:
    run(*argv.split(" "))
out["json"] = "json" in sys.modules  # every command so far prints text
g = run("spin", "exp")
run("spin", "level", "--matrix-json", g)
run("spin", "log", "--matrix-json", g)
run("check", "--module", "all", "--classical-limit")
import json
out["dataclasses"] = "dataclasses" in sys.modules
names = {}
exec("from rpqcalc import *", names)
out["star"] = sorted(
    name for name in rpqcalc.__all__ if name != "KERNEL_BACKEND"
    and names[name] is not getattr(sys.modules[names[name].__module__],
                                   name))
out["star_missing"] = sorted(set(rpqcalc.__all__) - set(names))
out["dir"] = sorted(set(rpqcalc.__all__) - set(dir(rpqcalc)))
try:
    rpqcalc.nope
    out["nope"] = "no error"
except AttributeError as exc:
    out["nope"] = str(exc)
print(json.dumps(out))
"""

# commands served by the Fraction layers alone
FRACTION_COMMANDS = [
    *(["eval", op] for op in ("number", "factorial", "binomial", "gamma",
                              "beta")),
    ["eval", "integral", "--coeffs", "1,2"],
    ["eval", "derivative", "--coeffs", "1,2"],
    *(["table", "--kind", kind, "--count", "3"]
      for kind in ("numbers", "factorials", "bernoulli", "zigzag")),
]

SURFACE_COMMANDS = [
    *FRACTION_COMMANDS,
    ["table", "--kind", "volkenborn", "--count", "3"],
    ["table", "--kind", "zeta", "--format", "csv"],
    ["zeta", "eval"],
    ["zeta", "table"],
    ["volkenborn", "--levels", "3"],
    ["pbeta", "-x", "2", "-y", "3"],
    ["carlitz", "--levels", "3"],
    ["carlitz", "--levels", "3", "--method", "moments"],
]


def _import_surface(lead, rest):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SURFACE,
         *(" ".join(argv) for argv in lead), "--",
         *(" ".join(argv) for argv in rest)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_surface():
    """The package and the CLI load submodules only on use, never
    ``dataclasses``, and ``json`` only for JSON in or out; one fresh
    process runs every subcommand.  Run first in a fresh process, the
    Fraction-layer commands load neither ``padic`` nor ``padicfun``, and
    the p-adic commands load no Fraction layer: ``pgamma``,
    ``volkenborn``, ``carlitz`` and ``pbeta`` load only ``padic`` and
    ``padicfun``, not ``_kernel``, ``zeta eval`` and ``spin exp`` only
    ``padic`` and ``spinzeta``, and ``eval derivative`` only ``deform``
    and ``poly``, no ``series``."""
    pgamma = [["pgamma", "-n", "5"]]
    padic = [*pgamma, ["volkenborn", "--levels", "3"],
             ["carlitz", "--levels", "3"], ["pbeta", "-x", "2", "-y", "3"]]
    assert _import_surface(padic, [])["lead"] == [
        "rpqcalc.padic", "rpqcalc.padicfun"]
    spin_zeta = [["zeta", "eval"], ["spin", "exp"]]
    assert _import_surface(spin_zeta, [])["lead"] == [
        "rpqcalc.padic", "rpqcalc.spinzeta"]
    derivative = [["eval", "derivative", "--coeffs", "1,2"]]
    assert _import_surface(derivative, [])["lead"] == [
        "rpqcalc.deform", "rpqcalc.poly"]
    out = _import_surface(FRACTION_COMMANDS,
                          SURFACE_COMMANDS[len(FRACTION_COMMANDS):] + pgamma)
    assert out["bare"] == []
    assert not {"rpqcalc.padic", "rpqcalc.padicfun"} & set(out["lead"])
    assert set(out["codes"].values()) == {0}, out["codes"]
    assert len(out["codes"]) == len(SURFACE_COMMANDS) + 5
    assert out["json"] is False
    assert out["dataclasses"] is False
    assert out["star"] == [] and out["star_missing"] == []
    assert out["dir"] == []
    assert "has no attribute 'nope'" in out["nope"]


# -- the process entry point ----------------------------------------------

def run_process(*argv, buffered=True, **kwargs):
    """``python -m rpqcalc.cli argv``.  stdout is block-buffered, or
    unbuffered with ``buffered=False``: a failed write then shows in
    ``main`` itself rather than in the final flush."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "rpqcalc.cli", *argv],
                          timeout=120, env=env, **kwargs)


def test_large_table_survives_the_exit(capsys, tmp_path):
    argv = ("table", "--kind", "factorials", "--count", "250")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and len(out) > 1_500_000
    proc = run_process(*argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == out.encode()
    path = tmp_path / "factorials.csv"
    proc = run_process(*argv, "--out", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ("eval", "number", "-n", "4"),
    ("check", "--module", "deform"),
    ("table", "--kind", "factorials", "--count", "300"),
])
def test_closed_stdout_is_four(argv, buffered):
    read, write = os.pipe()
    os.close(read)  # every write to stdout fails with EPIPE
    try:
        proc = run_process(*argv, buffered=buffered, stdout=write)
    finally:
        os.close(write)
    err = proc.stderr.decode()
    assert proc.returncode == 4, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")


def test_reader_closing_mid_table_is_four():
    with subprocess.Popen(
            [sys.executable, "-m", "rpqcalc.cli", "table", "--kind",
             "factorials", "--count", "400"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC)) as proc:
        head = proc.stdout.read(65536)
        proc.stdout.close()  # ~6 MB of rows are still to come
        err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 4, err
    assert head.startswith(b"n,value\n0,1\n1,1\n2,3/2\n")
    assert "Traceback" not in err and "Exception ignored" not in err
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")


def test_closed_stderr_is_four():
    read, write = os.pipe()
    os.close(read)  # the domain error's message cannot be written
    try:
        proc = run_process("eval", "gamma", "-z", "0", stderr=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (4, b"")


@pytest.mark.parametrize("argv, code", [
    (("eval", "number", "-n", "x"), 2),
    (("check",), 2),
    (("eval", "gamma", "-z", "0"), 3),
])
def test_error_codes_through_the_process(argv, code):
    proc = run_process(*argv)
    assert proc.returncode == code
    assert proc.stdout == b"" and proc.stderr != b""
    assert b"Traceback" not in proc.stderr


class _Exited(Exception):
    pass


@pytest.fixture
def exits(monkeypatch):
    """The codes ``cli.run`` passes to ``os._exit``, which here raises
    ``_Exited`` instead of ending the test process."""
    codes = []

    def fake_exit(code):
        codes.append(code)
        raise _Exited

    monkeypatch.setattr(cli.os, "_exit", fake_exit)
    return codes


class _FailingFlush(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestRun:
    @pytest.mark.parametrize("argv, code, out", [
        (("eval", "number", "-n", "3"), 0, "7/4\n"),
        (("eval", "gamma", "-z", "0"), 3, ""),
    ])
    def test_code_passes_through(self, capsys, monkeypatch, exits, argv,
                                 code, out):
        monkeypatch.setattr(sys, "argv", ["rpqcalc", *argv])
        with pytest.raises(_Exited):
            cli.run()
        assert exits == [code]
        assert capsys.readouterr().out == out

    def test_failed_flush_is_four(self, capsys, monkeypatch, exits):
        monkeypatch.setattr(sys, "argv", ["rpqcalc", "eval", "number"])
        monkeypatch.setattr(sys, "stdout", _FailingFlush())
        with pytest.raises(_Exited):
            cli.run()
        assert exits == [4]
        assert capsys.readouterr().err == "i/o error: [Errno 32] Broken pipe\n"

    def test_failed_stderr_flush_is_four(self, monkeypatch, exits):
        monkeypatch.setattr(sys, "argv", ["rpqcalc", "eval", "number"])
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys, "stderr", _FailingFlush())
        with pytest.raises(_Exited):
            cli.run()
        assert exits == [4]

    def test_missing_streams_are_skipped(self, monkeypatch, exits):
        monkeypatch.setattr(sys, "argv", ["rpqcalc", "eval", "number"])
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(_Exited):
            cli.run()
        assert exits == [0]

    @pytest.mark.parametrize("exc, code, line", [
        (RuntimeError("boom"), 5, "internal error: RuntimeError: boom"),
        (BrokenPipeError(32, "Broken pipe"), 4,
         "i/o error: [Errno 32] Broken pipe"),
    ])
    def test_exception_out_of_main(self, capsys, monkeypatch, exits, exc,
                                   code, line):
        def raising():
            raise exc

        monkeypatch.setattr(cli, "main", raising)
        with pytest.raises(_Exited):
            cli.run()
        assert exits == [code]
        assert capsys.readouterr() == ("", line + "\n")

    def test_interrupt_propagates(self, monkeypatch, exits):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "main", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.run()
        assert exits == []


def test_script_target_is_run():
    pyproject = Path(SRC).parent / "pyproject.toml"
    target = re.search(r'^\[project\.scripts\]\nrpqcalc = "([\w.]+):(\w+)"$',
                       pyproject.read_text(), re.M)
    assert target is not None
    module, name = target.groups()
    assert getattr(importlib.import_module(module), name) is cli.run


# -- untrusted JSON input ---------------------------------------------------

@pytest.mark.parametrize("numerator, term", [
    ([[1, 0, 1], [0, 1, -0.1]], "[0, 1, -0.1]"),
    ([[1.7, 0, 1], [0, 1, -1]], "[1.7, 0, 1]"),
    ([[1, 0, True], [0, 1, -1]], "[1, 0, True]"),
])
def test_kernel_floats_and_bools_refused(capsys, tmp_path, numerator, term):
    # a float is not read as its binary expansion, nor an exponent
    # truncated, nor true read as 1
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps({"numerator": numerator,
                                  "denominator": [[0, 0, "2/5"]]}))
    code, out, err = run(capsys, "eval", "number", "-n", "2", "-p", "9/10",
                         "-q", "1/2", "--kernel", str(kernel))
    assert (code, out) == (2, "")
    assert err.startswith(f"parameter error: custom kernel term {term} ")
    assert err.count("\n") == 1


def _matrix(entry):
    """A --matrix-json whose upper-left entry is ``entry``, at p = 5."""
    obj = json.loads(IDENTITY_5)
    obj["entries"][0] = entry
    return json.dumps(obj)


ONE_5 = {"prime": 5, "precision": 3, "valuation": 0, "digits": [1, 0, 0]}


@pytest.mark.parametrize("entry, field", [
    (dict(ONE_5, digits=[6, 4, 4]), "digits"),
    (dict(ONE_5, digits=[1, 0]), "digits"),
    (dict(ONE_5, digits=[True, 0, 0]), "digits"),
    (dict(ONE_5, digits=[1.5, 0, 0]), "digits"),
    ({"prime": 5, "valuation": None, "zero_mod": 1e9}, "zero_mod"),
    (dict(ONE_5, precision=-3, digits=[]), "precision"),
    (dict(ONE_5, valuation=True), "valuation"),
])
@pytest.mark.parametrize("op", ["log", "level"])
def test_matrix_entries_validated(capsys, op, entry, field):
    code, out, err = run(capsys, "spin", op, "--matrix-json", _matrix(entry))
    assert (code, out) == (2, "")
    assert err.startswith(f"parameter error: p-adic JSON {field!r} must be")
    assert err.count("\n") == 1


def test_identity_matrix_level(capsys):
    assert run(capsys, "spin", "level", "--matrix-json",
               _matrix(ONE_5)) == (0, "3\n", "")


# the identity with its off-diagonal zeros given as three zero digits at
# valuation 1: each is zero modulo 5^4, so the diagonal's 3 digits bound
# the level and the log
ZERO_DIGITS_5 = json.dumps({"prime": 5, "entries": [
    ONE_5, *2 * [dict(ONE_5, valuation=1, digits=[0, 0, 0])], ONE_5]})


def test_zero_digit_entries_keep_their_precision(capsys):
    assert run(capsys, "spin", "level", "--matrix-json",
               ZERO_DIGITS_5) == (0, "3\n", "")
    code, out, err = run(capsys, "spin", "log", "--matrix-json",
                         ZERO_DIGITS_5, "--format", "json")
    assert (code, err) == (0, "")
    assert [e["zero_mod"] for e in json.loads(out)["entries"]] == [3] * 4


@pytest.mark.parametrize("prime, code, err", [
    (5, 0, ""),
    (7, 2, "parameter error: matrix JSON 'prime' must be 5, the "
           "entries' prime; got 7\n"),
    (None, 2, "parameter error: matrix JSON 'prime' must be 5, the "
              "entries' prime; got None\n"),
])
def test_matrix_prime_is_read(capsys, prime, code, err):
    # the matrix that spin exp prints, as printed, relabelled or
    # stripped of its prime
    _, text, _ = run(capsys, "spin", "exp", "--generator", "z", "--prime",
                     "5", "-t", "0")
    obj = json.loads(text)
    if prime is None:
        del obj["prime"]
    else:
        obj["prime"] = prime
    out = "18\n" if code == 0 else ""
    assert run(capsys, "spin", "level", "--matrix-json",
               json.dumps(obj)) == (code, out, err)


def test_beta_divisor_bound_too_loose(capsys):
    # Gamma(3/2)'s one-term tail bound is >= 1 here, so the quotient's
    # relative bound (1 + a)(1 + b)/(1 - c) - 1 is undefined
    code, out, err = run(capsys, "eval", "beta", "-x", "1/2", "-y", "1",
                         "--truncation", "1", "--preset", "heine",
                         "-q", "576/625")
    assert (code, out, err) == (3, "", "domain error: divisor bound too "
                                "loose\n")


# -- the golden command set ---------------------------------------------------

def _replay(kind: str):
    """A test that replays in process the golden entries (tests/golden.py)
    of ``kind``: help pages (each by the command it documents), exit-2
    refusals, carlitz and spin runs (the p-adic power, exp and log
    routes), or any other output."""
    params = []
    for line, pin in golden.entries():
        argv = shlex.split(line)
        if kind == ("help" if "--help" in argv else
                    "refusal" if pin and pin[0] == 2 else
                    "series" if argv[0] in ("carlitz", "spin") else "output"):
            params.append(pytest.param(line, pin, id=shlex.join(argv[:-1])
                                       if kind == "help" else line))

    @pytest.mark.parametrize("line, pin", params)
    def test(line, pin):
        assert golden.mismatch(line, pin, golden.run(line)) == ""
    return test


test_help_text_pinned = _replay("help")
test_parse_errors_pinned = _replay("refusal")
test_series_routes_pinned = _replay("series")
test_outputs_pinned = _replay("output")


def test_golden_set_covers_every_operation():
    """Each group of tests/golden.json holds commands of its key, and
    each cli.SCOPE key has an entry in every --format it takes."""
    seen = set()
    for group, pins in json.loads(golden.GOLDEN.read_text()).items():
        for argv in map(shlex.split, pins):
            assert argv[:len(group.split())] == group.split(), argv
            seen.add((group, argv[argv.index("--format") + 1]
                      if "--format" in argv else "plain"))
    assert {(key, fmt) for key, reads in cli.SCOPE.items() if "format" in reads
            for fmt in cli.OPTIONS["format"]["choices"]} - seen == set()


def _readme_commands():
    """(argv, expected stdout or None) of each ``rpqcalc ...`` line of
    the README; a trailing one-word ``# <value>`` comment is the value
    it prints, a longer comment is a note."""
    readme = Path(SRC).parent / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("rpqcalc "):
            comment = line.partition("#")[2].split()
            yield (shlex.split(line, comments=True)[1:],
                   comment[0] if len(comment) == 1 else None)


@pytest.mark.parametrize("argv, value", list(_readme_commands()),
                         ids=lambda x: " ".join(x) if isinstance(x, list)
                         else str(x))
def test_readme_commands_run(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if value is not None:
        assert out == value + "\n"


# -- fuzzed argv --------------------------------------------------------------

def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


FRACTIONS = st.one_of(_ints(-30, 30), st.builds(
    "{}/{}".format, st.integers(-30, 30), st.integers(1, 30)))

# Tokens for each option of cli.OPTIONS that has no choices, by dest.
# Sizes are bounded so each command runs in milliseconds: eval's [n]!
# is exact, and at n = 2000 it runs for seconds.
FUZZ_VALUES = {
    "out": st.sampled_from([os.devnull, "no-such-dir/out.txt"]),
    "preset": st.sampled_from(["heine", "classical", "bogus"]),
    "kernel": st.sampled_from([os.devnull, "no-such-dir/kernel.json"]),
    **dict.fromkeys(["scale", "t", "z", "x", "y", "a", "b", "a_param"],
                    FRACTIONS),
    # values in range for the deformation (0 < q < p <= 1) and for a
    # twist at p = 3, 5 or 7 (rho, q = 1 mod p), as well as any fraction
    **dict.fromkeys(["p", "q", "rho"], st.one_of(st.sampled_from(
        ["1", "9/10", "1/2", "1/3", "4", "6", "8", "11", "13/3"]),
        FRACTIONS)),
    "prime": st.sampled_from(["2", "3", "5", "7"]),
    "precision": _ints(-1, 40),
    "matrix_file": st.sampled_from([os.devnull, "no-such-dir/g.json"]),
    "matrix_json": st.sampled_from([IDENTITY_5, ZERO_DIGITS_5, "{", "[]",
                                    '{"prime": 5}']),
    "levels": _ints(-1, 4), "moment": _ints(-1, 30),
    "primes": st.sampled_from(["2,3", "5", "3,7", ""]),
    "s_values": st.sampled_from(["2,3,4", "1", "0,-1", "30"]),
    "s": _ints(-3, 30), "count": _ints(-2, 30), "n": _ints(-30, 30),
    "m": _ints(-2, 30), "truncation": _ints(-1, 30),
    "x_int": _ints(-30, 30), "coeffs": st.sampled_from(["1,2,3", "", "1/2"]),
}
# pgamma and pbeta take their arguments in the thousands in milliseconds
FUZZ_WIDE = {("pgamma", "n"): _ints(-2000, 2000),
             ("pbeta", "x"): _ints(-2000, 2000),
             ("pbeta", "y"): _ints(-2000, 2000)}
FUZZ_REQUIRED = {"pgamma": ["n"], "pbeta": ["x", "y"]}
MALFORMED_TOKENS = st.sampled_from(["", "x", "1/0", "1.5", "-", "--",
                                    "1e9", "0x10"])


def _option_value(draw, name, dest):
    """A malformed token one time in eight, else a valid one; --out
    takes valid ones only, as it writes to whatever path it is given."""
    if dest != "out" and draw(st.integers(0, 7)) == 0:
        return draw(MALFORMED_TOKENS)
    choices = cli.OPTIONS[dest].get("choices")
    if dest == "kind":
        choices = [k.split()[-1] for k in cli.SCOPE if " --kind " in k]
    return draw(st.sampled_from(choices) if choices
                else FUZZ_WIDE.get((name, dest), FUZZ_VALUES.get(dest)))


@st.composite
def fuzzed_argv(draw):
    """An operation of cli.SCOPE (now and then a malformed one), the
    options it reads, each with a valid or malformed value, and now and
    then an option it does not read or a stray token."""
    key = draw(st.sampled_from([*cli.SCOPE, "eval bogus", "table --kind "
                                "bogus", "spin", "bogus"]))
    name = key.split()[0]
    reads = list(cli.SCOPE.get(key, ()))
    dests = [] if draw(st.integers(0, 7)) == 0 else \
        list(FUZZ_REQUIRED.get(name, []))
    dests += draw(st.lists(st.sampled_from(reads), unique=True, max_size=4)
                  if reads else st.just([]))
    dests = list(dict.fromkeys(dests))
    if draw(st.integers(0, 9)) == 0:
        dests.append(draw(st.sampled_from(list(cli.OPTIONS))))
    argv = key.split()
    for dest in dests:
        argv.append(("-" if len(dest) == 1 else "--")
                    + dest.replace("_", "-"))
        if cli.OPTIONS[dest].get("action") != "store_true":
            argv.append(_option_value(draw, name, dest))
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "stray"])))
    return argv


def test_fuzz_values_cover_every_option():
    valued = {d for d, kw in cli.OPTIONS.items()
              if kw.get("action") != "store_true" and "choices" not in kw}
    assert valued - {"kind"} == set(FUZZ_VALUES)


@settings(max_examples=150, deadline=None)
@given(fuzzed_argv())
def test_fuzzed_argv_exits_by_the_contract(argv):
    # 0, 2 (parse or parameter error), 3 (domain), 4 (i/o), and 1 only
    # from check; every failure says why on stderr, and no exception
    # escapes main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4) or (code, argv[0]) == (1, "check"), argv
    assert code == 0 or err.getvalue(), argv
