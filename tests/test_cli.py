"""Command-line interface: dispatch, formats, exit codes, round trips."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from rpqcalc import cli
from rpqcalc.deform import DeformParams, rpq_number
from rpqcalc.series import generating_polynomials
from rpqcalc.spinzeta import zeta_spin_half

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
                           str(mat_file), "--prime", "5")
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
                           str(mat_file), "--prime", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["entries"][1]["valuation"] == 2  # t = 25 upper entry


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
