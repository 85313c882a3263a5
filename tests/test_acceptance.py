"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with -s to see
them) and enforces its runtime budget.  Expected values come from
independent oracles computed inside this module or taken from
``oracles.py``: direct closed-form evaluators, recursive
generating-function inversion, brute-force permutation counts,
explicit geometric sums, term-by-term Riemann sums, and
factor-by-factor rational arithmetic.
"""

import math
import time
from fractions import Fraction as F
from itertools import permutations

from rpqcalc import cli
from rpqcalc.deform import (DeformParams, rpq_binomial, rpq_factorial,
                            rpq_number)
from rpqcalc.gammabeta import beta_rpq, gamma_rpq
from rpqcalc.padic import PadicNumber
from rpqcalc.padicfun import (TwistParams, factorial_decomposition_check,
                              gamma_recurrence_check, number_at,
                              padic_gamma_rpq, volkenborn_measure,
                              volkenborn_moment)
from rpqcalc.poly import Polynomial, rpq_derivative_poly
from rpqcalc.quadrature import definite_integral_poly, jackson_sum
from rpqcalc.series import generating_polynomials, zigzag_numbers
from rpqcalc.spinzeta import (commutator, congruence_level, ghost_boundary,
                              mat_exp, mat_log, spin_generators,
                              zeta_spin_half)

from oracles import ORACLES, P, Q, rpq_number_at, twisted_level_sums


ALL_PRESETS = [DeformParams.preset(kind, p=P, q=Q) for kind in ORACLES]
JS1 = DeformParams.preset("jagannathan_srinivasa", p=1, q=F(1, 2))
CL = DeformParams.preset("classical", p=1, q=1)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.seconds, \
                f"runtime {self.elapsed:.2f}s exceeds {self.seconds}s"


def test_criterion_1_deformation_core():
    with Budget(1.0) as budget:
        for kind, oracle in ORACLES.items():
            params = DeformParams.preset(kind, p=P, q=Q)
            fact = F(1)
            for n in range(65):
                value = rpq_number(params, n)
                assert value == (oracle(n) if n else F(0)), (kind, n)
                if n:
                    fact *= value
                    assert rpq_factorial(params, n) == fact
                    assert rpq_factorial(params, n) == \
                        value * rpq_factorial(params, n - 1)
        params = DeformParams.preset("jagannathan_srinivasa", p=P, q=Q)
        for m in range(0, 17, 4):
            for n in range(m + 1):
                assert rpq_binomial(params, m, n) == \
                    rpq_binomial(params, m, m - n)
    print(f"\nACCEPTANCE 1 deformation core: PASS "
          f"({budget.elapsed:.2f}s < 1s)")


def test_criterion_2_calculus():
    with Budget(5.0) as budget:
        import random
        rng = random.Random(23)
        for params in ALL_PRESETS:
            for n in range(1, 13):
                d = rpq_derivative_poly(Polynomial.monomial(n), params)
                assert d == Polynomial.monomial(
                    n - 1, rpq_number(params, n))
            f = Polynomial({k: F(rng.randint(-9, 9), rng.randint(1, 7))
                            for k in range(13)})
            df = rpq_derivative_poly(f, params)
            a, b = F(1, 5), F(4, 5)
            assert definite_integral_poly(df, a, b, params) == \
                f(b) - f(a)
        p1, q1 = JS1.p, JS1.q
        for a in (F(1), F(3, 5)):
            for n in range(9):
                zn = Polynomial.monomial(n)
                closed = definite_integral_poly(zn, F(0), a, JS1)
                # independent geometric identity
                assert closed == a ** (n + 1) * (p1 - q1) \
                    / (p1 ** (n + 1) - q1 ** (n + 1))
                truncated = jackson_sum(zn, a, JS1, terms=200)
                assert abs(truncated - closed) <= \
                    F(1, 10 ** 30) * abs(closed)
    print(f"\nACCEPTANCE 2 calculus: PASS ({budget.elapsed:.2f}s < 5s)")


def test_criterion_3_special_functions():
    with Budget(10.0) as budget:
        for n in range(33):
            g = gamma_rpq(n + 1, JS1)
            assert g.exact and g.value == rpq_factorial(JS1, n)
        # ten rational samples across two square-friendly parameter sets
        samples = [(DeformParams.preset("jagannathan_srinivasa", p=1,
                                        q=F(9, 25)), F(k, 2))
                   for k in (1, 3, 5, 7, 9)]
        samples += [(DeformParams.preset("jagannathan_srinivasa", p=1,
                                         q=F(16, 25)), F(k, 2))
                    for k in (1, 3, 5, 7, 9)]
        for params, z in samples:
            gz = gamma_rpq(z, params)
            gz1 = gamma_rpq(z + 1, params)
            expected = rpq_number_at(params, z) * gz.value
            rel = abs(gz1.value - expected) / abs(expected)
            budget_rel = (1 + gz.tail_bound) * (1 + gz1.tail_bound) - 1
            assert rel <= 2 * budget_rel + F(1, 10 ** 25), (z, float(rel))
        for (x, y) in ((1, 1), (2, 3), (4, 2), (5, 1)):
            b = beta_rpq(x, y, JS1).value
            nx, ny = rpq_number(JS1, x), rpq_number(JS1, y)
            nxy = rpq_number(JS1, x + y)
            assert beta_rpq(x, y + 1, JS1).value == ny / nxy * b
            assert beta_rpq(x + 1, y, JS1).value == nx / nxy * b
            assert beta_rpq(x + 1, y, JS1).value == \
                nx / ny * beta_rpq(x, y + 1, JS1).value
            assert beta_rpq(x + 1, y + 1, JS1).value == \
                nx * ny / (rpq_number(JS1, x + y + 1) * nxy) * b
    print(f"\nACCEPTANCE 3 special functions: PASS "
          f"({budget.elapsed:.2f}s < 10s)")


def _bernoulli_oracle(count):
    B = [F(1)]
    for n in range(1, count):
        B.append(-sum(math.comb(n + 1, k) * B[k]
                      for k in range(n)) / F(n + 1))
    return B


def _zigzag_oracle(n):
    if n == 0:
        return 1
    return sum(
        all((perm[i] < perm[i + 1]) == (i % 2 == 0)
            for i in range(n - 1))
        for perm in permutations(range(n)))


def test_criterion_4_polynomial_families():
    with Budget(5.0) as budget:
        bern = generating_polynomials(CL, "bernoulli", F(0), 8)
        assert bern == _bernoulli_oracle(9)
        assert bern == [F(1), F(-1, 2), F(1, 6), 0, F(-1, 30), 0,
                        F(1, 42), 0, F(-1, 30)]
        zig = zigzag_numbers(CL, 8)
        assert zig == [_zigzag_oracle(n) for n in range(8)]
        assert zig == [1, 1, 1, 2, 5, 16, 61, 272]
        for params in (JS1, CL, ALL_PRESETS[2]):
            G = generating_polynomials(params, "genocchi", F(0), 17)
            E = generating_polynomials(params, "euler", F(0), 16)
            for n in range(17):
                expected = rpq_number(params, n) * E[n - 1] if n else 0
                assert G[n] == expected
    print(f"\nACCEPTANCE 4 polynomial families: PASS "
          f"({budget.elapsed:.2f}s < 5s)")


def test_criterion_5_padic_suite():
    with Budget(60.0) as budget:
        for p, rho, q in ((3, 4, 7), (5, 6, 11), (7, 8, 15)):
            tw = TwistParams.make(p, rho, q, precision=16)
            assert padic_gamma_rpq(0, tw) == 1
            assert padic_gamma_rpq(1, tw) == -1
            for n in range(1, 21):
                assert padic_gamma_rpq(n, tw).valuation == 0
            assert gamma_recurrence_check(tw, 2 * p).passed
            for n in range(1, 31):
                rep = factorial_decomposition_check(n, tw)
                assert rep.passed, (p, n)
            for N in (1, 2):
                for a in (0, p ** N - 1):
                    lhs = volkenborn_measure(a, N, tw)
                    rhs = PadicNumber.zero(p, 60)
                    for i in range(p):
                        rhs = rhs + volkenborn_measure(
                            a + i * p ** N, N + 1, tw)
                    assert (lhs - rhs).is_zero()
            # total mass rho at every level, and the first moment's
            # level values against the Riemann sums of [t]
            mass = volkenborn_moment(0, tw, 4)
            assert all((v - tw.rho).is_zero() for v in mass.values)
            first = volkenborn_moment(1, tw, 4)
            riemann = twisted_level_sums(lambda t: number_at(tw, t), tw, 4)
            assert [repr(v) for v in first.values] == \
                [repr(v) for v in riemann]
    print(f"\nACCEPTANCE 5 p-adic suite: PASS "
          f"({budget.elapsed:.2f}s < 60s)")


def test_criterion_6_spin_zeta():
    with Budget(5.0) as budget:
        Sm, Sz, Sp = spin_generators(1, 5, 12)
        one = PadicNumber.one(5, 12)
        assert commutator(Sz, Sp) == Sp.scaled(one)
        assert commutator(Sz, Sm) == Sm.scaled(-one)
        assert commutator(Sp, Sm) == Sz.scaled(one * 2)
        t = PadicNumber.from_rational(5, 5, 10)
        g = mat_exp(Sz, t)
        assert (g.det() - 1).is_zero()
        assert mat_log(g) == Sz.scaled(t)
        tSp = Sp.scaled(PadicNumber.from_rational(25, 5, 10))
        from rpqcalc.spinzeta import Mat2Padic
        assert mat_log(Mat2Padic.identity(5, 12) + tSp) == tSp
        assert congruence_level(g) >= 1
        pairs = [(p, s) for p in (2, 3, 5, 7) for s in (2, 3, 4, 5, 6)]
        assert len(pairs) == 20
        for p, s in pairs:
            t_val = F(1, p ** s)
            # independent factor-by-factor oracle
            oracle = (1 / (1 - t_val)) * (1 / (1 - p * t_val)) \
                * (1 / (1 - p * t_val ** 2)) \
                * (1 / (1 - p ** 2 * t_val ** 2)) \
                * (1 - p * t_val ** 3)
            assert zeta_spin_half(p, s).value == oracle, (p, s)
        for l in range(1, 6):
            assert ghost_boundary("GO_odd", l) == l * l - 1
            assert ghost_boundary("GSp", l) == F(l * (l + 1), 2) - 2
            assert ghost_boundary("GO_even_plus", l) == \
                F(l * (l - 1), 2) - 2
    print(f"\nACCEPTANCE 6 spin/zeta: PASS ({budget.elapsed:.2f}s < 5s)")


def test_criterion_7_cli(capsys, tmp_path):
    with Budget(30.0) as budget:
        code = cli.main(["check", "--module", "all", "--out",
                         str(tmp_path / "report.json")])
        assert code == 0
        import csv as csvmod
        grids = [
            (["table", "--kind", "numbers", "-p", "1", "-q", "1/2",
              "--count", "12"],
             lambda n: rpq_number(JS1, int(n))),
            (["table", "--kind", "bernoulli", "--preset", "classical",
              "--count", "9"],
             lambda n: _bernoulli_oracle(9)[int(n)]),
            (["table", "--kind", "zigzag", "--preset", "classical",
              "--count", "8"],
             lambda n: F(_zigzag_oracle(int(n)))),
        ]
        for i, (argv, expected) in enumerate(grids):
            out = tmp_path / f"grid{i}.csv"
            code = cli.main(argv + ["--format", "csv", "--out",
                                    str(out)])
            assert code == 0
            with out.open() as fh:
                rows = list(csvmod.reader(fh))
            assert rows[0] == ["n", "value"]
            for n_str, val in rows[1:]:
                assert F(val) == expected(n_str)
        capsys.readouterr()
    print(f"\nACCEPTANCE 7 cli: PASS ({budget.elapsed:.2f}s < 30s)")
