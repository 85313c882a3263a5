"""Command-line front end.

All scalars cross this boundary as exact rational strings ("7/4"), so
results are bit-reproducible.  stdout carries data only; diagnostics go
to stderr.  Exit codes: 0 success, 1 check-suite failure, 2 parse or
parameter error, 3 domain error (message names the violated bound),
4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import deform, gammabeta, padicfun, quadrature, series, spinzeta
from ._util import exact_str
from .deform import (DeformParams, IdentityResult, StructureFunction,
                     SuiteReport, rpq_number)
from .errors import (ConvergenceDomainError, DecayCertificateError,
                     InvalidParameterError, InvalidRegimeError,
                     NoConvergenceError, PoleAtOriginError, PoleError,
                     RpqError, SingularDeformationError, SingularityError)
from .padic import PadicNumber
from .padicfun import TwistParams
from .poly import Polynomial
from .spinzeta import Mat2Padic

DOMAIN_ERRORS = (ConvergenceDomainError, InvalidRegimeError, PoleError,
                 PoleAtOriginError, SingularDeformationError,
                 SingularityError, DecayCertificateError,
                 NoConvergenceError)

CHECK_MODULES = ("deform", "series", "quadrature", "gammabeta",
                 "padicfun", "spinzeta")

MALFORMED = (ValueError, ZeroDivisionError, KeyError, TypeError)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1; got {n}")
    return n


def _common_parser() -> argparse.ArgumentParser:
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--preset", default="jagannathan_srinivasa",
                   help="structure-function preset name")
    c.add_argument("--kernel", metavar="PATH",
                   help="JSON file with a custom kernel "
                        "{numerator:[[s,t,coeff]...], denominator:[...]}")
    c.add_argument("-p", type=_fraction, default=Fraction(1))
    c.add_argument("-q", type=_fraction, default=Fraction(1, 2))
    c.add_argument("--xi1", type=_fraction, default=None)
    c.add_argument("--xi2", type=_fraction, default=None)
    c.add_argument("--rho", type=_fraction, default=None,
                   help="p-adic twist parameter (rational embedded)")
    c.add_argument("--prime", type=int, default=5)
    c.add_argument("--precision", type=_positive_int, default=16)
    c.add_argument("--order", type=int, default=16)
    c.add_argument("--format", choices=("json", "csv", "plain"),
                   default="plain")
    c.add_argument("--out", metavar="PATH")
    return c


def _params(args) -> DeformParams:
    if args.kernel and args.preset != "jagannathan_srinivasa":
        raise InvalidParameterError(
            "--preset and --kernel are mutually exclusive")
    if args.kernel:
        try:
            with open(args.kernel) as fh:
                structure = StructureFunction.from_json(json.load(fh))
        except OSError as exc:
            raise _IOFail(str(exc))
        except MALFORMED as exc:
            raise InvalidParameterError(f"malformed --kernel file: {exc!r}")
    else:
        structure = StructureFunction.preset(args.preset)
    return DeformParams(args.p, args.q, structure, args.xi1, args.xi2)


def _twist(args) -> TwistParams:
    rho = args.rho if args.rho is not None else 1 + args.prime
    q = args.q if args.q != Fraction(1, 2) else Fraction(1 + 2 * args.prime)
    return TwistParams.make(args.prime, rho, q, precision=args.precision)


class _IOFail(Exception):
    pass


def _emit(args, payload, plain_line: str | None = None):
    """Write data per --format to --out or stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "csv":
        text = _to_csv(payload)
    else:
        text = plain_line if plain_line is not None \
            else json.dumps(payload, indent=2)
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        raise _IOFail(str(exc))


def _to_csv(payload) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    if isinstance(payload, dict) and "rows" in payload:
        w.writerow(payload["header"])
        for row in payload["rows"]:
            w.writerow(row)
    else:
        for k, v in payload.items():
            w.writerow([k, v])
    return buf.getvalue().rstrip("\n")


def _rat_str(x: Fraction) -> str:
    return exact_str(Fraction(x))


# -- eval -------------------------------------------------------------------

def _cmd_eval(args) -> int:
    params = _params(args)
    op = args.operation
    if op == "number":
        val = deform.rpq_number(params, args.n)
        _emit(args, {"op": "number", "n": args.n, "value": _rat_str(val)},
              _rat_str(val))
    elif op == "factorial":
        val = deform.rpq_factorial(params, args.n)
        _emit(args, {"op": "factorial", "n": args.n,
                     "value": _rat_str(val)}, _rat_str(val))
    elif op == "binomial":
        val = deform.rpq_binomial(params, args.m, args.n)
        _emit(args, {"op": "binomial", "m": args.m, "n": args.n,
                     "value": _rat_str(val)}, _rat_str(val))
    elif op == "gamma":
        g = gammabeta.gamma_rpq(args.z, params,
                                truncation=args.truncation)
        _emit(args, {"op": "gamma", "z": _rat_str(args.z),
                     "value": _rat_str(g.value), "terms": g.terms,
                     "tail_bound": _rat_str(g.tail_bound),
                     "exact": g.exact}, _rat_str(g.value))
    elif op == "beta":
        b = gammabeta.beta_rpq(args.x, args.y, params,
                               truncation=args.truncation)
        _emit(args, {"op": "beta", "x": _rat_str(args.x),
                     "y": _rat_str(args.y), "value": _rat_str(b.value),
                     "tail_bound": _rat_str(b.tail_bound),
                     "exact": b.exact}, _rat_str(b.value))
    elif op == "integral":
        f = _poly_from_coeffs(args.coeffs)
        val = quadrature.definite_integral_poly(f, args.a, args.b, params)
        _emit(args, {"op": "integral", "a": _rat_str(args.a),
                     "b": _rat_str(args.b), "value": _rat_str(val)},
              _rat_str(val))
    elif op == "derivative":
        f = _poly_from_coeffs(args.coeffs)
        d = series.rpq_derivative(f, params)
        coeffs = [_rat_str(d.coefficient(k))
                  for k in range(max(d.degree, 0) + 1)]
        _emit(args, {"op": "derivative", "coefficients": coeffs},
              ",".join(coeffs))
    else:
        raise InvalidParameterError(f"unknown eval operation {op!r}")
    return 0


def _poly_from_coeffs(text: str) -> Polynomial:
    if not text:
        raise InvalidParameterError("--coeffs required (c0,c1,...)")
    try:
        return Polynomial([Fraction(tok) for tok in text.split(",")])
    except MALFORMED as exc:
        raise InvalidParameterError(f"malformed --coeffs {text!r}: {exc}")


# -- check ------------------------------------------------------------------

def _suites_for(module: str, args):
    q = Fraction(1, 2)
    js = DeformParams.preset("jagannathan_srinivasa", p=1, q=q)
    if module == "deform":
        yield deform.bm_identity_suite(q, 2, 1)
        yield deform.bm_identity_suite(q, 5, 3)
        yield _preset_oracle_suite()
    elif module == "series":
        yield series.operator_algebra_check(js, 8)
        yield _series_suite()
    elif module == "quadrature":
        f = Polynomial({3: Fraction(2), 1: Fraction(-1), 0: Fraction(5)})
        g = Polynomial({2: Fraction(1, 2), 1: Fraction(3)})
        yield quadrature.fundamental_theorem_check(
            f, Fraction(1, 3), Fraction(7, 8), js)
        yield quadrature.integration_by_parts_check(
            f, g, Fraction(0), Fraction(1), js)
    elif module == "gammabeta":
        yield gammabeta.power_basis_identity_suite(js, 3, 2)
        yield gammabeta.power_basis_derivative_suite(js, 3, 2)
        yield _beta_recurrence_suite(js)
    elif module == "padicfun":
        tw = TwistParams.make(5, 6, 11, precision=12)
        yield padicfun.gamma_recurrence_check(tw, 10)
        yield padicfun.factorial_decomposition_check(7, tw)
        yield padicfun.padic_beta_suite(tw, [(1, 1), (2, 3)])
        yield _measure_suite(tw)
    elif module == "spinzeta":
        yield _spin_suite()
    else:
        raise InvalidParameterError(f"unknown module {module!r}")


def _preset_oracle_suite():
    q = Fraction(1, 2)
    p = Fraction(9, 10)
    oracles = {
        "heine": lambda n: (1 - q ** n) / (1 - q),
        "quesne": lambda n: (1 - q ** -n) / (q - 1),
        "biedenharn_macfarlane":
            lambda n: (q ** n - q ** -n) / (q - q ** -1),
        "jagannathan_srinivasa": lambda n: (p ** n - q ** n) / (p - q),
        "chakrabarty_jagannathan":
            lambda n: (p ** -n - q ** n) / (p ** -1 - q),
        "hounkonnou_ngompe":
            lambda n: (p ** n - q ** -n) / (q - p ** -1),
    }
    results = []
    for kind, oracle in oracles.items():
        pr = DeformParams.preset(kind, p=p, q=q)
        for n in (0, 1, 5, 13):
            results.append(IdentityResult(
                f"{kind}[{n}]", rpq_number(pr, n),
                oracle(n) if n else Fraction(0)))
    return SuiteReport("preset_closed_forms", tuple(results))


def _series_suite():
    js = DeformParams.preset("jagannathan_srinivasa", p=1,
                             q=Fraction(1, 2))
    e = series.exp_lower(js, 10)
    E = series.exp_upper(js, 10)
    prod = E.scale_arg(Fraction(-1)) * e
    results = [IdentityResult("E(-z) e(z) = 1 (z^0)",
                              prod.coefficient(0), Fraction(1))]
    for n in range(1, 11):
        results.append(IdentityResult(
            f"E(-z) e(z) = 1 (z^{n})", prod.coefficient(n), Fraction(0)))
    G = series.generating_polynomials(js, "genocchi", Fraction(0), 9)
    Eu = series.generating_polynomials(js, "euler", Fraction(0), 8)
    for n in range(0, 9):
        results.append(IdentityResult(
            f"G_{n + 1} = [{n + 1}] E_{n}", G[n + 1],
            rpq_number(js, n + 1) * Eu[n]))
    return SuiteReport("series_identities", tuple(results))


def _beta_recurrence_suite(params):
    results = []
    for (x, y) in ((1, 1), (2, 3), (4, 2)):
        b = gammabeta.beta_rpq(x, y, params).value
        nx, ny = rpq_number(params, x), rpq_number(params, y)
        nxy = rpq_number(params, x + y)
        results.append(IdentityResult(
            f"(i) beta({x},{y}+1)",
            gammabeta.beta_rpq(x, y + 1, params).value, ny / nxy * b))
        results.append(IdentityResult(
            f"(ii) beta({x}+1,{y})",
            gammabeta.beta_rpq(x + 1, y, params).value, nx / nxy * b))
        results.append(IdentityResult(
            f"(iii) cross form",
            gammabeta.beta_rpq(x + 1, y, params).value,
            nx / ny * gammabeta.beta_rpq(x, y + 1, params).value))
        results.append(IdentityResult(
            f"(vi) beta({x}+1,{y}+1) product form",
            gammabeta.beta_rpq(x + 1, y + 1, params).value,
            nx * ny / (rpq_number(params, x + y + 1) * nxy) * b))
    return SuiteReport("beta_recurrences", tuple(results))


def _measure_suite(tw):
    results = []
    p = tw.prime
    for N in (1, 2):
        for a in (0, 3):
            lhs = padicfun.volkenborn_measure(a, N, tw)
            rhs = None
            for i in range(p):
                m = padicfun.volkenborn_measure(a + i * p ** N, N + 1, tw)
                rhs = m if rhs is None else rhs + m
            results.append(IdentityResult(
                f"distribution relation (a={a}, N={N})", lhs, rhs))
    return SuiteReport("volkenborn_measure", tuple(results))


def _spin_suite():
    Sm, Sz, Sp = spinzeta.spin_generators(1, 5, 12)
    results = [
        IdentityResult("[Sz,S+] = h S+",
                       spinzeta.commutator(Sz, Sp) - Sp,
                       Mat2Padic.zero(5, 12)),
        IdentityResult("[Sz,S-] = -h S-",
                       spinzeta.commutator(Sz, Sm) + Sm,
                       Mat2Padic.zero(5, 12)),
        IdentityResult("[S+,S-] = 2h Sz",
                       spinzeta.commutator(Sp, Sm) - Sz.scaled(
                           PadicNumber.from_rational(2, 5, 12)),
                       Mat2Padic.zero(5, 12)),
    ]
    zs = spinzeta.zeta_spin_half(2, 3)
    expected = (Fraction(8, 7) * Fraction(4, 3) * Fraction(32, 31)
                * Fraction(16, 15) / Fraction(256, 255))
    results.append(IdentityResult("zeta_spin(2, 3)", zs.value, expected))
    for group, l, expect in (("GSp", 2, 1), ("GO_odd", 1, 0),
                             ("GO_even_plus", 2, -1)):
        results.append(IdentityResult(
            f"ghost {group} l={l}",
            spinzeta.ghost_boundary(group, l), Fraction(expect)))
    return SuiteReport("spin_zeta", tuple(results))


def _cmd_check(args) -> int:
    modules = args.module or []
    if "all" in modules:
        modules = list(CHECK_MODULES)
    if not modules:
        print("no modules selected", file=sys.stderr)
        return 2
    report = {"modules": [], "passed": True}
    first_failure = None
    for module in modules:
        suites = []
        for suite in _suites_for(module, args):
            sj = suite.to_json()
            suites.append(sj)
            if not suite.passed and first_failure is None:
                first_failure = (module,
                                 suite.first_failure().name
                                 if suite.first_failure() else suite.name)
            report["passed"] = report["passed"] and suite.passed
        entry = {"module": module, "suites": suites}
        if module == "gammabeta" and args.classical_limit:
            js35 = DeformParams.preset("jagannathan_srinivasa", p=1,
                                       q=Fraction(3, 5))
            js9 = DeformParams.preset("jagannathan_srinivasa", p=1,
                                      q=Fraction(9, 25))
            entry["measured_only"] = [
                gammabeta.gamma_duplication_report(js35, 2,
                                                   truncation=96),
                gammabeta.beta_reflection_report(js9, Fraction(1, 2),
                                                 truncation=96),
            ]
        report["modules"].append(entry)
    out = json.dumps(report, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise _IOFail(str(exc))
    else:
        print(out)
    if not report["passed"]:
        print(f"first failing identity: {first_failure}", file=sys.stderr)
        return 1
    return 0


# -- table ------------------------------------------------------------------

def _cmd_table(args) -> int:
    if args.kind != "zeta" and args.count < 0:
        raise InvalidParameterError(f"need --count >= 0; got {args.count}")
    params = None
    if args.kind in ("numbers", "factorials", "bernoulli", "euler",
                     "genocchi", "zigzag"):
        params = _params(args)
    if args.kind == "numbers":
        rows = [[str(n), _rat_str(deform.rpq_number(params, n))]
                for n in range(args.count)]
        header = ["n", "value"]
    elif args.kind == "factorials":
        rows = [[str(n), _rat_str(deform.rpq_factorial(params, n))]
                for n in range(args.count)]
        header = ["n", "value"]
    elif args.kind in ("bernoulli", "euler", "genocchi"):
        vals = series.generating_polynomials(
            params, args.kind, args.x, args.count - 1)
        rows = [[str(n), _rat_str(v)] for n, v in enumerate(vals)]
        header = ["n", "value"]
    elif args.kind == "zigzag":
        vals = series.zigzag_numbers(params, args.count)
        rows = [[str(n), _rat_str(v)] for n, v in enumerate(vals)]
        header = ["n", "value"]
    elif args.kind == "volkenborn":
        tw = _twist(args)
        rows = []
        for r in range(args.count):
            rep = padicfun.volkenborn_moment(r, tw, args.levels)
            rows.append([str(r), str(rep.best_value),
                         str(rep.converged)])
        header = ["r", "moment", "converged"]
    elif args.kind == "zeta":
        rows = []
        for p in args.primes:
            for s in args.s_values:
                v = spinzeta.zeta_spin_half(p, s).value
                rows.append([str(p), str(s), str(v.numerator),
                             str(v.denominator)])
        header = ["p", "s", "value-num", "value-den"]
    else:
        raise InvalidParameterError(f"unknown table kind {args.kind!r}")
    payload = {"kind": args.kind, "header": header, "rows": rows}
    if args.format == "plain":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        _emit(args, payload, "\n".join(lines))
    else:
        _emit(args, payload)
    return 0


# -- spin / zeta / p-adic commands -------------------------------------------

def _load_matrix(args) -> Mat2Padic:
    if not (args.matrix_file or args.matrix_json):
        raise InvalidParameterError("provide --matrix-file or --matrix-json")
    try:
        if args.matrix_file:
            with open(args.matrix_file) as fh:
                return Mat2Padic.from_json(json.load(fh))
        return Mat2Padic.from_json(json.loads(args.matrix_json))
    except OSError as exc:
        raise _IOFail(str(exc))
    except MALFORMED as exc:
        raise InvalidParameterError(f"malformed matrix JSON: {exc!r}")


def _cmd_spin(args) -> int:
    if args.operation == "exp":
        gens = dict(zip(
            ("minus", "z", "plus"),
            spinzeta.spin_generators(args.scale, args.prime,
                                     args.precision)))
        S = gens[args.generator]
        g = spinzeta.mat_exp(S, args.t)
        _emit(args, g.to_json(), json.dumps(g.to_json()))
    elif args.operation == "log":
        g = _load_matrix(args)
        X = spinzeta.mat_log(g)
        _emit(args, X.to_json(), json.dumps(X.to_json()))
    elif args.operation == "level":
        g = _load_matrix(args)
        lvl = spinzeta.congruence_level(g)
        _emit(args, {"level": lvl}, str(lvl))
    return 0


def _cmd_zeta(args) -> int:
    if args.operation == "eval":
        z = spinzeta.zeta_spin_half(args.prime, args.s)
        _emit(args, z.to_json(),
              f"{z.value.numerator}/{z.value.denominator}")
    else:  # table
        args.kind = "zeta"
        return _cmd_table(args)
    return 0


def _cmd_volkenborn(args) -> int:
    tw = _twist(args)
    rep = padicfun.volkenborn_moment(args.moment, tw, args.levels)
    payload = rep.to_json()
    payload["moment"] = args.moment
    _emit(args, payload, str(rep.best_value))
    return 0


def _cmd_pgamma(args) -> int:
    tw = _twist(args)
    g = padicfun.padic_gamma_rpq(args.n, tw)
    _emit(args, {"n": args.n, "value": g.to_json(), "text": str(g)},
          str(g))
    return 0


def _cmd_pbeta(args) -> int:
    tw = _twist(args)
    b = padicfun.padic_beta_rpq(args.x, args.y, tw)
    _emit(args, {"x": args.x, "y": args.y, "value": b.to_json(),
                 "text": str(b)}, str(b))
    return 0


def _cmd_carlitz(args) -> int:
    tw = _twist(args)
    rep = padicfun.carlitz_bernoulli(args.n, args.a_param, args.x_int,
                                     tw, args.levels, args.method)
    payload = rep.to_json()
    payload.update({"n": args.n, "a": str(args.a_param),
                    "x": args.x_int, "method": args.method})
    _emit(args, payload, str(rep.best_value))
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    top = argparse.ArgumentParser(
        prog="rpqcalc",
        description="Exact deformed quantum calculus and p-adic "
                    "special functions")
    sub = top.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", parents=[common],
                        help="evaluate a single quantity")
    ev.add_argument("operation",
                    choices=("number", "factorial", "binomial", "gamma",
                             "beta", "integral", "derivative"))
    ev.add_argument("-n", type=int, default=0)
    ev.add_argument("-m", type=int, default=0)
    ev.add_argument("-z", type=_fraction, default=Fraction(1))
    ev.add_argument("-x", type=_fraction, default=Fraction(1))
    ev.add_argument("-y", type=_fraction, default=Fraction(1))
    ev.add_argument("-a", type=_fraction, default=Fraction(0))
    ev.add_argument("-b", type=_fraction, default=Fraction(1))
    ev.add_argument("--coeffs", default="")
    ev.add_argument("--truncation", type=int, default=256)
    ev.set_defaults(func=_cmd_eval)

    ck = sub.add_parser("check", parents=[common],
                        help="run module identity/property suites")
    ck.add_argument("--module", action="append",
                    choices=CHECK_MODULES + ("all",))
    ck.add_argument("--classical-limit", action="store_true")
    ck.set_defaults(func=_cmd_check)

    tb = sub.add_parser("table", parents=[common],
                        help="emit value tables over parameter grids")
    tb.add_argument("--kind", required=True,
                    choices=("numbers", "factorials", "bernoulli",
                             "euler", "genocchi", "zigzag",
                             "volkenborn", "zeta"))
    tb.add_argument("--count", type=int, default=11)
    tb.add_argument("-x", type=_fraction, default=Fraction(0),
                    help="argument of the polynomial families")
    tb.add_argument("--levels", type=int, default=6)
    tb.add_argument("--primes", type=lambda s: [int(t) for t in
                                                s.split(",")],
                    default=[2, 3])
    tb.add_argument("--s-values", type=lambda s: [int(t) for t in
                                                  s.split(",")],
                    default=[2, 3, 4])
    tb.set_defaults(func=_cmd_table)

    sp = sub.add_parser("spin", parents=[common],
                        help="spin generator exponential/logarithm/level")
    sp.add_argument("operation", choices=("exp", "log", "level"))
    sp.add_argument("--generator", choices=("minus", "z", "plus"),
                    default="z")
    sp.add_argument("--scale", type=_fraction, default=Fraction(1))
    sp.add_argument("-t", type=_fraction, default=Fraction(5))
    sp.add_argument("--matrix-file")
    sp.add_argument("--matrix-json")
    sp.set_defaults(func=_cmd_spin)

    zt = sub.add_parser("zeta", parents=[common],
                        help="spin zeta values (exact rationals)")
    zt.add_argument("operation", choices=("eval", "table"))
    zt.add_argument("-s", type=int, default=3)
    zt.add_argument("--primes", type=lambda s: [int(t) for t in
                                                s.split(",")],
                    default=[2, 3])
    zt.add_argument("--s-values", type=lambda s: [int(t) for t in
                                                  s.split(",")],
                    default=[2, 3, 4])
    zt.set_defaults(func=_cmd_zeta)

    vk = sub.add_parser("volkenborn", parents=[common],
                        help="twisted Volkenborn moments with "
                             "convergence certificates")
    vk.add_argument("--moment", type=int, default=1)
    vk.add_argument("--levels", type=int, default=6)
    vk.set_defaults(func=_cmd_volkenborn)

    pg = sub.add_parser("pgamma", parents=[common],
                        help="p-adic deformed gamma at an integer")
    pg.add_argument("-n", type=int, required=True)
    pg.set_defaults(func=_cmd_pgamma)

    pb = sub.add_parser("pbeta", parents=[common],
                        help="p-adic deformed beta at integers")
    pb.add_argument("-x", type=int, required=True)
    pb.add_argument("-y", type=int, required=True)
    pb.set_defaults(func=_cmd_pbeta)

    cz = sub.add_parser("carlitz", parents=[common],
                        help="Carlitz-type Bernoulli values")
    cz.add_argument("-n", type=int, default=1)
    cz.add_argument("--a-param", type=_fraction, default=Fraction(0))
    cz.add_argument("--x-int", type=int, default=0)
    cz.add_argument("--levels", type=int, default=6)
    cz.add_argument("--method", choices=("direct", "moments"),
                    default="direct")
    cz.set_defaults(func=_cmd_carlitz)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except _IOFail as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except RpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
