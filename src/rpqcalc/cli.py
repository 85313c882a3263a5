"""Command-line front end.

All scalars cross this boundary as exact rational strings ("7/4"), so
results are bit-reproducible.  stdout carries data only; diagnostics go
to stderr.  Exit codes: 0 success, 1 check-suite failure, 2 parse or
parameter error, 3 domain error (message names the violated bound),
4 I/O failure (any ``OSError`` inside ``main``, or a failed final
flush of stdout or stderr), 5 internal error.

``run`` is the process entry point: it ends the process with
``os._exit`` once both streams are flushed, so no atexit handler runs.
Callers inside a process use ``main``, which returns the exit code.

The parser is built from three tables, each the one statement of its
decision: ``SCOPE`` (what each operation reads), ``OPTIONS`` (how each
option parses) and ``COMMANDS`` (each subcommand's handler and summary);
``build_parser(argv)`` builds the options of the named subcommand only.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from fractions import Fraction

from ._util import exact_str, running_product_strs, uncapped
from .errors import (ConvergenceDomainError, InvalidParameterError,
                     PoleError, RpqError, SingularDeformationError,
                     SingularityError)

DOMAIN_ERRORS = (ConvergenceDomainError, PoleError, SingularDeformationError,
                 SingularityError)

CHECK_MODULES = ("deform", "series", "quadrature", "gammabeta",
                 "padicfun", "spinzeta")

MALFORMED = (ValueError, ZeroDivisionError, KeyError, TypeError)

DEFAULT_PRECISION = 16
# the most p-adic digits --precision takes: the cost of a p-adic
# operation grows faster than linearly in its digits, so without a cap
# one option value could keep any p-adic command busy for hours
MAX_PRECISION = 1000


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


def _precision(text: str) -> int:
    n = _positive_int(text)
    if n > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_PRECISION} digits (MAX_PRECISION); got {n}")
    return n


def _prime(text: str) -> int:
    from .padic import is_prime  # loaded only when --prime is given
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"p = {p} is not prime")
    return p


_OUTPUT = dict(format="plain", out=None)
# preset None is DeformParams' default kernel, jagannathan_srinivasa
_DEFORM = dict(_OUTPUT, preset=None, kernel=None, p=Fraction(1),
               q=Fraction(1, 2), xi1=None, xi2=None)
_PRIME = dict(_OUTPUT, prime=5)
# rho and q None are 1 + p and 1 + 2p, which follow --prime
_TWIST = dict(_PRIME, q=None, rho=None, precision=DEFAULT_PRECISION)
_GRID = dict(_OUTPUT, primes=(2, 3), s_values=(2, 3, 4))
_MATRIX = dict(_OUTPUT, matrix_file=None, matrix_json=None)

# Each subcommand, with its operation or --kind, and the options it
# reads (by dest) with their defaults.  main refuses any other option
# given; a default of None for -n, -x or -y of pgamma and pbeta is never
# used, as argparse requires those options.
SCOPE = {
    "eval number": dict(_DEFORM, n=0),
    "eval factorial": dict(_DEFORM, n=0),
    "eval binomial": dict(_DEFORM, m=0, n=0),
    "eval gamma": dict(_DEFORM, z=Fraction(1), truncation=256),
    "eval beta": dict(_DEFORM, x=Fraction(1), y=Fraction(1),
                      truncation=256),
    "eval integral": dict(_DEFORM, coeffs="", a=Fraction(0),
                          b=Fraction(1)),
    "eval derivative": dict(_DEFORM, coeffs=""),
    "check": dict(_OUTPUT, module=(), classical_limit=False),
    "table --kind numbers": dict(_DEFORM, count=11),
    "table --kind factorials": dict(_DEFORM, count=11),
    "table --kind bernoulli": dict(_DEFORM, count=11, x=Fraction(0)),
    "table --kind euler": dict(_DEFORM, count=11, x=Fraction(0)),
    "table --kind genocchi": dict(_DEFORM, count=11, x=Fraction(0)),
    "table --kind zigzag": dict(_DEFORM, count=11),
    "table --kind volkenborn": dict(_TWIST, count=11, levels=6),
    "table --kind zeta": _GRID,
    "spin exp": dict(_PRIME, precision=DEFAULT_PRECISION, generator="z",
                     scale=Fraction(1), t=Fraction(5)),
    "spin log": _MATRIX,
    "spin level": _MATRIX,
    "zeta eval": dict(_PRIME, s=3),
    "zeta table": _GRID,
    "volkenborn": dict(_TWIST, moment=1, levels=6),
    "pgamma": dict(_TWIST, n=None),
    "pbeta": dict(_TWIST, x=None, y=None),
    "carlitz": dict(_TWIST, n=1, a_param=Fraction(0), x_int=0, levels=6,
                    method="direct"),
}


def _flag(dest: str) -> str:
    return ("-" if len(dest) == 1 else "--") + dest.replace("_", "-")


def _scope(args):
    """Refuse every option given that the operation of ``args`` does not
    read, then fill in the defaults of those it does (argparse stores
    only the options given)."""
    key = args.command
    if "kind" in args:
        key += f" --kind {args.kind}"
    elif "operation" in args:
        key += f" {args.operation}"
    reads = SCOPE[key]
    unread = [_flag(dest) for dest in vars(args) if dest not in reads
              and dest not in ("command", "operation", "kind")]
    if unread:
        raise InvalidParameterError(f"{key} takes no {', '.join(unread)}")
    for dest, default in reads.items():
        if dest not in args:
            setattr(args, dest, default)


def _params(args):
    from .deform import DeformParams, StructureFunction  # eval and table
    if args.kernel is None:
        structure = (None if args.preset is None
                     else StructureFunction.preset(args.preset))
    elif args.preset is not None:
        raise InvalidParameterError(
            "--preset and --kernel are mutually exclusive")
    else:
        import json  # --kernel only
        try:
            with open(args.kernel) as fh:
                structure = StructureFunction.from_json(json.load(fh))
        except MALFORMED as exc:
            raise InvalidParameterError(f"malformed --kernel file: {exc!r}")
    return DeformParams(args.p, args.q, structure, args.xi1, args.xi2)


def _twist(args):
    from .padicfun import TwistParams  # the p-adic commands only
    rho = 1 + args.prime if args.rho is None else args.rho
    q = 1 + 2 * args.prime if args.q is None else args.q
    return TwistParams.make(args.prime, rho, q, precision=args.precision)


def _emit(args, payload, plain_line: str | None = None):
    """Write data per --format to --out or stdout."""
    if args.format == "csv":
        _write(args, _csv_emit(payload))
        return
    if args.format == "plain" and plain_line is not None:
        text = plain_line
    else:
        import json  # --format json, or a payload with no plain line
        text = uncapped(json.dumps, payload, indent=2)
    _write(args, lambda fh: fh.write(text + "\n"))


def _write(args, emit):
    """Call ``emit`` with --out, opened for writing, or with stdout
    unless there is none (a process started with fd 1 closed); a failed
    open or write raises ``OSError``, exit 4."""
    if args.out:
        with open(args.out, "w") as fh:
            emit(fh)
    elif sys.stdout is not None:
        emit(sys.stdout)


def _csv_emit(payload: dict):
    """The ``emit`` of ``_write`` for a flat payload: one ``key,value``
    ``csv.writer`` row per entry, booleans spelt as in JSON.  A payload
    that nests a list or an object has no such rows and is refused
    here, before anything is written or --out is opened."""
    nested = [k for k, v in payload.items() if isinstance(v, (list, dict))]
    if nested:
        raise InvalidParameterError(
            f"--format csv cannot write the nested {', '.join(nested)}; "
            "use --format json")
    import csv  # --format csv only
    return lambda fh: csv.writer(fh).writerows(
        (k, ("true" if v else "false") if isinstance(v, bool) else v)
        for k, v in payload.items())


def _write_table(args, header: list, rows):
    """Write a table per --format to --out or stdout, each row as soon
    as the iterator ``rows`` yields it, so memory holds one row.

    The bytes are those of the whole table formatted at once: plain
    lines of comma-joined cells, ``csv.writer`` rows, or
    ``json.dumps({"kind", "header", "rows"}, indent=2)``.  A failed
    write exits 4 and leaves the rows already written."""
    def emit(fh):
        if args.format == "csv":
            import csv  # --format csv only
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        elif args.format == "plain":
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        else:
            import json  # --format json only
            frame = json.dumps({"kind": args.kind, "header": header,
                                "rows": []}, indent=2)
            fh.write(frame[:-3])  # up to the '[' of '"rows": []\n}'
            sep = "\n"
            for row in rows:
                # a row at depth 2 of the indent; a JSON string holds no
                # raw newline
                fh.write(sep + "    " + json.dumps(row, indent=2)
                         .replace("\n", "\n    "))
                sep = ",\n"
            fh.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")

    _write(args, emit)


# -- eval -------------------------------------------------------------------

def _cmd_eval(args) -> int:
    from . import deform  # already loaded by _params
    params = _params(args)
    op = args.operation
    if op == "number":
        out = {"n": args.n, "value": deform.rpq_number(params, args.n)}
    elif op == "factorial":
        out = {"n": args.n, "value": deform.rpq_factorial(params, args.n)}
    elif op == "binomial":
        out = {"m": args.m, "n": args.n,
               "value": deform.rpq_binomial(params, args.m, args.n)}
    elif op == "gamma":
        from . import gammabeta  # gamma and beta only
        out = {"z": args.z, **gammabeta.gamma_rpq(
            args.z, params, truncation=args.truncation)._asdict()}
    elif op == "beta":
        from . import gammabeta  # gamma and beta only
        out = {"x": args.x, "y": args.y, **gammabeta.beta_rpq(
            args.x, args.y, params, truncation=args.truncation)._asdict()}
    elif op == "integral":
        from . import quadrature  # integral only
        f = _poly_from_coeffs(args.coeffs)
        out = {"a": args.a, "b": args.b, "value":
               quadrature.definite_integral_poly(f, args.a, args.b, params)}
    else:  # derivative; main has refused any operation not in SCOPE
        from .poly import rpq_derivative_poly  # derivative only
        d = rpq_derivative_poly(_poly_from_coeffs(args.coeffs), params)
        out = {"coefficients": [d.coefficient(k)
                                for k in range(max(d.degree, 0) + 1)]}
    # every Fraction, a coefficient included, crosses as its exact string
    spell = {k: [exact_str(c) for c in v] if isinstance(v, list)
             else exact_str(v) if isinstance(v, Fraction) else v
             for k, v in out.items()}
    _emit(args, {"op": op, **spell}, spell["value"] if "value" in spell
          else ",".join(spell["coefficients"]))
    return 0


def _poly_from_coeffs(text: str):
    from .poly import Polynomial  # integral and derivative only
    if not text:
        raise InvalidParameterError("--coeffs required (c0,c1,...)")
    try:
        return Polynomial([Fraction(tok) for tok in text.split(",")])
    except MALFORMED as exc:
        raise InvalidParameterError(f"malformed --coeffs {text!r}: {exc}")


# -- check ------------------------------------------------------------------

def _cmd_check(args) -> int:
    modules = CHECK_MODULES if "all" in args.module else args.module
    if not modules:
        raise InvalidParameterError("no modules selected")
    if args.classical_limit and "gammabeta" not in modules:
        raise InvalidParameterError(
            "--classical-limit is read only by --module gammabeta")
    report = {"modules": [], "passed": True}
    first_failure = None
    for module in modules:
        mod = importlib.import_module(f".{module}", __package__)
        suites = mod.check_suites()
        for suite in suites:
            if not suite.passed and first_failure is None:
                first_failure = (module, suite.first_failure().name)
            report["passed"] = report["passed"] and suite.passed
        entry = {"module": module,
                 "suites": [suite.to_json() for suite in suites]}
        if module == "gammabeta" and args.classical_limit:
            entry["measured_only"] = mod.classical_limit_reports()
        report["modules"].append(entry)
    _emit(args, report)
    if not report["passed"]:
        print(f"first failing identity: {first_failure}", file=sys.stderr)
        return 1
    return 0


# -- table ------------------------------------------------------------------

def _cmd_table(args) -> int:
    # Each kind computes its values before the first byte, so a failing
    # table writes nothing; only formatting and writing are lazy.
    if args.kind != "zeta" and args.count < 0:
        raise InvalidParameterError(f"need --count >= 0; got {args.count}")
    params = None if args.kind in ("volkenborn", "zeta") else _params(args)
    header = ["n", "value"]
    # each kind loads only the module it tabulates
    if args.kind == "numbers":
        from . import deform
        vals = [deform.rpq_number(params, n) for n in range(args.count)]
        rows = ([str(n), exact_str(v)] for n, v in enumerate(vals))
    elif args.kind == "factorials":
        from . import deform
        factors = [deform.rpq_number(params, k)
                   for k in range(1, args.count)]
        # [n]! = [n-1]! [n], printed in time linear in its digits
        rows = ([str(n), s] for n, s in
                zip(range(args.count), running_product_strs(factors)))
    elif args.kind in ("bernoulli", "euler", "genocchi", "zigzag"):
        from . import series
        if not args.count:
            vals = []
        elif args.kind == "zigzag":
            vals = series.zigzag_numbers(params, args.count)
        else:
            vals = series.generating_polynomials(params, args.kind, args.x,
                                                 args.count - 1)
        rows = ([str(n), exact_str(v)] for n, v in enumerate(vals))
    elif args.kind == "volkenborn":
        from . import padicfun
        tw = _twist(args)
        reps = [padicfun.volkenborn_moment(r, tw, args.levels)
                for r in range(args.count)]
        rows = ([str(r), str(rep.best_value), str(rep.converged)]
                for r, rep in enumerate(reps))
        header = ["r", "moment", "converged"]
    else:  # zeta
        from . import spinzeta
        vals = [(p, s, spinzeta.zeta_spin_half(p, s).value)
                for p in args.primes for s in args.s_values]
        rows = ([str(p), str(s), exact_str(v.numerator),
                 exact_str(v.denominator)]
                for p, s, v in vals)
        header = ["p", "s", "value-num", "value-den"]
    _write_table(args, header, rows)
    return 0


# -- spin / zeta / p-adic commands -------------------------------------------

def _load_matrix(args):
    from .spinzeta import Mat2Padic  # spin log and level only
    if not (args.matrix_file or args.matrix_json):
        raise InvalidParameterError("provide --matrix-file or --matrix-json")
    if args.matrix_file and args.matrix_json:
        raise InvalidParameterError(
            "--matrix-file and --matrix-json are mutually exclusive")
    import json  # the matrix arrives as JSON
    try:
        if args.matrix_file:
            with open(args.matrix_file) as fh:
                return Mat2Padic.from_json(json.load(fh))
        return Mat2Padic.from_json(json.loads(args.matrix_json))
    except MALFORMED as exc:
        raise InvalidParameterError(f"malformed matrix JSON: {exc!r}")


def _cmd_spin(args) -> int:
    import json  # spin exp and log print their matrix as JSON
    from . import spinzeta  # spin loads no deformed calculus
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
    if args.operation == "table":  # the rows of table --kind zeta
        args.kind = "zeta"
        return _cmd_table(args)
    from . import spinzeta  # zeta loads no deformed calculus
    z = spinzeta.zeta_spin_half(args.prime, args.s)
    _emit(args, z.to_json(),
          f"{exact_str(z.value.numerator)}/{exact_str(z.value.denominator)}")
    return 0


def _cmd_volkenborn(args) -> int:
    from . import padicfun  # the p-adic commands load no Fraction layers
    tw = _twist(args)
    rep = padicfun.volkenborn_moment(args.moment, tw, args.levels)
    payload = rep.to_json()
    payload["moment"] = args.moment
    _emit(args, payload, str(rep.best_value))
    return 0


def _cmd_pgamma(args) -> int:
    from . import padicfun  # the p-adic commands load no Fraction layers
    tw = _twist(args)
    g = padicfun.padic_gamma_rpq(args.n, tw)
    _emit(args, {"n": args.n, "value": g.to_json(), "text": str(g)},
          str(g))
    return 0


def _cmd_pbeta(args) -> int:
    from . import padicfun  # the p-adic commands load no Fraction layers
    tw = _twist(args)
    b = padicfun.padic_beta_rpq(args.x, args.y, tw)
    _emit(args, {"x": args.x, "y": args.y, "value": b.to_json(),
                 "text": str(b)}, str(b))
    return 0


def _cmd_carlitz(args) -> int:
    from . import padicfun  # the p-adic commands load no Fraction layers
    tw = _twist(args)
    rep = padicfun.carlitz_bernoulli(args.n, args.a_param, args.x_int,
                                     tw, args.levels, args.method)
    payload = rep.to_json()
    payload.update({"n": args.n, "a": str(args.a_param),
                    "x": args.x_int, "method": args.method})
    _emit(args, payload, str(rep.best_value))
    return 0


# -- parser ------------------------------------------------------------------

def _int_list(text: str) -> list:
    return [int(t) for t in text.split(",")]


COMMANDS = {
    "eval": (_cmd_eval, "evaluate a single quantity"),
    "check": (_cmd_check, "run module identity/property suites"),
    "table": (_cmd_table, "emit value tables over parameter grids"),
    "spin": (_cmd_spin, "spin generator exponential/logarithm/level"),
    "zeta": (_cmd_zeta, "spin zeta values (exact rationals)"),
    "volkenborn": (_cmd_volkenborn,
                   "twisted Volkenborn moments with convergence certificates"),
    "pgamma": (_cmd_pgamma, "p-adic deformed gamma at an integer"),
    "pbeta": (_cmd_pbeta, "p-adic deformed beta at integers"),
    "carlitz": (_cmd_carlitz, "Carlitz-type Bernoulli values"),
}

# Each option's add_argument keywords, by dest, in help order; the flag
# is _flag(dest), and --kind takes its choices from SCOPE.
OPTIONS = {
    "format": dict(choices=("json", "csv", "plain")),
    "out": dict(metavar="PATH"),
    "module": dict(action="append", choices=CHECK_MODULES + ("all",)),
    "classical_limit": dict(action="store_true"),
    "preset": dict(help="structure-function preset name "
                        "(default jagannathan_srinivasa)"),
    "kernel": dict(metavar="PATH",
                   help="JSON file with a custom kernel "
                        "{numerator:[[s,t,coeff]...], denominator:[...]}"),
    "p": dict(type=_fraction, help="default 1"),
    "xi1": dict(type=_fraction), "xi2": dict(type=_fraction),
    "prime": dict(type=_prime),
    "q": dict(type=_fraction,
              help="default 1/2, or 1 + 2 --prime for a p-adic twist"),
    "precision": dict(type=_precision,
                      help=f"p-adic digits, at most {MAX_PRECISION}; "
                           f"default {DEFAULT_PRECISION}"),
    "generator": dict(choices=("minus", "z", "plus")),
    "scale": dict(type=_fraction), "t": dict(type=_fraction),
    "matrix_file": dict(), "matrix_json": dict(),
    "rho": dict(type=_fraction,
                help="p-adic twist parameter (rational embedded); "
                     "default 1 + --prime"),
    "levels": dict(type=int), "moment": dict(type=int),
    "primes": dict(type=_int_list), "s_values": dict(type=_int_list),
    "s": dict(type=int), "kind": dict(required=True),
    "count": dict(type=int), "n": dict(type=int), "m": dict(type=int),
    "z": dict(type=_fraction), "x": dict(type=_fraction),
    "y": dict(type=_fraction), "a": dict(type=_fraction),
    "b": dict(type=_fraction), "coeffs": dict(),
    "truncation": dict(type=_positive_int),
    "a_param": dict(type=_fraction), "x_int": dict(type=int),
    "method": dict(choices=("direct", "moments")),
}

# (subcommand, dest) -> the keywords it sets over those of OPTIONS
_OVERRIDES = {
    ("pgamma", "n"): dict(required=True),
    ("pbeta", "x"): dict(type=int, required=True),
    ("pbeta", "y"): dict(type=int, required=True),
    ("table", "x"): dict(help="argument of the polynomial families"),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of ``rpqcalc``.  Only the subcommand ``argv[0]`` names
    gets its operations (or --kind choices) and options, from SCOPE; the
    rest are registered bare, enough for the top-level help and "invalid
    choice".  Defaults come from SCOPE: the namespace holds what is given."""
    top = argparse.ArgumentParser(
        prog="rpqcalc",
        description="Exact deformed quantum calculus and p-adic "
                    "special functions")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, summary) in COMMANDS.items():
        cmd = sub.add_parser(name, help=summary,
                             argument_default=argparse.SUPPRESS)
        if not argv or argv[0] != name:
            continue
        keys = [key for key in SCOPE if key.split()[0] == name]
        dests = set().union(*(SCOPE[key] for key in keys))
        ops = [key.split()[-1] for key in keys if key != name]
        if keys[0].startswith(f"{name} --kind "):
            dests.add("kind")
        elif ops:
            cmd.add_argument("operation", choices=ops)
        for dest, kw in OPTIONS.items():
            if dest in dests:
                kw = {**kw, **_OVERRIDES.get((name, dest), {})}
                if dest == "kind":
                    kw["choices"] = ops
                cmd.add_argument(_flag(dest), **kw)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        _scope(args)
        return COMMANDS[args.command][0](args)
    except InvalidParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except RpqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """Run ``main`` on ``sys.argv`` as the whole process, then end it.

    Flushes stdout and stderr and calls ``os._exit``, skipping module
    teardown and the final garbage collections of a normal exit.  An
    ``OSError`` that escapes ``main`` (raised while it parses or reports
    a failure) or out of a flush exits 4, any other ``Exception`` 5,
    each with one line on stderr; ``KeyboardInterrupt`` and
    ``SystemExit`` propagate.
    """
    try:
        code = main()
    except OSError as exc:
        code = _report(f"i/o error: {exc}", 4)
    except Exception as exc:
        code = _report(f"internal error: {type(exc).__name__}: {exc}", 5)
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            if code != 4:  # an i/o error already reported keeps its line
                code = _report(f"i/o error: {exc}", 4)
    os._exit(code)


def _report(line: str, code: int) -> int:
    """Write ``line`` to stderr, if stderr still takes it; return code."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:  # stderr is closed too
            pass
    return code


if __name__ == "__main__":
    run()
