"""Run one rpqcalc CLI command with per-layer tracing.

    PYTHONPATH=src python3 perfbench/trace_boot.py <rpqcalc arguments>

behaves like ``python3 -m rpqcalc.cli <arguments>`` (same stdout, same
exit code) and, on exit, writes one line ``PERFBENCH_TRACE {json}`` to
stderr with the command's per-layer self times and counts.

Every public module-level function of the library layers is wrapped in
a span, and the wrapper replaces the function under every name it is
bound to in any ``rpqcalc`` module (``rpq_factorial`` is imported by
name into ``series``, ``gammabeta`` and ``padicfun``).  Spans stay in
memory; a layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.  p-adic
arithmetic is counted, not timed, so its time lands in the calling
span (usually ``padicfun``).
"""

import importlib
import inspect
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

MARK = "PERFBENCH_TRACE "

SPANNED = ("deform", "series", "gammabeta", "padicfun", "spinzeta", "poly",
           "quadrature")
LAYERS = ("cli", "kernel") + SPANNED
RIEMANN = {"padicfun.volkenborn_integral", "padicfun.volkenborn_moment",
           "padicfun.carlitz_bernoulli", "padicfun.fermionic_integral"}
PADIC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
             "__pow__", "inverse", "exp", "log", "sqrt")


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.keys = []      # span name, "layer.function"
        self.parents = []   # index of the enclosing span, -1 at the root
        self.starts = []
        self.ends = []
        self.stack = []
        self.counts = Counter()
        self.maxima = Counter()

    # -- wrappers ----------------------------------------------------------

    def span(self, key, fn, after=None):
        keys, parents, starts, ends, stack = (
            self.keys, self.parents, self.starts, self.ends, self.stack)

        def wrapper(*args, **kwargs):
            i = len(keys)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at layer boundaries ---------------------------------------

    def _after_deform(self, args, result):
        if isinstance(result, Fraction):
            self._max("deform.max_fraction_bits", _bits(result))

    def _after_gammabeta(self, args, result):
        value = getattr(result, "value", result)
        if isinstance(value, Fraction):
            self._max("gammabeta.value_bits", _bits(value))
        if getattr(result, "exact", True) is False and \
                hasattr(result, "terms"):
            self.counts["gammabeta.product_terms"] += result.terms

    def _after_kernel(self, args, result):
        self.counts["kernel.elements"] += sum(
            len(a) for a in args if isinstance(a, list))

    def _after_factorial(self, args, result):
        n, tw = args[0], args[1]
        if n > 1:
            self.counts["padicfun.factorial_terms"] += \
                (n - 1) - (n - 1) // tw.prime

    def _after_riemann(self, args, result):
        # count a report once, at the outermost Riemann-sum entry point
        if not result.levels or any(self.keys[i] in RIEMANN
                                    for i in self.stack):
            return
        prime = result.values[0].prime
        self.counts["padicfun.riemann_levels"] += len(result.levels)
        self.counts["padicfun.riemann_residues"] += sum(
            prime ** n for n in result.levels)

    def _max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _hook(self, layer, name):
        key = f"{layer}.{name}"
        if key in RIEMANN:
            return self._after_riemann
        if key == "padicfun.padic_factorial_rpq":
            return self._after_factorial
        return {"deform": self._after_deform,
                "gammabeta": self._after_gammabeta,
                "kernel": self._after_kernel}.get(layer)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the public functions and patch every binding of them."""
        replace = {}
        for layer in SPANNED:
            mod = importlib.import_module(f"rpqcalc.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and not name.startswith("_") \
                        and fn.__module__ == mod.__name__:
                    replace[id(fn)] = (fn, self.span(
                        f"{layer}.{name}", fn, self._hook(layer, name)))
        kernel = importlib.import_module("rpqcalc._kernel")
        for name in kernel.__all__:
            fn = getattr(kernel, name)
            if callable(fn):
                replace[id(fn)] = (fn, self.span(
                    f"kernel.{name}", fn, self._after_kernel))
        padic = importlib.import_module("rpqcalc.padic")
        replace[id(padic.is_prime)] = (padic.is_prime, self.counted(
            "padic.is_prime_calls", padic.is_prime))
        for mod in [m for n, m in sys.modules.items()
                    if n == "rpqcalc" or n.startswith("rpqcalc.")]:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        cls = padic.PadicNumber
        cls.__init__ = self.counted("padic.ctor_count", cls.__init__)
        for name in PADIC_OPS:
            setattr(cls, name, self.counted("padic.ops", getattr(cls, name)))

    # -- summary ---------------------------------------------------------------

    def summary(self):
        n = len(self.keys)
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        per_function = Counter()
        for i, key in enumerate(self.keys):
            layer = key.split(".", 1)[0]
            self_s[layer] += self.ends[i] - self.starts[i] - child[i]
            calls[layer] += 1
            per_function[key] += 1
        return {"self_s": self_s, "calls": calls,
                "functions": dict(per_function),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


def main(argv):
    import rpqcalc.cli as cli
    tracer = Tracer()
    tracer.install()
    sys.argv = ["rpqcalc", *argv]
    try:
        code = tracer.span("cli.main", cli.main)()
    finally:
        sys.stderr.write(MARK + json.dumps(tracer.summary()) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
