"""Reference computations the tests check the library against.

Not a test module (pytest collects ``test_*.py`` only): each function
computes by the defining sum or product, term by term, what the library
computes in closed form or through a different route.
"""

from fractions import Fraction

from rpqcalc import _kernel
from rpqcalc.deform import rpq_number
from rpqcalc.gammabeta import rational_pow_exact
from rpqcalc.padic import PadicNumber
from rpqcalc.padicfun import number_at


def morita_gamma(n: int, p: int, W: int) -> int:
    """Morita's Gamma_p(n) modulo p^W for any integer n: the residue of
    (-1)^n prod_{0<j<n, p not | j} j, and for n < 0 of
    (-1)^n / prod_{n<=j<0, p not | j} j (the recurrence unrolled)."""
    mod = p ** W
    acc = 1
    for j in range(1, n) if n > 0 else range(n, 0):
        if j % p:
            acc = acc * j % mod
    if n < 0:
        acc = pow(acc, -1, mod)
    return (-acc if n % 2 else acc) % mod


def untwisted_level_sums(f, p: int, levels: int) -> list:
    """(1/p^N) sum_{x<p^N} f(x) for N = 1..levels, as exact Fractions:
    the Riemann sums of the untwisted Volkenborn integral."""
    sums, total, start = [], Fraction(0), 0
    for N in range(1, levels + 1):
        total += sum(map(f, range(start, p ** N)))
        start = p ** N
        sums.append(total / start)
    return sums


def twisted_level_sums(f, tw, levels: int) -> list:
    """rho^(p^N)/[p^N] sum_{t<p^N} (q/rho)^t f(t) for N = 1..levels, as
    a report shows them: computed at the twist's working precision W,
    then cut to its precision.  When every f(t) is an int or a Fraction
    (whose denominator p must not divide), the weighted sum is taken on
    residues modulo p^W by ``_kernel.level_sums``; otherwise as a
    running PadicNumber total."""
    p, W = tw.prime, tw.work_precision
    mod, ratio = p ** W, tw.q / tw.rho
    vals = [f(t) for t in range(p ** levels)]
    if all(isinstance(v, (int, Fraction)) for v in vals):
        residues = (v.numerator * pow(v.denominator, -1, mod) % mod
                    for v in vals)
        totals = [PadicNumber(p, 0, s, W) if s else PadicNumber.zero(p, W)
                  for s in _kernel.level_sums(residues, ratio.residue(W), p,
                                              levels, mod)]
    else:
        totals, total, weight = [], PadicNumber.zero(p, W), \
            PadicNumber.one(p, W)
        for t, v in enumerate(vals, 1):
            total = total + weight * v
            weight = weight * ratio
            if t == p ** (len(totals) + 1):
                totals.append(total)
    return [tw.shown(tw.rho ** p ** N * total / number_at(tw, p ** N))
            for N, total in enumerate(totals, 1)]


def rpq_number_at(params, z) -> Fraction:
    """The deformed number at a rational argument,
    [z] = c (xi1^z - xi2^z)/(xi1 - xi2) with c = [1] the twist scale;
    the integer deformed number at integers z >= 0."""
    z = Fraction(z)
    if z.denominator == 1 and z >= 0:
        return rpq_number(params, z.numerator)
    x1, x2 = params.xi1, params.xi2
    return params.twist_scale() * (rational_pow_exact(x1, z)
                                   - rational_pow_exact(x2, z)) / (x1 - x2)
