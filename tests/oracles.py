"""Reference computations the tests check the library against.

Not a test module (pytest collects ``test_*.py`` only): each function
computes by the defining sum or product, term by term, what the library
computes in closed form or through a different route.
"""

import math
from fractions import Fraction

from rpqcalc import _kernel
from rpqcalc.deform import rpq_number
from rpqcalc.errors import PrecisionError
from rpqcalc.gammabeta import rational_pow_exact
from rpqcalc.padic import (PadicNumber, _check_prime, _exp_terms,
                          _log_terms, int_valuation)
from rpqcalc.padicfun import number_at


P, Q = Fraction(9, 10), Fraction(1, 2)

# each preset's printed kernel R(u, v) at the bound (p, q), independent of
# the library's two-base form (deform._preset_oracle_suite keeps its own
# copy, as the library cannot import the tests)
KERNELS = {
    "heine": lambda u, v, p, q: (1 - v) / (1 - q),
    "quesne": lambda u, v, p, q: (1 - 1 / v) / (q - 1),
    "biedenharn_macfarlane": lambda u, v, p, q: (v - 1 / v) / (q - 1 / q),
    "jagannathan_srinivasa": lambda u, v, p, q: (u - v) / (p - q),
    "chakrabarty_jagannathan": lambda u, v, p, q: (1 / u - v) / (1 / p - q),
    "hounkonnou_ngompe": lambda u, v, p, q: (u - 1 / v) / (q - 1 / p),
}


def kernel_number(kind: str, n: int, p=P, q=Q) -> Fraction:
    """[n] of the preset ``kind`` at (p, q) by its printed kernel,
    R(p^n, q^n)."""
    return KERNELS[kind](p ** n, q ** n, p, q)


def padic_valuation(x, p: int):
    """v_p(x) for a rational x: the n in x = p^n * a/b with p dividing
    neither a nor b.  Returns ``math.inf`` for x = 0."""
    _check_prime(p)
    x = Fraction(x)
    if x == 0:
        return math.inf
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


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


def untwisted_fermionic_sums(f, p: int, levels: int) -> list:
    """sum_{x<p^N} (-1)^x f(x) for N = 1..levels, as exact Fractions:
    the Riemann sums of the untwisted fermionic integral (odd p)."""
    sums, total, start = [], Fraction(0), 0
    for N in range(1, levels + 1):
        total += sum(f(x) if x % 2 == 0 else -f(x)
                     for x in range(start, p ** N))
        start = p ** N
        sums.append(total)
    return sums


def fermionic_limit(r: int, rho, q) -> Fraction:
    """The exact limit of the twisted fermionic moment of [t]^r at
    rational rho, q (both 1 mod p): by the binomial theorem, (rho - q)^(-r)
    sum_k C(r,k) (-1)^k sum_t (-A_k)^t with A_k = rho^(r-k) q^k, and
    the level sum (1 - (-A)^(p^N))/(1 + A) tends to 2/(1 + A), as
    A^(p^N) -> 1 p-adically."""
    rho, q = Fraction(rho), Fraction(q)
    return sum(math.comb(r, k) * (-1) ** k * 2 / (1 + rho ** (r - k) * q ** k)
               for k in range(r + 1)) / (rho - q) ** r


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
        totals = [PadicNumber(p, 0, s, W)
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


# -- PadicNumber's precision rules, one branch per zero case --------------
#
# A second statement of the arithmetic of ``PadicNumber`` on
# (p, val, unit, prec) tuples, written case by case: a zero is
# (p, A, 0, 0), zero modulo p^A, and every zero operand and every
# cancellation takes its own branch.  The class states the same rules as
# one formula per operation; the tests hold the two equal.

def padic_tuple(x: PadicNumber) -> tuple:
    """x as (p, val, unit, prec); a zero's val is its absolute precision."""
    return (x.prime, x.absolute_precision - x.precision, x.unit, x.precision)


def tuple_view(t: tuple) -> tuple:
    """(valuation, unit, precision, absolute precision) of a tuple."""
    p, val, unit, prec = t
    return (math.inf, 0, 0, val) if unit == 0 else (val, unit, prec,
                                                    val + prec)


def _tuple_padic(p: int, val: int, unit: int, prec: int) -> tuple:
    if unit == 0:
        return (p, val, 0, 0)
    if prec < 1:
        raise PrecisionError("nonzero value needs at least one digit")
    unit %= p ** prec
    if unit == 0:
        return (p, val + prec, 0, 0)
    shift = int_valuation(unit, p)
    return (p, val + shift, unit // p ** shift, prec - shift)


def _tuple_abs(t: tuple) -> int:
    return tuple_view(t)[3]


def _tuple_truncate_abs(t: tuple, abs_prec: int) -> tuple:
    p, val, unit, prec = t
    if unit == 0:
        return (p, min(val, abs_prec), 0, 0)
    if abs_prec <= val:
        return (p, abs_prec, 0, 0)
    return _tuple_padic(p, val, unit, min(prec, abs_prec - val))


def tuple_add(a: tuple, b: tuple) -> tuple:
    p = a[0]
    if a[2] == 0 and b[2] == 0:
        return (p, min(a[1], b[1]), 0, 0)
    if a[2] == 0:
        return _tuple_truncate_abs(b, min(a[1], _tuple_abs(b)))
    if b[2] == 0:
        return _tuple_truncate_abs(a, min(b[1], _tuple_abs(a)))
    abs_prec = min(_tuple_abs(a), _tuple_abs(b))
    v = min(a[1], b[1])
    if v >= abs_prec:
        return (p, abs_prec, 0, 0)
    s = (a[2] * p ** (a[1] - v) + b[2] * p ** (b[1] - v)) \
        % p ** (abs_prec - v)
    if s == 0:
        return (p, abs_prec, 0, 0)
    return _tuple_padic(p, v, s, abs_prec - v)


def tuple_neg(a: tuple) -> tuple:
    p, val, unit, prec = a
    if unit == 0:
        return a
    return _tuple_padic(p, val, p ** prec - unit, prec)


def tuple_mul(a: tuple, b: tuple) -> tuple:
    p = a[0]
    if a[2] == 0 or b[2] == 0:
        return (p, a[1] + b[1], 0, 0)
    prec = min(a[3], b[3])
    return _tuple_padic(p, a[1] + b[1], a[2] * b[2] % p ** prec, prec)


def tuple_pow(a: tuple, n: int) -> tuple:
    """a ** n for n >= 0; a ** 0 is one to a's precision, or to a zero's
    absolute precision (at least 1)."""
    p, val, unit, prec = a
    if n == 0:
        return _tuple_padic(p, 0, 1, prec or max(val, 1))
    if unit == 0:
        return (p, val * n, 0, 0)
    return _tuple_padic(p, val * n, pow(unit, n, p ** prec), prec)


def tuple_with_precision(a: tuple, prec: int) -> tuple:
    if a[2] == 0 or prec >= a[3]:
        return a
    return _tuple_padic(a[0], a[1], a[2], prec)


def tuple_residue(a: tuple, k: int) -> int:
    p, val, unit, _ = a
    if k > _tuple_abs(a):
        raise PrecisionError(f"residue mod p^{k} exceeds precision")
    if unit == 0:
        return 0
    if val < 0:
        raise PrecisionError("negative valuation: not a p-adic integer")
    return unit * p ** val % p ** k


# -- the residue loops of exp and log -----------------------------------
#
# exp and log of a PadicNumber summed as integers modulo p^A, with the
# factorial's p-part and unit kept apart and a shortcut for a zero
# argument: the series the library now sums in PadicNumber arithmetic.

def residue_exp(x: PadicNumber) -> PadicNumber:
    """exp(x) = sum x^n/n! modulo p^A, A the absolute precision of x;
    a zero known modulo p^A gives one modulo p^A."""
    p, A = x.prime, x.absolute_precision
    if x.is_zero():
        return PadicNumber.one(p, A)
    terms = _exp_terms(x.valuation, p, A)
    m = p ** A
    u, v = x.unit % m, x.valuation
    acc = 1 % m
    upow = 1
    fact_unit = 1      # n! = p^fact_val * fact_unit
    fact_val = 0
    for n in range(1, terms):
        upow = upow * u % m
        k = n
        while k % p == 0:
            fact_val += 1
            k //= p
        fact_unit = fact_unit * k % m
        exponent = n * v - fact_val
        if exponent < A:
            acc = (acc + upow * pow(fact_unit, -1, m) * p ** exponent) % m
    return PadicNumber(p, 0, acc, A)


def residue_log(u: PadicNumber) -> PadicNumber:
    """log(u) = sum (-1)^(n-1) (u-1)^n / n modulo p^A, A the absolute
    precision of u - 1; u - 1 zero modulo p^A gives zero modulo p^A."""
    p = u.prime
    x = u - 1
    A = min(u.absolute_precision, x.absolute_precision)
    if x.is_zero():
        return PadicNumber.zero(p, A)
    terms = _log_terms(x.valuation, p, A)
    m = p ** A
    a, w = x.unit % m, x.valuation
    acc = 0
    apow = 1
    for n in range(1, terms):
        apow = apow * a % m
        f = 0
        k = n
        while k % p == 0:
            f += 1
            k //= p
        exponent = n * w - f
        if exponent < A:
            term = apow * pow(k, -1, m) % m * p ** exponent % m
            acc = (acc - term if n % 2 == 0 else acc + term) % m
    return PadicNumber(p, 0, acc, A)


# -- the group law of the spin matrices ------------------------------------

def bch_degree3(X, Y):
    """The Baker-Campbell-Hausdorff series of log(exp X exp Y) through
    degree 3, X + Y + [X,Y]/2 + ([X,[X,Y]] - [Y,[X,Y]])/12, for 2x2
    matrices with ``@``, ``-``, ``+`` and ``scaled``.  Its first omitted
    term is the degree-4 -[Y,[X,[X,Y]]]/24 (Serre, *Lie Algebras and
    Lie Groups*, Part I, ch. IV)."""
    def bracket(A, B):
        return A @ B - B @ A
    XY = bracket(X, Y)
    return X + Y + XY.scaled(Fraction(1, 2)) \
        + (bracket(X, XY) - bracket(Y, XY)).scaled(Fraction(1, 12))
