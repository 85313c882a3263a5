"""p-adic deformed factorial/gamma/beta, the twisted Volkenborn measure
and integral, Carlitz-type Bernoulli polynomials, and the fermionic
integral.

Twist parameters rho, q are p-adic numbers congruent to 1 mod p; the
default kernel is the two-base one, [j] = (rho^j - q^j)/(rho - q).  The
``classical`` kernel (rho = q = 1, [j] = j) gives Morita's gamma and
the untwisted Volkenborn measure 1/p^N.

The measure implemented here is

    mu(a + p^N Z_p) = rho^(p^N) * (q/rho)^a / [p^N],

whose distribution relation is exact (checked in the test suite); at
rho = 1 it reduces to the familiar q^a / [p^N] weight.  Riemann sums
run over ascending residues, so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, count, islice, repeat
from operator import attrgetter, mul
from typing import Callable, Iterable, Iterator, Optional

from . import _kernel
from .deform import (DeformParams, IdentityResult, StructureFunction,
                     SuiteReport, rpq_factorial, rpq_number)
from .errors import (ConvergenceDomainError, InvalidParameterError,
                     NoConvergenceError)
from .padic import PadicNumber, int_valuation, is_prime
from .poly import Polynomial

DEFAULT_LEVELS = 6
DEFAULT_PRECISION = 16


def _js_structure() -> StructureFunction:
    return StructureFunction.preset("jagannathan_srinivasa")


@dataclass(frozen=True)
class TwistParams:
    """p-adic deformation parameters.

    ``|rho - 1|_p < 1`` and ``|q - 1|_p < 1`` are required throughout;
    the Volkenborn operations need the stronger exp/log-domain bounds
    ``v(rho - 1) >= 1`` and ``v(q - 1) >= 1`` (automatic for odd p once
    the weak bound holds).
    """

    prime: int
    rho: PadicNumber
    q: PadicNumber
    structure: StructureFunction = field(default_factory=_js_structure)
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if not is_prime(self.prime) or self.prime == 2:
            raise InvalidParameterError(
                f"p-adic special functions need an odd prime; got "
                f"{self.prime}")
        for name, v in (("rho", self.rho), ("q", self.q)):
            if v.prime != self.prime:
                raise InvalidParameterError(f"{name} has wrong prime")
            if not self.classical and not v.is_unit():
                raise InvalidParameterError(f"{name} must be a unit")
            d = v - 1
            if not d.is_zero() and d.valuation < 1:
                raise InvalidParameterError(
                    f"need |{name} - 1|_p < 1; got valuation "
                    f"{d.valuation}")
        if not self.classical and (self.rho - self.q).is_zero():
            raise InvalidParameterError("need rho != q at this precision")

    @property
    def classical(self) -> bool:
        return self.structure.kind == "classical"

    @classmethod
    def make(cls, prime: int, rho, q, precision: int = DEFAULT_PRECISION,
             structure: Optional[StructureFunction] = None
             ) -> "TwistParams":
        work = precision + DEFAULT_LEVELS + 8
        emb = lambda v: v if isinstance(v, PadicNumber) \
            else PadicNumber.from_rational(Fraction(v), prime, work)
        return cls(prime, emb(rho), emb(q),
                   structure or _js_structure(), precision)

    @classmethod
    def classical_limit(cls, prime: int,
                        precision: int = DEFAULT_PRECISION
                        ) -> "TwistParams":
        work = precision + DEFAULT_LEVELS + 8
        one = PadicNumber.one(prime, work)
        return cls(prime, one, one, StructureFunction.preset("classical"),
                   precision)

    @cached_property
    def deform_params(self) -> DeformParams:
        return DeformParams(self.rho, self.q, self.structure)

    @cached_property
    def _restricted_factorials(self) -> list:
        return [PadicNumber.one(self.prime, self.work_precision)] * 2

    def powered(self, k: int) -> "TwistParams":
        return TwistParams(self.prime, self.rho ** k, self.q ** k,
                           self.structure, self.precision)

    def require_volkenborn(self):
        for name, v in (("rho", self.rho), ("q", self.q)):
            d = v - 1
            if not d.is_zero() and Fraction(d.valuation) <= \
                    Fraction(1, self.prime - 1):
                raise ConvergenceDomainError(
                    f"Volkenborn twist needs |{name}-1|_p < p^(-1/(p-1))")

    @property
    def work_precision(self) -> int:
        return min(self.rho.precision if not self.rho.is_zero() else 64,
                   self.q.precision if not self.q.is_zero() else 64)

    def shown(self, value: PadicNumber) -> PadicNumber:
        """A level value as reported: truncated to ``precision`` digits."""
        return value.with_precision(self.precision)


def number_at(tw: TwistParams, z: int):
    """[z] for any integer z (negative included, via exact powers)."""
    if tw.classical:
        return PadicNumber.from_rational(z, tw.prime, tw.work_precision)
    return tw.structure.value(tw.rho ** z, tw.q ** z, tw.deform_params)


def padic_factorial_rpq(n: int, tw: TwistParams) -> PadicNumber:
    """Restricted factorial prod_{j < n, p not | j} [j].  Memoised."""
    if n < 0:
        raise InvalidParameterError("factorial needs n >= 0")
    facts = tw._restricted_factorials
    for j in range(len(facts) - 1, n):
        # a slot write, not append: a racing thread rewrites the same value
        facts[j + 1:j + 2] = [
            facts[j] * number_at(tw, j) if j % tw.prime else facts[j]]
    return facts[n]


def padic_gamma_rpq(n: int, tw: TwistParams) -> PadicNumber:
    """(-1)^n times the restricted factorial; negative integers through
    the recurrence Gamma(z) = Gamma(z+1)/delta(z)."""
    if n >= 0:
        g = padic_factorial_rpq(n, tw)
        return g if n % 2 == 0 else -g
    g = padic_gamma_rpq(0, tw)
    for z in range(-1, n - 1, -1):
        g = g / delta_factor(z, tw)
    return g


def delta_factor(z: int, tw: TwistParams) -> PadicNumber:
    """-[z] when z is a p-adic unit, -1 when |z|_p < 1 (the recurrence
    factor Gamma(z+1) = delta(z) Gamma(z))."""
    p = tw.prime
    if z % p == 0:
        return -PadicNumber.one(p, tw.work_precision)
    return -number_at(tw, z)


def gamma_recurrence_check(tw: TwistParams, z_max: int) -> SuiteReport:
    results = []
    for z in range(z_max + 1):
        results.append(IdentityResult(
            f"Gamma({z + 1}) = delta({z}) Gamma({z})",
            padic_gamma_rpq(z + 1, tw),
            delta_factor(z, tw) * padic_gamma_rpq(z, tw)))
    return SuiteReport("padic_gamma_recurrence", tuple(results))


def _digit_sum(n: int, p: int) -> int:
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def factorial_decomposition_check(n: int, tw: TwistParams) -> SuiteReport:
    """The factorial/gamma decomposition theorems, all in p-adic
    arithmetic to working precision:

    - Gamma(n+1) = (-1)^(n+1) [n]! / ([p]^(floor(n/p)) [floor(n/p)]!'),
      where ' marks the parameters raised to the p-th power;
    - the product rule [kp] = [k]' [p] (primed first factor);
    - the product-ratio identity for each digit level (two-base kernel);
    - the base-p digit bookkeeping: sum_{j>=1} floor(n/p^j)
      = (n - digitsum(n))/(p - 1), and the full factorization of [n]!
      into gamma values at successively powered parameters.
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    p = tw.prime
    dp = tw.deform_params
    twp = tw.powered(p)
    results = []
    m = n // p
    fact_n = rpq_factorial(dp, n)
    bracket_p = rpq_number(dp, p)
    fact_m_powered = rpq_factorial(twp.deform_params, m)
    lhs = padic_gamma_rpq(n + 1, tw)
    rhs = fact_n / (bracket_p ** m * fact_m_powered)
    if (n + 1) % 2:
        rhs = -rhs
    results.append(IdentityResult(
        f"gamma decomposition at n={n}", lhs, rhs))
    # product rule [kp] = [k]_{rho^p,q^p} [p]_{rho,q}
    for k in range(1, min(m, 3) + 2):
        results.append(IdentityResult(
            f"product rule k={k}",
            number_at(tw, k * p),
            number_at(twp, k) * bracket_p))
    # product-ratio identity (two-base kernel): with m = floor(n/p^j),
    # [m]!/([p]^m [m]!') = prod_{k<=m} (rho^k - q^k)/(rho^kp - q^kp)
    if tw.structure.kind == "jagannathan_srinivasa" and not tw.classical:
        rho, q = tw.rho, tw.q
        levels = []
        nn = n
        while nn:
            levels.append(nn)
            nn //= p
        for j, mj in enumerate(levels):
            lhs_r = rpq_factorial(dp, mj) / (
                bracket_p ** mj
                * rpq_factorial(twp.deform_params, mj))
            rhs_r = PadicNumber.one(p, tw.work_precision)
            for k in range(1, mj + 1):
                rhs_r = rhs_r * (rho ** k - q ** k) / (
                    rho ** (k * p) - q ** (k * p))
            results.append(IdentityResult(
                f"product ratio at level j={j}", lhs_r, rhs_r))
    # digit bookkeeping
    s = _digit_sum(n, p)
    legendre = sum(n // p ** j for j in range(1, n.bit_length() * 4)
                   if p ** j <= n)
    results.append(IdentityResult(
        "digit-sum exponent", Fraction(legendre),
        Fraction(n - s, p - 1)))
    # full factorization of [n]! into gammas at powered parameters
    digits_levels = []
    nn = n
    while nn:
        digits_levels.append(nn)
        nn //= p
    prod = PadicNumber.one(p, tw.work_precision)
    sign = 0
    for j, nj in enumerate(digits_levels):
        twj = tw.powered(p ** j)
        prod = prod * padic_gamma_rpq(nj + 1, twj)
        nj1 = nj // p
        prod = prod * rpq_number(twj.deform_params, p) ** nj1
        sign += nj + 1
    if sign % 2:
        prod = -prod
    results.append(IdentityResult(
        "factorial digit factorization", fact_n, prod))
    return SuiteReport("factorial_decomposition", tuple(results))


# -- Volkenborn measure and integral --------------------------------------

def volkenborn_measure(a: int, level: int, tw: TwistParams) -> PadicNumber:
    """mu(a + p^N Z_p) = rho^(p^N) (q/rho)^a / [p^N]."""
    p = tw.prime
    if level < 0 or not 0 <= a < p ** level:
        raise InvalidParameterError(
            f"need 0 <= a < p^{level}; got a = {a}")
    tw.require_volkenborn()
    m = p ** level
    w = tw.q / tw.rho
    return tw.rho ** m * w ** a / number_at(tw, m)


@dataclass(frozen=True)
class ConvergenceReport:
    """Riemann sums over increasing partition depth with the valuations
    of successive differences as the convergence certificate."""

    levels: tuple
    values: tuple          # PadicNumber per level
    diff_valuations: tuple

    @property
    def converged(self) -> bool:
        ds = self.diff_valuations
        inf = float("inf")
        return len(ds) >= 2 and all(
            b > a or (a == inf and b == inf)
            for a, b in zip(ds, ds[1:]))

    @property
    def value(self) -> PadicNumber:
        if not self.converged:
            raise NoConvergenceError(
                f"no stabilization within the level budget; difference "
                f"valuations {self.diff_valuations}")
        return self.best_value

    @property
    def best_value(self) -> PadicNumber:
        return self.values[-1]

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels),
            "values": [str(v) for v in self.values],
            "diff_valuations": [
                None if v is None else (v if v != float("inf") else "inf")
                for v in self.diff_valuations],
            "converged": self.converged,
        }


def _converge(sums: Iterable, max_level: int, shown: Callable,
              valuation: Callable = attrgetter("valuation")
              ) -> ConvergenceReport:
    """Report the first max_level of the level sums (N = 1, 2, ...):
    each level's value as shown(s) and the valuations of successive
    differences (the zero difference has valuation inf).  sums is not
    iterated when the level budget is empty."""
    if max_level < 1:
        raise InvalidParameterError(
            f"need at least one level; got {max_level}")
    sums = list(islice(sums, max_level))
    return ConvergenceReport(
        tuple(range(1, max_level + 1)), tuple(shown(s) for s in sums),
        tuple(valuation(b - a) for a, b in zip(sums, sums[1:])))


def _at_levels(running: Iterable, p: int) -> Iterator:
    """Items p, p^2, p^3, ... (counting from 0) of running: the level
    sums, when running yields the partial sums from the empty one."""
    mark = p
    for i, total in enumerate(running):
        if i == mark:
            yield total
            mark *= p


def _from_residue(s: int, p: int, W: int) -> PadicNumber:
    return PadicNumber(p, 0, s, W) if s else PadicNumber.zero(p, W)


def _level_sums(f: Callable, max_level: int,
                tw: TwistParams) -> Iterator[PadicNumber]:
    """Riemann sums (rho^(p^N)/[p^N]) sum_{x<p^N} (q/rho)^x f(x) for
    N = 1..max_level from one pass over x < p^max_level: exact values
    with p-free denominators through the kernel, others through a
    PadicNumber running total (the tests' reference path)."""
    p, W = tw.prime, tw.work_precision
    mod = p ** W
    what = tw.q / tw.rho
    vals = [f(x) for x in range(p ** max_level)]
    if all(isinstance(v, (int, Fraction)) and v.denominator % p
           for v in vals):
        residues = (v.numerator * pow(v.denominator, -1, mod) % mod
                    for v in vals)
        totals = (_from_residue(s, p, W) for s in _kernel.level_sums(
            residues, what.residue(W), p, max_level, mod))
    else:
        weights = accumulate(repeat(what), mul,
                             initial=PadicNumber.one(p, W))
        totals = _at_levels(accumulate(map(mul, weights, vals),
                                       initial=PadicNumber.zero(p, W)), p)
    for N, total in enumerate(totals, 1):
        yield _apply_prefactor(total, p ** N, tw)


def _apply_prefactor(total: PadicNumber, count: int,
                     tw: TwistParams) -> PadicNumber:
    return tw.rho ** count * total / number_at(tw, count)


def volkenborn_integral(f: Callable, tw: TwistParams,
                        max_level: int = DEFAULT_LEVELS
                        ) -> ConvergenceReport:
    """Riemann sums of f over residue classes for N = 1..max_level.

    f is evaluated at the integers 0..p^max_level - 1 (the restriction
    of a uniformly differentiable function); stabilization is certified
    by strictly increasing valuations of successive differences and is
    reported, never assumed.
    """
    tw.require_volkenborn()
    return _converge(_level_sums(f, max_level, tw), max_level, tw.shown)


def _bracket_powers(r: int, rx: int, qx: int, rho: int, q: int,
                    mod: int) -> Iterator[int]:
    """(rx rho^t - qx q^t)^r modulo mod for t = 0, 1, 2, ..."""
    a = b = 1
    while True:
        yield pow((rx * a - qx * b) % mod, r, mod)
        a = a * rho % mod
        b = b * q % mod


def _moment_sums(r: int, base: PadicNumber, max_level: int,
                 tw: TwistParams, rho_x: Optional[PadicNumber] = None,
                 q_x: Optional[PadicNumber] = None
                 ) -> Iterator[PadicNumber]:
    """Level sums (rho^(p^N)/[p^N]) sum_{t<p^N} base^t [x+t]^r for
    N = 1..max_level, [x+t] = (rho_x rho^t - q_x q^t)/(rho - q), from one
    kernel call (the hot path); rho_x = q_x = 1 (x = 0) when omitted.
    base = (q/rho) rho^c gives int rho^(ct) [x+t]^r dmu(t)."""
    p = tw.prime
    W = min(tw.work_precision, base.absolute_precision)
    rx = qx = 1
    if rho_x is not None:
        W = min(W, rho_x.absolute_precision, q_x.absolute_precision)
        rx, qx = rho_x.residue(W), q_x.residue(W)
    mod = p ** W
    brackets = _bracket_powers(r, rx, qx, tw.rho.residue(W),
                               tw.q.residue(W), mod)
    sums = _kernel.level_sums(brackets, base.residue(W), p, max_level, mod)
    scale = (tw.rho - tw.q) ** r
    for N, s in enumerate(sums, 1):
        yield _apply_prefactor(_from_residue(s, p, W) / scale, p ** N, tw)


def volkenborn_moment(r: int, tw: TwistParams,
                      max_level: int = DEFAULT_LEVELS
                      ) -> ConvergenceReport:
    """int [t]^r dmu(t), with the [t] values streamed as residues to
    the kernel (the hot path)."""
    if r < 0:
        raise InvalidParameterError("moment exponent must be >= 0")
    tw.require_volkenborn()
    if tw.classical:
        return volkenborn_integral(lambda t: Fraction(t) ** r, tw,
                                   max_level)
    return _converge(_moment_sums(r, tw.q / tw.rho, max_level, tw),
                     max_level, tw.shown)


def volkenborn_shift_check(f: Polynomial, tw: TwistParams,
                           max_level: int = DEFAULT_LEVELS) -> dict:
    """The boundary identity for the shifted integrand f1(x) = f(x+1):

        q I(f1) - rho I(f) = -rho (rho - q)
                             (f'(0)/(log q - log rho) + f(0)),

    with f' the ordinary derivative and log the p-adic logarithm.  The
    sign differs from some printed statements; it is fixed here by the
    total-mass case f = 1 (I(1) = rho at every level).
    """
    tw.require_volkenborn()
    if tw.classical:
        raise InvalidParameterError(
            "shift identity needs a genuine twist (rho != 1)")
    f1 = f.shift_arg(Fraction(1))
    r_f = volkenborn_integral(lambda x: f(Fraction(x)), tw, max_level)
    r_f1 = volkenborn_integral(lambda x: f1(Fraction(x)), tw, max_level)
    logdiff = tw.q.log() - tw.rho.log()
    fp0 = f.classical_derivative()(Fraction(0))
    rhs = -tw.rho * (tw.rho - tw.q) * (fp0 / logdiff + f(Fraction(0)))
    per_level = []
    for vf, vf1 in zip(r_f.values, r_f1.values):
        d = tw.q * vf1 - tw.rho * vf - rhs
        per_level.append(float("inf") if d.is_zero() else d.valuation)
    lhs = tw.q * r_f1.best_value - tw.rho * r_f.best_value
    d = lhs - rhs
    return {
        "identity": "q I(f1) - rho I(f) = "
                    "-rho(rho-q)(f'(0)/log(q/rho) + f(0))",
        "lhs": str(lhs), "rhs": str(rhs),
        "agreement_valuation":
            float("inf") if d.is_zero() else d.valuation,
        "agreement_by_level": per_level,
        "converging": all(b > a for a, b in zip(per_level, per_level[1:])
                          if a != float("inf")),
    }


# -- Carlitz-type Bernoulli polynomials ------------------------------------

def _twist_power(base: PadicNumber, a: Fraction,
                 tw: TwistParams) -> PadicNumber:
    """base^a for rational a via exp(a log base)."""
    a = Fraction(a)
    if a.denominator == 1:
        return base ** a.numerator
    lg = base.log()
    x = PadicNumber.from_rational(a, tw.prime, tw.work_precision)
    arg = x * lg
    if Fraction(arg.valuation) <= Fraction(1, tw.prime - 1):
        raise ConvergenceDomainError(
            f"rho^a leaves the exp domain: v(a log rho) = "
            f"{arg.valuation}")
    return arg.exp()


def carlitz_bernoulli(n: int, a, x, tw: TwistParams,
                      max_level: int = DEFAULT_LEVELS,
                      method: str = "direct") -> ConvergenceReport:
    """B_{n;a}(x) = int rho^(at) [x+t]^n dmu(t).

    ``direct`` integrates the full integrand; ``moments`` uses the
    two-base split [x+t] = rho^t [x] + q^x [t] and the binomial
    expansion into twisted moments (the umbral form).  The two paths
    are independent and compared in the test suite.
    """
    if n < 0:
        raise InvalidParameterError("need n >= 0")
    if method not in ("direct", "moments"):
        raise InvalidParameterError("method must be direct or moments")
    tw.require_volkenborn()
    a = Fraction(a)
    if tw.classical:
        if isinstance(x, PadicNumber):
            raise InvalidParameterError(
                "classical path expects integer x")
        f = lambda t: Fraction(x + t) ** n
        return volkenborn_integral(f, tw, max_level)
    rho_a = _twist_power(tw.rho, a, tw)
    if isinstance(x, PadicNumber):
        rho_x = (x * tw.rho.log()).exp()
        q_x = (x * tw.q.log()).exp()
    else:
        rho_x, q_x = tw.rho ** int(x), tw.q ** int(x)
    if method == "direct":
        base = tw.q / tw.rho * rho_a
        return _converge(_moment_sums(n, base, max_level, tw, rho_x, q_x),
                         max_level, tw.shown)
    return _carlitz_moments(n, a, rho_x, q_x, tw, max_level)


def _carlitz_moments(n, a, rho_x, q_x, tw, max_level):
    """The umbral form: sum_r C(n,r) [x]^(n-r) q_x^r times the twisted
    moment int rho^((a+n-r)t) [t]^r dmu(t)."""
    bracket_x = (rho_x - q_x) / (tw.rho - tw.q)
    coeffs = [math.comb(n, r) * bracket_x ** (n - r) * q_x ** r
              for r in range(n + 1)]
    streams = [_moment_sums(
        r, tw.q / tw.rho * _twist_power(tw.rho, a + n - r, tw), max_level,
        tw) for r in range(n + 1)]
    zero = PadicNumber.zero(tw.prime, tw.work_precision)
    return _converge((sum(map(mul, coeffs, moments), zero)
                      for moments in zip(*streams)), max_level, tw.shown)


# -- fermionic integral -----------------------------------------------------

def fermionic_integral(f: Callable, prime: int,
                       max_level: int = DEFAULT_LEVELS,
                       precision: int = DEFAULT_PRECISION
                       ) -> ConvergenceReport:
    """I_{-1}(f) = lim_N sum_{x < p^N} (-1)^x f(x) for odd p.

    Partial sums are exact rationals; the report carries their p-adic
    stabilization."""
    if not is_prime(prime) or prime == 2:
        raise InvalidParameterError("fermionic integral needs an odd prime")
    terms = (f(x) if x % 2 == 0 else -f(x) for x in count())
    return _converge(
        _at_levels(accumulate(terms, initial=Fraction(0)), prime),
        max_level,
        lambda t: PadicNumber.from_rational(t, prime, precision),
        lambda d: _rat_valuation(d, prime))


def _rat_valuation(x: Fraction, p: int):
    if x == 0:
        return float("inf")
    return int_valuation(x.numerator, p) - int_valuation(x.denominator, p)


def fermionic_shift_check(f: Polynomial, prime: int,
                          max_level: int = DEFAULT_LEVELS) -> dict:
    """I_{-1}(f1) + I_{-1}(f) = 2 f(0) with f1(x) = f(x+1)."""
    f1 = f.shift_arg(Fraction(1))
    r = fermionic_integral(lambda x: f(Fraction(x)), prime, max_level)
    r1 = fermionic_integral(lambda x: f1(Fraction(x)), prime, max_level)
    lhs = r1.best_value + r.best_value
    rhs = PadicNumber.from_rational(2 * f(Fraction(0)), prime,
                                    r.best_value.precision or 16)
    d = lhs - rhs
    return {
        "identity": "I(f1) + I(f) = 2 f(0)",
        "lhs": str(lhs), "rhs": str(rhs),
        "agreement_valuation": None if d.is_zero() else d.valuation,
        "agrees_to_precision": d.is_zero(),
    }


# -- p-adic beta -------------------------------------------------------------

def padic_beta_rpq(x: int, y: int, tw: TwistParams) -> PadicNumber:
    """beta(x, y) = Gamma(x) Gamma(y) / Gamma(x+y) on integers (negative
    arguments through the recurrence extension of gamma)."""
    return padic_gamma_rpq(x, tw) * padic_gamma_rpq(y, tw) \
        / padic_gamma_rpq(x + y, tw)


def padic_beta_suite(tw: TwistParams, samples) -> SuiteReport:
    """Recurrence and reflection properties of the p-adic beta at
    integer samples; the four-gamma identity is tested in its product
    form."""
    results = []
    for (x, y) in samples:
        dx, dy = delta_factor(x, tw), delta_factor(y, tw)
        dxy = delta_factor(x + y, tw)
        b = padic_beta_rpq(x, y, tw)
        results.append(IdentityResult(
            f"(i) beta({x},{y}+1)",
            padic_beta_rpq(x, y + 1, tw), dy / dxy * b))
        results.append(IdentityResult(
            f"(ii) beta({x}+1,{y})",
            padic_beta_rpq(x + 1, y, tw), dx / dxy * b))
        results.append(IdentityResult(
            f"(iii) beta({x}+1,{y}) vs beta({x},{y}+1)",
            padic_beta_rpq(x + 1, y, tw),
            dx / dy * padic_beta_rpq(x, y + 1, tw)))
        results.append(IdentityResult(
            f"(v) sum rule at ({x},{y})",
            padic_beta_rpq(x + 1, y, tw) + padic_beta_rpq(x, y + 1, tw),
            (dx + dy) / dxy * b))
        # (vi): composing (i) and (ii) gives the product dx*dy in the
        # numerator (the printed sum fails already for the classical
        # beta at (1,1))
        results.append(IdentityResult(
            f"(vi) beta({x}+1,{y}+1)",
            padic_beta_rpq(x + 1, y + 1, tw),
            dx * dy / (delta_factor(x + y + 1, tw) * dxy) * b))
        results.append(IdentityResult(
            f"(viii) reflection at x={x}",
            padic_beta_rpq(x, 1 - x, tw),
            -(padic_gamma_rpq(x, tw) * padic_gamma_rpq(1 - x, tw))))
    x, y, z, w = 1, 2, 3, 2
    results.append(IdentityResult(
        "(vii) four-gamma product form",
        padic_beta_rpq(x, y, tw) * padic_beta_rpq(x + y, z, tw)
        * padic_beta_rpq(x + y + z, w, tw),
        padic_gamma_rpq(x, tw) * padic_gamma_rpq(y, tw)
        * padic_gamma_rpq(z, tw) * padic_gamma_rpq(w, tw)
        / padic_gamma_rpq(x + y + z + w, tw)))
    return SuiteReport("padic_beta", tuple(results))


def gamma_limit_at(x: PadicNumber, tw: TwistParams,
                   max_level: int = DEFAULT_LEVELS) -> ConvergenceReport:
    """Gamma at a p-adic integer through its digit truncations
    x_k = x mod p^k; convergence is reported, not assumed."""
    if x.valuation < 0:
        raise InvalidParameterError("argument must be a p-adic integer")
    return _converge((padic_gamma_rpq(x.residue(k), tw) for k in count(1)),
                     max_level, tw.shown)
