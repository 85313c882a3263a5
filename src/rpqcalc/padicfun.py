"""p-adic deformed factorial/gamma/beta, the twisted Volkenborn measure
and moments, Carlitz-type Bernoulli polynomials, and the twisted
fermionic moments.

Twist parameters rho != q are p-adic numbers congruent to 1 mod p, and
the kernel is the two-base one, [j] = (rho^j - q^j)/(rho - q).

The measure implemented here is

    mu(a + p^N Z_p) = rho^(p^N) * (q/rho)^a / [p^N],

whose distribution relation is exact (checked in the test suite); at
rho = 1 it reduces to the familiar q^a / [p^N] weight.  The moments and
Carlitz values are its Riemann sums at each level, each in closed form.
The fermionic moments sum (-1)^t [t]^r over t < p^N the same way, with
no [p^N] prefactor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count, islice, takewhile
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from ._util import (DEFAULT_LEVELS, DEFAULT_PRECISION, Frozen,
                    IdentityResult, SuiteReport, is_int)
from .errors import InvalidParameterError
from .padic import PadicNumber, int_valuation, is_prime, padic_power


class TwistParams(Frozen):
    """p-adic deformation parameters.

    The prime is odd, and ``|rho - 1|_p < 1`` and ``|q - 1|_p < 1`` are
    required, so v(rho - 1), v(q - 1) >= 1 > 1/(p - 1): every accepted
    twist lies in the exp/log domain the Volkenborn operations need.
    The kernel is the two-base one.
    Unhashable: ``PadicNumber``'s precision-aware ``==`` is not
    transitive (1 + O(5) equals 1 + O(5^2) and 6 + O(5^2), which
    differ), so no hash is consistent with it.
    """

    _fields = ("prime", "rho", "q", "precision")

    def __init__(self, prime: int, rho: PadicNumber, q: PadicNumber,
                 precision: int = DEFAULT_PRECISION):
        self._set(prime, rho, q, precision)
        if not is_prime(self.prime) or self.prime == 2:
            raise InvalidParameterError(
                f"p-adic special functions need an odd prime; got "
                f"{self.prime}")
        for name, v in (("rho", self.rho), ("q", self.q)):
            if v.prime != self.prime:
                raise InvalidParameterError(f"{name} has wrong prime")
            if not v.is_unit():
                raise InvalidParameterError(f"{name} must be a unit")
            d = v - 1
            if not d.is_zero() and d.valuation < 1:
                raise InvalidParameterError(
                    f"need |{name} - 1|_p < 1; got valuation "
                    f"{d.valuation}")
        if (self.rho - self.q).is_zero():
            raise InvalidParameterError("need rho != q at this precision")

    @classmethod
    def make(cls, prime: int, rho=None, q=None,
             precision: int = DEFAULT_PRECISION) -> "TwistParams":
        """The twist (rho, q), each an int, a ``Fraction`` or a
        ``PadicNumber``; rho defaults to 1 + prime and q to 1 + 2 prime."""
        if not is_int(precision) or precision < 1:
            raise InvalidParameterError(
                f"need precision >= 1; got {precision!r}")
        rho = 1 + prime if rho is None else rho
        q = 1 + 2 * prime if q is None else q
        work = precision + DEFAULT_LEVELS + 8
        emb = lambda v: v if isinstance(v, PadicNumber) \
            else PadicNumber.from_rational(v, prime, work)
        return cls(prime, emb(rho), emb(q), precision)

    def powered(self, k: int) -> "TwistParams":
        return TwistParams(self.prime, self.rho ** k, self.q ** k,
                           self.precision)

    @property
    def work_precision(self) -> int:
        return min(self.rho.precision, self.q.precision)

    def shown(self, value: PadicNumber) -> PadicNumber:
        """A level value as reported: truncated to ``precision`` digits."""
        return value.with_precision(self.precision)


def number_at(tw: TwistParams, z: int) -> PadicNumber:
    """[z] = (rho^z - q^z)/(rho - q) for any integer z (negative
    included, via exact powers)."""
    return (tw.rho ** z - tw.q ** z) / (tw.rho - tw.q)


def _factorials(tw: TwistParams, n: int) -> list:
    """[0]!, [1]!, ..., [n]!: running products of ``number_at``."""
    return list(accumulate((number_at(tw, k) for k in range(1, n + 1)), mul,
                           initial=PadicNumber.one(tw.prime,
                                                   tw.work_precision)))


def _bracket_product(m: int, sign: int, tw: TwistParams) -> PadicNumber:
    """prod [j] over j = sign k, 1 <= k < m, p not | k (sign = +-1): the
    units (rho^j - q^j)/p^v, v = v(rho - q), multiplied modulo p^(W-v)
    over running powers, then unit(rho - q)^(-count) once.  W - v digits, as
    the PadicNumber product has; W if empty."""
    p, W = tw.prime, tw.work_precision
    d = tw.rho - tw.q
    v = d.valuation
    big, pv, mod = p ** W, p ** v, p ** (W - v)
    a, b = (pow(x.residue(W), sign, big) for x in (tw.rho, tw.q))
    acc, count, ak, bk = 1, 0, 1, 1
    for k in range(1, m):
        ak, bk = ak * a % big, bk * b % big
        if k % p:
            acc = acc * ((ak - bk) % big // pv) % mod
            count += 1
    return PadicNumber(p, 0, acc * pow(d.unit, -count, mod),
                       W - v if count else W)


def padic_factorial_rpq(n: int, tw: TwistParams) -> PadicNumber:
    """Restricted factorial prod_{j < n, p not | j} [j]."""
    if not is_int(n) or n < 0:
        raise InvalidParameterError("factorial needs n >= 0")
    return _bracket_product(n, 1, tw)


def padic_gamma_rpq(n: int, tw: TwistParams) -> PadicNumber:
    """(-1)^n times the restricted factorial; negative integers through
    the recurrence Gamma(z) = Gamma(z+1)/delta(z), which unrolls to
    (-1)^n / prod_{n <= z < 0, p not | z} [z]."""
    if not is_int(n):
        raise InvalidParameterError(f"p-adic gamma needs an int n; got {n!r}")
    g = padic_factorial_rpq(n, tw) if n >= 0 \
        else _bracket_product(1 - n, -1, tw).inverse()
    return g if n % 2 == 0 else -g


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


def factorial_decomposition_check(n: int, tw: TwistParams) -> SuiteReport:
    """The factorial/gamma decomposition theorems, all in p-adic
    arithmetic to working precision:

    - Gamma(n+1) = (-1)^(n+1) [n]! / ([p]^(floor(n/p)) [floor(n/p)]!'),
      where ' marks the parameters raised to the p-th power;
    - the product rule [kp] = [k]' [p] (primed first factor);
    - the product-ratio identity for each digit level;
    - the base-p digit bookkeeping: sum_{j>=1} floor(n/p^j)
      = (n - digitsum(n))/(p - 1), and the full factorization of [n]!
      into gamma values at successively powered parameters.
    """
    if n < 1:
        raise InvalidParameterError("need n >= 1")
    p = tw.prime
    twp = tw.powered(p)
    results = []
    m = n // p
    facts, facts_powered = _factorials(tw, n), _factorials(twp, n)
    fact_n = facts[n]
    bracket_p = number_at(tw, p)
    lhs = padic_gamma_rpq(n + 1, tw)
    rhs = fact_n / (bracket_p ** m * facts_powered[m])
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
    # base-p digit levels floor(n/p^j), j = 0, 1, ... while nonzero
    levels = list(takewhile(bool, (n // p ** j for j in count())))
    # product-ratio identity: with m = floor(n/p^j),
    # [m]!/([p]^m [m]!') = prod_{k<=m} (rho^k - q^k)/(rho^kp - q^kp)
    rho, q = tw.rho, tw.q
    for j, mj in enumerate(levels):
        lhs_r = facts[mj] / (bracket_p ** mj * facts_powered[mj])
        rhs_r = PadicNumber.one(p, tw.work_precision)
        for k in range(1, mj + 1):
            rhs_r = rhs_r * (rho ** k - q ** k) / (
                rho ** (k * p) - q ** (k * p))
        results.append(IdentityResult(
            f"product ratio at level j={j}", lhs_r, rhs_r))
    # digit bookkeeping
    s = sum(nj % p for nj in levels)
    results.append(IdentityResult(
        "digit-sum exponent", Fraction(sum(levels[1:])),
        Fraction(n - s, p - 1)))
    # full factorization of [n]! into gammas at powered parameters
    prod = PadicNumber.one(p, tw.work_precision)
    sign = 0
    for j, nj in enumerate(levels):
        twj = tw.powered(p ** j)
        prod = prod * padic_gamma_rpq(nj + 1, twj)
        nj1 = nj // p
        prod = prod * number_at(twj, p) ** nj1
        sign += nj + 1
    if sign % 2:
        prod = -prod
    results.append(IdentityResult(
        "factorial digit factorization", fact_n, prod))
    return SuiteReport("factorial_decomposition", tuple(results))


# -- Volkenborn measure and moments --------------------------------------

def volkenborn_measure(a: int, level: int, tw: TwistParams) -> PadicNumber:
    """mu(a + p^N Z_p) = rho^(p^N) (q/rho)^a / [p^N]."""
    p = tw.prime
    if level < 0 or not 0 <= a < p ** level:
        raise InvalidParameterError(
            f"need 0 <= a < p^{level}; got a = {a}")
    m = p ** level
    w = tw.q / tw.rho
    return tw.rho ** m * w ** a / number_at(tw, m)


class ConvergenceReport(NamedTuple):
    """Riemann sums over increasing partition depth with the valuations
    of successive differences as the convergence certificate."""

    levels: tuple
    values: tuple          # PadicNumber per level
    diff_valuations: tuple

    @property
    def converged(self) -> bool:
        ds = self.diff_valuations
        return len(ds) >= 2 and all(
            b > a or a == b == math.inf
            for a, b in zip(ds, ds[1:]))

    @property
    def best_value(self) -> PadicNumber:
        return self.values[-1]

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels),
            "values": [str(v) for v in self.values],
            "diff_valuations": [v if v != math.inf else "inf"
                                for v in self.diff_valuations],
            "converged": self.converged,
        }


def _converge(sums: Iterable, max_level: int,
              tw: TwistParams) -> ConvergenceReport:
    """Report the first max_level of the level sums (N = 1, 2, ...):
    each level's value as tw.shown(s) and the valuations of successive
    differences (the zero difference has valuation inf).  sums is not
    iterated when the level budget is empty."""
    if not is_int(max_level) or max_level < 1:
        raise InvalidParameterError(
            f"need at least one level; got {max_level}")
    sums = list(islice(sums, max_level))
    return ConvergenceReport(
        tuple(range(1, max_level + 1)), tuple(tw.shown(s) for s in sums),
        tuple((b - a).valuation for a, b in zip(sums, sums[1:])))


def _apply_prefactor(total: PadicNumber, N: int,
                     tw: TwistParams) -> PadicNumber:
    """The level-N value rho^(p^N) total / [p^N]."""
    count = tw.prime ** N
    bracket = number_at(tw, count)
    if bracket.is_zero():
        raise _too_deep(N, tw, f"[p^{N}] vanishes")
    return _resolved(tw.rho ** count * total / bracket, N, tw)


def _resolved(value: PadicNumber, N: int, tw: TwistParams) -> PadicNumber:
    """value, unless it is zero modulo p^k with k < 1 (no digit left)."""
    if value.is_zero() and value.absolute_precision < 1:
        raise _too_deep(N, tw, "the value keeps no digit")
    return value


def _too_deep(N: int, tw: TwistParams, why: str) -> InvalidParameterError:
    return InvalidParameterError(
        f"level {N} is beyond the working precision of "
        f"{tw.work_precision} digits of p = {tw.prime} ({why}); use fewer "
        f"levels or a higher precision")


def _geometric_sums(a: int, p: int, W: int) -> Iterator[int]:
    """sum_{t<p^N} a^t modulo p^W for N = 1, 2, ...: exactly
    (a^(p^N) - 1)/(a - 1), the power p^v of a - 1 divided out of the
    numerator (computed modulo p^(W+v)) and the unit part inverted; p^N
    when a = 1 mod p^W."""
    mod = p ** W
    a %= mod
    if a == 1:
        yield from (pow(p, N, mod) for N in count(1))
        return
    pv = p ** int_valuation(a - 1, p)
    inv = pow((a - 1) // pv, -1, mod)
    power = a
    while True:
        power = pow(power, p, mod * pv)
        yield (power - 1) // pv * inv % mod


def _moment_residues(r: int, b: int, rx: int, qx: int, rho: int, q: int,
                     p: int, W: int) -> Iterator[int]:
    """sum_{t<p^N} b^t (rx rho^t - qx q^t)^r modulo p^W for N = 1, 2, ...

    By the binomial theorem the summand is r + 1 geometric series in t
    with ratios A_k = b rho^(r-k) q^k, so a level costs r + 1 modular
    powers instead of p^N terms."""
    mod = p ** W
    coeffs = [math.comb(r, k) * pow(rx, r - k, mod) * pow(-qx, k, mod)
              for k in range(r + 1)]
    series = [_geometric_sums(b * pow(rho, r - k, mod) * pow(q, k, mod),
                              p, W) for k in range(r + 1)]
    for sums in zip(*series):
        yield sum(map(mul, coeffs, sums)) % mod


def _moment_sums(r: int, base: PadicNumber, tw: TwistParams,
                 rho_x: PadicNumber, q_x: PadicNumber
                 ) -> Iterator[PadicNumber]:
    """Level sums (rho^(p^N)/[p^N]) sum_{t<p^N} base^t [x+t]^r for
    N = 1, 2, ..., [x+t] = (rho_x rho^t - q_x q^t)/(rho - q), in closed
    form.  base = (q/rho) rho^c gives int rho^(ct) [x+t]^r dmu(t)."""
    p = tw.prime
    W = min(tw.work_precision, base.absolute_precision,
            rho_x.absolute_precision, q_x.absolute_precision)
    sums = _moment_residues(r, base.residue(W), rho_x.residue(W),
                            q_x.residue(W), tw.rho.residue(W),
                            tw.q.residue(W), p, W)
    scale = (tw.rho - tw.q) ** r
    for N, s in enumerate(sums, 1):
        yield _apply_prefactor(PadicNumber(p, 0, s, W) / scale, N, tw)


def volkenborn_moment(r: int, tw: TwistParams,
                      max_level: int = DEFAULT_LEVELS
                      ) -> ConvergenceReport:
    """int [t]^r dmu(t): the Carlitz value B_{r;0}(0)."""
    if not is_int(r) or r < 0:
        raise InvalidParameterError("moment exponent must be >= 0")
    return carlitz_bernoulli(r, 0, 0, tw, max_level)


# -- Carlitz-type Bernoulli polynomials ------------------------------------

def carlitz_bernoulli(n: int, a, x, tw: TwistParams,
                      max_level: int = DEFAULT_LEVELS,
                      method: str = "direct") -> ConvergenceReport:
    """B_{n;a}(x) = int rho^(at) [x+t]^n dmu(t), for a and x each an
    int, a ``Fraction`` or a ``PadicNumber`` (powers by ``padic_power``).

    ``direct`` integrates the full integrand; ``moments`` uses the
    two-base split [x+t] = rho^t [x] + q^x [t] and the binomial
    expansion into twisted moments (the umbral form).  The two paths
    are independent and compared in the test suite.
    """
    if not is_int(n) or n < 0:
        raise InvalidParameterError("need n >= 0")
    if method not in ("direct", "moments"):
        raise InvalidParameterError("method must be direct or moments")
    rho_a = padic_power(tw.rho, a)
    rho_x, q_x = padic_power(tw.rho, x), padic_power(tw.q, x)
    if method == "direct":
        base = tw.q / tw.rho * rho_a
        return _converge(_moment_sums(n, base, tw, rho_x, q_x),
                         max_level, tw)
    return _carlitz_moments(n, a, rho_x, q_x, tw, max_level)


def _carlitz_moments(n, a, rho_x, q_x, tw, max_level):
    """The umbral form: sum_r C(n,r) [x]^(n-r) q_x^r times the twisted
    moment int rho^((a+n-r)t) [t]^r dmu(t)."""
    bracket_x = (rho_x - q_x) / (tw.rho - tw.q)
    coeffs = [math.comb(n, r) * bracket_x ** (n - r) * q_x ** r
              for r in range(n + 1)]
    one = PadicNumber.one(tw.prime, tw.work_precision)
    streams = [_moment_sums(
        r, tw.q / tw.rho * padic_power(tw.rho, a + n - r), tw, one, one)
        for r in range(n + 1)]
    return _converge((_resolved(sum(map(mul, coeffs, moments)), N, tw)
                      for N, moments in enumerate(zip(*streams), 1)),
                     max_level, tw)


# -- fermionic integral -----------------------------------------------------

def fermionic_integral(r: int, tw: TwistParams,
                       max_level: int = DEFAULT_LEVELS
                       ) -> ConvergenceReport:
    """int [t]^r dmu_{-1}(t) = lim_N sum_{t<p^N} (-1)^t [t]^r, the
    fermionic moment (Kim, J. Nonlinear Math. Phys. 14, 2007).  Each
    level is in closed form: [t]^r = (rho^t - q^t)^r/(rho - q)^r makes
    the sum r + 1 geometric series with ratios -rho^(r-k) q^k."""
    if not is_int(r) or r < 0:
        raise InvalidParameterError("moment exponent must be >= 0")
    p, W = tw.prime, tw.work_precision
    sums = _moment_residues(r, -1, 1, 1, tw.rho.residue(W),
                            tw.q.residue(W), p, W)
    scale = (tw.rho - tw.q) ** r
    return _converge((_resolved(PadicNumber(p, 0, s, W) / scale, N, tw)
                      for N, s in enumerate(sums, 1)), max_level, tw)


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
        # numerator (the printed sum fails already for the undeformed
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


def _measure_suite(tw: TwistParams) -> SuiteReport:
    """The distribution relation mu(a + p^N Z_p) = sum_i
    mu(a + i p^N + p^(N+1) Z_p)."""
    results = []
    p = tw.prime
    for N in (1, 2):
        for a in (0, 3):
            lhs = volkenborn_measure(a, N, tw)
            rhs = None
            for i in range(p):
                m = volkenborn_measure(a + i * p ** N, N + 1, tw)
                rhs = m if rhs is None else rhs + m
            results.append(IdentityResult(
                f"distribution relation (a={a}, N={N})", lhs, rhs))
    return SuiteReport("volkenborn_measure", tuple(results))


def check_suites() -> tuple:
    """The reports of ``rpqcalc check --module padicfun``."""
    tw = TwistParams.make(5, precision=12)
    return (gamma_recurrence_check(tw, 10),
            factorial_decomposition_check(7, tw),
            padic_beta_suite(tw, [(1, 1), (2, 3)]),
            _measure_suite(tw))
