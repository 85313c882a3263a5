"""Exact rational and truncated p-adic arithmetic.

Rationals are plain ``fractions.Fraction`` (numerator/denominator kept
coprime with positive denominator by the stdlib, which is exactly the
invariant needed here).  p-adic numbers use a fixed-precision digit
model: a value is ``unit * p^val`` with ``unit`` known modulo
``p^prec``, i.e. the value is known modulo ``p^(val+prec)``, zero
included.  All values are immutable; arithmetic returns fresh objects
carrying the precision actually guaranteed by the operands.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._util import is_int
from .errors import (ConvergenceDomainError, InvalidParameterError,
                     PrecisionError)

DEFAULT_PRECISION = 32

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond any prime used here)."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidParameterError(f"p = {p!r} is not prime")


def int_valuation(n: int, p: int) -> int:
    """Largest e with p^e | n, for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _exp_terms(v, p: int, target: int, arg: str = "x") -> int:
    """The first N with N (v - 1/(p-1)) >= target.  When v(x) >= v (a
    zero known modulo p^k passes v = k), every term x^n/n! with n >= N
    has valuation above n v - n/(p-1) >= target (v(n!) < n/(p-1)), so
    the terms n < N give exp(x) mod p^target.  The series converges
    exactly when v > 1/(p-1) (Robert, GTM 198, ch. 5); outside that
    domain the ``ConvergenceDomainError`` names ``arg``."""
    if v == math.inf:
        return 1
    if v * (p - 1) <= 1:
        raise ConvergenceDomainError(
            f"exp requires |{arg}|_p < p^(-1/(p-1)), i.e. v({arg}) > "
            f"{Fraction(1, p - 1)}; got v({arg}) = {v}")
    return max(1, -(-target * (p - 1) // (v * (p - 1) - 1)))


def _log_terms(w: int, p: int, target: int, arg: str = "u - 1") -> int:
    """The first N with N w - floor(log_p N) >= target.  When
    v(x) >= w, every term x^n/n of log(1 + x) with n >= N has valuation
    at least n w - floor(log_p n) >= target: the gap is nondecreasing in
    n (each step adds w >= 1, the log term grows by at most 1).  The
    series converges exactly when v(x) > 0 (Robert, GTM 198, ch. 5);
    outside that domain the ``ConvergenceDomainError`` names ``arg``."""
    if w < 1:
        raise ConvergenceDomainError(
            f"log requires |{arg}|_p < 1; got v({arg}) = {w}")
    n, k, pk = 1, 0, p  # k = floor(log_p n), pk = p^(k+1)
    while n * w - k < target:
        n += 1
        if n == pk:
            k, pk = k + 1, pk * p
    return n


def _exp_sum(x, one, target: int, terms: int):
    """sum_{n < terms} x^n / n! for a PadicNumber or a 2x2 matrix x,
    from ``one`` = x^0 known modulo p^target; the term counts of
    ``_exp_terms`` make it exp(x) modulo p^target."""
    acc = term = one
    for n in range(1, terms):
        term = PadicNumber.from_rational(
            Fraction(1, n), x.prime, target + n) * (term * x)
        acc = acc + term
    return acc


def _log_sum(x, one, target: int, terms: int):
    """sum_{0 < n < terms} (-1)^(n-1) x^n / n for a PadicNumber or a 2x2
    matrix x, known modulo p^target like ``one`` = x^0; the term counts
    of ``_log_terms`` make it log(1 + x) modulo p^target."""
    acc, power = one - one, one  # acc starts as zero mod p^target
    for n in range(1, terms):
        power = power * x
        acc = acc + PadicNumber.from_rational(
            Fraction(1 if n % 2 else -1, n), x.prime, target + n) * power
    return acc


class PadicNumber:
    """A truncated p-adic number.

    ``PadicNumber(p, val, unit, prec)`` is ``unit * p^val`` known modulo
    ``p^(val+prec)``, for every value: its absolute precision.  The
    constructor reduces ``unit`` modulo ``p^prec`` and moves the powers
    of ``p`` it holds into ``val``, so a nonzero value keeps
    ``1 <= unit < p^prec`` with ``p`` not dividing ``unit``, and a unit
    that vanishes modulo ``p^prec`` gives the zero ``O(p^(val+prec))``,
    stored with ``val + prec`` as its ``val``, ``unit == 0`` and
    ``prec == 0``.
    """

    __slots__ = ("prime", "_val", "unit", "prec")
    __hash__ = None  # equality is precision-aware, so not hashable

    def __init__(self, prime: int, val: int, unit: int, prec: int):
        _check_prime(prime)
        if prec < 0:
            raise PrecisionError(f"precision must be >= 0; got {prec}")
        if unit and not prec:
            raise PrecisionError("nonzero value needs at least one digit")
        unit %= prime ** prec
        if unit == 0:  # vanishes at this precision: zero mod p^(val+prec)
            val, prec = val + prec, 0
        else:
            shift = int_valuation(unit, prime)
            if shift:  # keep the leading digit nonzero
                val += shift
                prec -= shift
                unit //= prime ** shift
        self.prime, self._val, self.unit, self.prec = prime, val, unit, prec

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, prime: int, abs_precision: int = DEFAULT_PRECISION):
        return cls(prime, abs_precision, 0, 0)

    @classmethod
    def one(cls, prime: int, prec: int = DEFAULT_PRECISION):
        return cls(prime, 0, 1, prec)

    @classmethod
    def from_rational(cls, x, prime: int, prec: int = DEFAULT_PRECISION):
        """Embed x, an int (not a bool) or a ``Fraction``; any rational
        is fine, as p-powers go to the valuation.  Any other type is
        refused: a float would embed its binary expansion, not the
        rational it was meant to be."""
        _check_prime(prime)  # before int_valuation, which loops at p = 1
        if not (is_int(x) or isinstance(x, Fraction)):
            raise InvalidParameterError(
                f"a p-adic embedding needs an int or a Fraction; got "
                f"{type(x).__name__}")
        if x == 0:
            return cls.zero(prime, prec)
        vn = int_valuation(x.numerator, prime)
        vd = int_valuation(x.denominator, prime)
        num = x.numerator // prime ** vn
        den = x.denominator // prime ** vd
        m = prime ** prec
        unit = num * pow(den, -1, m) % m
        return cls(prime, vn - vd, unit, prec)

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    def is_unit(self) -> bool:
        return self.unit != 0 and self._val == 0

    @property
    def valuation(self):
        """Valuation; ``math.inf`` for the zero element."""
        return math.inf if self.unit == 0 else self._val

    @property
    def absolute_precision(self) -> int:
        return self._val + self.prec

    @property
    def precision(self) -> int:
        return self.prec

    @property
    def digits(self) -> list[int]:
        """Base-p digits of the unit part, least significant first."""
        out, u = [], self.unit
        for _ in range(self.prec):
            out.append(u % self.prime)
            u //= self.prime
        return out

    def residue(self, k: int) -> int:
        """The integer in [0, p^k) congruent to self mod p^k.

        Requires v >= 0 and 0 <= k within the guaranteed precision."""
        if k < 0:
            raise PrecisionError(f"residue needs k >= 0; got {k}")
        if k > self.absolute_precision:
            raise PrecisionError(
                f"residue mod p^{k} exceeds precision O(p^{self.absolute_precision})")
        if self._val < 0:
            raise PrecisionError("negative valuation: not a p-adic integer")
        return self.unit * self.prime ** self._val % self.prime ** k

    def with_precision(self, prec: int) -> "PadicNumber":
        """Truncate to at most ``prec`` significant digits."""
        if prec >= self.prec:
            return self
        return PadicNumber(self.prime, self._val, self.unit, prec)

    # -- coercion ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.prime != self.prime:
                raise InvalidParameterError(
                    f"mixed primes {self.prime} and {other.prime}")
            return other
        if is_int(other) or isinstance(other, Fraction):
            return PadicNumber.from_rational(
                other, self.prime, max(self.prec, DEFAULT_PRECISION))
        return None

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.prime
        A = min(self._val + self.prec, o._val + o.prec)
        v = min(self._val, o._val, A)
        s = (self.unit * p ** (self._val - v)
             + o.unit * p ** (o._val - v)) % p ** (A - v)
        return PadicNumber(p, v, s, A - v)

    __radd__ = __add__

    def __neg__(self):
        return PadicNumber(self.prime, self._val, -self.unit, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # known modulo p^min(A1 + v2, A2 + v1), A = v + prec; a zero
        # factor O(p^a) has prec 0, so the product is O(p^(a + v))
        return PadicNumber(self.prime, self._val + o._val,
                           self.unit * o.unit, min(self.prec, o.prec))

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.unit == 0:
            raise ZeroDivisionError("inverse of p-adic zero")
        m = self.prime ** self.prec
        return PadicNumber(self.prime, -self._val,
                           pow(self.unit, -1, m), self.prec)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return PadicNumber.one(self.prime,
                                   self.prec or DEFAULT_PRECISION)
        if n < 0:
            return self.inverse() ** (-n)
        m = self.prime ** self.prec
        return PadicNumber(self.prime, self._val * n,
                           pow(self.unit, n, m), self.prec)

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, PadicNumber) \
            else (other if other.prime == self.prime else None)
        if o is None:
            return NotImplemented
        return (self - o).is_zero()

    # -- special functions -------------------------------------------

    def exp(self) -> "PadicNumber":
        """exp(x) = sum x^n/n!, known modulo p^A for x known modulo p^A.

        The series converges iff v(x) > 1/(p-1); a zero known modulo
        p^A only has v(x) >= A, so it must have A > 1/(p-1) too.
        """
        A = self.absolute_precision
        terms = _exp_terms(self._val, self.prime, A)
        return _exp_sum(self, PadicNumber.one(self.prime, A), A, terms)

    def log(self) -> "PadicNumber":
        """log(u) = sum (-1)^(n-1) (u-1)^n / n for |u - 1|_p < 1."""
        x = self - 1
        A = x.absolute_precision
        terms = _log_terms(x._val, self.prime, A)
        return _log_sum(x, PadicNumber.one(self.prime, A), A, terms)

    def sqrt(self) -> "PadicNumber":
        """Square root by Hensel lifting (odd p, square unit, even
        valuation)."""
        p = self.prime
        if p == 2:
            raise InvalidParameterError("sqrt implemented for odd p only")
        if self.unit == 0:
            return PadicNumber.zero(p, self._val // 2)
        if self._val % 2:
            raise ConvergenceDomainError(
                "odd valuation: square root not in Q_p")
        u0 = self.unit % p
        r = _sqrt_mod_p(u0, p)
        if r is None:
            raise ConvergenceDomainError(
                "unit part is not a quadratic residue mod p")
        prec = self.prec
        known = 1
        m = p ** prec
        inv2 = pow(2, -1, m)
        while known < prec:
            known = min(2 * known, prec)
            mk = p ** known
            r = (r + self.unit % mk * pow(r, -1, mk)) * inv2 % mk
        return PadicNumber(p, self._val // 2, r, prec)

    # -- external forms ----------------------------------------------

    def __repr__(self):
        return f"PadicNumber({self})"

    def __str__(self):
        if self.unit == 0:
            return f"0 [zero mod {self.prime}^{self._val}]"
        terms = []
        for i, d in enumerate(self.digits):
            if i == 0:
                terms.append(str(d))
            elif i == 1:
                terms.append(f"{d}*{self.prime}")
            else:
                terms.append(f"{d}*{self.prime}^{i}")
        return (f"{self.prime}^{self._val} * ({' + '.join(terms)}) "
                f"[{self.prec} digits]")

    def to_json(self) -> dict:
        if self.unit == 0:
            return {"prime": self.prime, "precision": 0,
                    "valuation": None, "digits": [],
                    "zero_mod": self._val}
        return {"prime": self.prime, "precision": self.prec,
                "valuation": self._val, "digits": self.digits}

    @classmethod
    def from_json(cls, obj: dict) -> "PadicNumber":
        """The inverse of ``to_json``.  A zero needs a null ``valuation``
        and an int ``zero_mod`` >= 0; any other value an int
        ``valuation`` and an int ``precision`` >= 1 with exactly that
        many int ``digits`` in [0, p).  A bool is no int; a violation,
        a missing ``valuation`` or ``zero_mod`` included, names its
        field."""
        if not isinstance(obj, dict):
            raise TypeError(f"p-adic JSON must be an object; got {obj!r}")
        p = obj["prime"]
        _check_prime(p)
        _check_field("valuation", obj, "valuation" in obj,
                     "a key of every entry (an int, or null for a zero)")
        if obj["valuation"] is None:
            zero_mod = obj.get("zero_mod")
            _check_field("zero_mod", zero_mod, is_int(zero_mod)
                         and zero_mod >= 0, "an int >= 0")
            return cls.zero(p, zero_mod)
        val, prec, digits = obj["valuation"], obj["precision"], obj["digits"]
        _check_field("valuation", val, is_int(val), "an int")
        _check_field("precision", prec, is_int(prec) and prec >= 1,
                     "an int >= 1")
        _check_field("digits", digits, isinstance(digits, list)
                     and len(digits) == prec
                     and all(is_int(d) and 0 <= d < p for d in digits),
                     f"{prec} ints in [0, {p})")
        unit = sum(d * p ** i for i, d in enumerate(digits))
        return cls(p, val, unit, prec)


def _check_field(name: str, value, ok: bool, need: str) -> None:
    if not ok:
        raise InvalidParameterError(
            f"p-adic JSON {name!r} must be {need}; got {value!r}")


def _sqrt_mod_p(a: int, p: int):
    """Tonelli-Shanks; None when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x


def padic_power(q: PadicNumber, x) -> PadicNumber:
    """q^x for an int, ``Fraction`` or ``PadicNumber`` exponent x: the
    exact q ** x when x is an integer, else exp(x log q).  Either way q
    must satisfy |q - 1|_p < p^(-1/(p-1)); any other exponent type is
    refused."""
    d = q - 1
    if not d.is_zero():  # v(log q) = v(q - 1) must lie in the exp domain
        _exp_terms(d._val, q.prime, 0, "q - 1")
    if isinstance(x, Fraction) and x.denominator == 1 or is_int(x):
        return q ** int(x)
    if isinstance(x, Fraction):
        x = PadicNumber.from_rational(x, q.prime, max(q.prec, 1))
    elif not isinstance(x, PadicNumber):
        raise InvalidParameterError(
            f"the exponent of a p-adic power must be an int, a Fraction or "
            f"a PadicNumber; got {type(x).__name__}")
    y = x * q.log()
    _exp_terms(y._val, q.prime, 0, "x log q")  # name the power, not exp's x
    return y.exp()
