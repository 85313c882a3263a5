"""Small shared helpers."""

import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidParameterError

# library defaults, here so cli.SCOPE shares them without a library import
DEFAULT_PRECISION = 16  # p-adic digits shown
DEFAULT_LEVELS = 6  # Riemann-sum levels of the p-adic integrals
DEFAULT_TRUNCATION = 256  # factors of a truncated gamma product
# the largest exact gamma value, in bits of its numerator or denominator,
# that gammabeta builds at a non-integer argument (~315,000 digits): its
# size grows with the argument, and the time to print it with the square
# of its size
MAX_VALUE_BITS = 1 << 20


def check_value_bits(name: str, value, bits) -> None:
    """Refuse the argument ``name`` = value when its exact result is
    predicted to need more than ``MAX_VALUE_BITS`` bits."""
    if bits > MAX_VALUE_BITS:
        raise InvalidParameterError(
            f"{name} = {value} needs an exact value of about {round(bits)} "
            f"bits, over MAX_VALUE_BITS = {MAX_VALUE_BITS}")


def is_int(x) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def rational(name: str, x) -> Fraction:
    """x, an int (not a bool) or a ``Fraction``, as a ``Fraction``.  Any
    other type is refused: a float would carry its binary expansion."""
    if isinstance(x, Fraction):
        return x
    if is_int(x):
        return Fraction(x)
    raise InvalidParameterError(
        f"{name} must be an int or Fraction; got {type(x).__name__}")


def uncapped(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the interpreter's int-to-str digit cap
    lifted, so that exact results print however large they are.  Only
    output goes through here: argument parsing keeps the cap, and still
    refuses huge integer strings."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(old)


def exact_str(x: Fraction) -> str:
    """Decimal string of an exact rational (or int), however large;
    measured residuals are reported as exact rationals, never rounded."""
    return uncapped(str, x)


def product_tree(xs):
    """Product of ``xs`` (1 when empty), multiplied in balanced pairs.

    Each level multiplies neighbours, so both operands of a product
    have about the same size and CPython's Karatsuba applies; a
    left-to-right running product multiplies one growing int by one
    small factor at a time.  An odd count carries its last entry up a
    level.  The entries may be ints or ``Fraction``s."""
    xs = list(xs)
    while len(xs) > 1:
        pairs = [xs[i] * xs[i + 1] for i in range(0, len(xs) - 1, 2)]
        if len(xs) % 2:
            pairs.append(xs[-1])
        xs = pairs
    return xs[0] if xs else 1


RATIO_LEAF = 16


def ratio_product(nums, dens) -> Fraction:
    """The reduced ``Fraction`` prod(nums)/prod(dens), the product of the
    factors nums[i]/dens[i] (lists of nonzero-denominator ints).

    Each run of ``RATIO_LEAF`` factors is multiplied as two ints and
    reduced once; the reduced runs are multiplied in a balanced tree of
    ``Fraction``s, whose products cancel across runs.  A gcd costs time
    quadratic in the digits, so gcds of runs and of subtree halves cost
    less than one gcd of the whole product, and much less than one gcd
    per factor of a running product."""
    parts = [Fraction(product_tree(nums[i:i + RATIO_LEAF]),
                      product_tree(dens[i:i + RATIO_LEAF]))
             for i in range(0, len(nums), RATIO_LEAF)]
    return product_tree(parts) if parts else Fraction(1)


def running_product_strs(factors):
    """Yield ``exact_str`` of the running products 1, f1, f1 f2, ... of
    exact rational factors, one string per product.

    ``str`` of an int is quadratic in its digits, so the product is kept
    only as a ``decimal.Decimal`` numerator and denominator, whose
    ``str`` is linear.  A step is ``Fraction`` multiplication: two
    cross-gcds against the small factor (from remainders of the
    product), two exact divisions and two multiplications, all linear
    in the digits.  The context computes on integers at ``MAX_PREC``,
    so nothing rounds, and a division that leaves a remainder raises
    ``Inexact`` instead of printing wrong digits."""
    import decimal  # factorial tables only
    from math import gcd
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN,
                          traps=[decimal.Inexact, decimal.InvalidOperation,
                                 decimal.DivisionByZero, decimal.Overflow])
    num = den = decimal.Decimal(1)
    yield "1"
    factors = iter(factors)
    for f in factors:
        if f == 0:  # so is every later product
            yield "0"
            yield from ("0" for _ in factors)
            return
        a, b = f.numerator, f.denominator
        g1 = gcd(int(ctx.remainder(num, b)), b)
        g2 = gcd(a, int(ctx.remainder(den, a)))
        num, r1 = ctx.divmod(num, g1)
        den, r2 = ctx.divmod(den, g2)
        if r1 or r2:
            raise decimal.Inexact(f"gcd {g1} or {g2} leaves a remainder")
        num, den = ctx.multiply(num, a // g2), ctx.multiply(den, b // g1)
        yield str(num) if den == 1 else f"{num}/{den}"


class Frozen:
    """Base of the validated parameter classes: ``==`` and ``hash`` over
    the fields named in ``_fields``, a ``Name(field=value, ...)`` repr,
    and ``AttributeError`` on assignment or deletion.

    ``__init__`` stores the fields with ``_set``.  Instances keep a
    ``__dict__``, so ``functools.cached_property`` memos still work and
    stay out of ``==``, ``hash`` and repr."""

    _fields = ()

    def _set(self, *values):
        self.__dict__.update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# -- the records of the check suites ---------------------------------------

class IdentityResult(NamedTuple):
    name: str
    lhs: object
    rhs: object

    @property
    def residual(self):
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        res = self.residual
        if hasattr(res, "is_zero"):
            return res.is_zero()
        return res == 0


class SuiteReport(NamedTuple):
    name: str
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def first_failure(self):
        for r in self.results:
            if not r.passed:
                return r
        return None

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "identities": [
                {"name": r.name, "passed": r.passed,
                 "residual": str(r.residual)}
                for r in self.results
            ],
        }
