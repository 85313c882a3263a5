"""Spin-half generator matrices over Z_p, matrix exp/log on the
congruence neighborhood of the identity, and exact rational evaluation
of the associated local zeta functions.

The commutation relations asserted here are the ones the printed
generator matrices actually satisfy,

    [S_z, S+] = h S+,   [S_z, S-] = -h S-,   [S+, S-] = 2 h S_z,

which differ from some stated coefficients by factors of 2; no
normalization is changed silently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ._util import IdentityResult, SuiteReport, exact_str, is_int
from .errors import (ConvergenceDomainError, InvalidParameterError,
                     PoleError)
from .padic import (PadicNumber, _exp_sum, _exp_terms, _log_sum, _log_terms,
                    is_prime)


class Mat2Padic:
    """2x2 matrix of p-adic numbers sharing one prime."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entries = (a, b, c, d)
        primes = {e.prime for e in entries}
        if len(primes) != 1:
            raise InvalidParameterError("entries must share the prime")
        self.a, self.b, self.c, self.d = entries

    @property
    def prime(self) -> int:
        return self.a.prime

    @property
    def precision(self) -> int:
        return min(e.absolute_precision for e in self.entries())

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls, prime: int, prec: int) -> "Mat2Padic":
        one = PadicNumber.one(prime, prec)
        zero = PadicNumber.zero(prime, prec)
        return cls(one, zero, zero, one)

    @classmethod
    def zero(cls, prime: int, prec: int) -> "Mat2Padic":
        z = PadicNumber.zero(prime, prec)
        return cls(z, z, z, z)

    def __add__(self, other: "Mat2Padic") -> "Mat2Padic":
        return Mat2Padic(self.a + other.a, self.b + other.b,
                         self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2Padic") -> "Mat2Padic":
        return Mat2Padic(self.a - other.a, self.b - other.b,
                         self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Mat2Padic":
        return Mat2Padic(-self.a, -self.b, -self.c, -self.d)

    def __matmul__(self, o: "Mat2Padic") -> "Mat2Padic":
        return Mat2Padic(self.a * o.a + self.b * o.c,
                         self.a * o.b + self.b * o.d,
                         self.c * o.a + self.d * o.c,
                         self.c * o.b + self.d * o.d)

    __mul__ = __matmul__

    def scaled(self, s) -> "Mat2Padic":
        return Mat2Padic(self.a * s, self.b * s, self.c * s, self.d * s)

    __rmul__ = scaled  # c * M for a PadicNumber c, as c * x for a scalar x

    def trace(self) -> PadicNumber:
        return self.a + self.d

    def det(self) -> PadicNumber:
        return self.a * self.d - self.b * self.c

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries())

    def __eq__(self, other):
        if not isinstance(other, Mat2Padic):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def min_valuation(self):
        vals = [e.valuation for e in self.entries()]
        return min(vals)

    def __repr__(self):
        return (f"Mat2Padic([[{self.a}, {self.b}], "
                f"[{self.c}, {self.d}]])")

    def to_json(self) -> dict:
        return {"prime": self.prime,
                "entries": [e.to_json() for e in self.entries()]}

    @classmethod
    def from_json(cls, obj: dict) -> "Mat2Padic":
        """The inverse of ``to_json``; the top-level ``prime`` must be
        the entries' prime."""
        m = cls(*(PadicNumber.from_json(e) for e in obj["entries"]))
        p = obj.get("prime")
        if not (is_int(p) and p == m.prime):
            raise InvalidParameterError(
                f"matrix JSON 'prime' must be {m.prime}, the entries' "
                f"prime; got {p!r}")
        return m


def spin_generators(scale, prime: int, precision: int):
    """The lowering, diagonal, and raising trace-zero generators at the
    rational scale s, embedded at the given precision (scale p^i yields
    the level-i congruence directions):

        S- = s [[0,0],[1,0]],  S_z = (s/2) [[1,0],[0,-1]],
        S+ = s [[0,1],[0,0]].
    """
    if not is_prime(prime) or prime == 2:
        raise InvalidParameterError("odd prime required")
    s = PadicNumber.from_rational(scale, prime, precision)
    zero = PadicNumber.zero(prime, precision + abs(int(s.valuation
                            if not s.is_zero() else 0)) + 2)
    half = s / 2
    s_minus = Mat2Padic(zero, zero, s, zero)
    s_z = Mat2Padic(half, zero, zero, -half)
    s_plus = Mat2Padic(zero, s, zero, zero)
    return s_minus, s_z, s_plus


def commutator(A: Mat2Padic, B: Mat2Padic) -> Mat2Padic:
    """[A, B] = AB - BA."""
    if A.prime != B.prime:
        raise InvalidParameterError("mixed primes")
    return A @ B - B @ A


def mat_exp(S: Mat2Padic, t) -> Mat2Padic:
    """exp(tS) = sum (tS)^n / n!, truncated by valuation growth.

    Nilpotent S (S^2 = 0 to precision) returns exactly I + tS.
    Otherwise every entry of tS needs v > 1/(p-1); the eigenvalues of
    tS then lie in the domain too, in Q_p or a quadratic extension."""
    p = S.prime
    if not isinstance(t, PadicNumber):
        t = PadicNumber.from_rational(t, p, S.precision + 2)
    tS = S.scaled(t)
    if (S @ S).is_zero():
        return Mat2Padic.identity(p, S.precision + 2) + tS
    target = tS.precision
    terms = _exp_terms(tS.min_valuation(), p, target, "tS")
    return _exp_sum(tS, Mat2Padic.identity(p, target), terms)


def mat_log(g: Mat2Padic) -> Mat2Padic:
    """log g = sum (-1)^(n-1) (g - I)^n / n on the congruence
    neighborhood v(tr g - 2) > 2/(p-1), det g = 1."""
    p = g.prime
    prec = g.precision
    ident = Mat2Padic.identity(p, prec + 2)
    if not (g.det() - 1).is_zero():
        raise InvalidParameterError("need det g = 1 to precision")
    tr2 = g.trace() - 2
    if not tr2.is_zero() and Fraction(tr2.valuation) <= Fraction(2, p - 1):
        raise ConvergenceDomainError(
            f"need |tr g - 2|_p < p^(-2/(p-1)); got valuation "
            f"{tr2.valuation}")
    X = g - ident
    if X.is_zero():
        return Mat2Padic.zero(p, prec)
    target = X.precision
    terms = _log_terms(X.min_valuation(), p, target, "g - I")
    if (X @ X).is_zero():
        return X
    return _log_sum(X, Mat2Padic.identity(p, target), terms)


def congruence_level(g: Mat2Padic) -> int:
    """The largest i <= precision with g = I mod p^i; 0 outside the
    first congruence subgroup."""
    if not (g.det() - 1).is_zero():
        raise InvalidParameterError("need det g = 1 to precision")
    diff = g - Mat2Padic.identity(g.prime, g.precision + 2)
    v = diff.min_valuation()
    cap = g.precision
    if v > cap:
        return cap
    return max(int(v), 0)


# -- local zeta functions ---------------------------------------------------

# zeta_p(m s - a) as (a, m): the four factors of the spin zeta product,
# then its divisor
_EULER_FACTORS = ((0, 1), (1, 1), (1, 2), (2, 2), (1, 3))


class ZetaSpinValue(NamedTuple):
    value: Fraction
    factors: tuple  # (label, exact value) pairs
    s: Fraction
    prime: int

    def to_json(self) -> dict:
        return {"prime": self.prime, "s": str(self.s),
                "value": {"num": self.value.numerator,
                          "den": self.value.denominator},
                "factors": [{"label": lb, "value": exact_str(v)}
                            for lb, v in self.factors]}


def zeta_spin_half(prime: int, s: int) -> ZetaSpinValue:
    """The subgroup zeta value

        zeta_p(s) zeta_p(s-1) zeta_p(2s-1) zeta_p(2s-2) / zeta_p(3s-1)

    evaluated exactly at integer s (t = p^(-s) must be rational), each
    factor zeta_p(m s - a) as 1/(1 - p^a t^m)."""
    if not is_int(s):
        raise InvalidParameterError(
            "exact evaluation needs integer s (p^(-s) must be rational)")
    if not is_prime(prime):
        raise InvalidParameterError(f"need a prime; got {prime}")
    t = Fraction(1, prime) ** s
    factors = []
    for a, m in _EULER_FACTORS:
        label = f"zeta_p({m}s-{a})"
        den = 1 - prime ** a * t ** m
        if den == 0:
            raise PoleError(f"pole of {label} at t = {t}")
        factors.append((label, 1 / den))
    label, divisor = factors.pop()
    value = Fraction(1)
    for _, v in factors:
        value *= v
    factors.append((label + " (divisor)", divisor))
    return ZetaSpinValue(value / divisor, tuple(factors), Fraction(s), prime)


# -- ghost boundaries --------------------------------------------------------

GHOST_GROUPS = ("GO_odd", "GSp", "GO_even_plus")


def ghost_boundary(group: str, l: int) -> Fraction:
    """Natural-boundary abscissa of the classical-group zeta function:
    l^2 - 1 for GO_(2l+1); l(l+1)/2 - 2 for GSp_(2l); l(l-1)/2 - 2 for
    GO+_(2l)."""
    if l < 1:
        raise InvalidParameterError("need l >= 1")
    if group == "GO_odd":
        return Fraction(l * l - 1)
    if group == "GSp":
        return Fraction(l * (l + 1), 2) - 2
    if group == "GO_even_plus":
        return Fraction(l * (l - 1), 2) - 2
    raise InvalidParameterError(
        f"unknown group {group!r}; expected one of {GHOST_GROUPS}")


def check_suites() -> tuple:
    """The reports of ``rpqcalc check --module spinzeta``."""
    Sm, Sz, Sp = spin_generators(1, 5, 12)
    zero = Mat2Padic.zero(5, 12)
    results = [
        IdentityResult("[Sz,S+] = h S+", commutator(Sz, Sp) - Sp, zero),
        IdentityResult("[Sz,S-] = -h S-", commutator(Sz, Sm) + Sm, zero),
        IdentityResult("[S+,S-] = 2h Sz",
                       commutator(Sp, Sm) - Sz.scaled(2), zero),
    ]
    zs = zeta_spin_half(2, 3)
    expected = (Fraction(8, 7) * Fraction(4, 3) * Fraction(32, 31)
                * Fraction(16, 15) / Fraction(256, 255))
    results.append(IdentityResult("zeta_spin(2, 3)", zs.value, expected))
    for group, l, expect in (("GSp", 2, 1), ("GO_odd", 1, 0),
                             ("GO_even_plus", 2, -1)):
        results.append(IdentityResult(
            f"ghost {group} l={l}", ghost_boundary(group, l),
            Fraction(expect)))
    return (SuiteReport("spin_zeta", tuple(results)),)
