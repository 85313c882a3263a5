"""Structure functions and deformed numbers/factorials/binomials.

A deformation is a bivariate kernel R(u, v) with R(1, 1) = 0; the
deformed number of n is R(p^n, q^n).  Six named presets are provided
(each with its closed form and its canonical pair of twist bases), plus
``classical`` (the p = q -> 1 limit, [n] = n) and ``custom`` rational
kernels N(u, v)/D(u, v) given by Laurent-polynomial coefficient lists.

Every parameter and value is an exact rational (``Fraction``).  The
p-adic deformed numbers over twists rho, q = 1 (mod p) live in
``padicfun`` (``TwistParams`` and ``number_at``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._util import Frozen, IdentityResult, SuiteReport, ratio_product
from .errors import (InvalidParameterError, SingularDeformationError,
                     SingularityError)

PRESET_KINDS = (
    "heine",
    "quesne",
    "biedenharn_macfarlane",
    "jagannathan_srinivasa",
    "chakrabarty_jagannathan",
    "hounkonnou_ngompe",
    "classical",
)

POSITIVITY_WINDOW = 64
TWIST_WINDOW = 8


def _laurent_eval(terms, u, v):
    """Evaluate sum of coeff * u^s * v^t; exponents may be negative."""
    acc = None
    for s, t, coeff in terms:
        val = coeff * u ** s * v ** t
        acc = val if acc is None else acc + val
    return acc if acc is not None else Fraction(0)


class StructureFunction(Frozen):
    """The deformation kernel R(u, v).

    ``custom`` kernels are rational functions N/D with integer Laurent
    exponents, supplied as [[s, t, coeff], ...] term lists; R(1,1) = 0
    is enforced at construction by requiring N(1,1) = 0, D(1,1) != 0.
    """

    _fields = ("kind", "numerator", "denominator")

    def __init__(self, kind: str, numerator: Optional[tuple] = None,
                 denominator: Optional[tuple] = None):
        self._set(kind, numerator, denominator)
        if self.kind in PRESET_KINDS:
            if self.numerator is not None or self.denominator is not None:
                raise InvalidParameterError(
                    "preset kernels take no custom payload")
            return
        if self.kind != "custom":
            raise InvalidParameterError(f"unknown preset {self.kind!r}")
        num, den = self.numerator, self.denominator
        if not num or not den:
            raise InvalidParameterError(
                "custom kernel needs numerator and denominator terms")
        one = Fraction(1)
        n11 = _laurent_eval(num, one, one)
        d11 = _laurent_eval(den, one, one)
        if d11 == 0:
            raise InvalidParameterError(
                "custom kernel denominator vanishes at (1, 1)")
        if n11 != 0:
            raise InvalidParameterError(
                f"custom kernel violates R(1, 1) = 0: got {n11}/{d11}")

    @classmethod
    def preset(cls, kind: str) -> "StructureFunction":
        if kind not in PRESET_KINDS:
            raise InvalidParameterError(f"unknown preset {kind!r}")
        return cls(kind)

    @classmethod
    def custom(cls, numerator, denominator) -> "StructureFunction":
        freeze = lambda terms: tuple(
            (int(s), int(t), Fraction(c)) for s, t, c in terms)
        return cls("custom", freeze(numerator), freeze(denominator))

    @classmethod
    def from_json(cls, obj: dict) -> "StructureFunction":
        return cls.custom(obj["numerator"], obj["denominator"])

    def to_json(self) -> dict:
        if self.kind != "custom":
            return {"kind": self.kind}
        unpack = lambda terms: [[s, t, str(c)] for s, t, c in terms]
        return {"kind": "custom", "numerator": unpack(self.numerator),
                "denominator": unpack(self.denominator)}

    def value(self, u, v, params: "DeformParams"):
        """R(u, v).  Preset kernels also use the bound parameters p, q
        (their closed forms carry constant denominators like p - q)."""
        k = self.kind
        p, q = params.p, params.q
        if k == "heine":
            return (1 - v) / (1 - q)
        if k == "quesne":
            return (1 - v ** -1) / (q - 1)
        if k == "biedenharn_macfarlane":
            return (v - v ** -1) / (q - q ** -1)
        if k == "jagannathan_srinivasa":
            return (u - v) / (p - q)
        if k == "chakrabarty_jagannathan":
            return (u ** -1 - v) / (p ** -1 - q)
        if k == "hounkonnou_ngompe":
            return (u - v ** -1) / (q - p ** -1)
        if k == "classical":
            raise InvalidParameterError(
                "classical kernel is defined spectrally, not pointwise")
        den = _laurent_eval(self.denominator, u, v)
        if den == 0:
            raise SingularityError(
                f"custom kernel denominator vanishes at ({u}, {v})")
        return _laurent_eval(self.numerator, u, v) / den


def _default_twists(kind: str, p, q):
    """The two dilation factors of the preset's finite-difference
    derivative; they are the geometric bases of the deformed
    exponentials and power products."""
    one = Fraction(1)
    if kind == "heine":
        return one, q
    if kind == "quesne":
        return one, q ** -1
    if kind == "biedenharn_macfarlane":
        return q, q ** -1
    if kind == "chakrabarty_jagannathan":
        return p ** -1, q
    if kind == "hounkonnou_ngompe":
        return p, q ** -1
    if kind == "classical":
        return one, one
    return p, q  # jagannathan_srinivasa and custom kernels


def _rational(name: str, x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    from .padic import PadicNumber  # only to word the refusal
    hint = (" (p-adic twists go through padicfun.TwistParams)"
            if isinstance(x, PadicNumber) else "")
    raise InvalidParameterError(
        f"{name} must be an int or Fraction; got {type(x).__name__}{hint}")


class DeformParams(Frozen):
    """Bound deformation parameters: scalars p, q, twist bases, kernel.

    All four scalars are rational; the standing assumption
    0 < q < p <= 1 is enforced (p != q always); R(p^n, q^n) is
    sanity-checked positive on a finite window at binding time.
    """

    _fields = ("p", "q", "structure", "xi1", "xi2")

    def __init__(self, p, q, structure: Optional[StructureFunction] = None,
                 xi1=None, xi2=None):
        if structure is None:
            structure = StructureFunction.preset("jagannathan_srinivasa")
        kind = structure.kind
        p, q = _rational("p", p), _rational("q", q)
        if kind != "classical" and not (0 < q and q < p <= 1):
            raise InvalidParameterError(
                f"need 0 < q < p <= 1; got p = {p}, q = {q}")
        if xi1 is None:
            x1, x2 = _default_twists(kind, p, q)
            xi1, xi2 = x1, x2 if xi2 is None else xi2
        elif xi2 is None:
            raise InvalidParameterError("set both twist bases or neither")
        self._set(p, q, structure, _rational("xi1", xi1),
                  _rational("xi2", xi2))
        self._bind_check()

    def _bind_check(self):
        if self.structure.kind != "custom":
            return  # preset positivity holds on the assumed range
        for n in range(1, POSITIVITY_WINDOW + 1):
            val = rpq_number(self, n)
            if val <= 0:
                raise InvalidParameterError(
                    f"custom kernel gives R(p^{n}, q^{n}) = {val} <= 0")

    @classmethod
    def preset(cls, kind: str, p=1, q=Fraction(1, 2), xi1=None, xi2=None):
        return cls(p, q, StructureFunction.preset(kind), xi1, xi2)

    @cached_property
    def _factorials(self) -> list:
        return [Fraction(1)]

    def powered(self, k: int) -> "DeformParams":
        """Parameters for R(p^k, q^k): p, q and both twists k-th powered."""
        return DeformParams(self.p ** k, self.q ** k, self.structure,
                            self.xi1 ** k, self.xi2 ** k)

    def twist_scale(self):
        """The constant c with [n] = c (xi1^n - xi2^n)/(xi1 - xi2); equals
        [1] for every preset."""
        return rpq_number(self, 1)

    def is_twist_consistent(self) -> bool:
        """Check [n] = [1] (xi1^n - xi2^n)/(xi1 - xi2) for n up to
        ``TWIST_WINDOW``; holds for all presets, may fail for custom
        kernels."""
        if self.structure.kind == "classical":
            return False  # xi1 = xi2 = 1 degenerates the quotient
        c = self.twist_scale()
        x1, x2 = self.xi1, self.xi2
        d = x1 - x2
        if d == 0:
            return False
        return all(rpq_number(self, n) == c * (x1 ** n - x2 ** n) / d
                   for n in range(1, TWIST_WINDOW + 1))


def rpq_number(params: DeformParams, n: int):
    """[n] = R(p^n, q^n), an exact rational."""
    if n < 0:
        raise InvalidParameterError(f"deformed number needs n >= 0; got {n}")
    if params.structure.kind == "classical":
        return Fraction(n)
    if n == 0:
        return Fraction(0)
    return params.structure.value(params.p ** n, params.q ** n, params)


def rpq_factorial(params: DeformParams, n: int):
    """[n]! = [1][2]...[n]; empty product 1 for n = 0.  Memoised."""
    if n < 0:
        raise InvalidParameterError(f"factorial needs n >= 0; got {n}")
    facts = params._factorials
    for k in range(len(facts), n + 1):
        # a slot write, not append: a racing thread rewrites the same value
        facts[k:k + 1] = [facts[k - 1] * rpq_number(params, k)]
    return facts[n]


def rpq_binomial(params: DeformParams, m: int, n: int):
    """[m]! / ([n]! [m-n]!) for 0 <= n <= m.

    Computed as the product over k = 1..j of [m-j+k]/[k], with
    j = min(n, m-n), by ``_util.ratio_product``; no factorial is built.
    A [k] = 0 with k <= m - j makes the factorial quotient 0/0, which
    raises; only a custom kernel can reach it, so only a custom kernel
    pays for the scan of [1] .. [m-j]."""
    if not 0 <= n <= m:
        raise InvalidParameterError(
            f"binomial needs 0 <= n <= m; got m = {m}, n = {n}")
    j = min(n, m - n)
    scan = m - j if params.structure.kind == "custom" else j
    low = [rpq_number(params, k) for k in range(1, scan + 1)]
    if 0 in low:
        k = low.index(0) + 1
        raise SingularDeformationError(
            f"[{k}] = 0, so [{m}]!/([{n}]! [{m - n}]!) is 0/0")
    high = [rpq_number(params, k) for k in range(m - j + 1, m + 1)]
    pairs = list(zip(high, low))
    return ratio_product([hi.numerator * lo.denominator for hi, lo in pairs],
                         [hi.denominator * lo.numerator for hi, lo in pairs])


# -- Biedenharn-Macfarlane identity suite ------------------------------

def bm_number(q, n: int):
    """[n]_q = (q^n - q^-n)/(q - q^-1); defined for any integer n."""
    q = Fraction(q)
    return (q ** n - q ** -n) / (q - q ** -1)


def bm_identity_suite(q, n: int, m: int) -> SuiteReport:
    """Exact checks of the addition, negation and three-term recurrence
    identities of the [n]_q = (q^n - q^-n)/(q - q^-1) numbers."""
    q = Fraction(q)
    if q == 0 or q == 1 or q == -1:
        raise InvalidParameterError("need q not in {0, 1, -1}")
    results = [
        IdentityResult(
            "[n+m] = q^-m [n] + q^n [m]",
            bm_number(q, n + m),
            q ** -m * bm_number(q, n) + q ** n * bm_number(q, m)),
        IdentityResult(
            "[n+m] = q^m [n] + q^-n [m]",
            bm_number(q, n + m),
            q ** m * bm_number(q, n) + q ** -n * bm_number(q, m)),
        IdentityResult(
            "[-m] = -[m]",
            bm_number(q, -m),
            -bm_number(q, m)),
        IdentityResult(
            "[n] = [2][n-1] - [n-2]",
            bm_number(q, n),
            bm_number(q, 2) * bm_number(q, n - 1) - bm_number(q, n - 2)),
    ]
    return SuiteReport("biedenharn_macfarlane", tuple(results))


def _preset_oracle_suite() -> SuiteReport:
    """Each preset's [n] against its printed closed form."""
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


def check_suites() -> tuple:
    """The reports of ``rpqcalc check --module deform``."""
    q = Fraction(1, 2)
    return (bm_identity_suite(q, 2, 1), bm_identity_suite(q, 5, 3),
            _preset_oracle_suite())
