"""Structure functions and deformed numbers/factorials/binomials.

A deformation is a bivariate kernel R(u, v) with R(1, 1) = 0; the
deformed number of n is R(p^n, q^n).  The table ``_PRESETS`` gives six
named presets and ``classical`` (the p = q -> 1 limit, [n] = n), each
with its closed form and its canonical pair of twist bases; ``custom``
kernels are rational N(u, v)/D(u, v), given by Laurent-polynomial
coefficient lists.  The Biedenharn-Macfarlane suite of ``check --module
deform`` runs on that preset's own numbers.

Every parameter and value is an exact rational (``Fraction``).  The
p-adic deformed numbers over twists rho, q = 1 (mod p) live in
``padicfun`` (``TwistParams`` and ``number_at``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._util import (Frozen, IdentityResult, SuiteReport, is_int, rational,
                    ratio_product)
from .errors import (InvalidParameterError, SingularDeformationError,
                     SingularityError)

# Each preset's kernel R(u, v) at the bound (p, q) (None: the spectral
# classical [n] = n) and twist bases (xi1, xi2) at (p, q), the dilations
# of its derivative and the bases of its exponentials and power products.
_PRESETS = {
    "heine": (lambda u, v, p, q: (1 - v) / (1 - q),
              lambda p, q: (1, q)),
    "quesne": (lambda u, v, p, q: (1 - v ** -1) / (q - 1),
               lambda p, q: (1, q ** -1)),
    "biedenharn_macfarlane": (
        lambda u, v, p, q: (v - v ** -1) / (q - q ** -1),
        lambda p, q: (q, q ** -1)),
    "jagannathan_srinivasa": (lambda u, v, p, q: (u - v) / (p - q),
                              lambda p, q: (p, q)),
    "chakrabarty_jagannathan": (
        lambda u, v, p, q: (u ** -1 - v) / (p ** -1 - q),
        lambda p, q: (p ** -1, q)),
    "hounkonnou_ngompe": (lambda u, v, p, q: (u - v ** -1) / (q - p ** -1),
                          lambda p, q: (p, q ** -1)),
    "classical": (None, lambda p, q: (1, 1)),
}
PRESET_KINDS = tuple(_PRESETS)

POSITIVITY_WINDOW = 64
TWIST_WINDOW = 8


def _laurent_eval(terms, u, v) -> Fraction:
    """Evaluate sum of coeff * u^s * v^t; exponents may be negative."""
    return sum((c * u ** s * v ** t for s, t, c in terms), Fraction(0))


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
        freeze = lambda terms: tuple(_kernel_term(t) for t in terms)
        return cls("custom", freeze(numerator), freeze(denominator))

    @classmethod
    def from_json(cls, obj: dict) -> "StructureFunction":
        return cls.custom(obj["numerator"], obj["denominator"])

    def value(self, u, v, params: "DeformParams"):
        """R(u, v).  Preset kernels also use the bound parameters p, q
        (their closed forms carry constant denominators like p - q)."""
        if self.kind == "custom":
            den = _laurent_eval(self.denominator, u, v)
            if den == 0:
                raise SingularityError(
                    f"custom kernel denominator vanishes at ({u}, {v})")
            return _laurent_eval(self.numerator, u, v) / den
        kernel = _PRESETS[self.kind][0]
        if kernel is None:
            raise InvalidParameterError(
                "classical kernel is defined spectrally, not pointwise")
        return kernel(u, v, params.p, params.q)


def _kernel_term(term) -> tuple:
    """A custom kernel's [s, t, coeff] term as (int, int, Fraction): the
    exponents ints, the coefficient an int, a Fraction or a rational
    string; a bool or a float is refused, never rounded."""
    try:
        s, t, c = term
        if is_int(s) and is_int(t) and (
                is_int(c) or isinstance(c, (Fraction, str))):
            return s, t, Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise InvalidParameterError(
        f"custom kernel term {term!r} needs int exponents and an int, "
        "Fraction or rational-string coefficient")


def _rational(name: str, x) -> Fraction:
    try:
        return rational(name, x)
    except InvalidParameterError as err:
        from .padic import PadicNumber  # only to word the refusal
        if isinstance(x, PadicNumber):
            err.args = (f"{err} (p-adic twists go through "
                        "padicfun.TwistParams)",)
        raise


class DeformParams(Frozen):
    """Bound deformation parameters: scalars p, q and the kernel,
    which sets the twist bases xi1, xi2.

    p and q are rational; the standing assumption 0 < q < p <= 1 is
    enforced (p != q always); R(p^n, q^n) is sanity-checked positive on
    a finite window at binding time.
    """

    _fields = ("p", "q", "structure", "xi1", "xi2")

    def __init__(self, p, q, structure: Optional[StructureFunction] = None):
        if structure is None:
            structure = StructureFunction.preset("jagannathan_srinivasa")
        kind = structure.kind
        p, q = _rational("p", p), _rational("q", q)
        if kind != "classical" and not (0 < q and q < p <= 1):
            raise InvalidParameterError(
                f"need 0 < q < p <= 1; got p = {p}, q = {q}")
        # a custom kernel takes jagannathan_srinivasa's bases, (p, q)
        twists = _PRESETS.get(kind, _PRESETS["jagannathan_srinivasa"])[1]
        self._set(p, q, structure, *map(Fraction, twists(p, q)))
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
    def preset(cls, kind: str, p=1, q=Fraction(1, 2)):
        return cls(p, q, StructureFunction.preset(kind))

    @cached_property
    def _factorials(self) -> list:
        return [Fraction(1)]

    def powered(self, k: int) -> "DeformParams":
        """Parameters for R(p^k, q^k), whose twist bases are the k-th
        powers of these."""
        return DeformParams(self.p ** k, self.q ** k, self.structure)

    def twist_scale(self):
        """The constant c with [n] = c (xi1^n - xi2^n)/(xi1 - xi2); equals
        [1] for every preset."""
        return rpq_number(self, 1)

    def is_twist_consistent(self) -> bool:
        """Check [n] = [1] (xi1^n - xi2^n)/(xi1 - xi2) for n up to
        ``TWIST_WINDOW``; holds for all presets, may fail for custom
        kernels."""
        c = self.twist_scale()
        x1, x2 = self.xi1, self.xi2
        d = x1 - x2
        if d == 0:
            return False
        return all(rpq_number(self, n) == c * (x1 ** n - x2 ** n) / d
                   for n in range(1, TWIST_WINDOW + 1))


def rpq_number(params: DeformParams, n: int):
    """[n] = R(p^n, q^n), an exact rational."""
    if not is_int(n) or n < 0:
        raise InvalidParameterError(f"deformed number needs n >= 0; got {n}")
    if params.structure.kind == "classical":
        return Fraction(n)
    return params.structure.value(params.p ** n, params.q ** n, params)


def rpq_factorial(params: DeformParams, n: int):
    """[n]! = [1][2]...[n]; empty product 1 for n = 0.  Memoised."""
    if not is_int(n) or n < 0:
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
    if not (is_int(m) and is_int(n) and 0 <= n <= m):
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

def bm_identity_suite(q, n: int, m: int) -> SuiteReport:
    """Exact checks of the addition, negation and three-term recurrence
    identities of the biedenharn_macfarlane preset at p = 1, 0 < q < 1:
    [k] = (q^k - q^-k)/(q - q^-1) is ``rpq_number`` for k >= 0 and the
    preset's kernel at (p^k, q^k) for k < 0."""
    bm = DeformParams.preset("biedenharn_macfarlane", p=1, q=q)
    q = bm.q
    num = lambda k: (rpq_number(bm, k) if k >= 0
                     else bm.structure.value(bm.p ** k, q ** k, bm))
    results = [
        IdentityResult(
            "[n+m] = q^-m [n] + q^n [m]",
            num(n + m), q ** -m * num(n) + q ** n * num(m)),
        IdentityResult(
            "[n+m] = q^m [n] + q^-n [m]",
            num(n + m), q ** m * num(n) + q ** -n * num(m)),
        IdentityResult("[-m] = -[m]", num(-m), -num(m)),
        IdentityResult(
            "[n] = [2][n-1] - [n-2]",
            num(n), num(2) * num(n - 1) - num(n - 2)),
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
