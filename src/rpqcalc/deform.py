"""Structure functions and deformed numbers/factorials/binomials.

A deformation is a bivariate kernel R(u, v) with R(1, 1) = 0, and the
deformed number of n is R(p^n, q^n).  Each preset of ``_PRESETS`` is
its twist bases and scale: [n] = c (xi1^n - xi2^n)/(xi1 - xi2), which
is its kernel at (p^n, q^n) identically in n (``classical``, the
p = q -> 1 limit, has xi1 = xi2 = 1 and [n] = n).  A ``custom`` kernel
is a rational N(u, v)/D(u, v) of Laurent-polynomial coefficient lists.

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

# Each preset's (xi1, xi2, c = [1]) at (p, q).  The bases are also the
# dilations of the derivative and of the exponentials and power products.
_PRESETS = {
    "heine": lambda p, q: (1, q, 1),
    "quesne": lambda p, q: (1, 1 / q, 1 / q),
    "biedenharn_macfarlane": lambda p, q: (q, 1 / q, 1),
    "jagannathan_srinivasa": lambda p, q: (p, q, 1),
    "chakrabarty_jagannathan": lambda p, q: (1 / p, q, 1),
    "hounkonnou_ngompe": lambda p, q: (p, 1 / q, p / q),
    "classical": lambda p, q: (1, 1, 1),
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
        bases = _PRESETS.get(kind, _PRESETS["jagannathan_srinivasa"])(p, q)
        self._set(p, q, structure, *map(Fraction, bases[:2]))
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
        """c = [1], the scale of [n] = c (xi1^n - xi2^n)/(xi1 - xi2)."""
        return rpq_number(self, 1)

    def is_twist_consistent(self) -> bool:
        """Whether [n] = [1] (xi1^n - xi2^n)/(xi1 - xi2).  Every preset
        but classical, whose bases coincide, is that formula; a custom
        kernel is checked for n up to ``TWIST_WINDOW``, and may fail."""
        if self.structure.kind != "custom":
            return self.xi1 != self.xi2
        c, x1, x2 = self.twist_scale(), self.xi1, self.xi2
        return all(rpq_number(self, n) == c * (x1 ** n - x2 ** n) / (x1 - x2)
                   for n in range(2, TWIST_WINDOW + 1))


def rpq_number(params: DeformParams, n: int):
    """[n], an exact rational: c (xi1^n - xi2^n)/(xi1 - xi2) for a preset
    (n for classical), N(p^n, q^n)/D(p^n, q^n) for a custom kernel."""
    if not is_int(n) or n < 0:
        raise InvalidParameterError(f"deformed number needs n >= 0; got {n}")
    sf = params.structure
    if sf.kind == "custom":
        u, v = params.p ** n, params.q ** n
        den = _laurent_eval(sf.denominator, u, v)
        if den == 0:
            raise SingularityError(
                f"custom kernel denominator vanishes at ({u}, {v})")
        return _laurent_eval(sf.numerator, u, v) / den
    x1, x2, c = _PRESETS[sf.kind](params.p, params.q)
    return c * (x1 ** n - x2 ** n) / (x1 - x2) if x1 != x2 else Fraction(n)


def rpq_factorial(params: DeformParams, n: int):
    """[n]! = [1][2]...[n]; empty product 1 for n = 0.  Memoised."""
    if not is_int(n) or n < 0:
        raise InvalidParameterError(f"factorial needs n >= 0; got {n}")
    facts = params._factorials
    for k in range(len(facts), n + 1):
        # a slot write, not append: a racing thread rewrites the same value
        facts[k:k + 1] = [facts[k - 1] * rpq_number(params, k)]
    return facts[n]


def _log2_ceil(r: Fraction) -> int:
    """ceil(log2) of the larger of |numerator| and denominator of r."""
    return (max(abs(r.numerator), r.denominator) - 1).bit_length()


def _factorial_bits(params: DeformParams, n: int) -> int:
    """An upper bound on the bits of [n]!'s numerator and denominator:
    with h = ``_log2_ceil``, h([k]) <= a + (k-1) b + log2 k, as a preset's
    [k] = c sum_{j<k} xi1^j xi2^(k-1-j) is k integers over d^(k-1), d the
    product of the bases' denominators, and h(x y) <= h(x) + h(y) and
    h(x + y) <= h(x) + h(y) + 1 bound a custom kernel's N and D."""
    sf, h = params.structure, _log2_ceil
    if sf.kind == "custom":
        terms = sf.numerator + sf.denominator
        b = sum(abs(s) * h(params.p) + abs(t) * h(params.q)
                for s, t, _ in terms)
        a = sum(h(c) + 1 for *_, c in terms) + b
    else:
        x1, x2, c = _PRESETS[sf.kind](params.p, params.q)
        a, b = h(c), h(max(x1, x2, 1) * x1.denominator * x2.denominator)
    n = max(n, 0)  # rpq_factorial refuses a negative n
    return n * a + n * (n - 1) // 2 * b + n * n.bit_length() + 1


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
    same two-base formula, with the preset's bases (q, 1/q), for k < 0."""
    bm = DeformParams.preset("biedenharn_macfarlane", p=1, q=q)
    q, x1, x2 = bm.q, bm.xi1, bm.xi2
    num = lambda k: (rpq_number(bm, k) if k >= 0
                     else (x1 ** k - x2 ** k) / (x1 - x2))
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
    """Each preset's [n] against its printed kernel R(u, v) at (p^n, q^n)."""
    q, p = Fraction(1, 2), Fraction(9, 10)
    kernels = {
        "heine": lambda u, v: (1 - v) / (1 - q),
        "quesne": lambda u, v: (1 - 1 / v) / (q - 1),
        "biedenharn_macfarlane": lambda u, v: (v - 1 / v) / (q - 1 / q),
        "jagannathan_srinivasa": lambda u, v: (u - v) / (p - q),
        "chakrabarty_jagannathan": lambda u, v: (1 / u - v) / (1 / p - q),
        "hounkonnou_ngompe": lambda u, v: (u - 1 / v) / (q - 1 / p),
    }
    results = []
    for kind, kernel in kernels.items():
        pr = DeformParams.preset(kind, p=p, q=q)
        for n in (0, 1, 5, 13):
            results.append(IdentityResult(
                f"{kind}[{n}]", rpq_number(pr, n), kernel(p ** n, q ** n)))
    return SuiteReport("preset_closed_forms", tuple(results))


def check_suites() -> tuple:
    """The reports of ``rpqcalc check --module deform``."""
    q = Fraction(1, 2)
    return (bm_identity_suite(q, 2, 1), bm_identity_suite(q, 5, 3),
            _preset_oracle_suite())
