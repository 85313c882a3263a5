"""Small shared helpers."""

import sys
from fractions import Fraction


def exact_str(x) -> str:
    """Decimal string of an exact value, however large.

    Temporarily lifts the interpreter's int-to-str digit cap; measured
    residuals are reported as exact rationals, never rounded."""
    if isinstance(x, Fraction):
        need = max(x.numerator.bit_length(), x.denominator.bit_length())
    elif isinstance(x, int):
        need = x.bit_length()
    else:
        return str(x)
    digits = need // 3 + 16
    old = sys.get_int_max_str_digits()
    if digits <= old:
        return str(x)
    try:
        sys.set_int_max_str_digits(digits)
        return str(x)
    finally:
        sys.set_int_max_str_digits(old)


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
