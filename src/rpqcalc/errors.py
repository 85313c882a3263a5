"""Exception hierarchy shared by all modules.

Domain violations carry the violated bound in the message so callers
(and the CLI, which maps them to exit code 3) can report it verbatim.
"""


class RpqError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(RpqError):
    """A parameter fails its precondition (non-prime p, n > m, ...)."""


class ConvergenceDomainError(RpqError):
    """An argument lies outside the convergence domain of a series/product."""


class SingularityError(RpqError):
    """Evaluation of a structure function at a pole of its kernel."""


class SingularDeformationError(RpqError):
    """A deformed number needed as a divisor vanishes ([n] = 0)."""


class PoleError(RpqError):
    """Exact evaluation requested at a pole of a rational function."""


class PrecisionError(RpqError):
    """A p-adic result was requested beyond its guaranteed precision."""
