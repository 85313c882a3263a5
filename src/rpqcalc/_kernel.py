"""The modular-integer loop of a twisted Riemann sum, read off by level.

No library module calls it: the Volkenborn moments and Carlitz values
have a closed form at each level.  It serves the tests' Riemann-sum
oracle for those closed forms (``tests/oracles.py``) and the
benchmark's tracer, which wraps ``level_sums`` by name.

All inputs are plain integers already reduced modulo ``mod`` (a prime
power); results are returned reduced modulo ``mod``.
"""

__all__ = ["level_sums"]


def level_sums(values, base, p, levels, mod):
    """[sum_{t < p^N} base^t values[t] modulo mod for N = 1..levels].

    One running total over the iterable ``values``, read off at
    t = p, p^2, ..., p^levels; at most p^levels values are taken, and
    a ``ValueError`` is raised if fewer are given."""
    values = iter(values)
    sums = []
    acc, weight, done = 0, 1, 0
    for n in range(1, levels + 1):
        end = p ** n
        for done, v in zip(range(done + 1, end + 1), values):
            acc += weight * v
            weight = weight * base % mod
        if done != end:
            raise ValueError(f"values ran out after {done} of {end}")
        sums.append(acc % mod)
    return sums
