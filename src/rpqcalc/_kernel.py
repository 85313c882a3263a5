"""Modular-integer loops behind the Volkenborn/Carlitz Riemann sums.

All inputs are plain integers already reduced modulo ``mod`` (a prime
power); results are returned reduced modulo ``mod``.
"""

__all__ = ["power_table", "weighted_sum", "pow_weighted_sum"]


def power_table(base, count, mod):
    """[base^0, base^1, ..., base^(count-1)] modulo mod."""
    out = [0] * count
    acc = 1 % mod
    for i in range(count):
        out[i] = acc
        acc = (acc * base) % mod
    return out


def weighted_sum(weights, values, mod):
    """Sum of weights[i]*values[i] modulo mod."""
    acc = 0
    for w, v in zip(weights, values, strict=True):
        acc += w * v
    return acc % mod


def pow_weighted_sum(values, exponent, weights, mod):
    """Sum of weights[i]*values[i]^exponent modulo mod."""
    acc = 0
    for w, v in zip(weights, values, strict=True):
        acc += w * pow(v, exponent, mod)
    return acc % mod
