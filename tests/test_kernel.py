"""The modular-integer loops of ``rpqcalc._kernel``."""

import random

import pytest

import rpqcalc
from rpqcalc import _kernel

# 5^27 lies between 2^62 and 2^63: products of residues overflow 64 bits
M27 = 5 ** 27


def test_reference_values():
    assert _kernel.power_table(2, 5, 1000) == [1, 2, 4, 8, 16]
    assert _kernel.weighted_sum([1, 2], [3, 4], 100) == 11
    assert _kernel.pow_weighted_sum([2, 3], 2, [1, 1], 100) == 13
    assert _kernel.pow_weighted_sum([4, 9], 0, [5, 6], 7) == 4


def test_reference_values_past_64_bits():
    assert _kernel.power_table(2 ** 40, 4, M27) == [
        1, 1099511627776, 2062538365746971801, 985605613747141451]
    assert _kernel.weighted_sum(
        [M27 - 1, 2 ** 60 % M27, 3], [M27 - 2, 5 ** 26, 7], M27) == \
        1490116119384765648
    assert _kernel.pow_weighted_sum(
        [2 ** 50 % M27, M27 - 1, 0], 3, [1, 2, 3], M27) == \
        2933954059722590372


def test_empty_and_trivial_modulus():
    assert _kernel.power_table(3, 0, 7) == []
    assert _kernel.power_table(3, 3, 1) == [0, 0, 0]
    assert _kernel.weighted_sum([], [], 7) == 0
    assert _kernel.pow_weighted_sum([], 3, [], 7) == 0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        _kernel.weighted_sum([1, 2], [3], 7)
    with pytest.raises(ValueError):
        _kernel.pow_weighted_sum([1], 2, [1, 2], 7)


@pytest.mark.parametrize("mod", [5 ** 10, M27, 7 ** 28, 3 ** 60])
def test_matches_builtin_pow(mod):
    rng = random.Random(mod)
    count = 200
    base = rng.randrange(1, mod)
    vals = [rng.randrange(mod) for _ in range(count)]
    w = [rng.randrange(mod) for _ in range(count)]
    assert _kernel.power_table(base, count, mod) == \
        [pow(base, i, mod) for i in range(count)]
    assert _kernel.weighted_sum(w, vals, mod) == \
        sum(a * b for a, b in zip(w, vals)) % mod
    for e in (0, 1, 2, 7):
        assert _kernel.pow_weighted_sum(vals, e, w, mod) == \
            sum(a * pow(b, e, mod) for a, b in zip(w, vals)) % mod


def test_public_names():
    assert _kernel.__all__ == [
        "power_table", "weighted_sum", "pow_weighted_sum"]
    assert all(callable(getattr(_kernel, n)) for n in _kernel.__all__)
    assert rpqcalc.KERNEL_BACKEND == "python"
