"""The modular-integer loop of ``rpqcalc._kernel``."""

import random
from itertools import count

import pytest

import rpqcalc
from rpqcalc import _kernel

# 5^27 lies between 2^62 and 2^63: products of residues overflow 64 bits
M27 = 5 ** 27


def brute_force(values, base, p, levels, mod):
    return [sum(pow(base, t, mod) * values[t] for t in range(p ** n)) % mod
            for n in range(1, levels + 1)]


def test_reference_values():
    # 1 + 2*2 + 3*4 = 17; the next six terms add 4080
    assert _kernel.level_sums(range(1, 10), 2, 3, 2, 1000) == [17, 97]
    assert _kernel.level_sums([5, 6, 7, 8], 3, 2, 2, 7) == [2, 1]


def test_reference_values_past_64_bits():
    # -(1 - 2 + 4 - ...) over 2, 4 and 8 terms
    assert _kernel.level_sums([M27 - 1] * 8, M27 - 2, 2, 3, M27) == \
        [1, 5, 85]
    vals = [(2 ** 61 + 7 * t ** 3) % M27 for t in range(25)]
    assert _kernel.level_sums(vals, 2 ** 40, 5, 2, M27) == \
        [5986761523609671785, 3821512440495466675]


def test_empty_and_trivial_modulus():
    values = iter(range(100))
    assert _kernel.level_sums(values, 3, 5, 0, 7) == []
    assert next(values) == 0  # no level, nothing read
    assert _kernel.level_sums(range(9), 3, 3, 2, 1) == [0, 0]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="ran out"):
        _kernel.level_sums([1, 2, 3], 2, 2, 2, 7)
    with pytest.raises(ValueError, match="ran out"):
        _kernel.level_sums([], 2, 3, 1, 7)


def test_reads_only_what_the_levels_need():
    values = count()
    assert _kernel.level_sums(values, 1, 3, 2, 10 ** 6) == [3, 36]
    assert next(values) == 9


@pytest.mark.parametrize("mod", [5 ** 10, M27, 7 ** 28, 3 ** 60])
def test_matches_builtin_pow(mod):
    rng = random.Random(mod)
    for p, levels in ((3, 4), (5, 3), (7, 2)):
        base = rng.randrange(1, mod)
        vals = [rng.randrange(mod) for _ in range(p ** levels)]
        assert _kernel.level_sums(iter(vals), base, p, levels, mod) == \
            brute_force(vals, base, p, levels, mod)


def test_public_names():
    assert _kernel.__all__ == ["level_sums"]
    assert all(callable(getattr(_kernel, n)) for n in _kernel.__all__)
    # eager: the loop runs inside the call that a timing span wraps
    assert type(_kernel.level_sums(iter([1, 2]), 1, 2, 1, 7)) is list
    assert rpqcalc.KERNEL_BACKEND == "python"
