"""The modular-integer loop behind the Riemann sums of general integrands.

``padicfun.volkenborn_integral`` sends the residues of an exact
integrand f here; the moments and Carlitz values do not come here, as
each of their level sums has a closed form.  The loop also serves the
tests as the Riemann-sum oracle for those closed forms.

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
