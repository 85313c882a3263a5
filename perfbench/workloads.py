"""Workload pools and the seeded command lists drawn from them.

Each workload has a finite pool of CLI argument lists (``pool``) and a
generator (``draw``) that picks one pass of commands from that pool and
shuffles it.  Every pool entry has a pinned exit code and stdout digest
in ``pins.json``; ``expected_as`` maps an entry to the command whose
pinned result it must reproduce.

A pass must cost about the same, and put the same kind of command at
its median and tail, whatever the seed, or seed-to-seed spread would
hide real changes.  So:

- the heaviest commands, which set the tail percentile and the peak
  RSS, are a fixed ladder (``*_LADDER``), the same in every pass and
  well apart in cost from the rest;
- an argument whose cost grows with its value is drawn as an
  antithetic pair ``g[i], g[-1 - i]`` from its grid, or over the whole
  grid;
- the seed picks freely only among entries of about equal cost (the
  family kind, the gamma argument, the moment, the order of commands).
"""

from fractions import Fraction
from itertools import product

# -- fraction_tables: Fraction layers (deform, series, gammabeta) ----------

FACT_COUNTS = tuple(range(100, 251, 10))
FAMILY_COUNTS = tuple(range(40, 81, 5))
ZIGZAG_COUNTS = tuple(range(30, 61, 5))
BINOMIAL_M = tuple(range(150, 251, 10))
HALVES = tuple(str(Fraction(2 * k + 1, 2)) for k in range(10))
BETA_HALVES = HALVES[:4]
PQ = ("-p", "9/10", "-q", "1/2")
Q_HALF = ("-q", "9/25")


def _fact(count, params=()):
    return ["table", "--kind", "factorials", "--count", str(count),
            *params]


def _family(kind, count):
    return ["table", "--kind", kind, "--count", str(count)]


def _binomial(m):
    return ["eval", "binomial", "-m", str(m), "-n", str(m // 2)]


def _gamma(z):
    return ["eval", "gamma", "-z", z, *Q_HALF]


def _beta(x, y):
    return ["eval", "beta", "-x", x, "-y", y, *Q_HALF]


FAMILIES = ("bernoulli", "euler", "genocchi")


def _fraction_pool():
    for c in FACT_COUNTS:
        yield _fact(c, PQ)
        yield _fact(c)
    for kind, c in product(FAMILIES, FAMILY_COUNTS):
        yield _family(kind, c)
    for c in ZIGZAG_COUNTS:
        yield _family("zigzag", c)
    for m in BINOMIAL_M:
        yield _binomial(m)
    for z in HALVES:
        yield _gamma(z)
    for x, y in product(BETA_HALVES, repeat=2):
        yield _beta(x, y)


# The five costliest commands of a pass: two, then three of about equal
# cost (0.9 s), well above the rest.  With three passes the tail sample,
# the 11th largest, is the median of those three commands' nine runs.
PQ_LADDER = (180, 200)
DEFAULT_LADDER = (230, 240, 250)


def _pair(rng, grid):
    """Antithetic pair: equal cost sum for a cost linear in the value."""
    i = rng.randrange(len(grid))
    return grid[i], grid[-1 - i]


def _fraction_draw(rng):
    cmds = [_fact(c, PQ) for c in PQ_LADDER]
    cmds += [_fact(c) for c in DEFAULT_LADDER]
    cmds += [_fact(c) for c in _pair(rng, FACT_COUNTS[:8])]
    cmds += [_family(rng.choice(FAMILIES), c) for c in FAMILY_COUNTS]
    cmds += [_family("zigzag", c) for c in _pair(rng, ZIGZAG_COUNTS)]
    # binomials and truncated gamma products cost about the same at every
    # argument; together they span the median, so it is one of them
    for _ in range(3):
        cmds += [_binomial(m) for m in _pair(rng, BINOMIAL_M)]
    cmds += [_gamma(rng.choice(HALVES)) for _ in range(12)]
    cmds += [_beta(rng.choice(BETA_HALVES), rng.choice(BETA_HALVES))
             for _ in range(2)]
    return cmds


# -- padic_riemann: _kernel, padic and the level loops of padicfun ---------

PRIMES = (3, 5, 7)
MOMENTS = tuple(range(1, 6))
TABLE_COUNTS = tuple(range(4, 9))
CARLITZ_N = (2, 3, 4)
# (prime, levels) for carlitz: level 7 at p = 7 takes 2-5 s a command,
# too long to repeat within one run.
CARLITZ_GRID = ((3, 6), (3, 7), (5, 6), (5, 7), (7, 6))
METHODS = ("direct", "moments")
PGAMMA_N = tuple(range(3000, 20001, 1000))
PBETA_XY = tuple(range(1000, 5001, 1000))


def _volk(r, levels, p):
    return ["volkenborn", "--moment", str(r), "--levels", str(levels),
            "--prime", str(p)]


def _volk_table(count, p):
    return ["table", "--kind", "volkenborn", "--count", str(count),
            "--prime", str(p)]


def _carlitz(n, levels, method, p):
    return ["carlitz", "-n", str(n), "--levels", str(levels),
            "--method", method, "--prime", str(p)]


def _pgamma(n, p):
    return ["pgamma", "-n", str(n), "--prime", str(p)]


def _pbeta(x, y, p):
    return ["pbeta", "-x", str(x), "-y", str(y), "--prime", str(p)]


# the five costliest commands of a pass, as for fraction_tables: p = 7 at
# level 7, then three of about 0.9 s: moments sums at p = 7 and at p = 5
# level 7, and p-adic gamma at the top of its range
PADIC_LADDER = (_volk(3, 7, 7), _volk_table(6, 7),
                _carlitz(3, 6, "moments", 7), _carlitz(4, 7, "moments", 5),
                _pgamma(20000, 5))


def _padic_pool():
    for r, levels, p in product(MOMENTS, (6, 7), PRIMES):
        yield _volk(r, levels, p)
    for c, p in product(TABLE_COUNTS, PRIMES):
        yield _volk_table(c, p)
    for n, (p, levels), method in product(CARLITZ_N, CARLITZ_GRID,
                                          METHODS):
        yield _carlitz(n, levels, method, p)
    for n, p in product(PGAMMA_N, PRIMES):
        yield _pgamma(n, p)
    for x, y, p in product(PBETA_XY, PBETA_XY, PRIMES):
        yield _pbeta(x, y, p)


def _padic_draw(rng):
    ch = rng.choice
    cmds = [list(argv) for argv in PADIC_LADDER]
    # p = 3 sums cost about the same whatever their arguments; they are
    # just over half the pass, so the median command is one of them
    cmds += [_volk(ch(MOMENTS), ch((6, 7)), 3) for _ in range(6)]
    cmds += [_volk_table(ch(TABLE_COUNTS), 3) for _ in range(4)]
    cmds += [_carlitz(ch(CARLITZ_N), ch((6, 7)), ch(METHODS), 3)
             for _ in range(8)]
    cmds += [_volk(r, levels, p) for r, (p, levels)
             in zip(rng.sample(MOMENTS, 3), ((5, 6), (5, 7), (7, 6)))]
    cmds += [_volk_table(c, 5) for c in _pair(rng, TABLE_COUNTS)]
    cmds += [_carlitz(n, 6, method, 5)
             for n, method in zip(_pair(rng, CARLITZ_N), METHODS)]
    # below the ladder: n up to 12000, arguments up to 3000
    cmds += [_pgamma(n, ch(PRIMES)) for n in _pair(rng, PGAMMA_N[:10])]
    x, y = _pair(rng, PBETA_XY[:3]), _pair(rng, PBETA_XY[:3])
    cmds += [_pbeta(x[k], y[k], ch(PRIMES)) for k in (0, 1)]
    return cmds


# -- small_queries: short commands dominated by start-up -------------------

PRESETS = ("jagannathan_srinivasa", "heine", "quesne",
           "biedenharn_macfarlane")
NUMBER_N = tuple(range(2, 31, 2))
FACTORIAL_N = tuple(range(2, 21, 2))
COEFFS = ("1", "1,1", "0,0,1", "1,2,3", "5,-1,0,2", "1/2,0,3/4",
          "2,0,0,0,1", "3,1/3,0,-1,1")
BOUNDS = (("0", "1"), ("1/3", "7/8"))
CHECK_MODULES = ("deform", "series", "quadrature", "gammabeta",
                 "padicfun", "spinzeta")
ZETA_PRIMES = (2, 3, 5, 7, 11)
ZETA_S = tuple(range(2, 7))
ZETA_GRIDS = tuple(product(("2,3", "3,5", "2,3,5,7"),
                           ("2,3,4", "3,4,5,6")))
GENERATORS = ("minus", "z", "plus")
SMALL_XY = tuple(range(1, 7))


def _number(n, preset):
    return ["eval", "number", "-n", str(n), "--preset", preset]


def _factorial(n, preset):
    return ["eval", "factorial", "-n", str(n), "--preset", preset]


def _derivative(coeffs):
    return ["eval", "derivative", "--coeffs", coeffs]


def _integral(coeffs, a, b):
    return ["eval", "integral", "--coeffs", coeffs, "-a", a, "-b", b]


def _check(module):
    return ["check", "--module", module]


def _zeta_eval(p, s):
    return ["zeta", "eval", "--prime", str(p), "-s", str(s)]


def _zeta_grid(head, primes, s_values):
    return [*head, "--primes", primes, "--s-values", s_values]


def _table_zeta(primes, s_values):
    return _zeta_grid(("table", "--kind", "zeta"), primes, s_values)


def _zeta_table(primes, s_values):
    return _zeta_grid(("zeta", "table"), primes, s_values)


def _spin(generator, p):
    # t = p keeps t S inside the exp domain at every prime
    return ["spin", "exp", "--generator", generator, "--prime", str(p),
            "-t", str(p)]


def _small_pbeta(x, y):
    return ["pbeta", "-x", str(x), "-y", str(y)]


def _small_pool():
    for n, preset in product(NUMBER_N, PRESETS):
        yield _number(n, preset)
    for n, preset in product(FACTORIAL_N, PRESETS):
        yield _factorial(n, preset)
    for c in COEFFS:
        yield _derivative(c)
    for c, (a, b) in product(COEFFS, BOUNDS):
        yield _integral(c, a, b)
    for m in CHECK_MODULES:
        yield _check(m)
    for p, s in product(ZETA_PRIMES, ZETA_S):
        yield _zeta_eval(p, s)
    for grid in ZETA_GRIDS:
        yield _table_zeta(*grid)
        yield _zeta_table(*grid)
    for g, p in product(GENERATORS, PRIMES):
        yield _spin(g, p)
    for x, y in product(SMALL_XY, repeat=2):
        yield _small_pbeta(x, y)


def _small_draw(rng):
    ch = rng.choice
    cmds = [_check(m) for m in CHECK_MODULES]
    cmds += [_number(ch(NUMBER_N), ch(PRESETS)) for _ in range(12)]
    cmds += [_factorial(ch(FACTORIAL_N), ch(PRESETS)) for _ in range(12)]
    cmds += [_derivative(ch(COEFFS)) for _ in range(8)]
    cmds += [_integral(ch(COEFFS), *ch(BOUNDS)) for _ in range(8)]
    cmds += [_zeta_eval(ch(ZETA_PRIMES), ch(ZETA_S)) for _ in range(8)]
    cmds += [_table_zeta(*ch(ZETA_GRIDS)) for _ in range(6)]
    cmds += [_zeta_table(*ch(ZETA_GRIDS)) for _ in range(2)]
    cmds += [_spin(ch(GENERATORS), ch(PRIMES)) for _ in range(8)]
    cmds += [_small_pbeta(ch(SMALL_XY), ch(SMALL_XY)) for _ in range(10)]
    return cmds


def expected_as(argv):
    """The command whose pinned result ``argv`` must reproduce: ``zeta
    table`` prints the same table as ``table --kind zeta``."""
    if argv[:2] == ["zeta", "table"]:
        return ["table", "--kind", "zeta", *argv[2:]]
    return argv


WORKLOADS = {
    "fraction_tables": (_fraction_pool, _fraction_draw),
    "padic_riemann": (_padic_pool, _padic_draw),
    "small_queries": (_small_pool, _small_draw),
}


def pool(workload):
    return [list(argv) for argv in WORKLOADS[workload][0]()]


def draw(workload, rng):
    """One pass of ``workload``: a balanced, shuffled command list."""
    cmds = WORKLOADS[workload][1](rng)
    rng.shuffle(cmds)
    return cmds
