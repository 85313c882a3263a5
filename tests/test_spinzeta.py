"""Spin generators, matrix exp/log, congruence levels, zeta values."""

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bch_degree3, padic_valuation
from rpqcalc import cli
from rpqcalc.errors import (ConvergenceDomainError, InvalidParameterError,
                            PoleError)
from rpqcalc.padic import PadicNumber
from rpqcalc.spinzeta import (GHOST_GROUPS, Mat2Padic,
                              commutator, congruence_level, ghost_boundary,
                              mat_exp, mat_log, spin_generators,
                              zeta_spin_half)


def gens(scale=1, p=5, prec=12):
    return spin_generators(scale, p, prec)


def rational_matrix(rows, p, prec):
    """The 2x2 matrix of the rationals ``rows``, each embedded by
    ``PadicNumber.from_rational``."""
    (a, b), (c, d) = rows
    return Mat2Padic(*(PadicNumber.from_rational(F(x), p, prec)
                       for x in (a, b, c, d)))


class TestGenerators:
    def test_trace_zero(self):
        for S in gens():
            assert S.trace().is_zero()

    def test_raising_nilpotent(self):
        _, _, Sp = gens()
        assert (Sp @ Sp).is_zero()

    def test_commutators_match_matrices(self):
        Sm, Sz, Sp = gens()
        one = PadicNumber.one(5, 12)
        assert commutator(Sz, Sp) == Sp.scaled(one)
        assert commutator(Sz, Sm) == Sm.scaled(-one)
        assert commutator(Sp, Sm) == Sz.scaled(one * 2)

    def test_commutators_scale_with_h(self):
        h = F(3, 2)
        Sm, Sz, Sp = gens(scale=h)
        hp = PadicNumber.from_rational(h, 5, 12)
        assert commutator(Sz, Sp) == Sp.scaled(hp)
        assert commutator(Sz, Sm) == Sm.scaled(-hp)
        assert commutator(Sp, Sm) == Sz.scaled(hp * 2)

    @pytest.mark.parametrize("bad", [0.1, "1/3", True],
                             ids=["float", "str", "bool"])
    def test_scale_takes_only_rationals(self, bad):
        with pytest.raises(InvalidParameterError,
                           match=f"got {type(bad).__name__}"):
            spin_generators(bad, 5, 12)

    def test_antisymmetry(self):
        Sm, _, _ = gens()
        assert commutator(Sm, Sm).is_zero()

    def test_basis_injective_on_samples(self):
        Sm, Sz, Sp = gens()
        rng = random.Random(3)
        for _ in range(8):
            x, y, z = (rng.randint(-20, 20) for _ in range(3))
            combo = Sm.scaled(PadicNumber.from_rational(x, 5, 12)) \
                + Sz.scaled(PadicNumber.from_rational(y, 5, 12)) \
                + Sp.scaled(PadicNumber.from_rational(z, 5, 12))
            assert combo.is_zero() == ((x, y, z) == (0, 0, 0))


class TestExpLog:
    @pytest.mark.parametrize("bad", [0.1, "1/3", True],
                             ids=["float", "str", "bool"])
    def test_time_takes_only_rationals(self, bad):
        _, Sz, _ = gens(scale=5)
        with pytest.raises(InvalidParameterError,
                           match=f"got {type(bad).__name__}"):
            mat_exp(Sz, bad)

    def test_exp_zero(self):
        Z = Mat2Padic.zero(5, 10)
        assert mat_exp(Z, 1) == Mat2Padic.identity(5, 10)

    def test_nilpotent_exact(self):
        _, _, Sp = gens()
        t = PadicNumber.from_rational(7, 5, 12)
        assert mat_exp(Sp, t) == \
            Mat2Padic.identity(5, 12) + Sp.scaled(t)

    def test_determinant_one(self):
        _, Sz, _ = gens()
        g = mat_exp(Sz, PadicNumber.from_rational(5, 5, 10))
        assert (g.det() - 1).is_zero()

    def test_log_identity(self):
        assert mat_log(Mat2Padic.identity(5, 10)).is_zero()

    def test_log_nilpotent_terminates(self):
        _, _, Sp = gens()
        tSp = Sp.scaled(PadicNumber.from_rational(25, 5, 10))
        assert mat_log(Mat2Padic.identity(5, 12) + tSp) == tSp

    def test_roundtrip(self):
        _, Sz, _ = gens(prec=10)
        t = PadicNumber.from_rational(5, 5, 10)
        g = mat_exp(Sz, t)
        X = mat_log(g)
        assert X == Sz.scaled(t)
        assert X.trace().is_zero()
        assert mat_exp(X, 1) == g

    def test_roundtrip_mixed_direction(self):
        Sm, Sz, Sp = gens(prec=10)
        S = Sm + Sp  # eigenvalues +-1, scaled into the domain by t
        t = PadicNumber.from_rational(25, 5, 10)
        g = mat_exp(S, t)
        assert (g.det() - 1).is_zero()
        assert mat_log(g) == S.scaled(t)

    def test_convergence_guard(self):
        _, Sz, _ = gens()
        with pytest.raises(ConvergenceDomainError):
            mat_exp(Sz, 1)  # v(t * eigenvalue) = 0

    def test_log_domain_guard(self):
        g = rational_matrix([[2, 0], [0, F(1, 2)]], 5, 10)
        with pytest.raises(ConvergenceDomainError):
            mat_log(g)

    def test_log_needs_unit_det(self):
        g = rational_matrix([[1, 0], [0, 6]], 5, 10)
        with pytest.raises(InvalidParameterError):
            mat_log(g)


# Reference loops: matrix exp and log as they were before the series
# domains and term counts moved into ``padic``.  The old exp also
# demanded eigenvalues in Q_p, certified through the characteristic
# polynomial.

def _old_eigen_certificate(S, t):
    p = S.prime
    tr, det = S.trace(), S.det()
    disc = tr * tr - 4 * det
    if disc.is_zero():
        lam_vals = [] if tr.is_zero() else [(tr / 2).valuation]
    else:
        if disc.valuation % 2:
            raise ConvergenceDomainError(
                "eigenvalues need a ramified quadratic extension; rejected")
        try:
            root = disc.sqrt()
        except ConvergenceDomainError:
            raise ConvergenceDomainError(
                "eigenvalues need an unramified quadratic extension; "
                "rejected")
        lam1 = (tr + root) / 2
        lam2 = (tr - root) / 2
        lam_vals = [v.valuation for v in (lam1, lam2) if not v.is_zero()]
    bound = F(1, p - 1)
    tv = t.valuation if not t.is_zero() else None
    for lv in lam_vals:
        if tv is None:
            continue
        if F(tv + lv) <= bound:
            raise ConvergenceDomainError("need v(t*eigenvalue) > 1/(p-1)")


def _old_mat_exp(S, t):
    p = S.prime
    if not isinstance(t, PadicNumber):
        t = PadicNumber.from_rational(F(t), p, S.precision + 2)
    tS = S.scaled(t)
    if (S @ S).is_zero():
        return Mat2Padic.identity(p, S.precision + 2) + tS
    _old_eigen_certificate(S, t)
    target = min(e.absolute_precision for e in tS.entries())
    acc = Mat2Padic.identity(p, target)
    term = Mat2Padic.identity(p, target)
    n = 0
    v_ts = tS.min_valuation()
    while True:
        n += 1
        if n * (v_ts * (p - 1) - 1) >= target * (p - 1):
            break
        term = term @ tS
        term = term.scaled(
            PadicNumber.from_rational(F(1, n), p, target + n))
        acc = acc + term
        if n > 8 * target + 16:
            raise ConvergenceDomainError("exp series did not terminate")
    return acc


def _old_mat_log(g):
    p = g.prime
    prec = g.precision
    ident = Mat2Padic.identity(p, prec + 2)
    if not (g.det() - 1).is_zero():
        raise InvalidParameterError("need det g = 1 to precision")
    tr2 = g.trace() - 2
    if not tr2.is_zero() and F(tr2.valuation) <= F(2, p - 1):
        raise ConvergenceDomainError("trace")
    X = g - ident
    vx = X.min_valuation()
    if X.is_zero():
        return Mat2Padic.zero(p, prec)
    if vx < 1:
        raise ConvergenceDomainError("need g = I mod p")
    if (X @ X).is_zero():
        return X
    target = min(e.absolute_precision for e in X.entries())
    acc = Mat2Padic.zero(p, target)
    power = Mat2Padic.identity(p, target)
    n = 0
    while True:
        n += 1
        if n * vx - (n.bit_length() * 2) >= target and n > 4:
            break
        power = power @ X
        coeff = F(1, n) if n % 2 else F(-1, n)
        acc = acc + power.scaled(
            PadicNumber.from_rational(coeff, p, target + n))
        if n > 8 * target + 16:
            break
    return acc


def _outcome(f, *args):
    try:
        return f(*args)
    except (ConvergenceDomainError, InvalidParameterError) as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 11]), prec=st.integers(3, 9),
       shift=st.integers(-1, 1),
       abc=st.tuples(*[st.integers(-30, 30)] * 3),
       d=st.one_of(st.none(), st.integers(-30, 30)),
       t_unit=st.sampled_from([1, 2, 3, -1, -2, 4]),
       t_val=st.integers(0, 2))
# eigenvalues +-sqrt(2) (unramified) and +-sqrt(5) (ramified) at p = 5
@example(p=5, prec=8, shift=0, abc=(0, 1, 2), d=None, t_unit=1, t_val=1)
@example(p=5, prec=8, shift=0, abc=(0, 1, 5), d=None, t_unit=1, t_val=1)
def test_exp_log_match_old_loops(p, prec, shift, abc, d, t_unit, t_val):
    """Wherever the old loops return, the new give the identical repr.
    Where the old exp refused only for eigenvalues in a quadratic
    extension, small entries now suffice: exp(tS) exp(-tS) = I, and a
    trace-zero tS comes back through the logarithm.  Everything else
    both refuse."""
    a, b, c = abc
    rows = [[a, b], [c, -a if d is None else d]]
    S = rational_matrix(
        [[F(x) * F(p) ** shift for x in row] for row in rows], p, prec)
    t = F(t_unit) * F(p) ** t_val
    tS = S.scaled(PadicNumber.from_rational(t, p, prec + 2))
    old, new = _outcome(_old_mat_exp, S, t), _outcome(mat_exp, S, t)
    if isinstance(old, Mat2Padic):
        assert repr(new) == repr(old)
        old_log, new_log = _outcome(_old_mat_log, old), _outcome(mat_log, new)
        if isinstance(old_log, Mat2Padic):
            assert repr(new_log) == repr(old_log)
        else:
            assert type(new_log) is type(old_log)
    elif "quadratic extension" in str(old) \
            and tS.min_valuation() * (p - 1) > 1:
        assert new @ mat_exp(S, -t) == Mat2Padic.identity(p, prec)
        if S.trace().is_zero():
            assert mat_log(new) == tS
    else:
        assert isinstance(new, ConvergenceDomainError)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), prec=st.integers(12, 30),
       k=st.integers(1, 3), abc=st.tuples(*[st.integers(-3, 3)] * 6))
@example(p=3, prec=30, k=1, abc=(1, 0, 0, 0, 0, 1))
def test_group_law_is_bch(p, prec, k, abc):
    """exp and log against the group law: for X, Y in p^k times the
    spin lattice, log(exp X exp Y) minus the degree-3 BCH polynomial
    has valuation at least 4k - v_p(24), or the precision of both
    sides where that is lower.  The bound is the valuation of the first
    omitted term, -[Y,[X,[X,Y]]]/24 (Serre, *Lie Algebras and Lie
    Groups*, Part I, ch. IV); the later terms have denominators whose
    p-valuation grows more slowly than their degree times k."""
    Sm, Sz, Sp = gens(p=p, prec=prec)
    X, Y = ((Sm.scaled(a) + Sz.scaled(b) + Sp.scaled(c)).scaled(p ** k)
            for a, b, c in (abc[:3], abc[3:]))
    got = mat_log(mat_exp(X, 1) @ mat_exp(Y, 1))
    want = bch_degree3(X, Y)
    bound = min(4 * k - padic_valuation(24, p), got.precision,
                want.precision)
    assert all(e.valuation >= bound for e in (got - want).entries())


class TestCongruenceLevel:
    def test_identity_max(self):
        assert congruence_level(Mat2Padic.identity(5, 10)) == 10

    def test_explicit_level(self):
        _, _, Sp = gens()
        g = Mat2Padic.identity(5, 10) \
            + Sp.scaled(PadicNumber.from_rational(25, 5, 10))
        assert congruence_level(g) == 2

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_exp_images_at_scale(self, i):
        _, Sz, _ = spin_generators(5 ** i, 5, 14)
        g = mat_exp(Sz, 1)
        assert congruence_level(g) >= i


# zeta_p(m s - a) as (a, m): the four factors of the spin zeta product,
# then its divisor
EULER_FORM = ((0, 1), (1, 1), (1, 2), (2, 2), (1, 3))


class TestZetaFactors:
    def test_basic_factor(self):
        # zeta_p(s) = 1/(1 - t) at t = p^-s
        assert zeta_spin_half(2, 3).factors[0] == ("zeta_p(1s-0)", F(8, 7))

    def test_exponent_bookkeeping(self):
        # the divisor zeta_p(3s-1) is 1/(1 - p t^3), not 1/(1 - p^3 t)
        t = F(1, 9)
        assert zeta_spin_half(3, 2).factors[4] == (
            "zeta_p(3s-1) (divisor)", 1 / (1 - 3 * t ** 3))

    @pytest.mark.parametrize("n", [-3, 0, 1, 4, 9, 91])
    def test_non_prime_rejected(self, n):
        with pytest.raises(InvalidParameterError) as exc:
            zeta_spin_half(n, 3)
        assert str(exc.value) == f"need a prime; got {n}"

    def test_factors_are_the_euler_form(self, capsys):
        # each factor is 1/(1 - p^a p^(-ms)); s = 1 is a pole of
        # zeta_p(s-1) for every p, reported with the first such factor
        for p, s in product((2, 3, 5, 7), (-2, -1, 1, 2, 3, 4, 5, 6)):
            dens = [1 - p ** a * F(p) ** (-m * s) for a, m in EULER_FORM]
            labels = [f"zeta_p({m}s-{a})" for a, m in EULER_FORM]
            if 0 in dens:
                with pytest.raises(PoleError) as exc:
                    zeta_spin_half(p, s)
                k = dens.index(0)
                assert str(exc.value) == (f"pole of {labels[k]} at "
                                          f"t = {F(1, p) ** s}")
                continue
            vals = [1 / d for d in dens]
            labels[-1] += " (divisor)"
            z = zeta_spin_half(p, s)
            assert z.factors == tuple(zip(labels, vals))
            # zeta eval --format json, assembled here from the factors
            value = vals[0] * vals[1] * vals[2] * vals[3] / vals[4]
            expected = json.dumps({
                "prime": p, "s": str(F(s)),
                "value": {"num": value.numerator,
                          "den": value.denominator},
                "factors": [{"label": lb, "value": str(v)}
                            for lb, v in zip(labels, vals)]}, indent=2)
            assert cli.main(["zeta", "eval", "--prime", str(p), "-s",
                             str(s), "--format", "json"]) == 0
            assert capsys.readouterr() == (expected + "\n", "")

    def test_product_evaluation_distributes(self):
        for s in range(2, 12):
            t = F(1, 5 ** s)
            z = zeta_spin_half(5, s)
            prod = F(1)
            for _, v in z.factors[:4]:
                prod *= v
            assert prod == 1 / ((1 - t) * (1 - 5 * t) * (1 - 5 * t ** 2)
                                * (1 - 25 * t ** 2))
            assert z.value == prod / z.factors[4][1]


def spin_bracket(u, v):
    """[u, v] in the basis (S_z, S+, S-) at scale 1, where
    [S_z, S+] = S+, [S_z, S-] = -S- and [S+, S-] = 2 S_z."""
    return (2 * (u[1] * v[2] - u[2] * v[1]), u[0] * v[1] - u[1] * v[0],
            u[2] * v[0] - u[0] * v[2])


def in_lattice(rows, w):
    """w in the lattice of an upper-triangular basis, by exact
    triangular division."""
    (pa, x, y), (_, pb, z), (_, _, pc) = rows
    t0, r = divmod(w[0], pa)
    if r:
        return False
    t1, r = divmod(w[1] - t0 * x, pb)
    return not r and (w[2] - t0 * y - t1 * z) % pc == 0


def subalgebra_count(p, k):
    """Sublattices of index p^k in Z_p^3 closed under the spin bracket.
    Each has one Hermite basis [[p^a, x, y], [0, p^b, z], [0, 0, p^c]]
    with a + b + c = k, 0 <= x < p^b and 0 <= y, z < p^c; it is closed
    iff the brackets of its basis rows lie in it."""
    n = 0
    for a in range(k + 1):
        for b in range(k - a + 1):
            pa, pb, pc = p ** a, p ** b, p ** (k - a - b)
            for x, y, z in product(range(pb), range(pc), range(pc)):
                rows = ((pa, x, y), (0, pb, z), (0, 0, pc))
                n += all(in_lattice(rows, spin_bracket(rows[i], rows[j]))
                         for i, j in ((0, 1), (0, 2), (1, 2)))
    return n


def euler_product_coefficients(p, order):
    """The t-coefficients, to t^order, of zeta_p(s) zeta_p(s-1)
    zeta_p(2s-1) zeta_p(2s-2) / zeta_p(3s-1) at t = p^-s."""
    coeffs = [1] + [0] * order
    for a, m in ((0, 1), (1, 1), (1, 2), (2, 2)):  # times 1/(1 - p^a t^m)
        for k in range(m, order + 1):
            coeffs[k] += p ** a * coeffs[k - m]
    return [c - p * coeffs[k - 3] if k >= 3 else c  # times 1 - p t^3
            for k, c in enumerate(coeffs)]


class TestZetaSpin:
    def test_worked_product(self):
        z = zeta_spin_half(2, 3)
        expected = F(8, 7) * F(4, 3) * F(32, 31) * F(16, 15) \
            / F(256, 255)
        assert z.value == expected
        assert len(z.factors) == 5

    def test_pole_reported_with_factor(self):
        with pytest.raises(PoleError):
            zeta_spin_half(2, 0)

    def test_rejects_noninteger(self):
        with pytest.raises(InvalidParameterError):
            zeta_spin_half(2, F(1, 2))

    def test_rank3_import(self):
        # every subalgebra of Z_p^3 is a subgroup, so zeta_spin_half lies
        # below the subgroup zeta zeta_p(s) zeta_p(s-1) zeta_p(s-2), whose
        # first two factors it shares
        for p, s in product((2, 3, 5, 7), (3, 4, 5, 6)):
            t = F(1, p ** s)
            z = zeta_spin_half(p, s)
            assert [v for _, v in z.factors[:2]] == [1 / (1 - t),
                                                     1 / (1 - p * t)]
            assert z.value < 1 / ((1 - t) * (1 - p * t) * (1 - p ** 2 * t))

    @pytest.mark.parametrize("p, counts", [
        (3, [1, 4, 25, 85, 382, 1237]),
        (5, [1, 6, 61, 331]),
        (7, [1, 8, 113]),
    ])
    def test_subalgebra_counts(self, p, counts):
        # the t^k coefficient of the product form is the number of
        # subalgebras of index p^k of the spin lattice Z_p^3, counted
        # over Hermite bases; zeta_spin_half is that product at t = p^-s
        order = len(counts) - 1
        assert [subalgebra_count(p, k) for k in range(order + 1)] == counts
        assert euler_product_coefficients(p, order) == counts
        for s in (3, 4):
            t = F(1, p ** s)
            assert zeta_spin_half(p, s).value == (1 - p * t ** 3) / (
                (1 - t) * (1 - p * t) * (1 - p * t ** 2)
                * (1 - p ** 2 * t ** 2))


class TestGhost:
    def test_worked_values(self):
        assert ghost_boundary("GSp", 2) == 1
        assert ghost_boundary("GO_odd", 1) == 0
        assert ghost_boundary("GO_even_plus", 2) == -1

    def test_hand_arithmetic_sweep(self):
        for l in range(1, 6):
            assert ghost_boundary("GO_odd", l) == l * l - 1
            assert ghost_boundary("GSp", l) == F(l * (l + 1), 2) - 2
            assert ghost_boundary("GO_even_plus", l) == \
                F(l * (l - 1), 2) - 2

    def test_unknown_group(self):
        with pytest.raises(InvalidParameterError):
            ghost_boundary("SO", 2)
        assert "GSp" in GHOST_GROUPS


class TestMatrixProtocol:
    def test_json_roundtrip(self):
        _, Sz, _ = gens()
        again = Mat2Padic.from_json(Sz.to_json())
        assert again == Sz

    @pytest.mark.parametrize("prime", [7, None, True, 5.0])
    def test_top_level_prime_must_match(self, prime):
        obj = gens()[1].to_json()
        if prime is None:
            del obj["prime"]
        else:
            obj["prime"] = prime
        with pytest.raises(InvalidParameterError, match="'prime'"):
            Mat2Padic.from_json(obj)

    def test_mixed_primes_rejected(self):
        a = PadicNumber.one(5, 8)
        b = PadicNumber.one(7, 8)
        with pytest.raises(InvalidParameterError):
            Mat2Padic(a, a, a, b)
