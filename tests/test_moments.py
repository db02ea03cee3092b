import math
from fractions import Fraction

import numpy as np
import pytest

from dssyklab import moments as mo
from dssyklab import qhermite as qh
from dssyklab.qcore import MultiPoly
from dssyklab.qhermite import ConvergenceError, rt_moment


def poly(s_terms):
    return MultiPoly(s_terms)


THETA = MultiPoly.theta()
QT = MultiPoly.qt()
Q = MultiPoly.q()


class TestReducedMoment:
    def test_m1(self):
        assert mo.reduced_moment(1) == THETA

    def test_m2(self):
        assert mo.reduced_moment(2) == THETA ** 2

    def test_m3(self):
        assert mo.reduced_moment(3) == THETA ** 3 + 3 * THETA

    def test_m4_printed(self):
        assert mo.reduced_moment(4) == THETA ** 4 + (4 + 2 * QT) * THETA ** 2

    def test_theta_parity(self):
        for n in range(1, 11):
            for (a, b, c), _ in mo.reduced_moment(n).items():
                assert c % 2 == n % 2

    def test_leading_theta_power(self):
        for n in range(1, 11):
            m = mo.reduced_moment(n)
            assert m.coefficient(theta_pow=n) == 1
            assert m.degree("theta") == n

    def test_vanishes_at_theta_zero(self):
        for n in range(1, 11):
            assert mo.reduced_moment(n).substitute(theta=0).is_zero()

    def test_qt_exponents_integral(self):
        for n in range(1, 11):
            for (a, b, c), _ in mo.reduced_moment(n).items():
                assert b >= 0

    def test_order_cap(self):
        with pytest.raises(ValueError):
            mo.reduced_moment(mo.MAX_MOMENT_ORDER + 1)
        with pytest.raises(ValueError):
            mo.reduced_moment(0)


def _grow(v, q=0, qt=0, theta=0, shape=None):
    """v shifted by the given powers into a zero array of `shape` (default: just big enough)."""
    if shape is None:
        shape = (v.shape[0] + q, v.shape[1] + qt, v.shape[2] + theta)
    out = np.zeros(shape, dtype=object)
    out[q:q + v.shape[0], qt:qt + v.shape[1], theta:theta + v.shape[2]] = v
    return out


def _object_walk(n):
    """The two-stack walk to n on object arrays that grow to fit every term.

    [k]_q is applied as k shifted copies and nothing is ever cut off, so
    this checks the int64 walk's fixed axes.  Returns m_1 .. m_n and, per
    letter t and state (a, b), the largest q power held.
    """
    def add(states, key, w):
        old = states.get(key)
        if old is not None:
            if old.shape != w.shape:
                old = _grow(old, shape=tuple(np.maximum(old.shape, w.shape)))
            old[:w.shape[0], :w.shape[1], :w.shape[2]] += w
            w = old
        states[key] = w

    start = np.zeros((1, 1, 2), dtype=object)
    start[0, 0, 1] = 1  # the leading d
    states, vacua, top_q = {(0, 0): start}, [], {}
    for t in range(1, n + 1):
        if t > 1:
            new = {}
            for (a, b), v in states.items():
                if a + b + 1 <= n - t:
                    add(new, (a, b + 1), v.copy())
                if a + b <= n - t:
                    add(new, (a + b, 0), _grow(v, theta=1))
                for s in range(b):
                    add(new, (a, b - 1), _grow(v, q=s))
                for s in range(a):
                    add(new, (a - 1, b), _grow(v, q=b + s, qt=1))
            states = new
        for key, v in states.items():
            top_q[(t,) + key] = max(np.nonzero(v)[0])
        vac = states[(0, 0)]
        vacua.append(MultiPoly({(a, b, j): Fraction(t * vac[a, b, j], j)
                                for a, b, j in zip(*np.nonzero(vac))}))
    return vacua, top_q


class TestChordWalk:
    def test_equals_composition_oracle_through_18(self, monkeypatch):
        # the oracle's own cap keeps callers off its slow enumeration; this
        # cross-check lifts it on purpose (about 0.4 s through n = 18)
        monkeypatch.setattr(mo, "ORACLE_MAX_ORDER", 18)
        vacua = mo.walk_vacua(18)
        for n in range(1, 19):
            assert vacua[n - 1] == mo.reduced_moment_compositions(n), f"routes differ at n={n}"
            assert mo.walk_vacua(n) == vacua[:n], f"the walk sized for n={n} differs"

    def test_q_axis_bound_against_untruncated_walk(self):
        vacua, top_q = _object_walk(20)
        # a state after t letters closes within t + a + b letters
        for (t, a, b), top in top_q.items():
            assert top <= mo.q_power_bound(t + a + b), f"state {(a, b)} after {t} letters"
        assert max(top_q.values()) == mo.q_power_bound(20)  # the bound is attained
        for n in range(1, 21):
            assert mo.walk_vacua(n) == vacua[:n], f"int64 walk differs at n={n}"

    def test_q_power_bound_values(self):
        assert [mo.q_power_bound(n) for n in (14, 20, 26, 30)] == [15, 36, 66, 91]

    def test_qt_one_binomial_shift_through_cap(self):
        # also shows that the int64 guard holds at the cap
        mo.reduced_moment(mo.MAX_MOMENT_ORDER)  # one walk fills every order
        for n in range(1, mo.MAX_MOMENT_ORDER + 1):
            mo.qtilde_limit_check(n, 1)

    def test_int64_guard(self, monkeypatch):
        monkeypatch.setattr(mo, "WALK_TOTAL_LIMIT", 10 ** 6)
        with pytest.raises(ValueError, match="chord walk to order 16 outgrows int64"):
            mo.walk_vacua(16)

    def test_one_walk_fills_the_table(self, monkeypatch):
        calls = []
        walk = mo.walk_vacua
        monkeypatch.setattr(mo, "walk_vacua", lambda n: calls.append(n) or walk(n))
        monkeypatch.setattr(mo, "_VACUA", {})
        mo.MomentTable.specialized(9, q=Fraction(1, 2))
        assert calls == [14]  # a low order walks to the oracles' top order

    def test_one_walk_for_an_ascending_sweep(self, monkeypatch):
        calls = []
        walk = mo.walk_vacua
        monkeypatch.setattr(mo, "walk_vacua", lambda n: calls.append(n) or walk(n))
        monkeypatch.setattr(mo, "_VACUA", {})
        for n in range(1, mo.ORACLE_MAX_ORDER + 1):
            mo.reduced_moment(n)
        assert calls == [14]
        mo.reduced_moment(15)  # above the oracles' orders the walk goes to n
        assert calls == [14, 15]


class TestPairedVacuum:
    def test_pinned_values(self):
        assert mo._paired_vacuum(()) == MultiPoly.one()
        assert mo._paired_vacuum((1, 1)) == QT
        assert mo._paired_vacuum((2, 2)) == QT ** 2 * (1 + Q)
        assert mo._paired_vacuum((1, 2)).is_zero()

    def test_each_degree_multiset_paired_once(self, monkeypatch):
        # reduced_moment_gf(1..14) asks for 1025 pairings of 135 multisets
        monkeypatch.setattr(mo, "_B_POWERS", [[]])
        mo.reduced_moment_gf.cache_clear()
        mo._paired_vacuum.cache_clear()
        try:
            for n in range(1, 15):
                mo.reduced_moment_gf(n)
            info = mo._paired_vacuum.cache_info()
            assert (info.misses, info.hits) == (135, 1025 - 135)
        finally:
            mo.reduced_moment_gf.cache_clear()


class TestCompositionOracle:
    def test_cap(self):
        with pytest.raises(ValueError, match="capped at 14"):
            mo.reduced_moment_compositions(mo.ORACLE_MAX_ORDER + 1)


class TestGeneratingFunctionRoute:
    def test_identical_polynomials(self):
        for n in range(1, mo.ORACLE_MAX_ORDER + 1):
            assert mo.reduced_moment_gf(n) == mo.reduced_moment(n), f"routes differ at n={n}"

    def test_m1_is_theta(self):
        assert mo.reduced_moment_gf(1) == THETA

    def test_each_column_built_once(self, monkeypatch):
        built = []
        build = mo._b_power_column
        monkeypatch.setattr(mo, "_b_power_column", lambda p: built.append(p) or build(p))
        monkeypatch.setattr(mo, "_B_POWERS", [[]])
        mo.reduced_moment_gf.cache_clear()
        try:
            for n in range(1, 15):
                assert mo.reduced_moment_gf(n) == mo.reduced_moment(n), f"routes differ at n={n}"
            assert built == list(range(1, 15))
            mo.reduced_moment_gf.cache_clear()
            assert mo.reduced_moment_gf(5) == mo.reduced_moment(5)
            assert built == list(range(1, 15))
        finally:
            mo.reduced_moment_gf.cache_clear()


def test_oracles_do_not_read_the_walk(monkeypatch):
    expected = [mo.reduced_moment(n) for n in range(1, 11)]

    def no_walk(n):
        raise AssertionError("an oracle read the chord walk")

    monkeypatch.setattr(mo, "walk_vacua", no_walk)
    monkeypatch.setattr(mo, "_VACUA", {})
    monkeypatch.setattr(mo, "_B_POWERS", [[]])
    mo.reduced_moment_gf.cache_clear()
    mo._block_vacuum.cache_clear()
    try:
        for n in range(1, 11):
            assert mo.reduced_moment_gf(n) == expected[n - 1]
            assert mo.reduced_moment_compositions(n) == expected[n - 1]
    finally:
        mo.reduced_moment_gf.cache_clear()


class TestFullMoment:
    def test_n2(self):
        r = Fraction(1, 3)
        assert mo.full_moment(2, r) == MultiPoly.one() + r * THETA ** 2

    def test_n1(self):
        assert mo.full_moment(1, Fraction(1, 2)) == Fraction(1, 2) * THETA

    def test_n4(self):
        r = Fraction(1, 4)
        expected = rt_moment(2) + r * (THETA ** 4 + (4 + 2 * QT) * THETA ** 2)
        assert mo.full_moment(4, r) == expected

    def test_r_domain(self):
        with pytest.raises(ValueError):
            mo.full_moment(2, 0)
        with pytest.raises(ValueError):
            mo.full_moment(2, Fraction(3, 2))


class TestBooleanOracle:
    def test_n2(self):
        assert mo.boolean_moment_c1(2) == THETA ** 2

    def test_n4(self):
        assert mo.boolean_moment_c1(4) == THETA ** 4 + 4 * THETA ** 2

    def test_n5(self):
        expected = THETA ** 5 + 5 * THETA ** 3 + 5 * (2 + Q) * THETA
        assert mo.boolean_moment_c1(5) == expected


class TestLimits:
    def test_boolean_limit(self):
        for n in range(1, 11):
            assert mo.qtilde_limit_check(n, 0) == mo.boolean_moment_c1(n)

    def test_classical_limit(self):
        for n in range(1, 11):
            specialized = mo.qtilde_limit_check(n, 1)
            shifted = MultiPoly.zero()
            for i in range(0, n, 2):
                shifted = shifted + math.comb(n, i) * rt_moment(i // 2) * THETA ** (n - i)
            assert specialized == shifted

    def test_n2_both(self):
        assert mo.qtilde_limit_check(2, 0) == THETA ** 2
        assert mo.qtilde_limit_check(2, 1) == THETA ** 2

    def test_bad_which(self):
        with pytest.raises(ValueError):
            mo.qtilde_limit_check(2, 2)


class TestContinuedFraction:
    def test_leading_order(self):
        z = 1e-9
        b = mo.b_continued_fraction(z, 0.4, 0.5, 0.25)
        assert b / z == pytest.approx(1.0, abs=1e-6)

    def test_classical_closed_form(self):
        for z, x0 in ((0.05, 0.3), (0.1, -0.8), (0.02, 1.5)):
            b = mo.b_continued_fraction(z, x0, 0.5, 1.0)
            assert b == pytest.approx(z / (1 - x0 * z), abs=1e-12)

    def test_against_series(self):
        z, x0, q, qt = 0.05, 0.3, 0.5, 0.25
        frac = mo.b_continued_fraction(z, x0, q, qt)
        series = mo.b_series(z, x0, q, qt)
        assert frac == pytest.approx(series, abs=1e-9)

    def test_series_classical_partial_sum(self):
        # at qt = 1 every open chord weighs 1, so [z^p] B = x0^(p-1)
        for z, x0, q in ((0.05, 0.3, 0.5), (0.1, -0.8, 0.9), (0.02, 1.5, 0.0)):
            partial = sum(z ** p * x0 ** (p - 1) for p in range(1, 13))
            assert mo.b_series(z, x0, q, 1.0) == pytest.approx(partial, rel=1e-12, abs=1e-15)

    def test_theta_scaling(self):
        b1 = mo.b_continued_fraction(0.05, 0.3, 0.5, 0.25)
        b2 = mo.b_continued_fraction(0.05, 0.3, 0.5, 0.25, theta=2.5)
        assert b2 == pytest.approx(2.5 * b1, rel=1e-13)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            mo.b_continued_fraction(0.05, 0.3, 0.5, 0.25, depth=5)

    def test_pole_guard(self):
        # level 60 at x0 = 2^60: denom = 1 - sqrt(qt) q^60 x0 z = 1 - 1 = 0
        with pytest.raises(ConvergenceError, match="hit a pole at level 60"):
            mo.b_continued_fraction(1.0, 2.0 ** 60, 0.5, 1.0)

    def test_pole_of_the_cut_table_only(self):
        # level 55 at x0 = 2^55 is the first level of the table cut five
        # levels shorter: its denom is 1 - 1 = 0, where the full table has
        # carried a nonzero g down and has no pole
        deep = _b_fraction_per_level(1.0, 2.0 ** 55, 0.5, 1.0, 60, 1.0)
        assert deep != 0.0 and abs(deep) < 1e-16
        with pytest.raises(ConvergenceError, match="hit a pole at level 55"):
            mo.b_continued_fraction(1.0, 2.0 ** 55, 0.5, 1.0)

    def test_pole_of_the_full_table_is_raised_first(self):
        # a made-up table at z = x0 = 1: the cut table's first level (55) is
        # a pole, and so is the full table's next level (54); one pass per
        # table would meet the full table's pole first
        levels = ((60, 0.0, 0.0), (59, 0.0, 0.0), (58, 0.0, 0.0), (57, 0.0, 0.0),
                  (56, 0.5, 0.0), (55, 1.0, 0.25), (54, 0.5, -0.25), (53, 0.0, 0.0))
        with pytest.raises(ConvergenceError, match="hit a pole at level 54"):
            mo._b_fractions(1.0, 1.0, levels, 1.0)

    @pytest.mark.parametrize("x0", [2.0 ** 60, 2.0 ** 55])
    def test_poles_match_per_level_oracle(self, x0):
        outcome = _outcome(mo.b_continued_fraction, 1.0, x0, 0.5, 1.0)
        assert outcome == _outcome(_b_continued_fraction_per_level, 1.0, x0, 0.5, 1.0)
        assert "hit a pole" in outcome

    def test_rejected_call_leaves_level_cache_alone(self):
        mo.b_continued_fraction(0.05, 0.3, 0.5, 0.25)
        before = mo._b_levels.cache_info()
        for args in ((0.05, 0.3, 1.0, 0.25), (0.05, 0.3, 0.5, 1.5),
                     (0.05, 0.3, 0.5, 0.25, 5), (0.05, 0.3, -0.1, 0.25)):
            with pytest.raises(ValueError):
                mo.b_continued_fraction(*args)
        assert mo._b_levels.cache_info() == before

    def test_levels_are_shared_across_points(self):
        mo.b_continued_fraction(0.05, 0.3, 0.45, 0.2)
        before = mo._b_levels.cache_info()
        for z in (-0.2, 0.0, 0.1):
            for x0 in (-1.0, 1.0):
                mo.b_continued_fraction(z, x0, 0.45, 0.2)
        after = mo._b_levels.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (6, 0)

    @pytest.mark.parametrize("q,qt", [(0.5, 0.25), (0.9, 0.7)])
    def test_matches_per_point_oracle(self, q, qt):
        # the z grid of the benchmark sweep, 2001 points in [-0.25, 0.25]
        zs = [-0.25 + 0.5 * i / 2000 for i in range(2001)]
        for z in zs:
            for x0 in (-1.0, 0.0, 1.0):
                assert (_outcome(mo.b_continued_fraction, z, x0, q, qt)
                        == _outcome(_b_continued_fraction_per_level, z, x0, q, qt))


def _b_fraction_per_level(z, x0, q, qt, depth, theta):
    sq = math.sqrt(qt)
    g = 0.0
    for j in range(depth, -1, -1):
        diag = sq * q ** j * x0
        off = (1.0 - qt * q ** j) * (1.0 - q ** (j + 1)) / (1.0 - q)
        denom = 1.0 - diag * z - off * z * z * g
        if denom == 0.0:
            raise ConvergenceError(f"continued fraction hit a pole at level {j}")
        g = 1.0 / denom
    return theta * z * g


def _b_continued_fraction_per_level(z, x0, q, qt, depth=60, theta=1.0):
    """The continued fraction with every level rebuilt per call, as before
    the level table was cached; the oracle of `b_continued_fraction`."""
    deep = _b_fraction_per_level(z, x0, q, qt, depth, theta)
    shallow = _b_fraction_per_level(z, x0, q, qt, depth - 5, theta)
    if abs(deep - shallow) > 1e-12 * max(1.0, abs(deep)):
        raise ConvergenceError(
            f"continued fraction not settled at depth {depth}: |delta|={abs(deep - shallow):.3e}")
    return deep


def _outcome(f, *args):
    try:
        return f(*args)
    except ConvergenceError as exc:
        return str(exc)


class TestPartitionFunction:
    def _rt_float(self, k, q):
        # float transfer matrix, independent of the quadrature path
        L = max(k, 1)
        vec = np.zeros(L + 1)
        vec[0] = 1.0
        for _ in range(2 * k):
            new = np.zeros(L + 1)
            for l in range(L + 1):
                if vec[l]:
                    if l + 1 <= L:
                        new[l + 1] += vec[l]
                    if l - 1 >= 0:
                        new[l - 1] += vec[l] * (1 - q ** l) / (1 - q)
            vec = new
        return vec[0]

    def test_unit_at_beta_zero(self):
        assert mo.z_n(1, 0.0, 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert mo.z_n(3, 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_laplace_series_at_qt_zero(self):
        for q in (0.0, 0.5):
            for n in (1, 2, 3):
                for beta in (0.5, 1.0):
                    series = sum((n * beta) ** (2 * k) / math.factorial(2 * k)
                                 * self._rt_float(k, q) for k in range(40))
                    assert mo.z_n(n, beta, q, 0.0) == pytest.approx(series, abs=1e-7)

    def test_z1_against_adaptive_quadrature(self):
        from scipy.integrate import quad as adaptive_quad
        q, qt, beta = 0.5, 0.25, 1.0
        R = qh.support_radius(q)
        direct, _ = adaptive_quad(
            lambda E: math.exp(-beta * E) * float(mo.coherent_state_factor(E, q, qt))
            * qh.nu_q_density(E, q),
            -R, R, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert mo.z_n(1, beta, q, qt) == pytest.approx(direct, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            mo.z_n(0, 1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            mo.z_n(1, 1.0, 0.5, 1.0)

    @pytest.mark.parametrize("q,z", [(0.0, 0.5), (0.5, 0.25), (0.9, 0.9), (0.99, 0.99)])
    def test_coherent_state_factor_matches_its_product(self, q, z):
        xs = np.linspace(-qh.support_radius(q), qh.support_radius(q), 41)
        K = 1 if q == 0.0 else math.ceil(math.log(1e-18) / math.log(q))
        want = [1.0 / math.prod(1.0 - (1.0 - q) * q ** k * z * x + (1.0 - q) * q ** (2 * k) * z * z
                                for k in range(K + 1)) for x in xs]
        assert mo.coherent_state_factor(xs, q, z) == pytest.approx(want, rel=1e-12)

    def test_coherent_state_factor_rejects_x_outside_the_support(self):
        with pytest.raises(ValueError, match="x=-3.0 outside the support"):
            mo.coherent_state_factor(np.array([0.0, -3.0, 3.0]), 0.0, 0.5)
        with pytest.raises(ValueError, match="x=nan outside the support"):
            mo.coherent_state_factor(math.nan, 0.5, 0.25)

    def test_coherent_state_factor_rejects_z_out_of_range(self):
        # the product needs 0 <= sqrt(1-q) z < 1
        for q, z in ((0.5, 1.5), (0.0, 1.0), (0.5, -0.1), (0.5, math.nan)):
            with pytest.raises(ValueError, match=r"need 0 <= sqrt\(1-q\) z < 1"):
                mo.coherent_state_factor(0.0, q, z)


class TestMomentTable:
    def test_symbolic_round_trip(self):
        table = mo.MomentTable.specialized(6)
        again = mo.MomentTable.from_json_obj(table.to_json_obj())
        assert all(again.moment(n) == table.moment(n) for n in range(1, 7))

    def test_specialized_numeric_rows(self):
        table = mo.MomentTable.specialized(4, q=Fraction(1, 2), qt=Fraction(1, 4), theta=2)
        rows = table.numeric_rows()
        assert rows[0] == (1, 2.0)
        assert rows[1] == (2, 4.0)
        m4 = mo.reduced_moment(4).evaluate_exact(Fraction(1, 2), Fraction(1, 4), 2)
        assert rows[3] == (4, float(m4))

    def test_numeric_rows_require_specialization(self):
        with pytest.raises(ValueError):
            mo.MomentTable.specialized(3).numeric_rows()

    def test_invariant_first_two(self):
        table = mo.MomentTable.specialized(4)
        assert table.moment(1) == THETA
        assert table.moment(2) == THETA ** 2
