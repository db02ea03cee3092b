import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dssyklab import moments as mo
from dssyklab import qhermite as qh
from dssyklab.qcore import MultiPoly, involution_number, unpack, word_width
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
            assert m.terms[(0, 0, n)] == 1
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
    this checks the packed walk's q blocks.  Returns m_1 .. m_n and, per
    letter t and state (a, b), the largest q power held and the value at
    q = qt = theta = 1.
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
    states, vacua, top_q, sums = {(0, 0): start}, [], {}, {}
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
            sums[(t,) + key] = int(v.sum())
        vac = states[(0, 0)]
        vacua.append(MultiPoly({(a, b, j): Fraction(t * vac[a, b, j], j)
                                for a, b, j in zip(*np.nonzero(vac))}))
    return vacua, top_q, sums


def _largest_state_sum(n):
    """The largest value at q = qt = theta = 1 of any state of the walk to
    n, from a walk at that point.  Oracle for the digit bound T(n - 1) of
    `walk_vacua`."""
    sums, largest = {(0, 0): 1}, 1
    for t in range(2, n + 1):
        new = {}
        for (a, b), total in sums.items():
            for key, _, k, _ in mo._letters(a, b, n - t):
                new[key] = new.get(key, 0) + k * total
        sums = new
        largest = max(largest, *sums.values())
    return largest


TERMS_SHA256 = {
    1: "c46a62393b62a6a2da64cb6eb4527fb6da48a8c704464a034da812c8592be163",
    2: "c39e9d66b7e481d85801793211875e1dcb207deb521e5acf1727395e2a4333e3",
    3: "d1b82bcd4bef14c4fd6209f68bdd47d4272bd34d5d505ef9e2b679c25438c7ce",
    4: "92dc8d88d888613ac89f1e80e0ea2f424f3656d930d8dc01bd6e169acb848a8b",
    5: "a3616086a2f7697d867181fb76bdf61bbf2d408f0264c7e8a03ddd59fc731578",
    6: "850602bcd49c05f714b521ab0ad843827b010197d98db4dddf432a9f88a65720",
    7: "c3e446999b73b29642e29111443fc4440eac3917e3a3c6d114c8e907fb2f7d5f",
    8: "884a926da9385fbed857a06dd5b6ff1f56a18cf5ea5ccd40ce6fd44597b3e97b",
    9: "4ef1372c3a7da8c244316fbedde1ce85e00dc0b2c3333468c203537bb96be6fa",
    10: "4254eddd107909e389e53ef8a97ab0061a6d74d553f09b7b9c0d2bf4ae3a995c",
    11: "10edc3e38ac122c4c0c4e9031f8419a044ac963dfce92f3470ebc2e147b73b2e",
    12: "693fd1678afcca5fc028d92fd223086bebf54b06935530b7ad118f0a65cacc8a",
    13: "c1bd7353bf6d80eb19ae6416a5e940e343e538312fd7d8051b89a7215447f515",
    14: "3113e247b952ba947f4ba5c1a845ee55b1c1734322719e268524f88fdd4215fd",
    15: "5400c3ae952f232cc5de5fc162c04c722b057ff18e32041e8f90e736fc401747",
    16: "3d1dd193f3087328cac58f50da8410b61c550d15cb8626954e584eca91b665a6",
    17: "7c485dfd6b52b6d9f774e1e51571ed4d49dc56fa101317e2881caca6d2a15aa8",
    18: "b04ba2177ae0a7fdf1364f982c85fb4b07188eafa6727025fb06bd79973055f0",
    19: "84aa83b1b65ef3aa8804db8e6a0069028eac6866bf862a8e747755101badacf9",
    20: "e165e92a0c2ade16aaa686f161654b90837e0144938a5d8c73650cf86659c0eb",
    21: "e3746d65a761297fd315b03e16ee67df741841fdfdea911c301e8f87f1207e30",
    22: "f1a11a390d708f410ba1f825b985163109df5b14279cf9318deb291aa76b1df4",
    23: "77ba325a018d0594b71273c03b61ee9f57c1f126bf9c49c824af70690b9259b5",
    24: "c83bf4f75d3db9ed5d92485487e44fb48a4df882b155e852fa11b95fc5bf378d",
    25: "939a1d4427e2865df56076bb562a078df05d58f5c4760ebf7dabdfb7e05b1c67",
    26: "d6e0775c05b1214599be10a4a0c71ba24c04189f1f53fbc1b12870dfc26753f7",
    27: "0867cee23c35da6e53424ca07de6c338ba3fa9f270208d8dea95b382d520f0a7",
    28: "d7643f4c98af1669b5a899b4d02c12c9c9ee9c1294c1f45d855af2ca1cdf4be8",
    29: "92d5531c7cec36368c97b440b3994a8ac8df3ee774361be8cb60ce65185e78c9",
    30: "9364f34ca20d4b7213c1be50f3d500d5182ed7cd84ecaeb72e46efe768387d7c",
}


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
        vacua, top_q, _ = _object_walk(20)
        # a state after t letters closes within t + a + b letters
        for (t, a, b), top in top_q.items():
            assert top <= mo.q_power_bound(t + a + b), f"state {(a, b)} after {t} letters"
        assert max(top_q.values()) == mo.q_power_bound(20)  # the bound is attained
        for n in range(1, 21):
            assert mo.walk_vacua(n) == vacua[:n], f"packed walk differs at n={n}"

    def test_q_power_bound_values(self):
        assert [mo.q_power_bound(n) for n in (14, 20, 26, 30)] == [15, 36, 66, 91]

    def test_qt_one_binomial_shift_through_cap(self):
        mo.reduced_moment(mo.MAX_MOMENT_ORDER)  # one walk fills every order
        for n in range(1, mo.MAX_MOMENT_ORDER + 1):
            mo.qtilde_limit_check(n, 1)

    def test_terms_and_their_order_pinned_through_cap(self):
        # SHA-256 of each m_n's term list, recorded from the int64 walk this
        # walk replaced: the same terms, inserted in the same order
        mo.reduced_moment(mo.MAX_MOMENT_ORDER)
        for n in range(1, mo.MAX_MOMENT_ORDER + 1):
            terms = repr(list(mo.reduced_moment(n)._terms.items())).encode()
            assert hashlib.sha256(terms).hexdigest() == TERMS_SHA256[n], f"m_{n} differs"

    @pytest.mark.parametrize("n", [2, 9, 14, 20])
    def test_digit_width_covers_the_largest_state_sum(self, n, monkeypatch):
        bounds = []

        def recorded_width(largest):
            bounds.append(largest)
            return word_width(largest)

        monkeypatch.setattr(mo, "word_width", recorded_width)
        vacua, _, sums = _object_walk(n)
        assert mo.walk_vacua(n) == vacua
        largest = max(sums.values())
        assert largest == involution_number(n - 1)
        assert bounds == [largest] and largest < 2 ** word_width(largest)

    def test_largest_state_sum_is_the_involution_number_through_cap(self):
        for n in range(1, mo.MAX_MOMENT_ORDER + 1):
            assert _largest_state_sum(n) == involution_number(n - 1), f"n={n}"

    def test_walk_runs_without_numpy(self, monkeypatch):
        expected = mo.walk_vacua(14)

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"the walk read numpy.{name}")

        monkeypatch.setattr(mo, "np", NoNumpy())
        assert mo.walk_vacua(14) == expected

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

    def test_packed_values_drop_the_qt_power(self):
        assert mo._packed_pairing(()) == 1
        assert mo._packed_pairing((1, 1)) == 1
        assert mo._packed_pairing((2, 2)) == 1 + (1 << mo.PACKED_WIDTH)
        assert mo._packed_pairing((1, 2)) == 0
        for degrees in ((1, 1, 2), (2, 2, 2), (1, 3, 4), (3, 3)):
            paired = mo._paired_vacuum(degrees)
            half = sum(degrees) // 2
            assert paired == unpack(mo._packed_pairing(degrees), mo.PACKED_WIDTH) * QT ** half

    def test_each_degree_multiset_paired_once(self, cold_exact_lab):
        # reduced_moment_gf(1..14) asks for 1025 packed pairings of 135
        # multisets, and pairs and packs each multiset once, without the
        # composition oracle's MultiPoly pairing
        for n in range(1, 15):
            mo.reduced_moment_gf(n)
        packed = mo._packed_pairing.cache_info()
        assert (packed.misses, packed.hits) == (135, 1025 - 135)
        paired = mo._paired_vacuum.cache_info()
        assert (paired.misses, paired.hits) == (0, 0)


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

    def test_each_column_built_once(self, cold_exact_lab, monkeypatch):
        built = []
        build = mo._b_power_column
        monkeypatch.setattr(mo, "_b_power_column", lambda p: built.append(p) or build(p))
        for n in range(1, 15):
            assert mo.reduced_moment_gf(n) == mo.reduced_moment(n), f"routes differ at n={n}"
        assert built == list(range(1, 15))
        assert mo.reduced_moment_gf(5) == mo.reduced_moment(5)
        assert built == list(range(1, 15))

    def test_cold_oracle_equals_the_walk(self, cold_exact_lab):
        for n in range(1, mo.ORACLE_MAX_ORDER + 1):
            assert mo.reduced_moment_gf(n) == mo.reduced_moment(n), f"routes differ at n={n}"

    def test_column_weights_within_the_bound(self, cold_exact_lab):
        # a weight's digits sum to its value at q = 1, at most 2^p T(p)
        mo.reduced_moment_gf(mo.ORACLE_MAX_ORDER)
        for p, column in enumerate(mo._B_POWERS[1:], start=1):
            for m, bucket in enumerate(column[1:], start=1):
                for key, weight in bucket.items():
                    ones = sum(unpack(weight, mo.PACKED_WIDTH).terms.values())
                    assert ones <= 2 ** p * involution_number(p), f"[z^{p}] B^{m} at {key}"

    def test_largest_weight_at_q_1(self, cold_exact_lab):
        # 2^18 or so: the 64-bit digits have ample room at the oracle's cap
        mo.reduced_moment_gf(mo.ORACLE_MAX_ORDER)
        largest = max(sum(unpack(weight, mo.PACKED_WIDTH).terms.values())
                      for column in mo._B_POWERS[1:] for bucket in column[1:]
                      for weight in bucket.values())
        assert largest == 270270


def test_oracle_sums_within_the_bound():
    # the packed sums of the generating-function and Boolean oracles are
    # (m/n) [qt^b theta^m] m_n at q = 1, each at most T(n)
    for n in range(1, mo.ORACLE_MAX_ORDER + 1):
        at_q_1 = {}
        for (a, b, m), c in mo.reduced_moment(n).items():
            at_q_1[b, m] = at_q_1.get((b, m), 0) + c
        for (b, m), value in at_q_1.items():
            assert Fraction(m, n) * value <= involution_number(n), f"qt^{b} theta^{m} of m_{n}"
    assert mo.PACKED_WIDTH == word_width(2 ** 14 * involution_number(14)) == 64


def test_oracles_do_not_read_the_walk(cold_exact_lab, monkeypatch):
    expected = [mo.reduced_moment(n) for n in range(1, 11)]

    def no_walk(n):
        raise AssertionError("an oracle read the chord walk")

    monkeypatch.setattr(mo, "walk_vacua", no_walk)
    monkeypatch.setattr(mo, "_VACUA", {})
    for n in range(1, 11):
        assert mo.reduced_moment_gf(n) == expected[n - 1]
        assert mo.reduced_moment_compositions(n) == expected[n - 1]


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

    def test_cold_oracle_equals_the_walk_at_qt_0(self, cold_exact_lab, monkeypatch):
        expected = [mo.reduced_moment(n).substitute(qt=0) for n in range(1, 15)]

        def no_walk(n):
            raise AssertionError("the Boolean oracle read the chord walk")

        monkeypatch.setattr(mo, "walk_vacua", no_walk)
        monkeypatch.setattr(mo, "_VACUA", {})
        for n in range(1, mo.ORACLE_MAX_ORDER + 1):
            assert mo.boolean_moment_c1(n) == expected[n - 1], f"n={n}"


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
        # theta enters B as an overall factor, which the caller multiplies in
        b1 = mo.b_continued_fraction(0.05, 0.3, 0.5, 0.25)
        b2 = _b_fraction_per_level(0.05, 0.3, 0.5, 0.25, 60, 2.5)
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
            mo._b_fractions(1.0, 1.0, levels)

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

    @pytest.mark.parametrize("z,x0", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 1.0),
                                      (0.1, math.inf), (0.1, math.nan)])
    def test_non_finite_arguments_are_rejected(self, z, x0):
        with pytest.raises(ValueError, match="need finite z and x0"):
            mo.b_continued_fraction(z, x0, 0.5, 0.25)

    @pytest.mark.parametrize("z", [1e200, -1e200, 1e155])
    def test_overflow_is_nonconvergence(self, z):
        # the weights overflow and the steps make NaN, which abs(delta) > tol
        # let through as a value
        with pytest.raises(ConvergenceError, match="not a finite float"):
            mo.b_continued_fraction(z, 1.0, 0.5, 0.25)

    @pytest.mark.parametrize("q,qt", [(0.0, 0.0), (0.0, 1.0), (0.5, 0.25), (0.9, 0.7),
                                      (0.999, 1.0), (0.3, 0.999), (1 / 3, 2 / 3)])
    def test_level_bounds(self, q, qt):
        # the bracket's bounds: 0 <= sqrt(qt) q^j <= sqrt(qt), 0 <= w_j <= 1/(1 - q)
        for j, sq_qj, off in mo._b_levels(q, qt, 200):
            assert 0.0 <= sq_qj <= math.sqrt(qt)
            assert 0.0 <= off <= 1.0 / (1.0 - q)

    @pytest.mark.parametrize("depth", [60, 90])
    def test_sweep_grid_takes_the_bracket(self, depth, monkeypatch):
        # the benchmark's cf_sweep grid and its depth-90 check
        def full_pass(*args):
            raise AssertionError("a point of the sweep left the bracket")
        monkeypatch.setattr(mo, "_b_fractions", full_pass)
        zs = [-0.25 + 0.5 * i / 2000 for i in range(2001)]
        values = [mo.b_continued_fraction(z, x0, 0.5, 0.25, depth)
                  for z in zs for x0 in (-1.0, 0.0, 1.0)]
        assert len(values) == 6003 and all(map(math.isfinite, values))

    @pytest.mark.parametrize("q,qt,x0", [(0.5, 0.25, 1.0), (0.9, 0.7, -3.0), (0.0, 1.0, 0.0),
                                         (0.99, 0.5, 2.0)])
    def test_grid_straddling_the_parabola(self, q, qt, x0):
        # 4C = a^2 at (1 - s |x0| z)^2 = 4 z^2 / (1 - q), s = sqrt(qt)
        edge = 1.0 / (math.sqrt(qt) * abs(x0) + 2.0 / math.sqrt(1.0 - q))
        certified = 0
        for t in np.concatenate([np.linspace(-1e-3, 1e-3, 41), [-1e-9, -1e-12, 0.0, 1e-12, 1e-9]]):
            for z in (edge * (1.0 + t), -edge * (1.0 + t)):
                args = (float(z), x0 if z > 0 else -x0, q, qt)
                outcome = _outcome(mo.b_continued_fraction, *args)
                assert outcome == _full_pass_outcome(*args)
                assert outcome == _outcome(_b_continued_fraction_per_level, *args)
                certified += _certified(*args)
        assert 0 < certified < 2 * 46

    @pytest.mark.parametrize("z,x0,q", [(0.25729431304954187, 1.058172575603388, 0.5),
                                        (0.26056986636801166, -1.8377423066551606, 0.0)])
    def test_bracket_refuses_a_top_it_cannot_keep(self, z, x0, q):
        # 4C <= a^2 holds, a few ulps from equality, but the rounded step maps
        # top above itself; at qt = 1 level 0 has weight 0, so a bracket that
        # skipped the check would close there
        a, c = 1.0 - abs(x0) * abs(z), 1.0 / (1.0 - q) * abs(z) * abs(z)
        assert a * a - 4.0 * c >= 0.0
        assert mo._b_bracket(z, x0, q, 1.0, mo._b_levels(q, 1.0, 60)) is None
        assert mo.b_continued_fraction(z, x0, q, 1.0) == _full_pass_outcome(z, x0, q, 1.0)


ZS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.0 ** -1070]) | st.floats(-2.0, 2.0)
X0S = (st.sampled_from([2.0 ** 55, -2.0 ** 55, 2.0 ** 60, -2.0 ** 60, 0.0, -0.0])
       | st.floats(-3.0, 3.0) | st.floats(-1e300, 1e300))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(z=ZS | st.floats(-0.3, 0.3), x0=X0S, q=st.floats(0.0, 0.999), qt=st.floats(0.0, 1.0),
       depth=st.sampled_from([20, 21, 25, 60, 90, 200]))
def test_bracket_matches_the_full_pass(z, x0, q, qt, depth):
    outcome = _outcome(mo.b_continued_fraction, z, x0, q, qt, depth)
    assert _bits(outcome) == _bits(_full_pass_outcome(z, x0, q, qt, depth))
    oracle = _outcome(_b_continued_fraction_per_level, z, x0, q, qt, depth)
    if isinstance(oracle, float) and not math.isfinite(oracle):
        assert outcome == f"continued fraction is not a finite float at z={z}, x0={x0}"
    else:
        assert _bits(outcome) == _bits(oracle)


def _bits(outcome):
    """A float by its bits (the sign of zero included), an error by its text."""
    return outcome.hex() if isinstance(outcome, float) else outcome


def _certified(z, x0, q, qt, depth=60):
    return mo._b_bracket(z, x0, q, qt, mo._b_levels(q, qt, depth)) is not None


def _full_pass_outcome(*args):
    """`b_continued_fraction` with the bracket turned off."""
    bracket = mo._b_bracket
    mo._b_bracket = lambda *_: None
    try:
        return _outcome(mo.b_continued_fraction, *args)
    finally:
        mo._b_bracket = bracket


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
