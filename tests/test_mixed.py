import math
from fractions import Fraction

import numpy as np
import pytest

from dssyklab import freeconv as fc
from dssyklab import mixed as mx
from dssyklab import moments as mo
from dssyklab.qcore import MultiPoly
from dssyklab.qhermite import rt_moment

THETA = MultiPoly.theta()
QT = MultiPoly.qt()
Q = MultiPoly.q()


def phi(text):
    return mx.mixed_moment(mx.Word.parse(text)).value


class TestWord:
    def test_parse_and_str(self):
        w = mx.Word.parse("xDxd")
        assert str(w) == "xdxd"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mx.Word(())

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            mx.Word.parse("xyz")


class TestWorkedExamples:
    def test_x4(self):
        assert phi("xxxx") == 2 + Q

    def test_x6(self):
        assert phi("xxxxxx") == 5 + 6 * Q + 3 * Q ** 2 + Q ** 3

    def test_xdxd(self):
        assert phi("xdxd") == QT * THETA ** 2

    def test_xxdd(self):
        assert phi("xxdd") == THETA ** 2

    def test_d4(self):
        assert phi("dddd") == THETA ** 4

    def test_odd_x_count_vanishes(self):
        assert phi("xdd").is_zero()
        assert mx.mixed_moment(mx.Word.parse("xdd")).partition_count == 0

    def test_matching_count(self):
        assert mx.mixed_moment(mx.Word.parse("xxxx")).partition_count == 3

    def test_word_sum_4(self):
        expected = (2 + Q) + (4 + 2 * QT) * THETA ** 2 + THETA ** 4
        assert mx.word_sum_moment(4) == expected

    def test_word_sum_2(self):
        assert mx.word_sum_moment(2) == MultiPoly.one() + THETA ** 2

    def test_word_sum_1(self):
        assert mx.word_sum_moment(1) == THETA


class TestArcLabels:
    def test_wrap_around_joins_first_and_last_runs(self):
        assert mx._arc_labels(tuple("xxdxdxx")) == (0, 0, 1, 0, 0)

    def test_adjacent_walls_leave_an_empty_arc(self):
        assert mx._arc_labels(tuple("xddxdx")) == (0, 2, 0)

    def test_no_walls_one_arc(self):
        assert mx._arc_labels(tuple("xxxx")) == (0, 0, 0, 0)

    def test_wrap_around_word(self):
        # the outer x's share an arc across the cut, so only the inner pairings pay qt
        assert phi("xdxxdx") == THETA ** 2 * (1 + QT ** 2 + Q * QT ** 2)
        assert phi("xdxxdx") == phi("xxdxxd")


class TestTraceProperty:
    def test_cyclic_invariance(self):
        from itertools import product
        for n in range(2, 9):
            for letters in product("xd", repeat=n):
                word = mx.Word(letters)
                base = mx.mixed_moment(word).value
                for shift in range(1, n):
                    rotated = mx.Word(letters[shift:] + letters[:shift])
                    assert mx.mixed_moment(rotated).value == base, \
                        f"trace property broken for {word} shift {shift}"


class TestIndependenceLimits:
    def test_classical_factorization_at_qt_one(self):
        from itertools import product
        for n in range(1, 9):
            for letters in product("xd", repeat=n):
                value = mx.mixed_moment(mx.Word(letters)).value.substitute(qt=1)
                n_x = letters.count("x")
                n_d = n - n_x
                if n_x % 2:
                    assert value.is_zero()
                else:
                    assert value == rt_moment(n_x // 2) * THETA ** n_d

    def test_boolean_factorization_at_qt_zero(self):
        # with walls impenetrable, the moment factorizes over cyclic arcs
        from itertools import product
        for n in range(1, 8):
            for letters in product("xd", repeat=n):
                word = mx.Word(letters)
                value = mx.mixed_moment(word).value.substitute(qt=0)
                sizes = {}
                for arc in mx._arc_labels(letters):
                    sizes[arc] = sizes.get(arc, 0) + 1
                n_d = letters.count("d")
                if any(s % 2 for s in sizes.values()):
                    assert value.is_zero()
                else:
                    expected = MultiPoly.monomial(theta_pow=n_d)
                    for s in sizes.values():
                        expected = expected * rt_moment(s // 2)
                    assert value == expected


class TestResultInvariants:
    def test_theta_exponent_counts_d_letters(self):
        from itertools import product
        for n in range(1, 7):
            for letters in product("xd", repeat=n):
                value = mx.mixed_moment(mx.Word(letters)).value
                n_d = letters.count("d")
                for (a, b, c), _ in value.items():
                    assert c == n_d
                    assert a >= 0 and b >= 0

    def test_partition_count_is_double_factorial(self):
        from dssyklab.chordcombi import double_factorial
        for text in ("xx", "xxxx", "xdxdxx", "xxxxxx"):
            res = mx.mixed_moment(mx.Word.parse(text))
            n_x = text.count("x")
            assert res.partition_count == double_factorial(n_x - 1)


class TestWordSumOracle:
    def test_reconstructs_reduced_moments(self):
        for n in range(1, mx.WORD_SUM_CAP + 1):
            syk = rt_moment(n // 2) if n % 2 == 0 else MultiPoly.zero()
            assert mx.word_sum_moment(n) - syk == mo.reduced_moment(n)

    def test_cap(self):
        with pytest.raises(ValueError):
            mx.word_sum_moment(11)

    def test_rotation_classes_equal_the_sum_over_every_word(self):
        from itertools import product
        for n in range(1, 9):
            total = MultiPoly.zero()
            for letters in product("xd", repeat=n):
                total = total + mx.mixed_moment(mx.Word(letters)).value
            assert mx.word_sum_moment(n) == total, f"n={n}"

    def test_one_mixed_moment_per_rotation_class(self, monkeypatch):
        # 108 binary necklaces of length 10, where there are 2^10 words
        calls = []
        mixed_moment = mx.mixed_moment
        monkeypatch.setattr(mx, "mixed_moment", lambda w: calls.append(w) or mixed_moment(w))
        mx.word_sum_moment(10)
        assert len(calls) == 108
        assert len({min(w.letters[s:] + w.letters[:s] for s in range(10)) for w in calls}) == 108


class TestFreeSide:
    def test_noncrossing_counts_are_catalan(self):
        catalan = [1, 1, 2, 5, 14, 42]
        for n in range(6):
            assert mx.noncrossing_count(n) == catalan[n]

    def test_crossing_partition_excluded(self):
        parts = [sorted(tuple(b) for b in p)
                 for p in mx.noncrossing_partitions((1, 2, 3, 4))]
        assert [(1, 3), (2, 4)] not in parts
        assert len(parts) == 14

    def test_atom_cumulants(self):
        # at r = 1 the atom part is delta_theta, whose only cumulant is theta,
        # so the sum is the semicircle shifted by theta
        catalan = [1, 1, 2, 5]
        for n in range(1, 7):
            shifted = sum((math.comb(n, 2 * k) * catalan[k] * THETA ** (n - 2 * k)
                           for k in range(n // 2 + 1)), MultiPoly.zero())
            assert mx.free_convolution_moment(n, 1) == shifted

    def test_moments_reassemble(self):
        # the summed cumulants reassemble into the moments of the density
        # that freeconv reconstructs by subordination
        for theta in (1, 3):
            res = fc.semicircle_plus_atomic(0.25, theta)
            grid, density = res.measure.grid, res.measure.density
            for n in range(1, 7):
                exact = mx.free_convolution_moment(n, Fraction(1, 4)).substitute(theta=theta)
                numeric = float(np.trapezoid(density * grid ** n, grid))
                assert numeric == pytest.approx(float(exact.constant_value()), rel=1e-3), (theta, n)

    def test_not_the_q0_limit(self):
        # freeconv agrees with the q = 0 model only through n = 5
        r, theta = Fraction(1, 4), 3
        free = mx.free_convolution_moment(6, r).substitute(theta=theta)
        model = mo.full_moment(6, r).substitute(q=0, qt=r, theta=theta)
        assert free == Fraction(793, 2)
        assert model == Fraction(25295, 64)
        for n in range(1, 6):
            assert mx.free_convolution_moment(n, r).substitute(theta=theta) == \
                mo.full_moment(n, r).substitute(q=0, qt=r, theta=theta)

    def test_cap(self):
        with pytest.raises(ValueError):
            mx.free_convolution_moment(13, Fraction(1, 4))
