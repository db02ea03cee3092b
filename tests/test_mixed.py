import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dssyklab import chordcombi as cc
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
        # (n_x - 1)!! matchings, and none for odd n_x, on every word to length 10
        for n in range(1, 11):
            for letters in product("xd", repeat=n):
                n_x = letters.count("x")
                expected = 0 if n_x % 2 else cc.double_factorial(n_x - 1)
                assert mx.mixed_moment(mx.Word(letters)).partition_count == expected


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
        calls, words = [], []
        matching_counts, arc_labels = cc.matching_counts, mx._arc_labels
        monkeypatch.setattr(cc, "matching_counts",
                            lambda labels: calls.append(labels) or matching_counts(labels))
        monkeypatch.setattr(mx, "_arc_labels",
                            lambda letters: words.append(letters) or arc_labels(letters))
        mx.word_sum_moment(10)
        assert len(calls) == len(words) == 108
        assert len({min(w[s:] + w[:s] for s in range(10)) for w in words}) == 108

    def test_independent_of_the_word_walk(self, monkeypatch):
        expected = mx.word_sum_moment(10)

        def broken(*args):
            raise AssertionError("the word sum reached the chord walk")

        monkeypatch.setattr(mx, "word_vacuum", broken)
        monkeypatch.setattr(mo, "word_vacuum", broken)
        monkeypatch.setattr(mo, "_letters", broken)
        assert mx.word_sum_moment(10) == expected


def oracle_moment(letters):
    """The mixed moment counted by `chordcombi.matching_counts` on the arc labels."""
    arcs = mx._arc_labels(letters)
    d_count = len(letters) - len(arcs)
    return MultiPoly({(cr, bc, d_count): c for (cr, bc), c in cc.matching_counts(arcs).items()})


class TestWordWalk:
    def test_equals_the_matching_oracle_on_every_short_word(self):
        for n in range(1, 13):
            for letters in product("xd", repeat=n):
                assert mo.word_vacuum(letters) == oracle_moment(letters), "".join(letters)

    def test_equals_the_matching_oracle_on_words_with_14_x(self):
        rng = random.Random(31)
        for _ in range(300):
            letters = ["x"] * 14 + ["d"] * rng.randint(0, 14)
            rng.shuffle(letters)
            assert mo.word_vacuum(tuple(letters)) == oracle_moment(tuple(letters)), letters

    def test_at_the_cap(self):
        # 15 chords: at most C(15, 2) = 105 crossings and 15 chords passing a wall
        for text in ("x" * 30, "xxxd" * 10, "xd" * 30):
            result = mx.mixed_moment(mx.Word.parse(text))
            assert result.partition_count == cc.double_factorial(29)
            assert result.value.substitute(q=1, qt=1, theta=1) == cc.double_factorial(29)
            assert result.value.degree("q") <= 105 and result.value.degree("qt") <= 15
        assert mx.mixed_moment(mx.Word.parse("x" * 30)).value.degree("q") == 105
        with pytest.raises(ValueError, match="capped at 30 x letters"):
            mx.mixed_moment(mx.Word.parse("x" * 32))

    def test_a_run_of_d_letters_is_one_step(self, monkeypatch):
        calls = []
        letters = mo._letters
        monkeypatch.setattr(mo, "_letters", lambda *state: calls.append(state) or letters(*state))

        def steps(text):
            calls.clear()
            value = mo.word_vacuum(tuple(text))
            return len(calls), value

        one, short = steps("x" * 7 + "d" + "x" * 7)
        many, long = steps("x" * 7 + "d" * 1000 + "x" * 7)
        assert one == many
        assert long == short * THETA ** 999
        # a run that wraps around the end of the word is one run
        assert steps("d" * 500 + "x" * 14 + "d" * 500)[0] == steps("d" + "x" * 14)[0]


class TestFreeSide:
    def test_noncrossing_counts_are_catalan(self):
        catalan = [1, 1, 2, 5, 14, 42]
        for n in range(6):
            assert sum(1 for _ in mx.noncrossing_partitions(tuple(range(1, n + 1)))) == catalan[n]

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
