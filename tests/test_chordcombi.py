import random
from collections import Counter

import pytest

from dssyklab import chordcombi as cc
from dssyklab.mixed import _arc_labels
from dssyklab.qcore import MultiPoly, involution_number
from dssyklab.qhermite import monomial_to_hermite, rt_moment


def poly_q(*coeffs):
    return MultiPoly({(i, 0, 0): c for i, c in enumerate(coeffs) if c})


class TestPairPartitions:
    def test_two_points(self):
        stats = cc.enumerate_pair_partitions(2)
        assert len(stats) == 1 and stats[0].cr == 0

    def test_four_points_crossings(self):
        crs = sorted(s.cr for s in cc.enumerate_pair_partitions(4))
        assert crs == [0, 0, 1]

    def test_six_points_polynomial(self):
        stats = cc.enumerate_pair_partitions(6)
        assert len(stats) == 15
        assert cc.pair_partition_polynomial(6) == poly_q(5, 6, 3, 1)

    def test_carried_crossings_match_recount(self):
        for n in range(0, 11, 2):
            for stats in cc.enumerate_pair_partitions(n):
                assert stats.cr == cc.crossing_number(stats.partition.pairs())
                assert stats.partition == cc.SetPartition.from_blocks(stats.partition.blocks)

    def test_odd_gives_empty(self):
        assert cc.enumerate_pair_partitions(5) == []

    def test_counts_are_double_factorials(self):
        for k in range(1, 6):
            assert len(cc.enumerate_pair_partitions(2 * k)) == cc.double_factorial(2 * k - 1)

    def test_cap(self):
        with pytest.raises(ValueError):
            cc.enumerate_pair_partitions(18)


def recounted_matchings(labels):
    """(crossings, cross-label chords) of each enumerated matching, recounted."""
    expected = Counter()
    for stats in cc.enumerate_pair_partitions(len(labels)):
        pairs = stats.partition.pairs()
        bc = sum(labels[a - 1] != labels[b - 1] for a, b in pairs)
        expected[cc.crossing_number(pairs), bc] += 1
    return expected


class TestMatchingCounts:
    def test_matches_enumeration_and_recount(self):
        rng = random.Random(11)
        cases = [[rng.randrange(3) for _ in range(n)] for n in range(0, 11) for _ in range(4)]
        # cyclic arcs of words that start and end with x: the wrapped arc labels both ends
        for n_x in range(2, 13):
            for _ in range(2 if n_x < 11 else 1):
                inner = ["x"] * (n_x - 2) + ["d"] * rng.randint(1, 4)
                rng.shuffle(inner)
                labels = _arc_labels(tuple(["x"] + inner + ["x"]))
                assert len(labels) == n_x and labels[0] == labels[-1]
                cases.append(labels)
        for labels in cases:
            assert cc.matching_counts(labels) == recounted_matchings(labels), labels

    def test_arc_rich_labels_match_enumeration_to_the_cap(self):
        # one arc per x, and two arcs that alternate: the most label tuples
        # per open-chord count, to the mixed-word cap.  The enumeration's
        # carried crossing counts are checked against a recount above.
        for n in range(0, cc.ORACLE_POINT_CAP + 1, 2):
            matchings = [(stats.cr, stats.partition.pairs())
                         for stats in cc.enumerate_pair_partitions(n)]
            for labels in (list(range(n)), [i % 2 for i in range(n)]):
                expected = Counter((cr, sum(labels[a - 1] != labels[b - 1] for a, b in pairs))
                                   for cr, pairs in matchings)
                assert cc.matching_counts(labels) == expected, labels

    def test_cap_uniform_and_distinct_labels(self):
        # crossings do not see labels: both give the 16-point crossing
        # polynomial, the Touchard-Riordan moment of the Hermite walk
        crossings = cc.transfer_vacuum_moment(16)
        assert crossings == rt_moment(8)
        for labels, bc in (([0] * 16, 0), (list(range(16)), 8)):
            counts = cc.matching_counts(labels)
            assert {b for _, b in counts} == {bc}
            assert MultiPoly({(cr, 0, 0): c for (cr, _), c in counts.items()}) == crossings
            assert sum(counts.values()) == cc.double_factorial(15)

    def test_uniform_labels_give_no_cross_label_chords(self):
        counts = cc.matching_counts("aaaaaa")
        assert counts == Counter({(0, 0): 5, (1, 0): 6, (2, 0): 3, (3, 0): 1})

    def test_odd_is_empty_and_empty_has_one(self):
        assert cc.matching_counts([0, 1, 0]) == Counter()
        assert cc.matching_counts([]) == Counter({(0, 0): 1})

    def test_cap(self):
        with pytest.raises(ValueError):
            cc.matching_counts([0] * 18)
        with pytest.raises(ValueError):
            cc.pair_partition_polynomial(18)


class TestP12:
    def test_footnote_example(self):
        part = cc.SetPartition.from_blocks([(1, 3), (2, 5), (4,)])
        assert cc.crossing_number(part.pairs()) == 1
        assert cc.singleton_depths(part.pairs(), part.singletons()) == 1
        assert len(part.singletons()) == 1

    def test_k1(self):
        stats = cc.enumerate_p12(1)
        assert len(stats) == 1
        assert stats[0].singleton_count == 1 and stats[0].cr == 0 and stats[0].sd == 0

    def test_k2(self):
        stats = cc.enumerate_p12(2)
        assert len(stats) == 2
        assert all(s.cr == 0 and s.sd == 0 for s in stats)

    def test_counts_are_involution_numbers(self):
        for k in range(9):
            assert len(cc.enumerate_p12(k)) == involution_number(k)

    def test_carried_statistics_match_recount(self):
        for k in range(10):
            for stats in cc.enumerate_p12(k):
                part = stats.partition
                pairs, singles = part.pairs(), part.singletons()
                assert part == cc.SetPartition.from_blocks(part.blocks)
                assert stats.cr == cc.crossing_number(pairs)
                assert stats.sd == cc.singleton_depths(pairs, singles)
                assert stats.singleton_count == len(singles)

    def test_every_partition_once(self):
        parts = [s.partition for s in cc.enumerate_p12(7)]
        assert len(set(parts)) == len(parts) == involution_number(7)

    def test_sd_zero_without_singletons(self):
        for s in cc.enumerate_p12(6):
            if s.singleton_count == 0:
                assert s.sd == 0


class TestNormalOrdering:
    def test_printed_t2(self):
        assert cc.normal_order_power(2) == (MultiPoly.one(), MultiPoly.zero(), MultiPoly.one())

    def test_printed_t3(self):
        e = cc.normal_order_power(3)
        assert e[1] == poly_q(2, 1)
        assert e[3] == MultiPoly.one()

    def test_printed_t4(self):
        e = cc.normal_order_power(4)
        assert e[0] == poly_q(2, 1)
        assert e[2] == poly_q(3, 2, 1)

    def test_matches_basis_change(self):
        for k in range(11):
            assert cc.normal_order_power(k) == monomial_to_hermite(k)

    def test_matches_partition_aggregation(self):
        # singleton-resolved partition sum, degree by degree
        for k in range(11):
            assert cc.p12_hermite_polynomial(k) == cc.normal_order_power(k)

    def test_expansions_are_tuples_up_to_h_k(self):
        # both oracles end in the coefficient 1 of H_k, so a tuple of k + 1
        # entries holds no trailing zero
        for k in range(cc.P12_CAP + 1):
            for expansion in (cc.normal_order_power(k), cc.p12_hermite_polynomial(k)):
                assert type(expansion) is tuple and len(expansion) == k + 1
                assert expansion[-1] == MultiPoly.one()


class TestInhomogeneousOracle:
    def test_forced_pairing(self):
        assert cc.inhomogeneous_matching_oracle([1, 1]) == MultiPoly.one()

    def test_two_pairs(self):
        assert cc.inhomogeneous_matching_oracle([2, 2]) == poly_q(1, 1)

    def test_homogeneous_forbidden(self):
        assert cc.inhomogeneous_matching_oracle([2]).is_zero()

    def test_odd_total_zero(self):
        assert cc.inhomogeneous_matching_oracle([2, 1]).is_zero()

    def test_point_cap(self):
        with pytest.raises(ValueError):
            cc.inhomogeneous_matching_oracle([8, 8])


class TestTransferMatrix:
    def test_vacuum_moments_match_enumeration(self):
        for k in range(0, 15):
            expected = cc.pair_partition_polynomial(k) if k % 2 == 0 else MultiPoly.zero()
            assert cc.transfer_vacuum_moment(k) == expected

    def test_k4(self):
        assert cc.transfer_vacuum_moment(4) == poly_q(2, 1)

    def test_odd_zero(self):
        assert cc.transfer_vacuum_moment(7).is_zero()

    def test_truncation_error(self):
        with pytest.raises(ValueError):
            cc.transfer_vacuum_moment(8, L=3)

    def test_larger_truncation_harmless(self):
        assert cc.transfer_vacuum_moment(6, 3) == cc.transfer_vacuum_moment(6, 7)

