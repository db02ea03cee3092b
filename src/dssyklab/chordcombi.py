"""Chord diagrams: the matching kernel and the brute-force oracles.

`matching_counts` is the one kernel that counts perfect matchings of
labelled points on a line by their crossings and their chords between
different labels; `mixed.mixed_moment`, the pair-partition polynomial and
the inhomogeneous-matching oracle read it.  It scans the points once, left
to right, over the labels of the open chords, and enumerates no matching.
Everything else here exists for correctness, not speed: partitions and
matchings are enumerated explicitly (with deliberate scale caps) so the
kernel and the closed-form machinery elsewhere can be checked against
direct counting.  The chord transfer matrix lives here too, as an oracle
for `qhermite.rt_moment`, which reads the same moments off the Hermite
walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .qcore import MultiPoly, q_integer, unpack, word_width

PAIR_PARTITION_CAP = 16
P12_CAP = 12
ORACLE_POINT_CAP = 14


@dataclass(frozen=True)
class SetPartition:
    """Partition of the ground set {1..n} into disjoint blocks.

    Blocks are stored as sorted tuples, ordered by their minimum element.
    """

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "SetPartition":
        """The partition with `blocks` in canonical order; blocks that do not
        partition {1..n} are a ValueError.

        Oracle for the block order that `enumerate_pair_partitions` and
        `enumerate_p12` build their partitions in.
        """
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen = [i for b in canon for i in b]
        if sorted(seen) != list(range(1, len(seen) + 1)):
            raise ValueError("blocks must partition {1..n}")
        return cls(canon)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def pairs(self) -> list[tuple[int, int]]:
        return [b for b in self.blocks if len(b) == 2]

    def singletons(self) -> list[int]:
        return [b[0] for b in self.blocks if len(b) == 1]


@dataclass(frozen=True)
class MatchingStats:
    """A partition with its cached crossing statistics.

    cr: crossings between 2-element blocks; sd: total depth of singletons
    under 2-element blocks; singleton_count: number of 1-element blocks.
    """

    partition: SetPartition
    cr: int
    sd: int
    singleton_count: int


def crossing_number(pairs) -> int:
    """Number of interleaved pairs (a,b),(c,d) with a < c < b < d.

    Oracle for the crossing counts that `enumerate_pair_partitions` and
    `enumerate_p12` carry through their recursion, recounted pair by pair.
    """
    cr = 0
    plist = list(pairs)
    for i in range(len(plist)):
        a, b = plist[i]
        for j in range(i + 1, len(plist)):
            c, d = plist[j]
            if a < c < b < d or c < a < d < b:
                cr += 1
    return cr


def singleton_depths(pairs, singletons) -> int:
    """Sum over singletons s of the number of pairs (a,b) with a < s < b.

    Oracle for the singleton depth that `enumerate_p12` carries.
    """
    return sum(1 for s in singletons for (a, b) in pairs if a < s < b)


def matching_counts(labels) -> Counter:
    """Perfect matchings of len(labels) points on a line, counted by statistics.

    Maps (crossings, chords joining two different labels) to the number of
    matchings with those counts; empty for an odd number of points.  No
    matching is visited: one left-to-right scan keeps, for each tuple of
    labels of the open chords in opening order, the counts of the partial
    matchings that leave those chords open.  Each point opens a chord, if
    the open chords still fit into the points after it, or closes the j-th
    open chord, which crosses the len(open) - 1 - j chords opened after it
    and still open.  Partial matchings with equal label tuples merge, so
    the states stay few when labels come in contiguous runs.

    Each state holds its counts as one packed int (`qcore.pack`): the count
    for c crossings and b chords between labels is the digit
    c (n/2 + 1) + b of w bits, n = len(labels), and b <= n/2 keeps the b
    digits of one c apart from the next.  Closing the j-th open chord is
    one left shift by (len(open) - 1 - j) (n/2 + 1) digits, plus one when
    its labels differ; opening one shifts nothing.  The final state is
    unpacked once.

    No digit carries.  Every kept partial matching can be completed: the
    fit rule keeps its open chords no more than the points after it, and
    the two numbers have equal parity, so the open chords close on the
    first of those points and the rest pair among themselves.  Distinct
    partial matchings keep distinct completions, so a digit, which counts
    the partial matchings of one state with one pair of statistics, never
    exceeds the (n - 1)!! perfect matchings; no weight is negative, so no
    sum that forms a digit exceeds it either.  So
    w = `qcore.word_width`((n - 1)!!) holds every digit.
    """
    labels = tuple(labels)
    n = len(labels)
    if n > PAIR_PARTITION_CAP:
        raise ValueError(f"matching_counts supports at most {PAIR_PARTITION_CAP} points")
    if n % 2:
        return Counter()
    width = word_width(math.prod(range(n - 1, 0, -2)))
    block = n // 2 + 1
    states: dict[tuple, int] = {(): 1}
    for i, label in enumerate(labels):
        step: dict[tuple, int] = {}
        for opened, value in states.items():
            last = len(opened) - 1
            for j, other in enumerate(opened):
                key = opened[:j] + opened[j + 1:]
                shifted = value << ((last - j) * block + (other != label)) * width
                step[key] = step.get(key, 0) + shifted
            if last < n - 2 - i:
                key = opened + (label,)
                step[key] = step.get(key, 0) + value
        states = step
    return Counter({(c, b): count for (b, c, _), count in
                    unpack(states[()], width, block).terms.items()})


def enumerate_pair_partitions(n: int) -> list[MatchingStats]:
    """All perfect matchings of {1..n} with exact crossing counts.

    Odd n yields the empty list (no perfect matchings exist).  Enumeration
    is lexicographic by smallest unmatched element, so the output order is
    deterministic.  The crossing count is carried through the recursion: a
    new chord (f, p), with f the smallest open point, crosses each earlier
    chord whose right end lies strictly inside it, and those right ends are
    the p - f - 1 points of (f, p) that are no longer open.

    Oracle for `matching_counts`, which it checks matching by matching.
    """
    if n < 0 or n > PAIR_PARTITION_CAP:
        raise ValueError(f"enumerate_pair_partitions supports 0 <= n <= {PAIR_PARTITION_CAP}")
    if n % 2 == 1:
        return []
    out: list[MatchingStats] = []

    def recurse(remaining: tuple[int, ...], acc: list[tuple[int, int]], cr: int):
        if not remaining:
            out.append(MatchingStats(SetPartition(tuple(acc)), cr, 0, 0))
            return
        first, rest = remaining[0], remaining[1:]
        for i, partner in enumerate(rest):
            acc.append((first, partner))
            recurse(rest[:i] + rest[i + 1:], acc, cr + partner - first - 1 - i)
            acc.pop()

    recurse(tuple(range(1, n + 1)), [], 0)
    return out


def enumerate_p12(k: int) -> list[MatchingStats]:
    """All partitions of {1..k} with blocks of size at most 2, with statistics.

    Enumeration is by smallest unplaced element, which is either a singleton
    or the left end of a chord, so blocks come out in canonical order.  cr is
    carried as in `enumerate_pair_partitions`.  A singleton at f sits under
    every chord open there, whose right ends are the k - f - len(rest)
    points beyond f that are already placed, so that many is added to sd.
    """
    if k < 0 or k > P12_CAP:
        raise ValueError(f"enumerate_p12 supports 0 <= k <= {P12_CAP}")
    out: list[MatchingStats] = []

    def recurse(remaining: tuple[int, ...], acc: list[tuple[int, ...]], cr: int, sd: int,
                singles: int):
        if not remaining:
            out.append(MatchingStats(SetPartition(tuple(acc)), cr, sd, singles))
            return
        first, rest = remaining[0], remaining[1:]
        acc.append((first,))
        recurse(rest, acc, cr, sd + k - first - len(rest), singles + 1)
        acc.pop()
        for i, partner in enumerate(rest):
            acc.append((first, partner))
            recurse(rest[:i] + rest[i + 1:], acc, cr + partner - first - 1 - i, sd, singles)
            acc.pop()

    recurse(tuple(range(1, k + 1)), [], 0, 0, 0)
    return out


def normal_order_power(k: int) -> tuple[MultiPoly, ...]:
    """Hermite expansion of T^k obtained by normal-ordering (x + D_q)^k, as
    the tuple of the coefficients of H_0 .. H_k.

    Oracle for `qhermite.monomial_to_hermite`.

    Words in {x, D_q} are kept as normal forms x^a D_q^b; right-multiplying
    by x uses D_q^b x = [b]_q D_q^(b-1) + q^b x D_q^b, which is the
    commutation rule D_q x -> 1 + q x D_q applied once per inversion.  The
    vacuum-surviving part (b = 0) carries the Hermite coefficients.
    """
    if k < 0 or k > P12_CAP:
        raise ValueError(f"normal_order_power supports 0 <= k <= {P12_CAP}")
    # normal form: map (x-power, D-power) -> MultiPoly in q
    form: dict[tuple[int, int], MultiPoly] = {(0, 0): MultiPoly.one()}
    for _ in range(k):
        new: dict[tuple[int, int], MultiPoly] = {}

        def add(key, val):
            acc = new.get(key)
            new[key] = val if acc is None else acc + val

        for (a, b), coeff in form.items():
            # times x: D^b x = [b]_q D^(b-1) + q^b x D^b
            if b > 0:
                add((a, b - 1), coeff * q_integer(b))
            add((a + 1, b), coeff * MultiPoly.monomial(q_pow=b))
            # times D
            add((a, b + 1), coeff)
        form = {key: val for key, val in new.items() if not val.is_zero()}
    return tuple(form.get((a, 0), MultiPoly.zero()) for a in range(k + 1))


def inhomogeneous_matching_oracle(class_sizes: list[int]) -> MultiPoly:
    """Sum of q^crossings over perfect matchings with no within-class chord.

    Oracle for `qhermite.linearization`.

    Points are laid out on a line grouped by class in the given order; a
    chord may only join points of different classes, so only the matchings
    of `matching_counts` whose every chord joins two classes count.  Zero
    when no such matching exists (in particular for odd totals).
    """
    if any(s < 0 for s in class_sizes):
        raise ValueError("class sizes must be nonnegative")
    total = sum(class_sizes)
    if total > ORACLE_POINT_CAP:
        raise ValueError(f"oracle capped at {ORACLE_POINT_CAP} points")
    labels = [ci for ci, size in enumerate(class_sizes) for _ in range(size)]
    counts = matching_counts(labels)
    return MultiPoly({(cr, 0, 0): c for (cr, bc), c in counts.items() if 2 * bc == total})


def transfer_vacuum_moment(k: int, L: int | None = None) -> MultiPoly:
    """<0| T^k |0> over the polynomial ring, via the truncated transfer matrix.

    T|l> = |l+1> + [l]_q |l-1> on the chord-number basis |0>, ..., |L>.
    Truncation at L is lossless as long as at most L chords can be open at
    once, i.e. L >= ceil(k/2).

    Oracle for `qhermite.rt_moment`.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    need = (k + 1) // 2
    if L is None:
        L = need
    if L < need:
        raise ValueError(f"truncation L={L} loses chords for k={k}; need L >= {need}")
    zero = MultiPoly.zero()
    vec = [MultiPoly.one()] + [zero] * L
    for _ in range(k):
        # the amplitude on |l> after a step comes from |l-1> and from [l+1]_q |l+1>
        vec = [(vec[l - 1] if l else zero) + (vec[l + 1] * q_integer(l + 1) if l < L else zero)
               for l in range(L + 1)]
    return vec[0]


def pair_partition_polynomial(n: int) -> MultiPoly:
    """Sum of q^cr over all perfect matchings of {1..n}; zero for odd n.

    Oracle for `qhermite.rt_moment`, read off `matching_counts` on n equal
    labels.  There the scan's state is just the number l of open chords, as
    in `transfer_vacuum_moment`, and closing one of them adds 0..l-1
    crossings, one integer count each.  So this oracle pins rt_moment to
    the crossing count of each chord, which `enumerate_pair_partitions`
    checks matching by matching in the tests; the transfer matrix pins it
    to the weight [l]_q of T|l> as one q-integer in the polynomial ring.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return MultiPoly({(cr, 0, 0): c for (cr, _), c in matching_counts([0] * n).items()})


def p12_hermite_polynomial(k: int) -> tuple[MultiPoly, ...]:
    """Aggregate sum over P_{1,2}(k) of q^(cr+sd) H_(s1), grouped by singleton
    count: the tuple of the coefficients of H_0 .. H_k.

    Oracle for `normal_order_power`: this is the partition form of the
    normal-ordering identity, so the two agree degree by degree.
    """
    counts = Counter((stats.singleton_count, stats.cr + stats.sd) for stats in enumerate_p12(k))
    return tuple(MultiPoly({(a, 0, 0): c for (s, a), c in counts.items() if s == d})
                 for d in range(k + 1))


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ... down to 1 or 2; 1 for n <= 1.

    Oracle for `enumerate_pair_partitions` and `matching_counts`: (2k-1)!!
    counts the perfect matchings of 2k points.
    """
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out
