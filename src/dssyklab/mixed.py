"""Mixed moments of words in a q-Gaussian letter x and a constant letter d.

The functional is tracial, so a word is really a necklace: removing the d
positions splits the x positions into cyclic arcs.  Every perfect matching
of the x positions is weighted by q per chord crossing and by qt per chord
whose endpoints lie in different arcs (a chord passing any number of walls
picks up the weight exactly once).  `mixed_moment` walks the word with
the production chord walk of `moments` (`moments.word_vacuum`), up to
`MAX_MOMENT_ORDER` x letters and any number of d letters.
Summed over all words of fixed length, the moments reconstruct the reduced
moments, and `word_sum_moment` is their independent oracle: it reads one
word of each rotation class, counts its matchings with the oracle kernel
`chordcombi.matching_counts`, with each x labelled by its arc, and weights
it by the size of the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chordcombi
from .moments import MAX_MOMENT_ORDER, word_vacuum
from .qcore import MultiPoly

WORD_SUM_CAP = 10
FREE_MOMENT_CAP = 12


@dataclass(frozen=True)
class Word:
    """Nonempty word over the two-letter alphabet {x, d}."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("word must be nonempty")
        if any(c not in ("x", "d") for c in self.letters):
            raise ValueError("letters must be 'x' or 'd'")

    @classmethod
    def parse(cls, text: str) -> "Word":
        return cls(tuple(text.lower()))

    def __str__(self):
        return "".join(self.letters)


@dataclass(frozen=True)
class MixedMomentResult:
    value: MultiPoly
    partition_count: int


def _arc_labels(letters: tuple[str, ...]) -> tuple[int, ...]:
    """The cyclic wall-bounded arc of each x letter, in word order.

    An x's arc is the number of d letters before it, modulo the number of d
    letters, so on the circle the x letters after the last d share the arc
    of those before the first.
    """
    walls = max(letters.count("d"), 1)
    labels, seen = [], 0
    for c in letters:
        if c == "d":
            seen += 1
        else:
            labels.append(seen % walls)
    return tuple(labels)


def mixed_moment(w: Word) -> MixedMomentResult:
    """Joint moment of the word under the trace functional.

    Sum over perfect matchings of the x positions of
    q^(chord crossings) * qt^(chords joining different arcs) * theta^(#d),
    walked by `moments.word_vacuum`, and the number of those matchings.
    Zero (as a polynomial) when the number of x letters is odd.  Words
    with more than `MAX_MOMENT_ORDER` x letters are rejected.
    """
    if w.letters.count("x") > MAX_MOMENT_ORDER:
        raise ValueError(f"mixed moment capped at {MAX_MOMENT_ORDER} x letters")
    value = word_vacuum(w.letters)
    return MixedMomentResult(value, sum(value.terms.values()))


def word_sum_moment(n: int) -> MultiPoly:
    """Moment of (x + d)^n: the sum of the mixed moments of all 2^n words.

    The functional is tracial, so rotated words have equal moments: each
    rotation class (`_necklaces`) is summed as one representative, its
    least rotation, times the number of its distinct rotations.  Each
    representative's matchings are counted by `chordcombi.matching_counts`
    on its arc labels, not by the walk, which this sum checks through
    `reduced_moment`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > WORD_SUM_CAP:
        raise ValueError(f"word sum capped at n <= {WORD_SUM_CAP}")
    total = MultiPoly.zero()
    for necklace, period in _necklaces(n):
        d_count = n - sum(necklace)
        counts = chordcombi.matching_counts(_arc_labels(tuple("dx"[bit] for bit in necklace)))
        total = total + period * MultiPoly({(cr, bc, d_count): c
                                            for (cr, bc), c in counts.items()})
    return total


def _necklaces(n: int):
    """Each binary necklace of length n once: its least rotation as a tuple
    of bits and its period, the number of its distinct rotations.

    The Fredricksen-Kessler-Maiorana algorithm runs through the
    prenecklaces in lexicographic order, each from the last: it raises the
    last 0 bit, at position i, and repeats the first i bits.  The result
    is a necklace of period i exactly when i divides n.
    """
    bits = [0] * n
    yield tuple(bits), 1
    while True:
        i = n
        while i and bits[i - 1]:
            i -= 1
        if not i:
            return
        bits[i - 1] = 1
        for j in range(i, n):
            bits[j] = bits[j - i]
        if n % i == 0:
            yield tuple(bits), i


# ---------------------------------------------------------------------------
# free-probability side: non-crossing partitions and cumulants of d
# ---------------------------------------------------------------------------

def noncrossing_partitions(elements: tuple[int, ...]):
    """All non-crossing partitions of an ordered tuple, as lists of tuples."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for picked in _subsets(rest):
        block = (first,) + picked
        regions = []
        bounds = list(block) + [None]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            region = tuple(e for e in rest
                           if e > lo and (hi is None or e < hi) and e not in picked)
            regions.append(region)
        for parts in _product_partitions(regions):
            yield [block] + parts


def _subsets(elements: tuple[int, ...]):
    for mask in range(1 << len(elements)):
        yield tuple(e for i, e in enumerate(elements) if mask >> i & 1)


def _product_partitions(regions, idx=0):
    if idx == len(regions):
        yield []
        return
    for head in noncrossing_partitions(regions[idx]):
        for tail in _product_partitions(regions, idx + 1):
            yield head + tail


def _noncrossing_sum(n: int, cumulants: list[MultiPoly]) -> MultiPoly:
    """Sum over NC(n) of the products of cumulants[|block|]."""
    total = MultiPoly.zero()
    for part in noncrossing_partitions(tuple(range(1, n + 1))):
        term = MultiPoly.one()
        for block in part:
            term = term * cumulants[len(block)]
        total = total + term
    return total


def free_convolution_moment(n: int, r) -> MultiPoly:
    """n-th moment of ((1-r) delta_0 + r delta_theta) (+) semicircle, exact in theta.

    Oracle for `freeconv.semicircle_plus_atomic`.  Free cumulants add under
    free convolution: those of the two-atom measure come from inverting the
    moment-cumulant relation on NC(j) against its moments r theta^j, the
    radius-2 semicircle adds kappa_2 = 1, and the moment is the NC(n) sum of
    products of the summed cumulants.  r is an exact rational.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > FREE_MOMENT_CAP:
        raise ValueError(f"free moments capped at n <= {FREE_MOMENT_CAP}")
    atom = [MultiPoly.zero()]  # atom[j]: j-th free cumulant of the two-atom measure
    for j in range(1, n + 1):
        # with atom[j] still zero, the NC(j) sum is every partition but the full block
        atom.append(MultiPoly.zero())
        atom[j] = MultiPoly.monomial(theta_pow=j, coeff=Fraction(r)) - _noncrossing_sum(j, atom)
    return _noncrossing_sum(n, [c + 1 if j == 2 else c for j, c in enumerate(atom)])
