"""Mixed moments of words in a q-Gaussian letter x and a constant letter d.

The functional is tracial, so a word is really a necklace: removing the d
positions splits the x positions into cyclic arcs.  Every perfect matching
of the x positions is weighted by q per chord crossing and by qt per chord
whose endpoints lie in different arcs (a chord passing any number of walls
picks up the weight exactly once).  Summed over all words of fixed length,
this reconstructs the reduced moments and serves as their independent
oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .qcore import MultiPoly
from .chordcombi import ORACLE_POINT_CAP

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

    def rotated(self, shift: int) -> "Word":
        n = len(self.letters)
        shift %= n
        return Word(self.letters[shift:] + self.letters[:shift])


@dataclass(frozen=True)
class MixedMomentResult:
    value: MultiPoly
    partition_count: int


def _cyclic_arc_ids(letters: tuple[str, ...]) -> dict[int, int]:
    """Map x-positions (1-based) to the id of their cyclic wall-bounded arc."""
    n = len(letters)
    ids: dict[int, int] = {}
    arc = 0
    prev_was_d = False
    for i, c in enumerate(letters, start=1):
        if c == "d":
            prev_was_d = True
        else:
            if prev_was_d:
                arc += 1
                prev_was_d = False
            ids[i] = arc
    # wrap-around: a leading x-run and a trailing x-run form one arc on the circle
    if ids and letters[0] == "x" and letters[-1] == "x" and arc > 0:
        last_arc = ids[max(ids)]
        for pos, a in ids.items():
            if a == last_arc:
                ids[pos] = 0
    return ids


def mixed_moment(w: Word) -> MixedMomentResult:
    """Joint moment of the word under the trace functional.

    Sum over perfect matchings of the x positions of
    q^(chord crossings) * qt^(chords joining different arcs) * theta^(#d).
    Zero (as a polynomial) when the number of x letters is odd.  Words with
    more than ORACLE_POINT_CAP x letters are rejected: the walk visits all
    (n_x - 1)!! matchings.
    """
    letters = w.letters
    xpos = [i for i, c in enumerate(letters, start=1) if c == "x"]
    if len(xpos) > ORACLE_POINT_CAP:
        raise ValueError(f"mixed moment capped at {ORACLE_POINT_CAP} x letters")
    d_count = len(letters) - len(xpos)
    if len(xpos) % 2 == 1:
        return MixedMomentResult(MultiPoly.zero(), 0)
    arc_of = _cyclic_arc_ids(letters)
    arcs = tuple(arc_of[pos] for pos in xpos)
    counts = Counter()

    def recurse(remaining: tuple[int, ...], cr: int, bc: int):
        # indices into xpos; a new chord crosses every earlier chord whose
        # right end lies strictly inside it (see enumerate_pair_partitions)
        if not remaining:
            counts[cr, bc] += 1
            return
        first, rest = remaining[0], remaining[1:]
        for i, partner in enumerate(rest):
            recurse(rest[:i] + rest[i + 1:], cr + partner - first - 1 - i,
                    bc + (arcs[first] != arcs[partner]))

    recurse(tuple(range(len(xpos))), 0, 0)
    value = MultiPoly({(cr, bc, d_count): c for (cr, bc), c in counts.items()})
    return MixedMomentResult(value, sum(counts.values()))


@lru_cache(maxsize=None)
def word_sum_moment(n: int) -> MultiPoly:
    """Moment of (x + d)^n: the sum of mixed_moment over all 2^n words."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > WORD_SUM_CAP:
        raise ValueError(f"word sum capped at n <= {WORD_SUM_CAP}")
    total = MultiPoly.zero()
    for letters in product("xd", repeat=n):
        total = total + mixed_moment(Word(letters)).value
    return total


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


def noncrossing_count(n: int) -> int:
    return sum(1 for _ in noncrossing_partitions(tuple(range(1, n + 1))))


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
