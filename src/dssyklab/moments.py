"""Reduced moments of the constant-perturbed double-scaled model.

Three independent exact routes to m_n return identical polynomials in
(q, qt, theta):

* the two-stack chord walk on packed integers, one per walk state and
  theta power (`reduced_moment`), the production route, up to order
  `MAX_MOMENT_ORDER`;
* the direct combinatorial sum over interval compositions
  (`reduced_moment_compositions`), an oracle;
* the extraction from the cyclic generating function log 1/(1-B)
  (`reduced_moment_gf`), an oracle.

The oracles stop at `ORACLE_MAX_ORDER`, and neither is built on the walk.
Both expand each interval of k letters x as x^k = sum_d c_d H_d, whose H_d
stands for the d chords the interval leaves open, and weight qt once, where
the open chords pair: a linearized product <H_{d_1} ... H_{d_l}> carries
qt^(sum d / 2) (`_paired_vacuum`, and `_packed_pairing` on packed ints).

Packed polynomials (`qcore.pack`) take their digit width from one rule,
`qcore.word_width` of a bound at q = qt = theta = 1 that no digit can pass,
since every weight has nonnegative coefficients.  Both bounds come from the
involution number T: T(n - 1) for the walk to n (`walk_vacua`), and
2^n T(n) at the oracles' cap for the oracles (`PACKED_WIDTH`), so raising a
cap widens the digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import qhermite
from .qcore import MultiPoly, involution_number, pack, q_integer, unpack, word_width
from .qhermite import ConvergenceError, linearization, monomial_to_hermite, rt_moment

MAX_MOMENT_ORDER = 30
ORACLE_MAX_ORDER = 14  # the composition, generating-function and Boolean oracles
# the oracles' digit width: 2^n T(n) bounds every digit they form (`_b_power_column`)
PACKED_WIDTH = word_width(2 ** ORACLE_MAX_ORDER * involution_number(ORACLE_MAX_ORDER))


def _check_order(n: int, cap: int):
    if n < 1:
        raise ValueError("moment order must be positive")
    if n > cap:
        raise ValueError(f"moment order capped at {cap}")


# ---------------------------------------------------------------------------
# production route: the two-stack chord walk
# ---------------------------------------------------------------------------

def q_power_bound(n: int) -> int:
    """The largest q power in any state of the walk to n: C(floor((n-1)/2), 2)."""
    return math.comb((n - 1) // 2, 2)


def _letters(a: int, b: int, room: int):
    """The letters that take state (a, b) to a state still within `room`
    letters of the vacuum, as (next state, theta power added, k, passed):
    the weight is theta^(power added) [k]_q, times qt q^b when a passed
    chord closes."""
    if a + b < room:
        yield (a, b + 1), 0, 1, False  # x opens a chord
    if a + b <= room:
        yield (a + b, 0), 1, 1, False  # d, a wall
    if b:
        yield (a, b - 1), 0, b, False  # x closes an unpassed chord: [b]_q
    if a:
        yield (a - 1, b), 0, a, True  # x closes a passed chord: qt q^b [a]_q


def walk_vacua(n: int) -> list[MultiPoly]:
    """m_1 .. m_n from one two-stack chord walk to n.

    Each cyclic word over {x, d} with j >= 1 letters d is rotated to start
    with d.  The walk state is (a, b): a chords opened before the last wall
    ("passed"), b opened after it ("unpassed").  An x opens a chord,
    (a, b) -> (a, b+1), with weight 1; closes an unpassed chord,
    (a, b) -> (a, b-1), with weight [b]_q; or closes a passed chord,
    (a, b) -> (a-1, b), with weight qt q^b [a]_q.  A d is a wall,
    (a, b) -> (a+b, 0), with weight theta.  After t letters the vacuum
    (0, 0) holds the words of length t that start with d, and
    m_t = sum_j (t/j) [theta^j] <0|walk|0>.  A step moves a + b by at most
    one, so a state with a + b > n - t after t letters never returns to the
    vacuum by letter n: it is dropped, and one walk gives the exact
    m_1 .. m_n.

    Every state holds one packed int per theta power (`qcore.pack`): the
    polynomial in (q, qt) read at q = 2^w and qt = 2^(w B), with B =
    `q_power_bound(n)` + 1 digits in each qt block.  Opening a chord adds,
    a wall moves each int to the next theta power, and closing a chord is
    one integer product by the packed [k]_q, shifted by one qt block and b
    q digits when the chord was passed.

    No digit carries.  Every weight has nonnegative coefficients, so a
    state's value at q = qt = theta = 1 bounds every digit of the state and
    of every partial sum and product that formed it.  That value counts the
    pairs of a word and a partial matching of its x letters that leaves the
    state's a + b chords open: a close picks one of the k chords open in its
    stack, [k]_q at q = 1.  Drop the leading d, read the other d letters as
    fixed points, and pair the i-th open chord with the i-th of a + b
    appended points.  This maps the pairs injectively into the partial
    matchings of t - 1 + a + b <= n - 1 points, as a kept state has
    a + b <= n - t.  So no digit passes T(n - 1)
    (`qcore.involution_number`), a value some state attains at every
    n <= `MAX_MOMENT_ORDER`, and w is the narrowest machine word that holds
    it (`qcore.word_width`).  Nor does any q power spill into the next qt
    block.  A kept state after t letters closes within t + a + b <= n
    letters, the first of them a d, so the o chords it has opened satisfy
    2 o <= n - 1.  Each q counts one crossing pair of these chords (a close
    crosses some of the open chords opened after it, each pair at most
    once), so the q power is at most C(o, 2) = `q_power_bound(n)` < B; no
    term cancels, so no partial value holds a higher one.  The qt power
    counts closed chords, at most o; the theta power counts letters d, at
    most t.
    """
    _check_order(n, MAX_MOMENT_ORDER)
    width = word_width(involution_number(n - 1))
    block = q_power_bound(n) + 1
    # k is 1 or the number of open chords, at most (n - 1) / 2
    repunits = [pack(q_integer(k), width) for k in range(max(1, (n - 1) // 2) + 1)]
    states = {(0, 0): [0, 1]}  # the leading d
    vacua = [_cyclic_moment(1, states[0, 0], width, block)]
    for t in range(2, n + 1):
        new: dict[tuple[int, int], list[int]] = {}
        for (a, b), values in states.items():
            for key, wall, k, passed in _letters(a, b, n - t):
                acc = new.get(key)
                if acc is None:
                    acc = new[key] = [0] * (t + 1)
                factor = repunits[k] << ((block + b) * width) if passed else repunits[k]
                for j, v in enumerate(values, start=wall):
                    if v:
                        acc[j] += v * factor
        states = new
        vacua.append(_cyclic_moment(t, states[0, 0], width, block))
    return vacua


def _cyclic_moment(t: int, vacuum: list[int], width: int, block: int) -> MultiPoly:
    """m_t from the vacuum's packed ints after t letters: [theta^j] times t/j.

    A word of length t with j letters d has j rotations that start with d,
    so t/j times the d-first sum is the sum over all words, and every
    coefficient is an integer.  Terms are inserted by descending (theta,
    qt, q) power, the order of the composition route, so a float evaluation
    sums in the same order.
    """
    terms = {}
    for j in range(len(vacuum) - 1, 0, -1):
        for (a, b, _), x in reversed(unpack(vacuum[j], width, block).terms.items()):
            m, rest = divmod(t * x, j)
            if rest:
                raise AssertionError(f"m_{t} has a non-integral coefficient at q^{a} qt^{b} theta^{j}")
            terms[(a, b, j)] = m
    return MultiPoly(terms)


_VACUA: dict[int, MultiPoly] = {}  # m_n from every walk so far


def reduced_moment(n: int) -> MultiPoly:
    """Exact reduced moment m_n as a polynomial in (q, qt, theta).

    A cache miss walks to max(n, `ORACLE_MAX_ORDER`) (`walk_vacua`) and keeps
    every order of that walk, so a sweep in either direction through the
    oracles' orders walks once, and a table asks for its highest order first
    and reads the rest from that walk.  A lone low order pays for the walk
    to 14, about 5 ms once per process.
    """
    _check_order(n, MAX_MOMENT_ORDER)
    if n not in _VACUA:
        _VACUA.update(enumerate(walk_vacua(max(n, ORACLE_MAX_ORDER)), start=1))
    return _VACUA[n]


# ---------------------------------------------------------------------------
# the oracles' pairing rule
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _paired_vacuum(degrees: tuple[int, ...]) -> MultiPoly:
    """Vacuum expectation of prod_j H_{d_j} weighted by qt^(sum d / 2).

    H_{d_j} stands for the d_j chords that interval j leaves open.  They
    pair with the open chords of other intervals, so each of the sum(d)/2
    chords passes a wall and carries one qt (the chord picture of Berkooz
    et al., arXiv:1811.02584).  Zero when sum(d) is odd.  The composition
    oracle weights qt here and nowhere else.  The product commutes, so
    callers pass the degrees as a sorted tuple and each multiset is paired
    once per process.
    """
    total = sum(degrees)
    if total % 2:
        return MultiPoly.zero()
    return linearization(list(degrees)) * MultiPoly.monomial(qt_pow=total // 2)


@lru_cache(maxsize=None)
def _packed_pairing(degrees: tuple[int, ...]) -> int:
    """The generating-function oracle's pairing rule: the vacuum expectation
    of prod_j H_{d_j} packed at `PACKED_WIDTH` bits a digit, 0 when sum(d)
    is odd.  The caller weights it by qt^(sum d / 2), as `_paired_vacuum`
    does.  The oracle asks for each multiset once per column entry, and
    packs it once per process."""
    if sum(degrees) % 2:
        return 0
    return pack(linearization(list(degrees)), PACKED_WIDTH)


# ---------------------------------------------------------------------------
# composition route
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """Ordered compositions of `total` into `parts` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _block_vacuum(comp: tuple[int, ...]) -> MultiPoly:
    """Vacuum expectation of prod_i b_{k_i}: interval i expands as
    x^{k_i} = sum_d c_d H_d, and the open chords pair by `_paired_vacuum`.
    Zero Hermite coefficients and zero pairings are skipped.  It serves the
    composition oracle only."""
    options = [[(d, c) for d, c in enumerate(monomial_to_hermite(k)) if not c.is_zero()]
               for k in comp]
    total = MultiPoly.zero()
    for choice in product(*options):
        term = _paired_vacuum(tuple(sorted(d for d, _ in choice)))
        if term.is_zero():
            continue
        for _, c in choice:
            term = term * c
        total = total + term
    return total


def reduced_moment_compositions(n: int) -> MultiPoly:
    """m_n by the direct route: sum over the number 2j of random nodes, over
    interval counts l and ordered compositions (k_1..k_l) of 2j, with the
    cyclic factor n/(n-2j), the slot choice C(n-2j, l), per-interval
    contraction coefficients and the inter-interval pairing.

    Oracle for `reduced_moment`.
    """
    _check_order(n, ORACLE_MAX_ORDER)
    total = MultiPoly.monomial(theta_pow=n)  # j = 0: bare theta^n
    for j in range(1, (n - 1) // 2 + 1):
        blocks = n - 2 * j
        cyclic = Fraction(n, blocks)
        theta_factor = MultiPoly.monomial(theta_pow=blocks)
        for l in range(1, min(blocks, 2 * j) + 1):
            slot_choice = math.comb(blocks, l)
            acc = MultiPoly.zero()
            for comp in _compositions(2 * j, l):
                acc = acc + _block_vacuum(tuple(sorted(comp)))
            total = total + (cyclic * slot_choice) * theta_factor * acc
    return total


# ---------------------------------------------------------------------------
# generating-function route
# ---------------------------------------------------------------------------

# _B_POWERS[p][m] is [z^p] B^m / theta^m for m = 1..p: a map from sorted
# tuples of nonzero Hermite degrees (the product left unexpanded) to its
# weight, a polynomial in q packed at `PACKED_WIDTH` bits a digit.  Entry
# [0] of each column is unused.  Columns are appended in order of p, so
# each is built once per process.
_B_POWERS: list[list[dict]] = [[]]


def _b_power_column(p: int) -> list[dict]:
    """Column p of `_B_POWERS`, from the columns below it.

    [z^p] B = theta x^(p-1) = theta sum_d c_d H_d, with an H_0 factor left
    out of the key, and for m >= 2 the Cauchy product
    [z^p] B^m = sum_i [z^i] B [z^(p-i)] B^(m-1), one integer product of
    packed weights per pair of entries.

    No digit carries.  Every weight has nonnegative coefficients in q, so
    no digit of it, or of a partial sum or product that formed it, exceeds
    its value at q = 1.  There the column [z^p] B^m sums over the
    C(p-1, m-1) compositions of p into m parts i_j of products of
    x^(i_j - 1), whose Hermite coefficients sum to at most
    prod T(i_j - 1) <= T(p - m), since T(a) T(b) <= T(a + b) (T is the
    involution number, `qcore.involution_number`).  So no weight exceeds
    2^p T(p) <= 2^n T(n), which `PACKED_WIDTH` holds for every
    n <= `ORACLE_MAX_ORDER`.
    """
    column = [{}, {(d,) if d else (): pack(c, PACKED_WIDTH)
                   for d, c in enumerate(monomial_to_hermite(p - 1)) if not c.is_zero()}]
    for m in range(2, p + 1):
        bucket = {}
        for i in range(1, p - m + 2):
            lower = _B_POWERS[p - i][m - 1]
            for key1, w1 in _B_POWERS[i][1].items():
                for key2, w2 in lower.items():
                    key = tuple(sorted(key1 + key2)) if key1 else key2
                    bucket[key] = bucket.get(key, 0) + w1 * w2
        column.append(bucket)
    return column


def reduced_moment_gf(n: int) -> MultiPoly:
    """m_n extracted from the pointed-cycle generating function:
    m_n = n [z^n] log 1/(1-B) = sum_m (n/m) [z^n] B^m.

    The columns [z^p] B^m keep every Hermite product unexpanded; each
    deferred product is paired by `_packed_pairing`, weighted by
    qt^(sum d / 2), and [z^n] B^m carries theta^m.  The pairing sum
    runs on packed weights, one sum for each qt power, unpacked once.

    No digit carries.  At q = 1 the sum for qt^b theta^m is (m/n) times
    the value of [qt^b theta^m] m_n there, which counts pairs of a word of
    n letters and a perfect matching of its x letters, or a partial
    matching of n points: at most T(n), within `PACKED_WIDTH`.

    Oracle for `reduced_moment`.
    """
    _check_order(n, ORACLE_MAX_ORDER)
    while len(_B_POWERS) <= n:
        _B_POWERS.append(_b_power_column(len(_B_POWERS)))
    terms = {}
    for m in range(1, n + 1):
        sums = {}  # qt power -> packed sum
        for key, weight in _B_POWERS[n][m].items():
            paired = _packed_pairing(key)
            if paired:
                half = sum(key) // 2
                sums[half] = sums.get(half, 0) + weight * paired
        for half, acc in sums.items():
            for (a, _, _), c in unpack(acc, PACKED_WIDTH).terms.items():
                whole, rest = divmod(n * c, m)
                terms[(a, half, m)] = Fraction(n * c, m) if rest else whole
    return MultiPoly(terms)


# ---------------------------------------------------------------------------
# assembled moments, the c = 1 oracle, and limits
# ---------------------------------------------------------------------------

def full_moment(n: int, r) -> MultiPoly:
    """Normalized trace moment of the full Hamiltonian: r m_n plus the
    pure-random part (present only at even n)."""
    r = Fraction(r)
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    out = r * reduced_moment(n)
    if n % 2 == 0:
        out = out + rt_moment(n // 2)
    return out


def _weak_compositions_weighted(j: int):
    """All (k_1..k_j) >= 0 with sum i*k_i = j."""
    def rec(i, remaining, acc):
        if i > j:
            if remaining == 0:
                yield tuple(acc)
            return
        for k in range(remaining // i + 1):
            acc.append(k)
            yield from rec(i + 1, remaining - i * k, acc)
            acc.pop()
    yield from rec(1, j, [])


@lru_cache(maxsize=None)
def _packed_rt_moment(i: int) -> int:
    """`rt_moment(i)` packed at `PACKED_WIDTH` bits a digit."""
    return pack(rt_moment(i), PACKED_WIDTH)


def boolean_moment_c1(n: int) -> MultiPoly:
    """Single-defect moment formula: the Boolean moment-cumulant special case.

    Sums over multisets of even-moment blocks RT(i) with multinomial slot
    weights and the cyclic prefactor.  Each theta power's sum runs on
    packed polynomials in q, prod RT(i)^k_i one integer product per block
    kind, and is unpacked once and scaled by the cyclic prefactor.

    No digit carries.  Every term has nonnegative coefficients in q, so no
    digit exceeds the sum's value at q = 1, which is (b/n) times that of
    [qt^0 theta^b] m_n, b the number of blocks: at most T(n), as in
    `reduced_moment_gf`, within `PACKED_WIDTH`.

    Oracle for `reduced_moment` at qt = 0, where the defect and the random
    part are Boolean independent.
    """
    _check_order(n, ORACLE_MAX_ORDER)
    terms = {(0, 0, n): 1}
    for j in range(1, (n - 1) // 2 + 1):
        blocks = n - 2 * j
        acc = 0
        for ks in _weak_compositions_weighted(j):
            s = sum(ks)
            if s > blocks:
                continue
            weight = math.factorial(blocks)
            for k in ks:
                weight //= math.factorial(k)
            term = weight // math.factorial(blocks - s)
            for i, k in enumerate(ks, start=1):
                if k:
                    term *= _packed_rt_moment(i) ** k
            acc += term
        for (a, _, _), c in unpack(acc, PACKED_WIDTH).terms.items():
            whole, rest = divmod(n * c, blocks)
            terms[(a, 0, blocks)] = Fraction(n * c, blocks) if rest else whole
    return MultiPoly(terms)


def qtilde_limit_check(n: int, which: int) -> MultiPoly:
    """Specialize m_n at qt = 0 or qt = 1 and assert it equals the
    corresponding independent formula (Boolean at 0, binomial shift at 1).

    Returns the specialized polynomial; raises ValueError with a diagnostic
    on inconsistency.  The Boolean side stops at `ORACLE_MAX_ORDER`, the
    binomial shift at `MAX_MOMENT_ORDER`.

    Oracle for `reduced_moment` at the qt in {0, 1} ends of its
    interpolation between Boolean and classical independence.
    """
    if which not in (0, 1):
        raise ValueError("which must be 0 or 1")
    specialized = reduced_moment(n).substitute(qt=which)
    if which == 0:
        other = boolean_moment_c1(n)
        label = "Boolean c=1 formula"
    else:
        other = MultiPoly.zero()
        for i in range(0, n):
            if i % 2 == 0:
                other = other + math.comb(n, i) * rt_moment(i // 2) * MultiPoly.monomial(theta_pow=n - i)
        label = "binomial shift identity"
    if specialized != other:
        raise ValueError(
            f"qt={which} limit of m_{n} disagrees with the {label}:\n"
            f"  specialized: {specialized}\n  independent: {other}")
    return specialized


# ---------------------------------------------------------------------------
# numeric layer: continued fraction and the n-boundary partition function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _b_levels(q: float, qt: float, depth: int) -> tuple[tuple[int, float, float], ...]:
    """The levels (j, sqrt(qt) q^j, (1 - qt q^j)[j+1]_q) for j = depth .. 0.

    They depend on neither z nor x0, so a sweep over a grid builds them once.
    """
    sq = math.sqrt(qt)
    return tuple((j, sq * q ** j, (1.0 - qt * q ** j) * (1.0 - q ** (j + 1)) / (1.0 - q))
                 for j in range(depth, -1, -1))


def _b_fractions(z: float, x0: float, levels) -> tuple[float, float]:
    """B from the full level table and from the table cut five levels
    shorter, in one pass: the five deepest levels run alone, then both
    fractions step through the levels they share.  Each step evaluates
    `1.0 - sq_qj * x0 * z - off * z * z * g` left to right, as a pass of
    its own would.  A pole of the full table is raised as it is met; one of
    the cut table only after the full table has passed all its levels."""
    deep = 0.0
    for j, sq_qj, off in levels[:5]:
        denom = 1.0 - sq_qj * x0 * z - off * z * z * deep
        if denom == 0.0:
            raise ConvergenceError(f"continued fraction hit a pole at level {j}")
        deep = 1.0 / denom
    shallow, pole = 0.0, None
    for j, sq_qj, off in levels[5:]:
        diag, weight = 1.0 - sq_qj * x0 * z, off * z * z
        denom = diag - weight * deep
        if denom == 0.0:
            raise ConvergenceError(f"continued fraction hit a pole at level {j}")
        deep = 1.0 / denom
        denom = diag - weight * shallow
        if denom != 0.0:
            shallow = 1.0 / denom
        elif pole is None:
            pole = j
    if pole is not None:
        raise ConvergenceError(f"continued fraction hit a pole at level {pole}")
    return z * deep, z * shallow


def b_continued_fraction(z: float, x0: float, q: float, qt: float, depth: int = 60) -> float:
    """Continued-fraction evaluation of the interval generating function B
    at theta = 1 (theta enters B as an overall linear factor).

    Level j has diagonal sqrt(qt) q^j x0 and off-diagonal weight
    (1 - qt q^j)[j+1]_q; the level table is cached per (q, qt, depth).
    Convergence is checked by comparing the full depth with the same table
    cut five levels shorter; one pass over the levels evaluates both
    (`_b_fractions`).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("need 0 <= q < 1")
    if not 0.0 <= qt <= 1.0:
        raise ValueError("need 0 <= qt <= 1")
    if depth < 20:
        raise ValueError("depth must be at least 20")
    deep, shallow = _b_fractions(z, x0, _b_levels(float(q), float(qt), depth))
    if abs(deep - shallow) > 1e-12 * max(1.0, abs(deep)):
        raise ConvergenceError(
            f"continued fraction not settled at depth {depth}: |delta|={abs(deep - shallow):.3e}")
    return deep


def b_series(z: float, x0: float, q: float, qt: float) -> float:
    """Partial sum of B to z^12 at theta = 1, with [z^p] B = x^(p-1)
    expanded as sum_d c_d sqrt(qt)^d H_d(x0).

    Oracle for `b_continued_fraction`.
    """
    sq = math.sqrt(qt)
    hvals = qhermite.hermite_values(11, np.array(x0), q)
    total = 0.0
    for p in range(1, 13):
        total += z ** p * sum(c.evaluate(q=q) * sq ** d * float(hvals[d])
                              for d, c in enumerate(monomial_to_hermite(p - 1)))
    return total


def coherent_state_factor(x, q: float, z: float):
    """q-deformed coherent state product Gamma_q(x, z) = prod_k 1 / |1 - a q^k e^{it}|^2,
    with a = sqrt(1-q) z and x = 2 cos t/sqrt(1-q), as an array shaped like x.

    Summed as a logarithm by `qhermite._log_q_product`, so a ValueError
    names the first x outside the support, or a z with a outside [0, 1).
    """
    qhermite.check_numeric_q(q)
    a = math.sqrt(1.0 - q) * z
    if not 0.0 <= a < 1.0:
        raise ValueError(f"need 0 <= sqrt(1-q) z < 1, got z={z}")
    xs = np.asarray(x, dtype=float)
    cos_t = qhermite._support_cos(xs, q)
    return np.exp(-qhermite._log_q_product(a, q, cos_t, (1.0 - cos_t) / 2.0)).reshape(xs.shape)


def z_n(n: int, beta: float, q: float, qt: float) -> float:
    """n-boundary partition function: the n-th moment of
    y(E) = exp(-beta E) Gamma_q(E, qt) under the q-Gaussian measure.

    Integrated with the panel quadrature; a refined rule must agree or a
    ConvergenceError is raised.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    qhermite.check_numeric_q(q)
    if not 0.0 <= qt < 1.0:
        raise ValueError("need 0 <= qt < 1")

    def value(panels: int) -> float:
        quad = qhermite.QGaussianQuadrature(q, panels=panels)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
            y = np.exp(-beta * quad.nodes) * coherent_state_factor(quad.nodes, q, qt)
            return float(np.sum(quad.weights * y ** n))

    coarse, fine = value(64), value(128)
    if not math.isfinite(fine):
        raise ConvergenceError(f"partition function overflows the float range at beta={beta}")
    if abs(fine - coarse) > 1e-8 * max(1.0, abs(fine)):
        raise ConvergenceError(f"partition-function quadrature not converged: {coarse} vs {fine}")
    return fine


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------

@dataclass
class MomentTable:
    """Moments m_1 .. m_max_n plus a note on which variables are symbolic."""

    max_n: int
    values: list[MultiPoly]
    params_note: dict

    @classmethod
    def specialized(cls, max_n: int, q=None, qt=None, theta=None) -> "MomentTable":
        note = {"q": "symbolic" if q is None else str(Fraction(q)),
                "qt": "symbolic" if qt is None else str(Fraction(qt)),
                "theta": "symbolic" if theta is None else str(Fraction(theta))}
        if max_n >= 1:
            reduced_moment(max_n)  # one walk for the whole table
        vals = [reduced_moment(n).substitute(q=q, qt=qt, theta=theta)
                for n in range(1, max_n + 1)]
        return cls(max_n, vals, note)

    def moment(self, n: int) -> MultiPoly:
        return self.values[n - 1]

    def to_json_obj(self) -> dict:
        return {
            "max_n": self.max_n,
            "params": self.params_note,
            "moments": {str(n): self.values[n - 1].to_json_obj() for n in range(1, self.max_n + 1)},
        }

    def numeric_rows(self) -> list[tuple[int, float]]:
        """(n, m_n) pairs; only valid once fully specialized."""
        rows = []
        for n in range(1, self.max_n + 1):
            poly = self.values[n - 1]
            if not poly.is_constant():
                raise ValueError("moment table still contains symbolic entries")
            try:
                rows.append((n, float(poly.constant_value())))
            except OverflowError:
                raise ConvergenceError(f"m_{n} overflows a float") from None
        return rows
