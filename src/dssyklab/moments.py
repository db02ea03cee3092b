"""Reduced moments of the constant-perturbed double-scaled model.

Three independent exact routes to m_n return identical polynomials in
(q, qt, theta):

* the two-stack chord walk on dense int64 arrays (`reduced_moment`), the
  production route, up to order `MAX_MOMENT_ORDER`;
* the direct combinatorial sum over interval compositions
  (`reduced_moment_compositions`), an oracle;
* the extraction from the cyclic generating function log 1/(1-B)
  (`reduced_moment_gf`), an oracle.

The oracles stop at `ORACLE_MAX_ORDER`, and neither is built on the walk.
Half-integer powers of qt appear in their intermediate quantities because
every unpaired chord is marked with sqrt(qt) before the inter-interval
pairing.  Internally their qt exponent therefore counts *half* powers; the
doubled bookkeeping is collapsed (and integrality asserted) at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from . import qhermite
from .qcore import HermiteExpansion, MultiPoly
from .qhermite import ConvergenceError, linearization, monomial_to_hermite, rt_moment

MAX_MOMENT_ORDER = 30
ORACLE_MAX_ORDER = 14  # the composition, generating-function and Boolean oracles
WALK_TOTAL_LIMIT = 2 ** 61  # a walk state's coefficient sum; see `walk_vacua`


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
    m_t = sum_j (t/j) [theta^j] <0|walk|0>.

    Every state holds one int64 array indexed by (theta power, qt power,
    q power).  A step moves a + b by at most one, so a state with
    a + b > n - t after t letters never returns to the vacuum by letter n:
    it is dropped, and one walk gives the exact m_1 .. m_n.

    The q axis stops at `q_power_bound(n)`, and nothing is cut off.  A kept
    state after t letters closes within t + a + b <= n letters, the first of
    them a d, so the o chords it has opened satisfy 2 o <= n - 1.  Each q
    counts one crossing pair of these chords (a close crosses some of the
    open chords opened after it, each pair at most once), so the q power is
    at most C(o, 2).  Every weight is positive, so no term cancels, and a
    shifted term past the axis would be a term of a kept state above the
    bound.  The qt power counts closed chords, at most o; the theta power
    counts letters d, at most t.

    Overflow guard: the coefficient sum of a state is its value at
    q = qt = theta = 1, computed exactly from the step weights.  Each step
    checks that every new sum stays below `WALK_TOTAL_LIMIT` = 2^61; every
    partial value of a step is at most twice such a sum, so int64 holds.
    """
    _check_order(n, MAX_MOMENT_ORDER)
    chords = (n - 1) // 2
    width = q_power_bound(n) + 1
    start = np.zeros((2, chords + 1, width), dtype=np.int64)
    start[1, 0, 0] = 1  # the leading d
    states = {(0, 0): (start, 1)}
    vacua = [_cyclic_moment(1, start)]
    for t in range(2, n + 1):
        room = n - t
        arrays: dict[tuple[int, int], np.ndarray] = {}
        sums: dict[tuple[int, int], int] = {}

        def target(key, weight, total):
            sums[key] = sums.get(key, 0) + weight * total
            arr = arrays.get(key)
            if arr is None:
                arr = arrays[key] = np.zeros((t + 1, chords + 1, width), dtype=np.int64)
            return arr

        for (a, b), (v, total) in states.items():
            if a + b + 1 <= room:  # x opens a chord
                target((a, b + 1), 1, total)[:t] += v
            if a + b <= room:  # d, a wall
                target((a + b, 0), 1, total)[1:t + 1] += v
            if a + b:
                # [k]_q v = c - q^k c with c the running sum of v along q
                c = np.cumsum(v, axis=2)
            if b:  # x closes an unpassed chord: [b]_q
                w = target((a, b - 1), b, total)[:t]
                w += c
                if b < width:
                    w[:, :, b:] -= c[:, :, :width - b]
            if a:  # x closes a passed chord: qt q^b [a]_q
                w = target((a - 1, b), a, total)[:t]
                if b < width:
                    w[:, 1:, b:] += c[:, :-1, :width - b]
                if a + b < width:
                    w[:, 1:, a + b:] -= c[:, :-1, :width - a - b]
        worst = max(sums.values())
        if worst >= WALK_TOTAL_LIMIT:
            raise ValueError(f"chord walk to order {n} outgrows int64: a state sums to {worst} "
                             f"at letter {t}")
        states = {key: (arr, sums[key]) for key, arr in arrays.items()}
        vacua.append(_cyclic_moment(t, states[(0, 0)][0]))
    return vacua


def _cyclic_moment(t: int, vacuum: np.ndarray) -> MultiPoly:
    """m_t from the vacuum array after t letters: [theta^j] times t/j.

    A word of length t with j letters d has j rotations that start with d,
    so t/j times the d-first sum is the sum over all words, and every
    coefficient is an integer.  Terms are inserted by descending theta
    power, the order of the composition route, so a float evaluation sums
    in the same order.
    """
    js, qts, qs = np.nonzero(vacuum)
    terms = {}
    for j, b, a, x in reversed(list(zip(js.tolist(), qts.tolist(), qs.tolist(),
                                        vacuum[js, qts, qs].tolist()))):
        m, rest = divmod(t * x, j)
        if rest:
            raise AssertionError(f"m_{t} has a non-integral coefficient at q^{a} qt^{b} theta^{j}")
        terms[(a, b, j)] = m
    return MultiPoly(terms)


_VACUA: dict[int, MultiPoly] = {}  # m_n from every walk so far


def reduced_moment(n: int) -> MultiPoly:
    """Exact reduced moment m_n as a polynomial in (q, qt, theta).

    A cache miss walks to n (`walk_vacua`) and keeps m_1 .. m_n, so a table
    asks for its highest order first and reads the rest from that walk.
    """
    _check_order(n, MAX_MOMENT_ORDER)
    if n not in _VACUA:
        _VACUA.update(enumerate(walk_vacua(n), start=1))
    return _VACUA[n]


# ---------------------------------------------------------------------------
# composition route
# ---------------------------------------------------------------------------

def _halve_qt(poly: MultiPoly) -> MultiPoly:
    """Collapse the doubled qt bookkeeping; every exponent must be even."""
    terms = {}
    for (a, b, c), coeff in poly.terms.items():
        if b % 2:
            raise AssertionError(f"half-integer qt power survived pairing: qt^{b}/2 in {poly}")
        terms[(a, b // 2, c)] = coeff
    return MultiPoly(terms)


def conditional_moment_expansion(k: int) -> HermiteExpansion:
    """Hermite expansion of the conditional k-th moment of the stationary
    q-Gaussian Markov transition.

    The coefficient of H_{k-2m} is c_{m,k} * qt^{(k-2m)/2}; since MultiPoly
    exponents are integers, the qt exponent stored here counts half powers
    (qt_pow = k-2m means qt to the (k-2m)/2).  It serves the composition
    and generating-function oracles only.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    base = monomial_to_hermite(k)
    coeffs = [base.coefficient(d) * MultiPoly.monomial(qt_pow=d) for d in range(base.degree + 1)]
    return HermiteExpansion(coeffs)


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
    """Vacuum expectation of prod_i b_{k_i}: per-interval contractions times
    the inter-interval linearization.  qt exponents in half units.  It
    serves the composition oracle only."""
    options = []
    for k in comp:
        exp = conditional_moment_expansion(k)
        options.append([(d, exp.coefficient(d)) for d in range(exp.degree + 1)
                        if not exp.coefficient(d).is_zero()])
    total = MultiPoly.zero()
    for choice in product(*options):
        degrees = [d for d, _ in choice]
        lin = linearization(degrees)
        if lin.is_zero():
            continue
        coeff = MultiPoly.one()
        for _, c in choice:
            coeff = coeff * c
        total = total + coeff * lin
    return total


def reduced_moment_compositions(n: int) -> MultiPoly:
    """m_n by the direct route: sum over the number 2j of random nodes, over
    interval counts l and ordered compositions (k_1..k_l) of 2j, with the
    cyclic factor n/(n-2j), the slot choice C(n-2j, l), per-interval
    contraction coefficients and the inter-interval linearization.

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
    return _halve_qt(total)


# ---------------------------------------------------------------------------
# generating-function route
# ---------------------------------------------------------------------------

@dataclass
class BSeries:
    """Truncated z-series of the interval generating function B(z, x0).

    coeffs[p] is the Hermite expansion multiplying z^p; the z^0 entry is
    identically empty and the z^1 coefficient is theta * H_0.  Coefficient
    polynomials carry theta markers and half-unit qt exponents.
    """

    order: int
    coeffs: list[HermiteExpansion] = field(default_factory=list)

    @classmethod
    def build(cls, order: int) -> "BSeries":
        theta = MultiPoly.theta()
        coeffs = [HermiteExpansion([])]
        for p in range(1, order + 1):
            coeffs.append(conditional_moment_expansion(p - 1).scale(theta))
        return cls(order=order, coeffs=coeffs)

    def evaluate(self, z: float, x0: float, q: float, qt: float, theta: float = 1.0) -> float:
        """Numeric partial sum of B at a point (principal sqrt for qt)."""
        sq = math.sqrt(qt)
        max_deg = max((exp.degree for exp in self.coeffs[1:]), default=0)
        hvals = qhermite.hermite_values(max(max_deg, 0), np.array(x0), q)
        total = 0.0
        for p in range(1, self.order + 1):
            exp = self.coeffs[p]
            coeff = 0.0
            for d in range(exp.degree + 1):
                poly = exp.coefficient(d)
                val = sum(float(frac) * q ** a * sq ** b * theta ** c
                          for (a, b, c), frac in poly.terms.items())
                coeff += val * float(hvals[d])
            total += coeff * z ** p
        return total


def _series_multiply(s1, s2, order):
    """Convolve two z-series whose coefficients map sorted Hermite-degree
    tuples to MultiPoly weights (vacuum expectation deferred)."""
    out = [dict() for _ in range(order + 1)]
    for p1, terms1 in enumerate(s1):
        if not terms1:
            continue
        for p2, terms2 in enumerate(s2):
            if not terms2 or p1 + p2 > order:
                continue
            bucket = out[p1 + p2]
            for key1, c1 in terms1.items():
                for key2, c2 in terms2.items():
                    key = tuple(sorted(key1 + key2))
                    prodc = c1 * c2
                    acc = bucket.get(key)
                    bucket[key] = prodc if acc is None else acc + prodc
    return out


@lru_cache(maxsize=None)
def reduced_moment_gf(n: int) -> MultiPoly:
    """m_n extracted from the pointed-cycle generating function.

    Builds log 1/(1-B) as a z-series whose coefficients are formal products
    of Hermite basis elements (kept unexpanded), takes n times the z^n
    coefficient, and evaluates every deferred product through the
    linearization kernel in one final pass.

    Oracle for `reduced_moment`.
    """
    _check_order(n, ORACLE_MAX_ORDER)
    bseries = BSeries.build(n)
    b_terms = [dict() for _ in range(n + 1)]
    for p in range(1, n + 1):
        exp = bseries.coeffs[p]
        for d in range(exp.degree + 1):
            coeff = exp.coefficient(d)
            if not coeff.is_zero():
                b_terms[p][(d,)] = coeff
    log_series = [dict() for _ in range(n + 1)]
    power = b_terms
    for m in range(1, n + 1):
        inv_m = Fraction(1, m)
        for p, terms in enumerate(power):
            bucket = log_series[p]
            for key, coeff in terms.items():
                scaled = inv_m * coeff
                acc = bucket.get(key)
                bucket[key] = scaled if acc is None else acc + scaled
        if m < n:
            power = _series_multiply(power, b_terms, n)
    total = MultiPoly.zero()
    for key, coeff in log_series[n].items():
        lin = linearization(list(key))
        if not lin.is_zero():
            total = total + coeff * lin
    return _halve_qt(n * total)


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
def boolean_moment_c1(n: int) -> MultiPoly:
    """Single-defect moment formula: the Boolean moment-cumulant special case.

    Sums over multisets of even-moment blocks RT(i) with multinomial slot
    weights and the cyclic prefactor; coincides with reduced_moment at
    qt = 0.
    """
    _check_order(n, ORACLE_MAX_ORDER)
    total = MultiPoly.monomial(theta_pow=n)
    for j in range(1, (n - 1) // 2 + 1):
        blocks = n - 2 * j
        cyclic = Fraction(n, blocks)
        for ks in _weak_compositions_weighted(j):
            s = sum(ks)
            if s > blocks:
                continue
            weight = math.factorial(blocks)
            for k in ks:
                weight //= math.factorial(k)
            weight //= math.factorial(blocks - s)
            term = MultiPoly.monomial(theta_pow=blocks, coeff=cyclic * weight)
            for i, k in enumerate(ks, start=1):
                if k:
                    term = term * rt_moment(i) ** k
            total = total + term
    return total


def qtilde_limit_check(n: int, which: int) -> MultiPoly:
    """Specialize m_n at qt = 0 or qt = 1 and assert it equals the
    corresponding independent formula (Boolean at 0, binomial shift at 1).

    Returns the specialized polynomial; raises ValueError with a diagnostic
    on inconsistency.  The Boolean side stops at `ORACLE_MAX_ORDER`, the
    binomial shift at `MAX_MOMENT_ORDER`.
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


def _b_fraction_once(z: float, x0: float, levels, theta: float) -> float:
    g = 0.0
    for j, sq_qj, off in levels:
        denom = 1.0 - sq_qj * x0 * z - off * z * z * g
        if denom == 0.0:
            raise ConvergenceError(f"continued fraction hit a pole at level {j}")
        g = 1.0 / denom
    return theta * z * g


def b_continued_fraction(z: float, x0: float, q: float, qt: float,
                         depth: int = 60, theta: float = 1.0) -> float:
    """Continued-fraction evaluation of the interval generating function B.

    Level j has diagonal sqrt(qt) q^j x0 and off-diagonal weight
    (1 - qt q^j)[j+1]_q; the level table is cached per (q, qt, depth).
    Convergence is checked by comparing the full depth with the same table
    cut five levels shorter.  theta enters as an overall linear factor.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("need 0 <= q < 1")
    if not 0.0 <= qt <= 1.0:
        raise ValueError("need 0 <= qt <= 1")
    if depth < 20:
        raise ValueError("depth must be at least 20")
    levels = _b_levels(float(q), float(qt), depth)
    deep = _b_fraction_once(z, x0, levels, theta)
    shallow = _b_fraction_once(z, x0, levels[5:], theta)
    if abs(deep - shallow) > 1e-12 * max(1.0, abs(deep)):
        raise ConvergenceError(
            f"continued fraction not settled at depth {depth}: |delta|={abs(deep - shallow):.3e}")
    return deep


def coherent_state_factor(x, q: float, z: float):
    """q-deformed coherent state product Gamma_q(x, z), truncated at the
    standard product tolerance."""
    x = np.asarray(x, dtype=float)
    K = qhermite.default_truncation(q)
    out = np.ones_like(x)
    for k in range(K):
        qk = q ** k
        out /= 1.0 - (1.0 - q) * qk * z * x + (1.0 - q) * qk * qk * z * z
    return out


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
    if not 0.0 <= q <= qhermite.Q_NUMERIC_MAX:
        raise ValueError(f"numeric q must lie in [0, {qhermite.Q_NUMERIC_MAX}]")
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
    def symbolic(cls, max_n: int) -> "MomentTable":
        return cls.specialized(max_n)

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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MomentTable":
        max_n = int(obj["max_n"])
        vals = [MultiPoly.from_json_obj(obj["moments"][str(n)]) for n in range(1, max_n + 1)]
        return cls(max_n, vals, dict(obj["params"]))

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
