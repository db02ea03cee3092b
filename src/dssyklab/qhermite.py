"""q-Hermite polynomial machinery.

The monic combinatorial normalization is used throughout:

    x H_n(x) = H_{n+1}(x) + [n]_q H_{n-1}(x),   H_0 = 1, H_1 = x.

Symbolic operations (basis changes, linearization coefficients, moments)
stay exact over the rationals; the orthogonality measure, its quadrature
and the conditional q-normal kernel are the numeric layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .qcore import (HermiteExpansion, MultiPoly, involution_number, pack, q_binomial,
                    q_factorial, q_integer, unpack, word_width)

Q_NUMERIC_MAX = 0.99
PRODUCT_EPS = 1e-16


class ConvergenceError(RuntimeError):
    """A truncated sum or iteration failed to settle within its budget."""


# ---------------------------------------------------------------------------
# exact symbolic layer
# ---------------------------------------------------------------------------

def hermite_in_x(n: int) -> list[MultiPoly]:
    """Coefficients of H_n^(q) in the monomial basis x^0 .. x^n.

    Oracle for `monomial_to_hermite`, whose basis change it inverts.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    prev = [MultiPoly.one()]          # H_0
    if n == 0:
        return prev
    cur = [MultiPoly.zero(), MultiPoly.one()]  # H_1 = x
    for m in range(1, n):
        # H_{m+1} = x H_m - [m]_q H_{m-1}
        shifted = [MultiPoly.zero()] + cur
        qm = q_integer(m)
        nxt = [shifted[i] - (prev[i] * qm if i < len(prev) else MultiPoly.zero())
               for i in range(m + 2)]
        prev, cur = cur, nxt
    return cur


@lru_cache(maxsize=None)
def monomial_to_hermite(k: int) -> HermiteExpansion:
    """Expansion x^k = sum_m c_{m,k} H_{k-2m}: the walk over k factors H_1 = x.

    Each step is x H_j = H_{j+1} + [j]_q H_{j-1}, so all coefficients come
    out as exact polynomials in q with no division.  Memoized, so each
    power is unpacked from the walk once per process.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    width, coeffs = _hermite_walk((1,) * k)
    return HermiteExpansion(unpack(c, width) for c in coeffs)


def c_closed_form(m: int, n: int, q_value: Fraction) -> Fraction:
    """Closed-form alternating sum for c_{m,n}, evaluated exactly at rational q.

    Oracle for `monomial_to_hermite`, whose H_{n-2m} coefficient of x^n it
    is.  The 1/(1-q)^m prefactor makes q = 1 a genuine pole of the
    expression (the walk covers q = 1).
    """
    q_value = Fraction(q_value)
    if m < 0 or 2 * m > n:
        raise ValueError("need 0 <= 2m <= n")
    if q_value == 1:
        raise ValueError("closed form is singular at q = 1; use the recurrence route")
    total = Fraction(0)
    for j in range(m + 1):
        gauss = q_binomial(n - 2 * m + j, j).evaluate_exact(q_value, 0, 0)
        term = (Fraction(n - 2 * m + 2 * j + 1, n + 1)
                * math.comb(n + 1, m - j) * gauss
                * q_value ** (j + j * (j - 1) // 2))
        total += -term if j % 2 else term
    return total / (1 - q_value) ** m


@lru_cache(maxsize=None)
def _rogers_weight(m: int, n: int, k: int, width: int) -> int:
    """[m k]_q [n k]_q [k]_q!, the H_{m+n-2k} coefficient of H_m H_n, packed
    at `width` (which must hold the involution number T(m + n))."""
    return (pack(q_binomial(m, k), width) * pack(q_binomial(n, k), width)
            * pack(q_factorial(k), width))


@lru_cache(maxsize=None)
def _hermite_walk(degrees: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Expansion of H_{n_1} ... H_{n_l} in the Hermite basis, as a digit
    width and the coefficients of H_0, H_1, ... packed at that width.

    A walk on the chord-number basis: step i multiplies the running
    expansion by H_{n_i} through Rogers' formula
    H_m H_n = sum_k [m k]_q [n k]_q [k]_q! H_{m+n-2k}, where k counts the
    chords closed between the prefix and the new factor (the chord-number
    picture of Berkooz et al., arXiv:1811.02584).  Every product of two
    polynomials in q is one integer product (`qcore.pack`).

    No digit carries.  At q = 1 the H_j coefficient of a product of total
    degree D counts the partial matchings of its D points that leave j of
    them unmatched, so it does not exceed the involution number T(D)
    (`qcore.involution_number`); every coefficient, and every partial sum
    and product that formed it, has nonnegative coefficients in q, so none
    of their digits does either.  A step of total degree D works at
    `qcore.word_width`(T(D)) bits and repacks its prefix when that width
    grows.  Memoized on prefixes, so callers that share prefixes share the
    work.
    """
    if not degrees:
        return word_width(1), (1,)
    (width, prefix), n = _hermite_walk(degrees[:-1]), degrees[-1]
    wide = word_width(involution_number(sum(degrees)))
    if wide != width:
        prefix = [pack(unpack(c, width), wide) for c in prefix]
    coeffs = [0] * (len(prefix) + n)
    for m, c in enumerate(prefix):
        if c:
            for k in range(min(m, n) + 1):
                coeffs[m + n - 2 * k] += c * _rogers_weight(m, n, k, wide)
    return wide, tuple(coeffs)


def linearization(degrees: list[int]) -> MultiPoly:
    """Vacuum expectation of prod_j H_{n_j}, as an exact polynomial in q.

    The H_0 coefficient of the Hermite walk over the degrees.  Zero whenever
    sum(n_j) is odd.  The value is symmetric in the degrees, so the walk
    runs over them in sorted order.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    width, coeffs = _hermite_walk(tuple(sorted(degrees)))
    return unpack(coeffs[0], width)


def rt_moment(k: int) -> MultiPoly:
    """2k-th q-Gaussian moment: sum over perfect matchings of q^crossings.

    The H_0 coefficient of x^{2k}, read off the Hermite walk.  The chord
    transfer matrix in `chordcombi` is its independent oracle.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return monomial_to_hermite(2 * k).coefficient(0)


# ---------------------------------------------------------------------------
# numeric layer: the q-Gaussian measure and its quadrature
# ---------------------------------------------------------------------------

def support_radius(q: float) -> float:
    return 2.0 / math.sqrt(1.0 - q)


def check_numeric_q(q: float) -> None:
    """Reject a q outside [0, Q_NUMERIC_MAX] (NaN too) for the float layer."""
    if not 0.0 <= q <= Q_NUMERIC_MAX:
        raise ValueError(f"numeric q must lie in [0, {Q_NUMERIC_MAX}]")


def _support_cos(xs: np.ndarray, q: float) -> np.ndarray:
    """cos t of x = 2 cos t/sqrt(1-q), flat; names the first x outside the support (or NaN)."""
    R = support_radius(q)
    outside = np.flatnonzero(~(np.abs(xs) <= R * (1 + 1e-12)))
    if outside.size:
        raise ValueError(f"x={float(xs.flat[outside[0]])} outside the support [-{R}, {R}]")
    return np.clip(xs.ravel() * math.sqrt(1.0 - q) / 2.0, -1.0, 1.0)


def _log_q_product(a: float, q: float, cos_phi, sin2_half_phi):
    """sum_{k>=0} log|1 - a q^k e^{i phi}|^2 for 0 <= a < 1 and 0 <= q < 1.

    cos_phi and sin2_half_phi = sin^2(phi/2) are floats or arrays of one
    shape.  The factors with b = a q^k > 1/2 are taken one by one, as
    |1 - b e^{i phi}|^2 = (1-b)^2 + 4b sin^2(phi/2) keeps its digits as
    b -> 1.  The rest is -2 sum_m b^m cos(m phi) / (m (1 - q^m)) in the first
    b <= 1/2, with cos(m phi) by the Chebyshev recurrence, stopped once its
    tail bound 2 b^m / (m (1 - q^m) (1 - b)) is below PRODUCT_EPS.  At
    phi = 0 the sum is 2 log (a; q)_inf.
    """
    total, k = 0.0 * cos_phi, 0  # a float, or a fresh array
    while (b := a * q ** k) > 0.5:
        total += np.log((1.0 - b) ** 2 + 4.0 * b * sin2_half_phi)  # 1 - b is exact
        k += 1
    m, cos_prev, cos_m, two_cos = 1, 1.0, cos_phi, 2.0 * cos_phi  # cos((m-1) phi), cos(m phi)
    while 2.0 * (c := b ** m / (m * (1.0 - q ** m))) / (1.0 - b) >= PRODUCT_EPS:
        total -= 2.0 * c * cos_m
        cos_m, cos_prev = two_cos * cos_m - cos_prev, cos_m
        m += 1
    return total


def _theta_weight(theta: np.ndarray, q: float) -> np.ndarray:
    """Quadrature weight in theta: (2/pi) sin^2(t) (q; q)_inf prod_{k>=1} |1 - q^k e^{2it}|^2."""
    sin2 = np.sin(theta) ** 2
    log_prod = 0.5 * _log_q_product(q, q, 1.0, 0.0) + _log_q_product(q, q, 1.0 - 2.0 * sin2, sin2)
    return (2.0 / math.pi) * sin2 * np.exp(log_prod)


# The 8-point Gauss-Legendre rule on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(8), which is not imported for it.
_GL8_NODES = (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
              -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
              0.7966664774136267, 0.9602898564975362)
_GL8_WEIGHTS = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                0.22238103445337443, 0.10122853629037706)


class QGaussianQuadrature:
    """Fixed quadrature rule for integrals against the q-Gaussian measure.

    Uses the substitution x = 2 cos(theta)/sqrt(1-q) and composite
    Gauss-Legendre panels of 8 points on theta in [0, pi], each the constant
    rule `_GL8_NODES`, `_GL8_WEIGHTS`; the substitution
    removes the square-root endpoint singularities of the density.  The
    weight carries the density's infinite product through `_log_q_product`,
    so the rule has mass one up to its quadrature error; the weights are
    renormalized by their sum all the same.  Immutable after construction.
    """

    def __init__(self, q: float, panels: int = 64):
        check_numeric_q(q)
        self.q = float(q)
        edges = np.linspace(0.0, math.pi, panels + 1)
        a, b = edges[:-1, None], edges[1:, None]  # one row per panel
        half = 0.5 * (b - a)
        theta = (0.5 * (a + b) + half * np.array(_GL8_NODES)).ravel()
        wtheta = (half * np.array(_GL8_WEIGHTS)).ravel() * _theta_weight(theta, self.q)
        self.nodes = 2.0 * np.cos(theta) / math.sqrt(1.0 - self.q)
        self.weights = wtheta / np.sum(wtheta)
        if np.any(self.weights <= 0):
            raise ValueError("quadrature produced non-positive weights")

    def moment(self, n: int) -> float:
        return float(np.sum(self.weights * self.nodes ** n))


def nu_q_density(x, q: float):
    """Density of the q-Gaussian measure at x for 0 <= q <= 0.99.

    With x = 2 cos t/sqrt(1-q) it is sqrt(1-q)/pi sin t (q; q)_inf
    prod_{k>=1} |1 - q^k e^{2it}|^2, of mass exactly one, the product summed
    as a logarithm by `_log_q_product` over the whole grid at once.  x may
    be a scalar or an array; a scalar gives a float.  At q = 0 this
    collapses to the semicircle sqrt(4 - x^2)/(2 pi).
    """
    check_numeric_q(q)
    xs = np.asarray(x, dtype=float)
    arg = _support_cos(xs, q)
    # math, not numpy: numpy's acos/sin differ from libm in the last bit
    theta = np.fromiter(map(math.acos, arg), float, arg.size)
    sin_t = np.fromiter(map(math.sin, theta), float, arg.size)
    sin2 = sin_t ** 2
    log_prod = 0.5 * _log_q_product(q, q, 1.0, 0.0) + _log_q_product(q, q, 1.0 - 2.0 * sin2, sin2)
    dens = ((math.sqrt(1.0 - q) / math.pi) * sin_t * np.exp(log_prod)).reshape(xs.shape)
    return float(dens) if dens.ndim == 0 else dens


def hermite_values(n_max: int, x, q: float):
    """H_0(x) .. H_{n_max}(x) by the recurrence, on scalars or arrays."""
    x = np.asarray(x, dtype=float)
    values = [np.ones_like(x)]
    if n_max >= 1:
        values.append(x.copy())
    qn = 0.0
    for n in range(1, n_max):
        qn = qn * q + 1.0  # [n]_q
        values.append(x * values[n] - qn * values[n - 1])
    return values


def conditional_kernel(x: float, y, r: float, q: float):
    """Conditional q-normal kernel p_r(x,y) = sum_n r^n H_n(x) H_n(y) / [n]_q!.

    The q-Ornstein-Uhlenbeck transition density (Bozejko, Kuemmerer and
    Speicher, Comm. Math. Phys. 185 (1997) 129) in closed form, the q-Mehler
    product (Bressoud, Indiana Univ. Math. J. 29 (1980) 577): with
    x = 2 cos t/sqrt(1-q), y = 2 cos s/sqrt(1-q) and a_k = r q^k,

        p_r(x,y) = (r^2; q)_inf / prod_k |1 - a_k e^{i(t+s)}|^2 |1 - a_k e^{i(t-s)}|^2,

    summed as a logarithm by `_log_q_product` and exponentiated once, with
    the factor 1 - r^2 of (r^2; q)_inf taken as (1-r)(1+r) so that it keeps
    its digits as r -> 1.  At r = 0 every factor is 1 and the value is
    exactly 1.

    y may be a scalar or an array; a scalar gives a float.  q is capped at
    Q_NUMERIC_MAX, where the largest value, at x = y = R and r -> 1, is below
    e^593 and so within the float range.  p_r(x,.) integrates to one against
    the q-Gaussian measure.
    """
    check_numeric_q(q)
    if not 0.0 <= r < 1.0:
        raise ValueError("need 0 <= r < 1")
    ys = np.asarray(y, dtype=float)
    R = support_radius(q)
    if not (abs(x) <= R * (1 + 1e-12) and np.all(np.abs(ys) <= R * (1 + 1e-12))):  # NaN fails too
        raise ValueError("kernel arguments must lie inside the support")
    x, r, q = float(x), float(r), float(q)
    cos_t = min(1.0, max(-1.0, x / R))
    cos_s = np.clip(ys.ravel() / R, -1.0, 1.0)
    # sin(t/2) cos(s/2) and cos(t/2) sin(s/2); negating x and y swaps them
    # exactly, so p_r(-x, -y) = p_r(x, y) bit for bit
    a = math.sqrt((1.0 - cos_t) / 2.0) * np.sqrt((1.0 + cos_s) / 2.0)
    b = math.sqrt((1.0 + cos_t) / 2.0) * np.sqrt((1.0 - cos_s) / 2.0)
    sin2 = np.stack([a + b, a - b]) ** 2  # sin^2((t + s)/2), sin^2((t - s)/2)
    log_p = (math.log((1.0 - r) * (1.0 + r)) + 0.5 * _log_q_product(r * r * q, q, 1.0, 0.0)
             - _log_q_product(r, q, 1.0 - 2.0 * sin2, sin2).sum(axis=0))
    out = np.fromiter(map(math.exp, log_p), float, ys.size).reshape(ys.shape)
    return float(out) if out.ndim == 0 else out
