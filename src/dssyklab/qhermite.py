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

from .qcore import HermiteExpansion, MultiPoly, q_binomial, q_factorial, q_integer

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


def monomial_to_hermite(k: int) -> HermiteExpansion:
    """Expansion x^k = sum_m c_{m,k} H_{k-2m}: the walk over k factors H_1 = x.

    Each step is x H_j = H_{j+1} + [j]_q H_{j-1}, so all coefficients come
    out as exact polynomials in q with no division.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    return _hermite_walk((1,) * k)


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
def _rogers_weight(m: int, n: int, k: int) -> MultiPoly:
    """[m k]_q [n k]_q [k]_q!: the H_{m+n-2k} coefficient of H_m H_n."""
    return q_binomial(m, k) * q_binomial(n, k) * q_factorial(k)


@lru_cache(maxsize=None)
def _hermite_walk(degrees: tuple[int, ...]) -> HermiteExpansion:
    """Expansion of H_{n_1} ... H_{n_l} in the Hermite basis.

    A walk on the chord-number basis: step i multiplies the running
    expansion by H_{n_i} through Rogers' formula
    H_m H_n = sum_k [m k]_q [n k]_q [k]_q! H_{m+n-2k}, where k counts the
    chords closed between the prefix and the new factor (the chord-number
    picture of Berkooz et al., arXiv:1811.02584).  Memoized on prefixes, so
    callers that share prefixes share the work.
    """
    if not degrees:
        return HermiteExpansion([MultiPoly.one()])
    prefix, n = _hermite_walk(degrees[:-1]), degrees[-1]
    coeffs = [MultiPoly.zero()] * (prefix.degree + n + 1)
    for m, c in enumerate(prefix.coeffs):
        if c.is_zero():
            continue
        for k in range(min(m, n) + 1):
            coeffs[m + n - 2 * k] = coeffs[m + n - 2 * k] + c * _rogers_weight(m, n, k)
    return HermiteExpansion(coeffs)


def linearization(degrees: list[int]) -> MultiPoly:
    """Vacuum expectation of prod_j H_{n_j}, as an exact polynomial in q.

    The H_0 coefficient of the Hermite walk over the degrees.  Zero whenever
    sum(n_j) is odd.  The value is symmetric in the degrees, so the walk
    runs over them in sorted order.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be nonnegative")
    return _hermite_walk(tuple(sorted(degrees))).coefficient(0)


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

def default_truncation(q: float) -> int:
    """Smallest K with q^K below the product tolerance (1 for q = 0)."""
    if q <= 0.0:
        return 1
    return max(1, math.ceil(math.log(PRODUCT_EPS) / math.log(q)))


def support_radius(q: float) -> float:
    return 2.0 / math.sqrt(1.0 - q)


def _theta_weight(theta: np.ndarray, q: float, K: int) -> np.ndarray:
    """Un-normalized quadrature weight in theta: (2/pi) sin^2(t) * product."""
    w = (2.0 / math.pi) * np.sin(theta) ** 2
    cos2t = np.cos(2.0 * theta)
    for k in range(1, K + 1):
        qk = q ** k
        w *= (1.0 - qk) * (1.0 - 2.0 * qk * cos2t + qk * qk)
    return w


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
    density's infinite product is truncated at default_truncation(q)
    factors.  Weights are renormalized so they sum to one.  Immutable after
    construction.
    """

    def __init__(self, q: float, panels: int = 64):
        if not 0.0 <= q <= Q_NUMERIC_MAX:
            raise ValueError(f"numeric q must lie in [0, {Q_NUMERIC_MAX}]")
        self.q = float(q)
        edges = np.linspace(0.0, math.pi, panels + 1)
        a, b = edges[:-1, None], edges[1:, None]  # one row per panel
        half = 0.5 * (b - a)
        theta = (0.5 * (a + b) + half * np.array(_GL8_NODES)).ravel()
        wtheta = ((half * np.array(_GL8_WEIGHTS)).ravel()
                  * _theta_weight(theta, self.q, default_truncation(self.q)))
        self._raw_mass = float(np.sum(wtheta))
        self.nodes = 2.0 * np.cos(theta) / math.sqrt(1.0 - self.q)
        self.weights = wtheta / self._raw_mass
        if np.any(self.weights <= 0):
            raise ValueError("quadrature produced non-positive weights")

    def moment(self, n: int) -> float:
        return float(np.sum(self.weights * self.nodes ** n))


@lru_cache(maxsize=32)
def quadrature(q: float) -> QGaussianQuadrature:
    return QGaussianQuadrature(q)


def nu_q_density(x, q: float):
    """Density of the q-Gaussian measure at x for 0 <= q <= 0.99.

    x may be a scalar or an array; a scalar gives a float.  The infinite
    product is truncated at default_truncation(q) factors, each applied to
    the whole grid at once, and the result is renormalized by the
    quadrature mass so the measure integrates to one.  At q = 0 this
    collapses to the semicircle sqrt(4 - x^2)/(2 pi).
    """
    if not 0.0 <= q <= Q_NUMERIC_MAX:
        raise ValueError(f"numeric q must lie in [0, {Q_NUMERIC_MAX}]")
    xs = np.asarray(x, dtype=float)
    R = support_radius(q)
    outside = np.flatnonzero(~(np.abs(xs) <= R * (1 + 1e-12)))  # NaN is outside too
    if outside.size:
        raise ValueError(f"x={float(xs.flat[outside[0]])} outside the support [-{R}, {R}]")
    mass = quadrature(q)._raw_mass
    arg = np.clip(xs.ravel() * math.sqrt(1.0 - q) / 2.0, -1.0, 1.0)
    # math, not numpy: numpy's acos/sin/cos differ from libm in the last bit
    theta = np.fromiter(map(math.acos, arg), float, arg.size)
    dens = (math.sqrt(1.0 - q) / math.pi) * np.fromiter(map(math.sin, theta), float, arg.size)
    cos2t = np.fromiter((math.cos(2.0 * t) for t in theta), float, arg.size)
    for k in range(1, default_truncation(q) + 1):
        qk = q ** k
        dens *= (1.0 - qk) * (1.0 - 2.0 * qk * cos2t + qk * qk)
    dens = (dens / mass).reshape(xs.shape)
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

    summed as a logarithm and exponentiated once.  The factors with
    a_k > 1/2 are taken one by one, as |1 - a e^{i phi}|^2 =
    (1-a)^2 + 4a sin^2(phi/2) keeps its digits as a -> 1.  The logarithm of
    the rest is sum_m b^m (4 cos(mt) cos(ms) - r^m) / (m (1 - q^m)) in
    b = a_{k0} <= 1/2, stopped once its tail bound
    5 b^m / (m (1 - q^m) (1 - b)) is below PRODUCT_EPS.  At r = 0 both
    parts are empty and the value is exactly 1.

    y may be a scalar or an array; a scalar gives a float.  A value beyond
    the float range raises a ConvergenceError naming the first such y in
    grid order.  p_r(x,.) integrates to one against the q-Gaussian measure.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("need 0 <= q < 1")
    if not 0.0 <= r < 1.0:
        raise ValueError("need 0 <= r < 1")
    ys = np.asarray(y, dtype=float)
    R = support_radius(q)
    if not (abs(x) <= R * (1 + 1e-12) and np.all(np.abs(ys) <= R * (1 + 1e-12))):  # NaN fails too
        raise ValueError("kernel arguments must lie inside the support")
    x, r, q = float(x), float(r), float(q)
    flat = ys.ravel()
    u = min(1.0, max(-1.0, x / R))  # cos t
    v = np.clip(flat / R, -1.0, 1.0)  # cos s
    t = math.acos(u)
    s = np.fromiter(map(math.acos, v), float, v.size)
    sin2_sum = np.fromiter(map(math.sin, (t + s) / 2.0), float, v.size) ** 2
    sin2_diff = np.fromiter(map(math.sin, (t - s) / 2.0), float, v.size) ** 2
    log_p, k = np.zeros_like(v), 0
    while (a := r * q ** k) > 0.5:
        gap = (1.0 - a) ** 2  # 1 - a and 1 - r are exact, as a, r > 1/2
        log_p += np.log(((1.0 - r) + r * (1.0 - a))  # 1 - r^2 q^k
                        / ((gap + 4.0 * a * sin2_sum) * (gap + 4.0 * a * sin2_diff)))
        k += 1
    m, b = 1, a
    tx_prev, tx = 1.0, u  # cos((m-1)t), cos(mt)
    ty_prev, ty = np.ones_like(v), v
    while 5.0 * (c := b ** m / (m * (1.0 - q ** m))) / (1.0 - b) >= PRODUCT_EPS:
        log_p += (4.0 * c * tx) * ty - c * r ** m
        tx, tx_prev = 2.0 * u * tx - tx_prev, tx
        ty, ty_prev = 2.0 * v * ty - ty_prev, ty
        m += 1
    over = np.flatnonzero(log_p > math.log(np.finfo(float).max))  # where math.exp overflows
    if over.size:
        raise ConvergenceError(
            f"kernel overflows a float at (x={x}, y={float(flat[over[0]])}, r={r}, q={q})")
    out = np.fromiter(map(math.exp, log_p), float, v.size).reshape(ys.shape)
    return float(out) if out.ndim == 0 else out
