"""Free additive convolution of a two-atom measure with the semicircle.

The support and density of mu_a (+) semicircle are reconstructed through
the subordination picture (Biane 1997): for each real u, v(u) >= 0 solves

    F(u, v) = integral d mu_a(x) / ((u-x)^2 + v^2) = 1

(v = 0 where F(u, 0) <= 1), the support is mapped through
psi(u) = u + integral (u-x) d mu_a / ((u-x)^2 + v^2), and the density is
v(u)/pi at psi(u).  For two atoms F = 1 is a quadratic in s = v^2, so v(u)
is a closed form, and each support edge in u is bisected to adjacent floats
on a branch where F(u, 0) is monotone.  The spectral outlier for a
vanishing atom fraction has the closed form theta + 1/theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qhermite import ConvergenceError

# Near theta a float resolves u, and so the edges and the grid of the far
# band, only to eps |theta| (2.2e-10 at 1e6), against a band about 1 wide.
# The bisected edges keep the mass at r = 1/2 within 1e-4 of 1 to
# |theta| = 1e10; the cap is the one `ed` and `compare` keep
# (`edlab.MAX_ABS_THETA`), so every theta flag has the same bound.
MAX_ABS_THETA = 1e6
# The mass may miss 1 by 2e-4 where two bands touch (r = 1/2, theta = 2,
# grid 100); a larger miss is a reconstruction that failed.
MASS_TOLERANCE = 1e-3


@dataclass
class GridMeasure:
    """Probability measure given by a density sampled on a sorted grid."""

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.grid.shape != self.density.shape:
            raise ValueError("grid and density must have matching shapes")
        if len(self.grid) > 1 and np.any(np.diff(self.grid) < 0):
            raise ValueError("grid must be sorted")
        if np.any(self.density < -1e-12):
            raise ValueError("density must be nonnegative")

    @classmethod
    def semicircle(cls, grid_n: int = 2000) -> "GridMeasure":
        """The radius-2 semicircle density on `grid_n` points of [-2, 2].

        Oracle for `resolvent`, whose trapezoid value on this grid the tests
        compare with `semicircle_resolvent`.
        """
        x = np.linspace(-2.0, 2.0, grid_n)
        rho = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi)
        return cls(grid=x, density=rho)

    def total_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))

    def in_support(self, x: float) -> bool:
        if not self.grid[0] <= x <= self.grid[-1]:
            return False
        return float(np.interp(x, self.grid, self.density)) > 0

    def cdf(self, x) -> np.ndarray:
        """Distribution function on arbitrary points."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (self.density[1:] + self.density[:-1]) * np.diff(self.grid))])
        return np.interp(x, self.grid, cum, left=0.0, right=cum[-1])


@dataclass
class ConvolutionResult:
    measure: GridMeasure
    support_intervals: list[tuple[float, float]]


def resolvent(measure: GridMeasure, z: complex) -> complex:
    """Cauchy transform G(z) = integral d mu(x) / (z - x), by trapezoid on
    the measure's grid.

    Oracle for `semicircle_plus_atomic`, through the subordination identity.
    Evaluation on the real axis is allowed only outside the support.
    """
    z = complex(z)
    if z.imag == 0.0 and measure.in_support(z.real):
        raise ValueError(f"resolvent evaluated on the support at z={z.real}")
    return complex(np.trapezoid(measure.density / (z - measure.grid), measure.grid))


def semicircle_resolvent(z: complex) -> complex:
    """Closed form for the radius-2 semicircle: G(z) = (z - sqrt(z^2 - 4))/2,
    with the branch G(z) ~ 1/z at infinity.

    Oracle for `outlier_location`, whose E solves G(E) = 1/theta.
    """
    z = complex(z)
    root = np.sqrt(z * z - 4.0)
    if (z.real * root.real + z.imag * root.imag) < 0:
        root = -root
    return (z - root) / 2.0


# ---------------------------------------------------------------------------
# two-atom measure (+) semicircle
# ---------------------------------------------------------------------------

def _solve_v(u, atoms):
    """v(u) >= 0 with F(u, v) = 1 for the two atoms (x0, m0), (x1, m1); 0 where
    F(u, 0) <= 1 (outside the support).  Accepts a scalar or an array u.

    With s = v^2, A = (u-x0)^2 and B = (u-x1)^2, clearing the denominators of
    F = m0/(A+s) + m1/(B+s) = 1 gives s^2 + (A+B-1)s + AB - m0 B - m1 A = 0.
    F decreases in s on s > -min(A, B), so the wanted root is the larger one;
    with m0 + m1 = 1 its discriminant is D = (A-B-m0+m1)^2 + 4 m0 m1 > 0.
    Where P = A+B-1 > 0 the root (-P + sqrt D)/2 cancels (A is about theta^2
    near the far atom), so it is taken as -2Q/(P + sqrt D) with the constant
    term Q = AB - (m0 B + m1 A).  In that order Q is 0 at r = 0.1, theta = 2,
    u = 1, where F(u, 0) rounds to 1; (A-m0)(B-m1) - m0 m1 leaves -3e-17
    there, which v = sqrt(s) turns into 5e-9.
    """
    (x0, m0), (x1, m1) = atoms
    a, b = (u - x0) ** 2, (u - x1) ** 2
    p = a + b - 1.0
    root = np.sqrt((a - b - m0 + m1) ** 2 + 4.0 * m0 * m1)
    q = a * b - (m0 * b + m1 * a)
    s = np.where(p > 0, -2.0 * q / (np.abs(p) + root), (1.0 - a - b + root) / 2.0)
    return np.sqrt(np.maximum(s, 0.0))


def _psi(u, v, atoms):
    return u + sum(m * (u - x) / ((u - x) ** 2 + v * v) for x, m in atoms)


def _f0(u: float, atoms) -> float:
    """F(u, 0) = sum m/(u-x)^2, divided as m/(u-x)/(u-x) so that a subnormal
    gap overflows to inf instead of squaring to 0; inf at an atom."""
    total = 0.0
    for x, m in atoms:
        d = u - x
        total += m / d / d if d else math.inf
    return total


def _bisect(atoms, inside: float, outside: float) -> float:
    """Bisect F(u, 0) >= 1 from F(inside) >= 1 > F(outside) until the two
    ends are adjacent floats, and return the inside one."""
    while True:
        mid = (inside + outside) / 2.0
        if mid == inside or mid == outside:
            return inside
        if _f0(mid, atoms) >= 1.0:
            inside = mid
        else:
            outside = mid


def _edges(atoms) -> list[tuple[float, float]]:
    """Support intervals in u, where F(u, 0) = m_a/(u-a)^2 + m_b/(u-b)^2 >= 1
    for the atoms sorted a <= b.

    F is infinite at the atoms.  Outside [a, b] it decreases away from them,
    and F(a - t) <= 1/t^2, so F < 1 at a - 2 and at b + 2.  Between them F is
    convex with its minimum at u*, where (u* - a)/(b - u*) = (m_a/m_b)^(1/3).
    F(u*) is taken from these two offsets, as u* may round onto an atom:
    one band if F(u*) >= 1 (also where two bands touch, as at r = 1/2,
    theta = 2), else two, whose inner edges lie on [a, u*] and [u*, b].  Each
    edge is the float with F >= 1 next to one with F < 1.  A band whose edge
    is its atom is narrower than the float spacing there (its mass is below
    about 1e-19) and is dropped.
    """
    (a, m_a), (b, m_b) = sorted(atoms)
    left, right = _bisect(atoms, a, a - 2.0), _bisect(atoms, b, b + 2.0)
    ca, cb = m_a ** (1.0 / 3.0), m_b ** (1.0 / 3.0)
    to_a, to_b = (b - a) * ca / (ca + cb), (b - a) * cb / (ca + cb)
    if _f0(0.0, [(-to_a, m_a), (to_b, m_b)]) >= 1.0:
        return [(left, right)]
    u_star = a + to_a
    bands = [(left, _bisect(atoms, a, u_star)), (_bisect(atoms, b, u_star), right)]
    return [(lo, hi) for lo, hi in bands if lo not in (a, b) and hi not in (a, b)]


def semicircle_plus_atomic(r: float, theta: float, grid_n: int = 2000) -> ConvolutionResult:
    """Free additive convolution of (1-r) delta_0 + r delta_theta with the
    radius-2 semicircle, reconstructed by subordination.

    Returns the density resampled to uniform grids per support interval;
    the output is a density with no atoms (a detached atom shows up as a
    second interval).  |theta| is capped at `MAX_ABS_THETA`; a density that
    is not finite, or whose mass misses 1 by more than `MASS_TOLERANCE`, is
    a ConvergenceError.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("need 0 < r < 1")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if abs(theta) > MAX_ABS_THETA:
        raise ValueError(f"|theta| must be at most {MAX_ABS_THETA:g}")
    if grid_n < 100:
        raise ValueError("grid_n too small")
    atoms = [(0.0, 1.0 - r), (theta, r)]
    span = abs(theta) + 6.0
    intervals, grids, densities = [], [], []
    for lo, hi in _edges(atoms):
        # cosine spacing clusters u at both edges, where v ~ sqrt(distance),
        # and makes v smooth in the grid parameter
        m = max(int(grid_n * (hi - lo) / span), 200)
        us = lo + (hi - lo) * (1.0 - np.cos(np.linspace(0.0, math.pi, m))) / 2.0
        vs = _solve_v(us, atoms)
        vs[[0, -1]] = 0.0
        xs = _psi(us, vs, atoms)
        intervals.append((float(xs[0]), float(xs[-1])))
        n = max(m, int(grid_n * (xs[-1] - xs[0]) / span), 200)
        uniform = np.linspace(xs[0], xs[-1], n)
        resampled = np.interp(uniform, xs, vs / math.pi)
        # rescale the uniform resample to the parametric integral, which
        # resolves the square-root edges, so no mass is lost to interpolation
        parametric_mass = float(np.trapezoid(vs / math.pi, xs))
        resampled_mass = float(np.trapezoid(resampled, uniform))
        if resampled_mass > 0:
            resampled *= parametric_mass / resampled_mass
        grids.append(uniform)
        densities.append(resampled)

    measure = GridMeasure(grid=np.concatenate(grids), density=np.concatenate(densities))
    mass = measure.total_mass()
    if not (np.isfinite(measure.density).all() and abs(mass - 1.0) <= MASS_TOLERANCE):
        raise ConvergenceError(f"free convolution lost its mass at r={r}, theta={theta}: "
                               f"it sums to {mass!r}")
    return ConvolutionResult(measure=measure, support_intervals=intervals)


def outlier_location(theta: float) -> float | None:
    """Detached-eigenvalue prediction for a vanishing atom fraction.

    The outlier E solves 1/G(E) = theta with G the semicircle resolvent,
    which gives E = theta + 1/theta when |theta| > 1 (Benaych-Georges and
    Nadakuditi, arXiv:0910.2120).  The semicircle is symmetric, so the map
    is odd in theta: a negative theta detaches the outlier below the bulk.
    For |theta| <= 1 no outlier detaches and the result is None.
    """
    if abs(theta) <= 1.0:
        return None
    return theta + 1.0 / theta


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check helpers
# ---------------------------------------------------------------------------

def wigner_plus_diagonal_spectrum(dim: int, r: float, theta: float,
                                  seed: int = 0) -> np.ndarray:
    """Eigenvalues of a GUE-like Wigner matrix (semicircle radius 2) plus a
    diagonal with a fraction r of entries equal to theta.

    Oracle for `semicircle_plus_atomic`, by Monte Carlo.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = (a + a.conj().T) / (2.0 * math.sqrt(dim))
    diag = np.zeros(dim)
    diag[: int(round(r * dim))] = theta
    w[np.diag_indices(dim)] = w[np.diag_indices(dim)].real + diag
    return np.linalg.eigvalsh(w)


def ks_distance(measure: GridMeasure, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and the
    measure's distribution function.

    Oracle for `semicircle_plus_atomic`, with `wigner_plus_diagonal_spectrum`.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    model = measure.cdf(samples)
    upper = np.abs(np.arange(1, n + 1) / n - model)
    lower = np.abs(np.arange(0, n) / n - model)
    return float(max(upper.max(), lower.max()))
