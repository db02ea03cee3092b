"""Free additive convolution of a two-atom measure with the semicircle.

The support and density of mu_a (+) semicircle are reconstructed through
the subordination picture: for each u on a real grid, solve

    integral d mu_a(x) / ((u-x)^2 + v(u)^2) = 1

for v(u) >= 0 (v = 0 where no root exists), map the support through
psi(u) = u + integral (u-x) d mu_a / ((u-x)^2 + v^2), and read the density
as v(u)/pi at psi(u).  Spectral-outlier prediction for a vanishing atom
fraction is handled separately through the resolvent inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BISECTION_TOL = 1e-12


@dataclass
class GridMeasure:
    """Probability measure: point atoms plus a density sampled on a grid."""

    atoms: list[tuple[float, float]] = field(default_factory=list)
    grid: np.ndarray = field(default_factory=lambda: np.array([]))
    density: np.ndarray = field(default_factory=lambda: np.array([]))

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
    def point_masses(cls, atoms) -> "GridMeasure":
        return cls(atoms=list(atoms))

    @classmethod
    def semicircle(cls, grid_n: int = 2000) -> "GridMeasure":
        x = np.linspace(-2.0, 2.0, grid_n)
        rho = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * math.pi)
        return cls(grid=x, density=rho)

    def total_mass(self) -> float:
        mass = sum(m for _, m in self.atoms)
        if len(self.grid) > 1:
            mass += float(np.trapezoid(self.density, self.grid))
        return mass

    def support_max(self) -> float:
        candidates = [x for x, m in self.atoms if m > 0]
        if len(self.grid):
            positive = self.grid[self.density > 0]
            if len(positive):
                candidates.append(float(positive.max()))
        if not candidates:
            raise ValueError("measure has empty support")
        return max(candidates)

    def in_support(self, x: float, pad: float = 1e-9) -> bool:
        if any(abs(x - a) <= pad for a, m in self.atoms if m > 0):
            return True
        if len(self.grid) > 1:
            inside = (self.grid[0] - pad <= x <= self.grid[-1] + pad)
            if inside:
                rho = float(np.interp(x, self.grid, self.density))
                return rho > 0
        return False

    def cdf(self, x) -> np.ndarray:
        """Distribution function on arbitrary points (atoms included)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        if len(self.grid) > 1:
            cum = np.concatenate([[0.0], np.cumsum(
                0.5 * (self.density[1:] + self.density[:-1]) * np.diff(self.grid))])
            out += np.interp(x, self.grid, cum, left=0.0, right=cum[-1])
        for loc, mass in self.atoms:
            out += mass * (x >= loc)
        return out


@dataclass
class ConvolutionResult:
    measure: GridMeasure
    support_intervals: list[tuple[float, float]]
    outliers: list[float]


def resolvent(measure: GridMeasure, z: complex) -> complex:
    """Cauchy transform G(z) = integral d mu(x) / (z - x).

    Atoms are summed exactly, the density by trapezoid on its own grid.
    Evaluation on the real axis is allowed only outside the support.
    """
    z = complex(z)
    if z.imag == 0.0 and measure.in_support(z.real):
        raise ValueError(f"resolvent evaluated on the support at z={z.real}")
    total = 0j
    for loc, mass in measure.atoms:
        total += mass / (z - loc)
    if len(measure.grid) > 1:
        total += complex(np.trapezoid(measure.density / (z - measure.grid), measure.grid))
    return total


def semicircle_resolvent(z: complex) -> complex:
    """Closed form for the radius-2 semicircle: G(z) = (z - sqrt(z^2 - 4))/2,
    with the branch G(z) ~ 1/z at infinity."""
    z = complex(z)
    root = np.sqrt(z * z - 4.0)
    if (z.real * root.real + z.imag * root.imag) < 0:
        root = -root
    return (z - root) / 2.0


# ---------------------------------------------------------------------------
# two-atom measure (+) semicircle
# ---------------------------------------------------------------------------

def _atom_list(r: float, theta: float) -> list[tuple[float, float]]:
    if theta == 0.0:
        return [(0.0, 1.0)]
    return [(0.0, 1.0 - r), (theta, r)]


def _subordination_F(u: float, v: float, atoms) -> float:
    return sum(m / ((u - x) ** 2 + v * v) for x, m in atoms)


def _solve_v(u: float, atoms) -> float:
    """Root of F(v) = 1 on v > 0, or 0 when F(0) <= 1 (outside the support).

    F is strictly decreasing in v and F(1) <= total mass = 1, so v = 1
    always brackets the root from above; monotone bisection to 1e-12.
    """
    f0 = _subordination_F(u, 1e-150, atoms)
    if f0 <= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if _subordination_F(u, mid, atoms) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _psi(u: float, v: float, atoms) -> float:
    return u + sum(m * (u - x) / ((u - x) ** 2 + v * v) for x, m in atoms)


def _refine_edge(u_out: float, u_in: float, atoms) -> float:
    """Bisect for the support edge between a v = 0 point and a v > 0 point."""
    lo, hi = u_out, u_in
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _subordination_F(mid, 1e-150, atoms) > 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def semicircle_plus_atomic(r: float, theta: float, grid_n: int = 2000) -> ConvolutionResult:
    """Free additive convolution of (1-r) delta_0 + r delta_theta with the
    radius-2 semicircle, reconstructed by subordination.

    Returns the density resampled to uniform grids per support interval;
    the output is purely absolutely continuous (no atoms, no point
    outliers; a detached atom shows up as a second interval).
    """
    if not 0.0 < r < 1.0:
        raise ValueError("need 0 < r < 1")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if grid_n < 100:
        raise ValueError("grid_n too small")
    atoms = _atom_list(r, theta)
    lo = min(x for x, _ in atoms) - 3.0
    hi = max(x for x, _ in atoms) + 3.0
    base = np.linspace(lo, hi, grid_n)
    v_vals = np.array([_solve_v(u, atoms) for u in base])

    # locate support edges and refine the grid near them (sqrt behavior)
    u_points = list(base)
    for i in range(len(base) - 1):
        inside_l, inside_r = v_vals[i] > 0, v_vals[i + 1] > 0
        if inside_l == inside_r:
            continue
        if inside_r:
            edge = _refine_edge(base[i], base[i + 1], atoms)
            extra = edge + (base[i + 1] - edge) * np.geomspace(1e-6, 1.0, 24)[:-1]
        else:
            edge = _refine_edge(base[i + 1], base[i], atoms)
            extra = edge - (edge - base[i]) * np.geomspace(1e-6, 1.0, 24)[:-1]
        u_points.append(edge)
        u_points.extend(extra.tolist())
    u_points = np.array(sorted(u_points))
    v_points = np.array([_solve_v(u, atoms) for u in u_points])

    # split into contiguous positive-v runs; map parametrically through psi
    intervals = []
    runs = []
    i = 0
    while i < len(u_points):
        if v_points[i] > 0:
            j = i
            while j < len(u_points) and v_points[j] > 0:
                j += 1
            runs.append((max(i - 1, 0), min(j, len(u_points) - 1)))
            i = j
        else:
            i += 1

    grids, densities = [], []
    for a, b in runs:
        us = u_points[a:b + 1]
        vs = v_points[a:b + 1]
        xs = np.array([_psi(u, v, atoms) for u, v in zip(us, vs)])
        order = np.argsort(xs)
        xs, vs = xs[order], vs[order]
        intervals.append((float(xs[0]), float(xs[-1])))
        m = max(len(us), int(grid_n * (xs[-1] - xs[0]) / (hi - lo)), 200)
        uniform = np.linspace(xs[0], xs[-1], m)
        resampled = np.interp(uniform, xs, vs / math.pi)
        # the parametric integral sees the refined edge points; rescale the
        # uniform resample to it so no mass is lost to interpolation
        parametric_mass = float(np.trapezoid(vs / math.pi, xs))
        resampled_mass = float(np.trapezoid(resampled, uniform))
        if resampled_mass > 0:
            resampled *= parametric_mass / resampled_mass
        grids.append(uniform)
        densities.append(resampled)

    grid = np.concatenate(grids)
    density = np.concatenate(densities)
    order = np.argsort(grid)
    measure = GridMeasure(atoms=[], grid=grid[order], density=density[order])
    return ConvolutionResult(measure=measure, support_intervals=intervals, outliers=[])


def outlier_location(theta: float, g_resolvent, e_max: float,
                     search_pad: float = 50.0) -> float | None:
    """Detached-eigenvalue prediction for a vanishing atom fraction.

    Solves 1/G_b(E) = theta for E above the bulk edge e_max; returns None
    when theta <= 1/G_b(e_max) (no outlier detaches).  g_resolvent is the
    resolvent of the unperturbed measure, evaluated on the real axis.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    edge_threshold = 1.0 / complex(g_resolvent(e_max + 1e-12)).real
    if theta <= edge_threshold:
        return None
    lo = e_max + 1e-12
    hi = max(e_max + search_pad, e_max + theta + search_pad)
    f = lambda E: 1.0 / complex(g_resolvent(E)).real - theta
    if f(hi) < 0:
        raise ValueError("outlier search bracket too small")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check helpers
# ---------------------------------------------------------------------------

def wigner_plus_diagonal_spectrum(dim: int, r: float, theta: float,
                                  seed: int = 0) -> np.ndarray:
    """Eigenvalues of a GUE-like Wigner matrix (semicircle radius 2) plus a
    diagonal with a fraction r of entries equal to theta."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = (a + a.conj().T) / (2.0 * math.sqrt(dim))
    diag = np.zeros(dim)
    diag[: int(round(r * dim))] = theta
    w[np.diag_indices(dim)] = w[np.diag_indices(dim)].real + diag
    return np.linalg.eigvalsh(w)


def ks_distance(measure: GridMeasure, samples: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and the
    measure's distribution function."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    model = measure.cdf(samples)
    upper = np.abs(np.arange(1, n + 1) / n - model)
    lower = np.abs(np.arange(0, n) / n - model)
    return float(max(upper.max(), lower.max()))
