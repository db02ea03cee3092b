import math

import numpy as np
import pytest

from dssyklab import freeconv as fc
from dssyklab.qhermite import ConvergenceError


class TestResolvent:
    def test_semicircle_closed_form_point(self):
        semi = fc.GridMeasure.semicircle(4000)
        val = fc.resolvent(semi, 3.0)
        assert val.real == pytest.approx((3 - math.sqrt(5)) / 2, abs=5e-6)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_off_axis(self):
        semi = fc.GridMeasure.semicircle(4000)
        for x in (-1.5, 0.0, 1.0, 1.9, 2.5):
            for eps in (0.05, 0.2):
                got = fc.resolvent(semi, x + 1j * eps)
                want = fc.semicircle_resolvent(x + 1j * eps)
                assert abs(got - want) < 1e-4

    def test_nevanlinna_sign(self):
        semi = fc.GridMeasure.semicircle(2000)
        for x in (-1.0, 0.0, 0.7):
            assert fc.resolvent(semi, x + 0.1j).imag < 0

    def test_stieltjes_inversion_limit(self):
        # -Im G(x + i eps)/pi approaches the density as eps shrinks
        x = 1.0
        rho = math.sqrt(3) / (2 * math.pi)
        errors = [abs(-fc.semicircle_resolvent(x + 1j * eps).imag / math.pi - rho)
                  for eps in (0.2, 0.1, 0.05)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.01

    def test_support_is_rejected(self):
        semi = fc.GridMeasure.semicircle(2000)
        with pytest.raises(ValueError):
            fc.resolvent(semi, 0.5)


def _F(u, v, atoms):
    with np.errstate(divide="ignore"):
        return sum(m / ((u - x) ** 2 + v * v) for x, m in atoms)


def _bisect_v(u, atoms):
    """Oracle for v(u): F(u, v) decreases in v and F(u, 1) <= 1."""
    if _F(u, 0.0, atoms) <= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _F(u, mid, atoms) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_edges(atoms):
    """Oracle for the support edges in u: sign changes of F(u, 0) - 1 on a
    fine scan, each bisected to machine precision."""
    xs = [x for x, _ in atoms]
    # an even point count keeps the scan off the tangent point u = 1 of (1/2, 2)
    us = np.linspace(min(xs) - 3.0, max(xs) + 3.0, 4000)
    inside = _F(us, 0.0, atoms) > 1.0
    edges = []
    for i in np.flatnonzero(inside[1:] != inside[:-1]):
        lo, hi = us[i], us[i + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (_F(mid, 0.0, atoms) > 1.0) == inside[i]:
                lo = mid
            else:
                hi = mid
        edges.append(0.5 * (lo + hi))
    return edges


CASES = ((0.25, 3.0), (0.25, 1.0), (0.5, 0.0), (0.1, 2.0), (0.75, 4.0), (0.1, -2.0),
         (0.5, 2.0), (1e-3, 8.0))


class TestClosedForm:
    @pytest.mark.parametrize("r,theta", CASES)
    def test_solve_v_matches_bisection(self, r, theta):
        atoms = [(0.0, 1.0 - r), (theta, r)]
        us = np.linspace(min(0.0, theta) - 3.0, max(0.0, theta) + 3.0, 601)
        want = np.array([_bisect_v(u, atoms) for u in us])
        assert np.abs(fc._solve_v(us, atoms) - want).max() < 1e-10
        assert fc._solve_v(float(us[250]), atoms) == pytest.approx(want[250], abs=1e-10)

    @pytest.mark.parametrize("r,theta", CASES)
    def test_edges_match_bisection(self, r, theta):
        atoms = [(0.0, 1.0 - r), (theta, r)]
        res = fc.semicircle_plus_atomic(r, theta)
        want = [fc._psi(u, 0.0, atoms) for u in _bisect_edges(atoms)]
        got = [x for interval in res.support_intervals for x in interval]
        assert len(got) == len(want)
        assert np.abs(np.array(got) - np.array(want)).max() < 1e-9

    def test_tangent_bands_are_one_interval(self):
        # at r = 1/2, theta = 2 the two bands touch at u = 1 (a double root)
        assert len(fc.semicircle_plus_atomic(0.5, 2.0).support_intervals) == 1
        assert len(fc.semicircle_plus_atomic(0.5, 2.1).support_intervals) == 2


class TestConvolution:
    def test_mass_within_tolerance(self):
        sweep = [(r, 2.0 + 0.02 * i) for r in (0.125, 0.25, 0.5) for i in range(151)]
        for r, theta in [(0.25, 3.0), (0.25, 1.0), (0.5, 0.0), (0.1, 2.0), (0.75, 4.0)] + sweep:
            res = fc.semicircle_plus_atomic(r, theta)
            assert abs(res.measure.total_mass() - 1.0) < 1e-4, (r, theta)

    def test_theta_cap(self):
        fc.semicircle_plus_atomic(0.5, fc.MAX_ABS_THETA)
        with pytest.raises(ValueError, match="at most 1e"):
            fc.semicircle_plus_atomic(0.5, -2 * fc.MAX_ABS_THETA)

    @pytest.mark.parametrize("r,theta", [(0.999999, 74989.0), (0.999999999, 2371.4),
                                         (0.0001, 1e5)])
    def test_lost_mass_is_a_convergence_error(self, r, theta):
        with pytest.raises(ConvergenceError, match="lost its mass"):
            fc.semicircle_plus_atomic(r, theta)

    def test_identity_limit(self):
        res = fc.semicircle_plus_atomic(1e-4, 0.0)
        xs = np.linspace(-1.99, 1.99, 500)
        model = np.interp(xs, res.measure.grid, res.measure.density)
        pure = np.sqrt(4.0 - xs ** 2) / (2 * math.pi)
        assert np.abs(model - pure).max() < 1e-2

    def test_coincident_atoms_give_semicircle(self):
        res = fc.semicircle_plus_atomic(0.5, 0.0)
        assert len(res.support_intervals) == 1
        a, b = res.support_intervals[0]
        assert a == pytest.approx(-2.0, abs=1e-6)
        assert b == pytest.approx(2.0, abs=1e-6)
        xs = np.linspace(-1.9, 1.9, 200)
        model = np.interp(xs, res.measure.grid, res.measure.density)
        assert np.abs(model - np.sqrt(4 - xs ** 2) / (2 * math.pi)).max() < 1e-3

    def test_two_bands_at_strong_defect(self):
        res = fc.semicircle_plus_atomic(0.25, 3.0)
        assert len(res.support_intervals) == 2
        (a1, b1), (a2, b2) = res.support_intervals
        assert b1 < a2  # disjoint and sorted
        # upper band carries about r of the mass
        upper = res.measure.grid >= a2
        upper_mass = np.trapezoid(res.measure.density[upper], res.measure.grid[upper])
        assert upper_mass == pytest.approx(0.25, abs=0.01)

    def test_single_band_at_weak_defect(self):
        res = fc.semicircle_plus_atomic(0.25, 1.0)
        assert len(res.support_intervals) == 1

    def test_mirror_symmetry(self):
        plus = fc.semicircle_plus_atomic(0.5, 2.0)
        minus = fc.semicircle_plus_atomic(0.5, -2.0)
        xs = np.linspace(plus.measure.grid[0], plus.measure.grid[-1], 400)
        rho_plus = np.interp(xs, plus.measure.grid, plus.measure.density)
        rho_minus = np.interp(-xs[::-1], minus.measure.grid, minus.measure.density)
        assert np.abs(rho_plus - rho_minus[::-1]).max() < 1e-9

    def test_density_nonnegative(self):
        res = fc.semicircle_plus_atomic(0.3, 2.5)
        assert np.all(res.measure.density >= 0)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            fc.semicircle_plus_atomic(0.0, 1.0)
        with pytest.raises(ValueError):
            fc.semicircle_plus_atomic(1.0, 1.0)

    def test_subordination_identity(self):
        res = fc.semicircle_plus_atomic(0.25, 3.0)
        atoms = [(0.0, 0.75), (3.0, 0.25)]
        h = float(np.median(np.diff(res.measure.grid)))
        eps = 4 * h
        for u in np.linspace(-1.2, 1.2, 9):
            v = fc._solve_v(u, atoms)
            if v <= 1e-6:
                continue
            psi = fc._psi(u, v, atoms)
            # Richardson in eps cancels the linear smoothing error
            g = 2 * fc.resolvent(res.measure, psi + 1j * eps) \
                - fc.resolvent(res.measure, psi + 2j * eps)
            target = sum(m / ((u + 1j * v) - x) for x, m in atoms)
            assert abs(g - target) < 2e-3


class TestOutlier:
    @pytest.mark.parametrize("theta", [1.5, 2.0, 3.0])
    def test_semicircle_outlier(self, theta):
        # the outlier E solves G(E) = 1/theta
        loc = fc.outlier_location(theta)
        assert abs(fc.semicircle_resolvent(loc) - 1 / theta) < 1e-12

    def test_below_threshold_none(self):
        assert fc.outlier_location(0.5) is None
        assert fc.outlier_location(0.999) is None
        assert fc.outlier_location(1.0) is None

    def test_asymptote(self):
        # far from the bulk 1/G(E) - E cancels, so a root search on it loses digits
        assert fc.outlier_location(60.0) == pytest.approx(60.0 + 1 / 60.0, rel=1e-15)
        assert fc.outlier_location(1e6) == pytest.approx(1e6 + 1e-6, rel=1e-15)

    def test_grid_resolvent_route(self):
        semi = fc.GridMeasure.semicircle(8000)
        for theta in (1.5, 2.0, 3.0):
            assert abs(fc.resolvent(semi, fc.outlier_location(theta)) - 1 / theta) < 1e-5

    def test_odd_in_theta(self):
        # the mirrored measure has the mirrored outlier, below the bulk
        assert fc.outlier_location(-1.0) is None
        assert fc.outlier_location(0.0) is None
        assert fc.outlier_location(-0.5) is None
        for theta in (1.5, 3.0, 60.0):
            assert fc.outlier_location(-theta) == -fc.outlier_location(theta)
        assert fc.outlier_location(-3.0) == pytest.approx(-10 / 3, rel=1e-15)


class TestMonteCarlo:
    def test_wigner_plus_diagonal_ks(self):
        res = fc.semicircle_plus_atomic(0.25, 3.0)
        eigs = fc.wigner_plus_diagonal_spectrum(1024, 0.25, 3.0, seed=5)
        assert fc.ks_distance(res.measure, eigs) < 0.05

    def test_pure_wigner_ks(self):
        semi = fc.GridMeasure.semicircle(4000)
        eigs = fc.wigner_plus_diagonal_spectrum(1024, 0.5, 0.0, seed=9)
        assert fc.ks_distance(semi, eigs) < 0.05


class TestGridMeasure:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fc.GridMeasure(grid=np.array([0.0, 1.0]), density=np.array([1.0]))
