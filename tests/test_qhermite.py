import cmath
import decimal
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from dssyklab import chordcombi as cc
from dssyklab import qhermite as qh
from dssyklab.qcore import MultiPoly, q_integer


def poly_q(*coeffs):
    return MultiPoly({(i, 0, 0): c for i, c in enumerate(coeffs) if c})


class TestHermiteInX:
    def test_h0(self):
        assert qh.hermite_in_x(0) == [MultiPoly.one()]

    def test_h2(self):
        # x^2 - [1]_q
        coeffs = qh.hermite_in_x(2)
        assert coeffs[0] == -q_integer(1)
        assert coeffs[1].is_zero()
        assert coeffs[2] == MultiPoly.one()

    def test_h3(self):
        # x^3 - ([1]_q + [2]_q) x
        coeffs = qh.hermite_in_x(3)
        assert coeffs[1] == -(q_integer(1) + q_integer(2))
        assert coeffs[3] == MultiPoly.one()

    def test_monic(self):
        for n in range(9):
            assert qh.hermite_in_x(n)[n] == MultiPoly.one()

    def test_parity(self):
        for n in range(9):
            for d, c in enumerate(qh.hermite_in_x(n)):
                if (n - d) % 2 == 1:
                    assert c.is_zero()


class TestMonomialToHermite:
    def test_k2(self):
        e = qh.monomial_to_hermite(2)
        assert e.coefficient(0) == MultiPoly.one()

    def test_k3(self):
        assert qh.monomial_to_hermite(3).coefficient(1) == poly_q(2, 1)

    def test_k4(self):
        e = qh.monomial_to_hermite(4)
        assert e.coefficient(2) == poly_q(3, 2, 1)
        assert e.coefficient(0) == poly_q(2, 1)

    def test_parity_structure(self):
        for k in range(11):
            e = qh.monomial_to_hermite(k)
            for d in range(e.degree + 1):
                if (k - d) % 2 == 1:
                    assert e.coefficient(d).is_zero()

    def test_inverts_hermite_in_x(self):
        # substituting the monomial expansions back into H_n(x) recovers x^k
        for k in range(8):
            acc = {}
            e = qh.monomial_to_hermite(k)
            for d in range(e.degree + 1):
                hx = qh.hermite_in_x(d)
                for power, c in enumerate(hx):
                    acc[power] = acc.get(power, MultiPoly.zero()) + c * e.coefficient(d)
            for power, c in acc.items():
                assert c == (MultiPoly.one() if power == k else MultiPoly.zero())


class TestClosedForm:
    def test_no_contraction(self):
        for n in range(6):
            assert qh.c_closed_form(0, n, Fraction(1, 3)) == 1

    def test_printed_t3(self):
        assert qh.c_closed_form(1, 3, Fraction(1, 2)) == Fraction(5, 2)

    def test_printed_t4(self):
        assert qh.c_closed_form(2, 4, Fraction(1, 3)) == Fraction(7, 3)

    def test_pole_at_one(self):
        with pytest.raises(ValueError):
            qh.c_closed_form(1, 2, Fraction(1))

    def test_matches_recurrence_route(self):
        for q in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            for k in range(13):
                for m in range(k // 2 + 1):
                    recur = qh.monomial_to_hermite(k).coefficient(k - 2 * m).evaluate_exact(q, 0, 0)
                    assert qh.c_closed_form(m, k, q) == recur


class TestLinearization:
    def test_forced(self):
        assert qh.linearization([1, 1]) == MultiPoly.one()

    def test_pairs(self):
        assert qh.linearization([2, 2]) == poly_q(1, 1)

    def test_four_singles(self):
        assert qh.linearization([1, 1, 1, 1]) == poly_q(2, 1)

    def test_odd_total_zero(self):
        assert qh.linearization([1, 2]).is_zero()

    def test_single_even_degree_zero(self):
        assert qh.linearization([4]).is_zero()

    def test_empty(self):
        assert qh.linearization([]) == MultiPoly.one()

    def test_matches_matching_oracle(self):
        def sorted_degree_lists(total, smallest=1):
            # sorted positive degree lists summing to total, of any length
            if total == 0:
                yield []
            for d in range(smallest, total + 1):
                for rest in sorted_degree_lists(total - d, d):
                    yield [d] + rest
        for total in range(0, 11, 2):
            for degrees in sorted_degree_lists(total):
                expected = cc.inhomogeneous_matching_oracle(degrees)
                assert qh.linearization(degrees) == expected
                # H_0 = 1 factors and the order of the factors change nothing
                assert qh.linearization([0] + degrees[::-1] + [0]) == expected

    def test_order_invariance_of_raw_formula(self):
        # the walk itself, not only the sorted lookup, is order invariant
        base = qh._hermite_walk((1, 2, 3, 2))
        for perm in set(permutations((1, 2, 3, 2))):
            assert qh._hermite_walk(perm) == base


class TestRTMoment:
    def test_first_values(self):
        assert qh.rt_moment(1) == MultiPoly.one()
        assert qh.rt_moment(2) == poly_q(2, 1)
        assert qh.rt_moment(3) == poly_q(5, 6, 3, 1)

    def test_q_zero_catalan(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429]
        for k in range(8):
            assert qh.rt_moment(k).evaluate_exact(0, 0, 0) == catalan[k]

    def test_q_one_double_factorial(self):
        for k in range(8):
            assert qh.rt_moment(k).evaluate_exact(1, 0, 0) == cc.double_factorial(2 * k - 1)


def _matchings_at_q_1(degrees):
    """Perfect matchings of sum(degrees) points in groups of the given sizes
    with no chord inside a group: the Gaussian expectation of the product of
    the Hermite polynomials He_d (x He_d = He_{d+1} + d He_{d-1}), expanded
    in powers of x with integer coefficients."""
    def he(d):
        prev, cur = [1], [0, 1]
        if d == 0:
            return prev
        for j in range(1, d):
            prev, cur = cur, [a - j * b for a, b in zip([0] + cur, prev + [0, 0])]
        return cur
    product = [1]
    for d in degrees:
        factor = he(d)
        out = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        product = out
    return sum(c * cc.double_factorial(k - 1) for k, c in enumerate(product) if k % 2 == 0)


class TestWideDigits:
    """Walks past total degree 31, whose coefficients outgrow 64-bit digits."""

    def test_width_follows_the_involution_numbers(self):
        # word_width(T(k)): the prefix is repacked at k = 8, 12, 19 and past 31
        widths = [8] * 8 + [16] * 4 + [32] * 7 + [64] * 13
        for k, width in enumerate(widths):
            assert qh._hermite_walk((1,) * k)[0] == width, f"x^{k}"
        assert qh._hermite_walk((1,) * 32)[0] == 65
        assert qh._hermite_walk((1,) * 40)[0] == 86

    def test_coefficients_at_q_1_sum_to_the_involution_number(self):
        # the bound the digit width is taken from is met: x^k pairs k points
        for k in range(41):
            at_q_1 = sum(c.evaluate_exact(1, 0, 0) for c in qh.monomial_to_hermite(k).coeffs)
            assert at_q_1 == cc.involution_count(k), f"x^{k}"

    @pytest.mark.parametrize("k", range(16, 21))
    def test_rt_moment(self, k):
        rt = qh.rt_moment(k)
        assert rt.evaluate_exact(1, 0, 0) == cc.double_factorial(2 * k - 1)
        assert rt.evaluate_exact(Fraction(1, 3), 0, 0) == qh.c_closed_form(k, 2 * k, Fraction(1, 3))

    @pytest.mark.parametrize("degrees", [[16, 16], [5, 9, 9, 11], [3] * 12, [2] * 20,
                                         [1] * 16 + [8, 8]])
    def test_linearization_counts_matchings_at_q_1(self, degrees):
        assert sum(degrees) >= 32
        assert qh.linearization(degrees).evaluate_exact(1, 0, 0) == _matchings_at_q_1(degrees)

    def test_matching_count_oracle(self):
        assert _matchings_at_q_1([1] * 6) == 15
        assert _matchings_at_q_1([2, 2]) == 2
        assert _matchings_at_q_1([2, 1, 1]) == 2
        assert _matchings_at_q_1([4]) == 0


class TestQuadratureAndDensity:
    def test_semicircle_center(self):
        assert qh.nu_q_density(0.0, 0.0) == pytest.approx(1 / math.pi, abs=1e-12)

    def test_semicircle_shape(self):
        for x in (-1.5, -0.3, 0.9, 1.9):
            assert qh.nu_q_density(x, 0.0) == pytest.approx(
                math.sqrt(4 - x * x) / (2 * math.pi), abs=1e-12)

    def test_vanishes_at_edges(self):
        for q in (0.0, 0.5, 0.9):
            edge = qh.support_radius(q)
            assert qh.nu_q_density(edge, q) == pytest.approx(0.0, abs=1e-12)
            assert qh.nu_q_density(-edge, q) == pytest.approx(0.0, abs=1e-12)

    def test_outside_support_rejected(self):
        with pytest.raises(ValueError):
            qh.nu_q_density(2.1, 0.0)
        with pytest.raises(ValueError, match="x=nan outside"):
            qh.nu_q_density(math.nan, 0.5)
        with pytest.raises(ValueError, match="x=-3.0 outside"):
            qh.nu_q_density(np.array([0.0, -3.0, 3.0]), 0.0)

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            qh.nu_q_density(0.0, 0.995)

    def test_weights_normalized(self):
        for q in (0.0, 0.5, 0.9):
            quad = qh.QGaussianQuadrature(q)
            assert np.sum(quad.weights) == pytest.approx(1.0, abs=1e-12)
            assert np.all(quad.weights > 0)
            assert np.max(np.abs(quad.nodes)) <= qh.support_radius(q) + 1e-12

    def test_gl8_rule_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert np.array_equal(np.array(qh._GL8_NODES), nodes)
        assert np.array_equal(np.array(qh._GL8_WEIGHTS), weights)

    @pytest.mark.parametrize("q,panels", [(0.0, 64), (0.5, 128), (0.9, 512)])
    def test_panels_match_the_per_panel_rule(self, q, panels):
        # the rule built panel by panel from leggauss(8), as the oracle
        base_x, base_w = np.polynomial.legendre.leggauss(8)
        edges = np.linspace(0.0, math.pi, panels + 1)
        theta = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * base_x
                                for a, b in zip(edges[:-1], edges[1:])])
        wtheta = np.concatenate([0.5 * (b - a) * base_w for a, b in zip(edges[:-1], edges[1:])])
        wtheta = wtheta * qh._theta_weight(theta, q)
        quad = qh.QGaussianQuadrature(q, panels=panels)
        assert np.array_equal(quad.nodes, 2.0 * np.cos(theta) / math.sqrt(1.0 - q))
        assert np.array_equal(quad.weights, wtheta / np.sum(wtheta))

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_unnormalized_weights_have_mass_one(self, q):
        # the weight carries (q; q)_inf, so nu_q has mass one in closed form
        # and the 64-panel rule reaches it before renormalizing
        edges = np.linspace(0.0, math.pi, 65)
        a, b = edges[:-1, None], edges[1:, None]
        theta = (0.5 * (a + b) + 0.5 * (b - a) * np.array(qh._GL8_NODES)).ravel()
        wtheta = (0.5 * (b - a) * np.array(qh._GL8_WEIGHTS)).ravel() * qh._theta_weight(theta, q)
        assert abs(float(np.sum(wtheta)) - 1.0) <= 2e-13

    @pytest.mark.parametrize("argv", [
        ["zn", "--n", "2", "--beta", "1", "--q", "0.5", "--qtilde", "0.25"],
        ["density", "--q", "0.5", "--grid", "20"],
    ])
    def test_cold_cli_call_leaves_numpy_polynomial_unimported(self, argv):
        src = os.path.dirname(os.path.dirname(qh.__file__))
        script = ("import contextlib, io, sys\n"
                  "from dssyklab import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = cli.main({argv!r} + ['--deterministic'])\n"
                  "print(code, 'numpy.polynomial' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.stdout.split() == ["0", "False"], done.stderr

    def test_fourth_moment_q_half(self):
        assert qh.QGaussianQuadrature(0.5).moment(4) == pytest.approx(2.5, abs=1e-8)

    def test_moments_match_rt(self):
        for q in (0.0, 0.5, 0.9):
            quad = qh.QGaussianQuadrature(q)
            for k in (1, 2, 3):
                rt = float(qh.rt_moment(k).evaluate(q=q))
                assert quad.moment(2 * k) == pytest.approx(rt, abs=1e-7)
                assert quad.moment(2 * k - 1) == pytest.approx(0.0, abs=1e-9)

    def test_density_consistent_with_weights(self):
        # integrating x^2 against the renormalized pointwise density
        q = 0.5
        R = qh.support_radius(q)
        xs = np.linspace(-R, R, 20001)
        rho = qh.nu_q_density(xs, q)
        second = np.trapezoid(xs ** 2 * rho, xs)
        assert second == pytest.approx(1.0, abs=1e-5)

    def test_orthogonality(self):
        for q in (0.0, 0.3, 0.7):
            quad = qh.QGaussianQuadrature(q)
            H = qh.hermite_values(8, quad.nodes, q)
            for m in range(9):
                for n in range(9):
                    val = float(np.sum(quad.weights * H[m] * H[n]))
                    if m == n:
                        target = float(np.prod([(1 - q ** j) / (1 - q) for j in range(1, n + 1)]))
                    else:
                        target = 0.0
                    assert val == pytest.approx(target, abs=1e-8)


def _log_q_product_oracle(a, q, phi):
    """sum_k log|1 - a q^k e^{i phi}|^2 factor by factor, out to q^K < 1e-18."""
    K = 1 if q == 0.0 else math.ceil(math.log(1e-18) / math.log(q))
    return math.fsum(math.log(abs(1.0 - a * q ** k * cmath.exp(1j * phi)) ** 2)
                     for k in range(K + 1))


# a = 0.5 + 1e-9 takes one factor just above the split at 1/2 one by one
@pytest.mark.parametrize("a", [0.0, 0.3, 0.5, 0.5 + 1e-9, 0.9, 0.891])
@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.99])
def test_log_q_product_matches_factor_by_factor_sum(a, q):
    phis = np.concatenate([[0.0, 1e-6, 1e-3], np.linspace(0.1, math.pi, 12)])
    values = qh._log_q_product(a, q, np.cos(phis), np.sin(phis / 2.0) ** 2)
    for phi, value in zip(phis, values):
        want = _log_q_product_oracle(a, q, phi)
        assert abs(value - want) <= 1e-13 * max(1.0, abs(want)), phi
    assert float(qh._log_q_product(a, q, 1.0, 0.0)) == values[0]  # a scalar phi


# (q, r, x0) where the 64-panel rule integrates the kernel to 1e-11 or better
KERNEL_QUADRATURE_CASES = [(0.5, 0.6, 0.7), (0.9, 0.8, 0.7), (0.99, 0.9, 0.7), (0.99, 0.9, -1.0)]


class TestConditionalKernel:
    def test_memoryless(self):
        assert qh.conditional_kernel(0.4, -1.0, 0.0, 0.5) == 1.0

    def test_normalization(self):
        for q, r, x0 in KERNEL_QUADRATURE_CASES:
            quad = qh.QGaussianQuadrature(q)
            total = float(np.sum(quad.weights * qh.conditional_kernel(x0, quad.nodes, r, q)))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_hermite_eigenrelation(self):
        for q, r, x0 in KERNEL_QUADRATURE_CASES:
            quad = qh.QGaussianQuadrature(q)
            h2 = qh.hermite_values(2, quad.nodes, q)[2]
            val = float(np.sum(quad.weights * h2 * qh.conditional_kernel(x0, quad.nodes, r, q)))
            target = r ** 2 * float(qh.hermite_values(2, np.array(x0), q)[2])
            assert val == pytest.approx(target, abs=1e-9)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            qh.conditional_kernel(0.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            qh.conditional_kernel(10.0, 0.0, 0.5, 0.5)

    def test_scalar_gives_float_and_array_keeps_shape(self):
        assert type(qh.conditional_kernel(0.7, 0.2, 0.6, 0.5)) is float
        grid = np.array([[0.2, -0.4], [1.0, 0.0]])
        values = qh.conditional_kernel(0.7, grid, 0.6, 0.5)
        assert values.shape == grid.shape
        assert values[1, 0] == qh.conditional_kernel(0.7, 1.0, 0.6, 0.5)

    def test_out_of_support_lane_is_rejected(self):
        with pytest.raises(ValueError, match="inside the support"):
            qh.conditional_kernel(0.0, np.array([0.0, 3.0, 0.5]), 0.5, 0.5)
        with pytest.raises(ValueError, match="inside the support"):
            qh.conditional_kernel(0.0, np.array([0.0, np.nan]), 0.5, 0.5)

    def test_q_above_the_numeric_cap_is_rejected(self):
        # its cost grows like 1/(1 - q), and near q = 1 it passes the float range
        with pytest.raises(ValueError, match=r"numeric q must lie in \[0, 0.99\]"):
            qh.conditional_kernel(0.0, 0.0, 0.9, 0.995)
        with pytest.raises(ValueError, match="numeric q must lie"):
            qh.conditional_kernel(0.0, 0.0, 0.5, math.nan)

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("r", [0.999999, 1.0 - 2.0 ** -40])
    def test_centre_value_keeps_its_digits_as_r_nears_1(self, r, q):
        # at x = y = 0, t + s = pi and t - s = 0, so p_r(0, 0) is the rational
        # product prod_k (1 - r^2 q^k) / (1 - r^2 q^2k)^2, here in 60 digits;
        # 1 - r^2 rounded from r * r would cost about 1e-16 / (1 - r^2) of it
        D = decimal.Decimal
        with decimal.localcontext(decimal.Context(prec=60)):
            rr, qk, total = D(r) * D(r), D(1), D(1)  # qk = q^k
            while qk > D("1e-40"):
                total *= (1 - rr * qk) / (1 - rr * qk * qk) ** 2
                qk *= D(q)
            want = float(total)
        assert qh.conditional_kernel(0.0, 0.0, r, q) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q, r", [(0.5, math.nextafter(1.0, 0.0)), (0.5, 0.6), (0.0, 0.9),
                                      (0.9, 1.0 - 1e-15)])
    def test_symmetric_under_negation(self, q, r):
        # p_r(-x, -y) = p_r(x, y) bit for bit, up to the edges of the support
        R = qh.support_radius(q)
        ys = np.linspace(-R, R, 2001)
        for x in (R, -R, 0.7, 0.0, ys[3]):
            assert np.array_equal(qh.conditional_kernel(-x, -ys, r, q),
                                  qh.conditional_kernel(x, ys, r, q))

    def test_corners_agree_as_r_nears_1(self):
        R = qh.support_radius(0.5)
        r = math.nextafter(1.0, 0.0)
        top = qh.conditional_kernel(R, R, r, 0.5)
        assert qh.conditional_kernel(-R, -R, r, 0.5) == top
        assert top == pytest.approx(6.068e49, rel=1e-3)

    def test_largest_value_under_the_cap_is_finite(self):
        # x = y = R, r just below 1, q = 0.99: log p is about 592.25, below
        # log(float max) = 709.78, so no kernel value under the cap overflows
        R = qh.support_radius(0.99)
        value = qh.conditional_kernel(R, R, math.nextafter(1.0, 0.0), 0.99)
        assert math.isfinite(value)
        assert math.log(value) == pytest.approx(592.25, abs=0.01)


def _decimal_kernel(x, y, r, q, terms):
    """sum_n r^n H_n(x) H_n(y) / [n]_q! over n <= terms, in 450-digit decimals.

    The oracle for `conditional_kernel` where a float sum loses its digits:
    the floats are taken exactly and no term is skipped.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=450)):
        x, y, r, q = map(D, (x, y, r, q))
        total, rn, qn, fact = D(0), D(1), D(1), D(1)  # r^n, q^n, [n]_q!
        hx_prev, hx, hy_prev, hy = D(0), D(1), D(0), D(1)
        for _ in range(terms + 1):
            total += rn * hx * hy / fact
            bracket = (1 - qn) / (1 - q)  # [n]_q
            hx, hx_prev = x * hx - bracket * hx_prev, hx
            hy, hy_prev = y * hy - bracket * hy_prev, hy
            rn, qn = rn * r, qn * q
            fact *= (1 - qn) / (1 - q)
        return float(total)


# (x, y, r, q, terms): the term-by-term sum that the q-Mehler product replaced
# stopped after three negligible terms in a row, or did not settle, or
# overflowed at these points; the term counts reach the decimal sum's last digit
KERNEL_DEFECTS = [
    pytest.param(0.0, 1.0, 0.3, 0.0, 120, id="q0-frozen-at-y1"),  # odd terms and H_2(1) vanish
    pytest.param(0.0, -1.0, 0.3, 0.0, 120, id="q0-frozen-at-y-1"),
    pytest.param(-1.0, 0.0, 0.8, 0.9, 400, id="q0.9-56-percent-high"),
    pytest.param(-1.0, -qh.support_radius(0.9), 0.8, 0.9, 400, id="q0.9-edge-unsettled"),
    pytest.param(0.0, -qh.support_radius(0.99), 0.9, 0.99, 4500, id="q0.99-edge-overflow"),
    pytest.param(0.0, 0.0, 0.9, 0.99, 4500, id="q0.99-centre-overflow"),
]


@pytest.mark.parametrize("x,y,r,q,terms", KERNEL_DEFECTS)
def test_kernel_matches_decimal_sum(x, y, r, q, terms):
    assert qh.conditional_kernel(x, y, r, q) == pytest.approx(
        _decimal_kernel(x, y, r, q, terms), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# oracles for the grid-at-once numeric kernels
# ---------------------------------------------------------------------------

def _density_per_point(x, q):
    """The per-point density as a plain product of its factors; its oracle.

    prod_{k=1..K} (1 - q^k) (1 - 2 q^k cos 2t + q^2k), with K the first
    power where q^K < 1e-16.
    """
    R = qh.support_radius(q)
    if abs(x) > R * (1 + 1e-12):
        raise ValueError(f"x={x} outside the support [-{R}, {R}]")
    arg = min(1.0, max(-1.0, x * math.sqrt(1.0 - q) / 2.0))
    theta = math.acos(arg)
    dens = (math.sqrt(1.0 - q) / math.pi) * math.sin(theta)
    cos2t = math.cos(2.0 * theta)
    K = 1 if q == 0.0 else math.ceil(math.log(1e-16) / math.log(q))
    for k in range(1, K + 1):
        qk = q ** k
        dens *= (1.0 - qk) * (1.0 - 2.0 * qk * cos2t + qk * qk)
    return dens


def _kernel_direct_sum(x, ys, r, q, terms=300):
    """sum_n r^n H_n(x) H_n(y) / [n]_q! over n <= terms, for each y of the grid.

    The term-by-term sum that `conditional_kernel` replaced, with no early
    exit.  Also returns the summed term magnitudes: where they dwarf the sum,
    cancellation has eaten the float sum's digits.  300 terms reach the last
    digit on the test grids and keep H_n(y) within the float range.
    """
    total, size = np.zeros_like(ys), np.zeros_like(ys)
    hx_prev, hx = 0.0, 1.0
    hy_prev, hy = np.zeros_like(ys), np.ones_like(ys)
    rn, fact = 1.0, 1.0  # r^n, [n]_q!
    for n in range(terms + 1):
        term = rn * hx * hy / fact
        total += term
        size += np.abs(term)
        qn = (1.0 - q ** n) / (1.0 - q)
        hx, hx_prev = x * hx - qn * hx_prev, hx
        hy, hy_prev = ys * hy - qn * hy_prev, hy
        rn *= r
        fact *= (1.0 - q ** (n + 1)) / (1.0 - q)
    return total, size


class TestGridKernelsMatchPerPointOracles:
    """The density is checked against the plain product of its factors at
    each point, the kernel against the direct sum of its series."""

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.99])
    def test_density(self, q):
        R = qh.support_radius(q)
        xs = np.linspace(-R, R, 2000)
        values = qh.nu_q_density(xs, q)
        oracle = np.array([_density_per_point(x, q) for x in xs])
        assert np.all(np.abs(values - oracle) <= 1e-12 * np.abs(oracle))
        assert qh.nu_q_density(xs[123], q) == values[123]

    @pytest.mark.parametrize("q,r,x0", [(0.0, 0.3, 0.0), (0.5, 0.6, 0.7), (0.9, 0.8, -1.0)])
    def test_kernel(self, q, r, x0):
        R = qh.support_radius(q)
        ys = np.linspace(-R, R, 401)
        values = qh.conditional_kernel(x0, ys, r, q)
        total, size = _kernel_direct_sum(x0, ys, r, q)
        # a float sum is reliable where cancellation costs it at most three digits;
        # at (0.9, 0.8, -1) that leaves 319 lanes, near the support edges it fails
        reliable = size <= 1e3 * np.maximum(1.0, np.abs(total))
        assert reliable.sum() > ys.size // 2
        scale = np.maximum(1.0, np.abs(values[reliable]))
        assert np.max(np.abs(values[reliable] - total[reliable]) / scale) <= 1e-12

    def test_memoryless_grid(self):
        ys = np.linspace(-2.0, 2.0, 9)
        assert qh.conditional_kernel(0.4, ys, 0.0, 0.5).tolist() == [1.0] * 9
