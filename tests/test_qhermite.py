import math
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
                    recur = qh.contraction_coefficient(m, k).evaluate_exact(q, 0, 0)
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

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            qh.nu_q_density(0.0, 0.995)

    def test_weights_normalized(self):
        for q in (0.0, 0.5, 0.9):
            quad = qh.quadrature(q)
            assert np.sum(quad.weights) == pytest.approx(1.0, abs=1e-12)
            assert np.all(quad.weights > 0)
            assert np.max(np.abs(quad.nodes)) <= qh.support_radius(q) + 1e-12

    def test_fourth_moment_q_half(self):
        assert qh.quadrature(0.5).moment(4) == pytest.approx(2.5, abs=1e-8)

    def test_moments_match_rt(self):
        for q in (0.0, 0.5, 0.9):
            quad = qh.quadrature(q)
            for k in (1, 2, 3):
                rt = float(qh.rt_moment(k).evaluate(q=q))
                assert quad.moment(2 * k) == pytest.approx(rt, abs=1e-7)
                assert quad.moment(2 * k - 1) == pytest.approx(0.0, abs=1e-9)

    def test_density_consistent_with_weights(self):
        # integrating x^2 against the renormalized pointwise density
        q = 0.5
        R = qh.support_radius(q)
        xs = np.linspace(-R, R, 20001)
        rho = np.array([qh.nu_q_density(x, q) for x in xs])
        second = np.trapezoid(xs ** 2 * rho, xs)
        assert second == pytest.approx(1.0, abs=1e-5)

    def test_orthogonality(self):
        for q in (0.0, 0.3, 0.7):
            quad = qh.quadrature(q)
            H = qh.hermite_values(8, quad.nodes, q)
            for m in range(9):
                for n in range(9):
                    val = float(np.sum(quad.weights * H[m] * H[n]))
                    if m == n:
                        target = float(np.prod([(1 - q ** j) / (1 - q) for j in range(1, n + 1)]))
                    else:
                        target = 0.0
                    assert val == pytest.approx(target, abs=1e-8)


class TestConditionalKernel:
    def test_memoryless(self):
        assert qh.conditional_kernel(0.4, -1.0, 0.0, 0.5) == 1.0

    def test_normalization(self):
        q, r, x0 = 0.5, 0.6, 0.7
        quad = qh.quadrature(q)
        total = sum(w * qh.conditional_kernel(x0, y, r, q)
                    for y, w in zip(quad.nodes, quad.weights))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_hermite_eigenrelation(self):
        q, r, x0 = 0.5, 0.6, 0.7
        quad = qh.quadrature(q)
        h2 = qh.hermite_values(2, quad.nodes, q)[2]
        val = sum(w * h * qh.conditional_kernel(x0, y, r, q)
                  for y, w, h in zip(quad.nodes, quad.weights, h2))
        target = r ** 2 * float(qh.hermite_values(2, np.array(x0), q)[2])
        assert val == pytest.approx(target, abs=1e-6)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            qh.conditional_kernel(0.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            qh.conditional_kernel(10.0, 0.0, 0.5, 0.5)

    def test_settling_guard(self):
        with pytest.raises(qh.ConvergenceError):
            qh.conditional_kernel(1.0, 1.0, 0.9, 0.5, truncation=3)
