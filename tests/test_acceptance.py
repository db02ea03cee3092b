"""Acceptance suite: one test per ship criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dssyklab import chordcombi as cc
from dssyklab import edlab as ed
from dssyklab import freeconv as fc
from dssyklab import mixed as mx
from dssyklab import moments as mo
from dssyklab import qhermite as qh
from dssyklab.qcore import MultiPoly

THETA = MultiPoly.theta()
QT = MultiPoly.qt()
Q = MultiPoly.q()


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_exact_identity_suite():
    """reduced_moment == reduced_moment_gf == word-sum oracle, n <= 10, exact."""
    for n in range(1, mx.WORD_SUM_CAP + 1):
        direct = mo.reduced_moment(n)
        assert mo.reduced_moment_gf(n) == direct, f"gf route differs at n={n}"
        syk = qh.rt_moment(n // 2) if n % 2 == 0 else MultiPoly.zero()
        assert mx.word_sum_moment(n) - syk == direct, f"word-sum oracle differs at n={n}"
    assert mo.reduced_moment(3) == THETA ** 3 + 3 * THETA
    assert mo.reduced_moment(4) == THETA ** 4 + (4 + 2 * QT) * THETA ** 2
    _report(1, "three exact routes to m_n identical for n <= 10, anchors m_3, m_4 verified")


def test_criterion_2_worked_examples():
    """The printed mixed-moment examples, reproduced exactly."""
    def phi(text):
        return mx.mixed_moment(mx.Word.parse(text)).value

    assert phi("xxxx") == 2 + Q
    assert phi("xxxxxx") == 5 + 6 * Q + 3 * Q ** 2 + Q ** 3
    assert phi("xdxd") == QT * THETA ** 2
    assert phi("xxdd") == THETA ** 2
    assert phi("dddd") == THETA ** 4
    assert mx.word_sum_moment(4) == (2 + Q) + (4 + 2 * QT) * THETA ** 2 + THETA ** 4
    _report(2, "x^4, x^6, xdxd, x^2d^2, d^4 and (x+d)^4 moments reproduced exactly")


def test_criterion_3_limit_suite():
    """qt = 0 matches the single-defect Boolean formula, qt = 1 the binomial
    shift, for n <= 10, exactly."""
    for n in range(1, 11):
        assert mo.reduced_moment(n).substitute(qt=0) == mo.boolean_moment_c1(n), f"n={n}"
        shifted = MultiPoly.zero()
        for i in range(0, n, 2):
            shifted = shifted + math.comb(n, i) * qh.rt_moment(i // 2) * THETA ** (n - i)
        assert mo.reduced_moment(n).substitute(qt=1) == shifted, f"n={n}"
    _report(3, "qt=0 Boolean and qt=1 shift limits exact for n <= 10")


def test_criterion_4_oracle_suite():
    """Enumeration oracles against the closed machinery, all exact."""
    # linearization == inhomogeneous matching oracle, total degree <= 10
    degree_lists = [[1, 1], [2, 2], [1, 1, 1, 1], [2, 1, 1], [3, 3], [2, 2, 2],
                    [4, 2], [3, 2, 1], [2, 2, 2, 2], [3, 3, 2], [4, 3, 3], [1, 1, 2, 4],
                    [5, 5], [4, 4, 2], [2, 2, 3, 3]]
    for degrees in degree_lists:
        assert qh.linearization(degrees) == cc.inhomogeneous_matching_oracle(degrees), degrees
    # rt == pair-partition enumeration == transfer matrix, k <= 7
    for k in range(8):
        rt = qh.rt_moment(k)
        assert rt == cc.pair_partition_polynomial(2 * k), f"k={k}"
        assert rt == cc.transfer_vacuum_moment(2 * k, k), f"k={k}"
    # printed normal orderings
    t2, t3, t4 = cc.normal_order_power(2), cc.normal_order_power(3), cc.normal_order_power(4)
    assert t2[0] == MultiPoly.one()
    assert t3[1] == 2 + Q
    assert t4[2] == 3 + 2 * Q + Q ** 2 and t4[0] == 2 + Q
    # partition-resolved normal ordering identity, k <= 10
    for k in range(11):
        assert cc.p12_hermite_polynomial(k) == cc.normal_order_power(k), f"k={k}"
    _report(4, "matching/transfer/normal-ordering oracles agree exactly (k <= 7, qGp k <= 10)")


def test_criterion_5_closed_form_coefficients():
    """Closed-form contraction coefficients equal the recurrence route at
    rational q, exact equality, k <= 12."""
    for q in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
        for k in range(13):
            walk = qh.monomial_to_hermite(k)
            for m in range(k // 2 + 1):
                assert qh.c_closed_form(m, k, q) == \
                    walk[k - 2 * m].evaluate_exact(q, 0, 0), (m, k, q)
    _report(5, "closed-form c_{m,k} equals recurrence route at q in {0,1/3,1/2}, k <= 12")


def test_criterion_6_kernel_quadrature_suite():
    """Measure normalization and moments to 1e-7; kernel eigenrelation to
    1e-6; continued fraction versus series to 1e-9."""
    for q in (0.0, 0.5, 0.9):
        quad = qh.QGaussianQuadrature(q)
        assert np.sum(quad.weights) == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2, 3):
            rt = float(qh.rt_moment(k).evaluate(q=q))
            assert quad.moment(2 * k) == pytest.approx(rt, abs=1e-7), (q, k)
    q, r, x0 = 0.5, 0.6, 0.7
    quad = qh.QGaussianQuadrature(q)
    kernel_vals = qh.conditional_kernel(x0, quad.nodes, r, q)
    assert float(np.sum(quad.weights * kernel_vals)) == pytest.approx(1.0, abs=1e-8)
    h2 = qh.hermite_values(2, quad.nodes, q)[2]
    lhs = float(np.sum(quad.weights * h2 * kernel_vals))
    rhs = r ** 2 * float(qh.hermite_values(2, np.array(x0), q)[2])
    assert lhs == pytest.approx(rhs, abs=1e-6)
    for z, x0_, q_, qt_ in ((0.05, 0.3, 0.5, 0.25), (0.03, -0.6, 0.7, 0.5), (0.04, 1.0, 0.2, 0.0)):
        frac = mo.b_continued_fraction(z, x0_, q_, qt_)
        assert frac == pytest.approx(mo.b_series(z, x0_, q_, qt_), abs=1e-9), (z, x0_)
    _report(6, "measure moments to 1e-7, kernel eigenrelation to 1e-6, fraction vs series to 1e-9")


def test_criterion_7_ed_suite():
    """Finite-size laboratory: algebra exact, trace normalized, and the
    desk-scale moment comparison within 3 standard errors."""
    # Clifford relations, N <= 10
    for N in (4, 6, 8, 10):
        ops = [ed.majorana(l, N) for l in range(1, N + 1)]
        dim = 2 ** (N // 2)
        for i in range(N):
            for j in range(i, N):
                anti = ops[i] @ ops[j] + ops[j] @ ops[i]
                target = 2 * np.eye(dim) if i == j else 0.0
                assert np.abs(anti - target).max() < 1e-13, (N, i, j)
    # defect expansion identities
    for N, k in ((4, 1), (6, 2), (8, 3)):
        assert ed.verify_dc_majorana_expansion(N, k)
    # trace normalization over 50 samples at N = 16
    params = ed.ModelParams(N=16, p=4, seed=11, samples=50)
    vals = np.array([np.sum(np.abs(ed.build_h_syk(params, ed.sample_rng(11, s))) ** 2)
                     / params.dim for s in range(50)])
    stderr = vals.std(ddof=1) / math.sqrt(50)
    assert abs(vals.mean() - 1.0) < 3 * stderr
    # desk-scale replacement for the large-N figures
    params = ed.ModelParams(N=16, p=4, theta=5.0, k=2, seed=20260809, samples=50)
    means, errs = ed.paired_reduced_moments(params, 6)
    q = ed.qn_finite(4, 16)
    qt = ed.qtilde_weight(4, 16, 2)
    for n in range(1, 7):
        analytic = float(mo.reduced_moment(n).substitute(q=q, qt=qt).evaluate(theta=5.0))
        scale = max(errs[n - 1], 1e-10 * max(1.0, abs(analytic)))
        assert abs(means[n - 1] - analytic) < 3 * scale, \
            f"n={n}: {means[n-1]} vs {analytic} (stderr {errs[n-1]})"
    _report(7, "Clifford/defect identities exact; N=16 empirical moments within 3 sigma, n <= 6")


def test_criterion_8_phase_transition():
    """Pooled spectrum: single support at theta = 1, two clusters at
    theta = 5, detected gap monotone over {1, 2, 3, 5}."""
    base = ed.ModelParams(N=16, p=4, k=2, seed=7, samples=50)
    rows = ed.phase_scan(base, thetas=[1.0, 2.0, 3.0, 5.0])
    by_theta = {row["theta"]: row for row in rows}
    assert not by_theta[1.0]["bimodal"], by_theta[1.0]
    assert by_theta[5.0]["bimodal"], by_theta[5.0]
    gaps = [by_theta[t]["gap"] for t in (1.0, 2.0, 3.0, 5.0)]
    assert all(g2 >= g1 for g1, g2 in zip(gaps, gaps[1:])), gaps
    _report(8, f"unimodal at theta=1, bimodal at theta=5, gaps {[round(g, 3) for g in gaps]} monotone")


def test_criterion_9_freeconv_suite():
    """Convolution mass, outlier law and the Monte-Carlo cross-check."""
    for r, theta in ((0.25, 3.0), (0.25, 1.0), (0.5, 0.0)):
        res = fc.semicircle_plus_atomic(r, theta)
        assert abs(res.measure.total_mass() - 1.0) < 1e-4, (r, theta)
    semi = fc.GridMeasure.semicircle(8000)
    for theta in (1.5, 2.0, 3.0):
        loc = fc.outlier_location(theta)
        assert abs(fc.semicircle_resolvent(loc) - 1 / theta) < 1e-12, theta
        assert abs(fc.resolvent(semi, loc) - 1 / theta) < 1e-5, theta
    res = fc.semicircle_plus_atomic(0.25, 3.0)
    eigs = fc.wigner_plus_diagonal_spectrum(1024, 0.25, 3.0, seed=5)
    ks = fc.ks_distance(res.measure, eigs)
    assert ks < 0.05, ks
    _report(9, f"mass within 1e-4, outliers solve G(E) = 1/theta (closed-form G to 1e-12, "
               f"grid G to 1e-5), KS distance {ks:.4f} < 0.05")


def test_criterion_10_partition_function():
    """n-boundary partition function against the moment-series Laplace
    transform at qt = 0, within 1e-7."""
    def rt_float(k, q):
        L = max(k, 1)
        vec = np.zeros(L + 1)
        vec[0] = 1.0
        for _ in range(2 * k):
            new = np.zeros(L + 1)
            for l in range(L + 1):
                if vec[l]:
                    if l + 1 <= L:
                        new[l + 1] += vec[l]
                    if l - 1 >= 0:
                        new[l - 1] += vec[l] * (1 - q ** l) / (1 - q)
            vec = new
        return vec[0]

    for q in (0.0, 0.5):
        for n in (1, 2, 3):
            for beta in (0.5, 1.0):
                series = sum((n * beta) ** (2 * k) / math.factorial(2 * k) * rt_float(k, q)
                             for k in range(40))
                assert mo.z_n(n, beta, q, 0.0) == pytest.approx(series, abs=1e-7), (q, n, beta)
    _report(10, "Z_n matches the RT-series Laplace transform to 1e-7 (n <= 3, beta <= 1)")
