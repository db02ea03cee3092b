import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dssyklab.chordcombi import involution_count
from dssyklab.qcore import (HermiteExpansion, MultiPoly, involution_number, pack, q_binomial,
                            q_binomial_by_division, q_factorial, q_integer, q_multinomial, unpack,
                            word_width)


def poly_q(*coeffs):
    """Helper: polynomial in q from a coefficient list."""
    return MultiPoly({(i, 0, 0): Fraction(c) for i, c in enumerate(coeffs) if c})


class TestQInteger:
    def test_zero_is_empty_sum(self):
        assert q_integer(0) == MultiPoly.zero()

    def test_one(self):
        assert q_integer(1) == MultiPoly.one()

    def test_three(self):
        assert q_integer(3) == poly_q(1, 1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_integer(-1)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0) == MultiPoly.one()

    def test_two(self):
        assert q_factorial(2) == poly_q(1, 1)

    def test_three_expanded(self):
        # (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
        assert q_factorial(3) == poly_q(1, 2, 2, 1)

    def test_recursion(self):
        for n in range(1, 9):
            assert q_factorial(n) == q_integer(n) * q_factorial(n - 1)


class TestQBinomial:
    def test_4_choose_2(self):
        assert q_binomial(4, 2) == poly_q(1, 1, 2, 1, 1)

    def test_trivial_ends(self):
        for n in range(7):
            assert q_binomial(n, 0) == MultiPoly.one()
            assert q_binomial(n, n) == MultiPoly.one()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            q_binomial(3, 4)

    def test_symmetry(self):
        for n in range(9):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)

    def test_q_one_specialization_is_binomial(self):
        import math
        for n in range(9):
            for k in range(n + 1):
                assert q_binomial(n, k).evaluate_exact(1, 0, 0) == math.comb(n, k)

    def test_coefficients_nonnegative_integers(self):
        for n in range(9):
            for k in range(n + 1):
                for _, c in q_binomial(n, k).items():
                    assert c.denominator == 1 and c >= 0

    def test_division_route_agrees(self):
        for n in range(10):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial_by_division(n, k)


class TestQMultinomial:
    def test_two_ones(self):
        assert q_multinomial(2, [1, 1]) == poly_q(1, 1)

    def test_single_part(self):
        for n in range(6):
            assert q_multinomial(n, [n]) == MultiPoly.one()

    def test_two_part_case_is_binomial(self):
        assert q_multinomial(4, [2, 2]) == q_binomial(4, 2)

    def test_sum_mismatch(self):
        with pytest.raises(ValueError):
            q_multinomial(4, [1, 2])

    def test_symmetric_under_permutation(self):
        assert q_multinomial(6, [1, 2, 3]) == q_multinomial(6, [3, 1, 2])


# property tests: ring laws on randomized polynomials
small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exponent = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponent, small_fraction, max_size=5).map(MultiPoly)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.one() == a
    assert a - a == MultiPoly.zero()


@settings(max_examples=40, deadline=None)
@given(polys, st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_evaluation_is_ring_homomorphism(a, q, qt, theta):
    b = a * a + a
    assert b.evaluate_exact(q, qt, theta) == \
        a.evaluate_exact(q, qt, theta) ** 2 + a.evaluate_exact(q, qt, theta)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_json_round_trip(a):
    rec = a.to_json_obj()
    json.dumps(rec)  # must be serializable as-is
    assert MultiPoly.from_json_obj(rec) == a
    # canonical ordering by exponent triple
    keys = [(r["q"], r["qt"], r["theta"]) for r in rec]
    assert keys == sorted(keys)


# property tests: the int/Fraction coefficient kernel against an all-Fraction reference
mixed_coeff = st.one_of(st.integers(-6, 6), small_fraction)
mixed_terms = st.dictionaries(exponent, mixed_coeff, max_size=5)
rational = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3,
                                                      max_denominator=5))


def _reference(terms):
    """All-Fraction term map without zeros, for the reference ring."""
    return {exp: Fraction(c) for exp, c in terms.items() if c != 0}


def _ref_add(x, y):
    out = dict(x)
    for exp, c in y.items():
        out[exp] = out.get(exp, Fraction(0)) + c
    return {exp: c for exp, c in out.items() if c != 0}


def _ref_mul(x, y):
    out = {}
    for (a1, b1, c1), u in x.items():
        for (a2, b2, c2), v in y.items():
            exp = (a1 + a2, b1 + b2, c1 + c2)
            out[exp] = out.get(exp, Fraction(0)) + u * v
    return {exp: c for exp, c in out.items() if c != 0}


def _ref_substitute(x, values):
    out = {}
    for exp, c in x.items():
        key = list(exp)
        for i, value in enumerate(values):
            if value is not None:
                c *= Fraction(value) ** key[i]
                key[i] = 0
        out[tuple(key)] = out.get(tuple(key), Fraction(0)) + c
    return {exp: c for exp, c in out.items() if c != 0}


def _ref_evaluate(x, point):
    q, qt, theta = map(Fraction, point)
    return sum((c * q ** a * qt ** b * theta ** d for (a, b, d), c in x.items()), Fraction(0))


def _assert_canonical(poly):
    for c in poly.terms.values():
        assert c != 0
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@settings(max_examples=80, deadline=None)
@given(mixed_terms, mixed_terms, st.integers(0, 3), st.tuples(rational, rational, rational),
       st.tuples(*[st.one_of(st.none(), rational)] * 3), mixed_coeff)
def test_int_coefficient_kernel_matches_fraction_reference(ta, tb, power, point, values, scalar):
    a, b = MultiPoly(ta), MultiPoly(tb)
    ra, rb = _reference(ta), _reference(tb)
    ref_pow = {(0, 0, 0): Fraction(1)}
    for _ in range(power):
        ref_pow = _ref_mul(ref_pow, ra)
    cases = [
        (a, ra), (a + b, _ref_add(ra, rb)),
        (a - b, _ref_add(ra, {exp: -c for exp, c in rb.items()})),
        (a * b, _ref_mul(ra, rb)), (a ** power, ref_pow),
        (a * scalar, _ref_mul(ra, _reference({(0, 0, 0): scalar}))),
        (a.substitute(*values), _ref_substitute(ra, values)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == want
        assert got.evaluate_exact(*point) == _ref_evaluate(want, point)


@settings(max_examples=60, deadline=None)
@given(mixed_terms, mixed_terms)
def test_equality_hash_and_json_ignore_how_a_polynomial_was_built(ta, tb):
    a, b = MultiPoly(ta), MultiPoly(tb)
    as_fractions = MultiPoly({exp: Fraction(c) for exp, c in ta.items()})
    builds = [a, as_fractions, (a + b) - b, b + a - b, a * MultiPoly.one(), a * Fraction(1),
              MultiPoly.from_json_obj(a.to_json_obj()),
              (a * Fraction(2, 3)) * Fraction(3, 2), a.substitute()]
    for other in builds:
        _assert_canonical(other)
        assert other == a
        assert hash(other) == hash(a)
        assert other.to_json_obj() == a.to_json_obj()
        assert str(other) == str(a)
    if a.is_constant():
        assert hash(a) == hash(a.constant_value()) == hash(Fraction(a.constant_value()))


def test_no_stored_zero_coefficients():
    a = MultiPoly({(1, 0, 0): Fraction(2)}) + MultiPoly({(1, 0, 0): Fraction(-2)})
    assert a.terms == {}
    assert a.is_zero()


def test_substitute_partial():
    p = MultiPoly.q() * MultiPoly.theta() ** 2 + MultiPoly.qt()
    at_theta = p.substitute(theta=2)
    assert at_theta == 4 * MultiPoly.q() + MultiPoly.qt()
    assert p.substitute(q=Fraction(1, 2), qt=0, theta=2) == MultiPoly.constant(2)


@pytest.mark.parametrize("values", [
    (Fraction(1, 2), Fraction(1, 4), 3),
    (Fraction(-9, 455), Fraction(3, 5), None),  # the (N, p, k) = (16, 4, 2) weights
    (Fraction(-9, 455), Fraction(3, 5), 5),
    (None, 0, None),
    (None, 1, None),
])
def test_substitute_keeps_values_and_term_order_of_the_per_term_path(values):
    # the float `evaluate` sums in term order, so `compare` output depends on it
    from dssyklab import moments
    polys = [moments.reduced_moment(n) for n in range(1, 15)]
    polys += [moments.full_moment(n, Fraction(1, 3)) for n in range(1, 15)]  # Fraction coefficients
    for p in polys:
        want = _ref_substitute(p.terms, values)
        assert list(p.substitute(*values).terms.items()) == list(want.items())


def test_evaluate_requires_every_variable_present():
    p = MultiPoly.monomial(q_pow=1, theta_pow=1)
    with pytest.raises(ValueError, match="theta"):
        p.evaluate(q=0.5)
    with pytest.raises(ValueError, match="q, theta"):
        p.evaluate(qt=0.5)
    assert p.evaluate(q=0.5, theta=3.0) == 1.5
    assert (MultiPoly.q() + 2).evaluate(q=0.5) == 2.5
    assert MultiPoly.constant(Fraction(3, 4)).evaluate() == 0.75


def test_constants_hash_like_their_value():
    assert hash(MultiPoly.constant(1)) == hash(1)
    assert hash(MultiPoly.constant(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert hash(MultiPoly.zero()) == hash(0)
    assert len({MultiPoly.constant(1), 1, Fraction(1)}) == 1
    assert len({MultiPoly.q(), MultiPoly.q() * 1}) == 1


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        MultiPoly.q() ** -1


class TestHermiteExpansion:
    def test_trailing_zeros_trimmed(self):
        e = HermiteExpansion([MultiPoly.one(), MultiPoly.zero(), MultiPoly.zero()])
        assert e.degree == 0


class TestPackedCodec:
    @pytest.mark.parametrize("width", [64, 86])
    def test_round_trip(self, width):
        top = (1 << width) - 1
        for poly in (MultiPoly.zero(), MultiPoly.one(), q_factorial(6), q_binomial(9, 4),
                     poly_q(0, 0, 3, 0, top), poly_q(top)):
            assert unpack(pack(poly, width), width) == poly

    def test_product_of_packed_is_packed_product(self):
        a, b = q_factorial(5), q_binomial(8, 3) + MultiPoly.monomial(q_pow=20, coeff=7)
        assert unpack(pack(a, 64) * pack(b, 64), 64) == a * b

    def test_digits_are_read_in_ascending_q(self):
        assert pack(poly_q(1, 2, 3), 64) == 1 + (2 << 64) + (3 << 128)
        assert list(unpack(3 + (5 << 128), 64).terms) == [(0, 0, 0), (2, 0, 0)]

    def test_qt_power_is_stripped_when_declared(self):
        qt = MultiPoly.qt()
        poly = q_integer(3) * qt ** 2
        assert pack(poly, 64, qt_pow=2) == pack(q_integer(3), 64)
        with pytest.raises(ValueError, match="qt"):
            pack(poly, 64, qt_pow=1)

    @pytest.mark.parametrize("poly", [
        MultiPoly.qt(),
        MultiPoly.theta() + 1,
        MultiPoly.monomial(q_pow=1, qt_pow=1),
        poly_q(1, -2),
        MultiPoly.constant(Fraction(1, 2)),
        poly_q(1 << 64),
    ])
    def test_rejects_what_does_not_pack(self, poly):
        with pytest.raises(ValueError, match="cannot pack"):
            pack(poly, 64)

    @pytest.mark.parametrize("width", [8, 16, 32, 10, 24])
    def test_round_trip_at_every_digit_reader(self, width):
        # 8, 16 and 32 bits are read as machine words, 10 and 24 from the binary string
        top = (1 << width) - 1
        for poly in (MultiPoly.zero(), poly_q(1), poly_q(0, 0, 5, 0, top), poly_q(top, 1, top)):
            assert unpack(pack(poly, width), width) == poly

    @pytest.mark.parametrize("width,size", [(64, 200_000), (86, 50_000)])
    def test_round_trip_is_linear_in_size(self, width, size):
        # one shift of the whole int per digit took minutes at these sizes
        poly = MultiPoly({(i, 0, 0): (i * 7919) % (1 << (width - 1)) + 1 for i in range(size)})
        start = time.perf_counter()
        back = unpack(pack(poly, width), width)
        assert time.perf_counter() - start < 1.0
        assert back == poly

    def test_qt_blocks(self):
        # digit i is the coefficient of q^(i mod 3) qt^(i div 3)
        value = 5 + (7 << 3 * 32) + (9 << 4 * 32) + (2 << 8 * 32)
        assert list(unpack(value, 32, block=3).terms.items()) == [
            ((0, 0, 0), 5), ((0, 1, 0), 7), ((1, 1, 0), 9), ((2, 2, 0), 2)]
        assert list(unpack(value, 32).terms) == [(0, 0, 0), (3, 0, 0), (4, 0, 0), (8, 0, 0)]

    def test_word_width(self):
        assert [word_width(v) for v in (0, 1, 255, 256, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)] == [
            8, 8, 8, 16, 32, 64, 64]
        assert word_width(2 ** 64) == 65  # past a machine word: the bit length

    def test_involution_number(self):
        assert [involution_number(n) for n in range(8)] == [1, 1, 2, 4, 10, 26, 76, 232]
        for n in range(41):
            assert involution_number(n) == involution_count(n), f"T({n})"
