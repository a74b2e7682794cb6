"""Exact pi-rational trigonometry and projective matrix utilities."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dmlat.arithmetic import (
    DEFAULT_TOL, VANISHING_TOL,
    ExceededBound,
    ZeroMatrix,
    _angle_key,
    cos_pi,
    exp_i_pi,
    hermitian_eval,
    no_finite_point,
    projective_equal,
    projective_order,
    projective_scale,
    renormalize,
    sin_pi,
    sin_pi_sign,
    signature,
)
from dmlat.catalog import catalog
from dmlat.domain import _pairing_words, _word, build_domain
from dmlat.verification import _CYCLE_ORDERS

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64)


class TestSinPi:
    @pytest.mark.parametrize("q,value", [
        (Fraction(0), 0.0),
        (Fraction(1, 2), 1.0),
        (Fraction(1, 6), 0.5),
        (Fraction(1), 0.0),
        (Fraction(-1, 2), -1.0),
        (Fraction(3, 2), -1.0),
    ])
    def test_special_values(self, q, value):
        assert sin_pi(q) == pytest.approx(value, abs=1e-15)

    @given(rationals)
    def test_matches_float_sine(self, q):
        assert sin_pi(q) == pytest.approx(math.sin(math.pi * q), abs=1e-12)

    @given(rationals)
    def test_periodicity(self, q):
        assert sin_pi(q + 2) == pytest.approx(sin_pi(q), abs=1e-12)

    @given(rationals)
    def test_sign_is_exact(self, q):
        s = sin_pi_sign(q)
        v = sin_pi(q)
        if s == 0:
            assert abs(v) < 1e-12
        else:
            assert math.copysign(1, v) == s and abs(v) > 1e-12

    @given(rationals)
    def test_cos_complements(self, q):
        assert cos_pi(q) == pytest.approx(sin_pi(Fraction(1, 2) - q), abs=1e-12)


def _fraction_fold(q: Fraction) -> float:
    """sin(q*pi) folded into the first quadrant on Fractions: the reference
    for the integer fold of the cached evaluation."""
    r = q % 2
    if r.denominator == 1:
        return 0.0
    sign = 1.0
    if r > 1:
        sign = -1.0
        r -= 1
    if 2 * r > 1:
        r = 1 - r
    if 2 * r == 1:
        return sign
    return sign * math.sin(math.pi * float(r))


def _fraction_sign(q: Fraction) -> int:
    r = q % 2
    return 0 if r.denominator == 1 else 1 if r < 1 else -1


class TestIntegerFold:
    SMALL = [Fraction(n, d) for d in range(1, 49) for n in range(-4 * d, 4 * d + 1)]

    def test_sin_is_the_fraction_fold_bit_for_bit(self):
        # float.hex tells -0.0 from 0.0, which == does not.
        for q in self.SMALL:
            assert sin_pi(q).hex() == _fraction_fold(q).hex(), q

    def test_cos_and_phase_are_the_shifted_fold(self):
        for q in self.SMALL:
            cos = _fraction_fold(q + Fraction(1, 2))
            assert cos_pi(q).hex() == cos.hex(), q
            phase = exp_i_pi(q)
            assert (phase.real.hex(), phase.imag.hex()) == (cos.hex(), _fraction_fold(q).hex())

    def test_exact_symmetry(self):
        # The documented identities hold to the bit; for the floats k/100
        # they did not (sin_pi(1 - x) != sin_pi(x) on 19 of the 99).
        for q in self.SMALL:
            assert sin_pi(1 - q) == sin_pi(q) and sin_pi(-q) == -sin_pi(q), q

    def test_sign_is_the_fraction_rule(self):
        for q in self.SMALL:
            assert sin_pi_sign(q) == _fraction_sign(q), q

    @given(st.fractions(max_denominator=10**6))
    def test_large_denominators(self, q):
        assert sin_pi(q).hex() == _fraction_fold(q).hex()
        assert sin_pi_sign(q) == _fraction_sign(q)


class TestFloatRefused:
    @pytest.mark.parametrize("f", [sin_pi, cos_pi, exp_i_pi, sin_pi_sign])
    @pytest.mark.parametrize("x", [1 / 3, 0.5, 0.0, 2.0, float("inf"), float("nan"),
                                   np.float64(0.25)], ids=repr)
    def test_float_raises_type_error(self, f, x):
        # A float is a binary fraction, not the rational it was meant to be:
        # sin_pi(0.07) and sin_pi(0.93) differ, and inf overflowed untyped.
        with pytest.raises(TypeError, match="float"):
            f(x)


class TestAngleKeys:
    @given(rationals)
    def test_every_spelling_of_a_rational_is_one_key(self, q):
        # Fraction, str and (for integers) int spell the same angle; q and
        # q + 2 are the same angle, evaluated from the same residue.
        spellings = [q, str(q)] + ([int(q)] if q.denominator == 1 else [])
        for f in (sin_pi, exp_i_pi):
            assert {f(x) for x in spellings} == {f(q)}
            assert f(q + 2) == f(q)
        assert {_angle_key(x) for x in spellings} == {(q.numerator, q.denominator)}


class TestExpIPi:
    @given(rationals)
    def test_unit_modulus(self, q):
        assert abs(exp_i_pi(q)) == pytest.approx(1.0, abs=1e-13)

    def test_half_turn(self):
        assert exp_i_pi(Fraction(1)) == pytest.approx(-1.0)


class TestProjective:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 20])
    def test_order_of_rotation(self, n):
        m = np.diag([1.0, np.exp(2j * np.pi / n), 1.0])
        assert projective_order(m) == n

    def test_scalar_is_identity(self):
        m = (2.0 + 1.0j) * np.eye(3)
        assert projective_order(m) == 1

    def test_exceeds_bound(self):
        m = np.diag([1.0, np.exp(2j * np.pi * math.sqrt(2) / 10), 1.0])
        with pytest.raises(ExceededBound):
            projective_order(m, max_n=50)

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                              allow_nan=False, allow_infinity=False))
    def test_equal_under_scalar(self, lam):
        m = np.arange(9, dtype=complex).reshape(3, 3) + 1j
        assert projective_equal(m, lam * m)

    def test_not_equal(self):
        m = np.eye(3, dtype=complex)
        other = np.diag([1.0, 2.0, 1.0]).astype(complex)
        assert not projective_equal(m, other)

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                              allow_nan=False, allow_infinity=False))
    def test_vectors_equal_under_scalar(self, lam):
        v = np.array([1.0 - 2.0j, 0.5, 3.0j])
        assert projective_equal(lam * v, v)
        assert projective_scale(lam * v, v) == pytest.approx(lam, rel=1e-12)
        assert not projective_equal(lam * v, np.array([1.0 - 2.0j, 0.5, 2.0j]))

    @pytest.mark.parametrize("m,n", [
        (np.ones(3), np.eye(3)),
        (np.eye(3), np.ones(3)),
        (np.ones(2), np.ones(2)),
        (np.ones(4), np.ones(4)),
        (np.ones((3, 1)), np.ones((3, 1))),
        (np.eye(2), np.eye(2)),
    ], ids=["vector-matrix", "matrix-vector", "2", "4", "3x1", "2x2"])
    def test_other_shapes_raise(self, m, n):
        for compare in (projective_equal, projective_scale):
            with pytest.raises(ValueError, match="two 3x3 matrices or two 3-vectors"):
                compare(m, n)


class TestSignature:
    def test_ball_form(self):
        assert signature(np.array([1.0, -1.0, -1.0])) == (1, 2, 0)

    def test_degenerate(self):
        assert signature(np.array([1.0, -1.0, 0.0])) == (1, 1, 1)


def test_hermitian_eval_matches_inner():
    d = np.array([2.0, -1.0, -1.0])
    v = np.array([1.0 + 1j, 2.0, 0.5j])
    assert hermitian_eval(d, v) == pytest.approx((v.conj() @ np.diag(d) @ v).real)


# The numpy formulas the list-based predicates replaced: the reference they
# must agree with.
def _numpy_scale(m, n, tol):
    m, n = np.asarray(m, dtype=complex), np.asarray(n, dtype=complex)
    idx = np.unravel_index(np.argmax(np.abs(n)), n.shape)
    if abs(n[idx]) < tol:
        raise ZeroMatrix("reference matrix is numerically zero")
    return m[idx] / n[idx]


def _numpy_equal(m, n, tol):
    m, n = np.asarray(m, dtype=complex), np.asarray(n, dtype=complex)
    lam = _numpy_scale(m, n, tol)
    return bool(np.max(np.abs(m - lam * n)) <= tol * np.max(np.abs(n)))


def _numpy_no_finite_point(v):
    v = np.asarray(v)
    return bool(abs(v[2]) <= VANISHING_TOL * np.max(np.abs(v)))


def _numpy_order(m, max_n, tol):
    m = renormalize(m)
    m_inv = np.linalg.inv(m)
    ahead, behind = m, np.eye(3, dtype=complex)
    for n in range(1, max_n + 1):
        if _numpy_equal(ahead, behind, tol):
            return n
        if n % 2:
            behind = renormalize(behind @ m_inv)
        else:
            ahead = renormalize(ahead @ m)
    raise ExceededBound(f"no projective identity among the first {max_n} powers")


entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
scalars = st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                             allow_nan=False, allow_infinity=False)
shapes = st.sampled_from([(3, 3), (3,)])
tolerances = st.sampled_from([DEFAULT_TOL, 1e-12])


def _array(draw, shape):
    return np.array(draw(st.lists(entries, min_size=9, max_size=9)))[:np.prod(shape)].reshape(shape)


class TestListPredicates:
    """The predicates decide on Python scalars as the numpy formulas did."""

    @given(st.data(), shapes, tolerances)
    def test_random_pairs(self, data, shape, tol):
        m, n = _array(data.draw, shape), _array(data.draw, shape)
        try:
            want = _numpy_scale(m, n, tol)
        except ZeroMatrix:
            for compare in (projective_scale, projective_equal):
                with pytest.raises(ZeroMatrix):
                    compare(m, n, tol)
            return
        assert projective_equal(m, n, tol) == _numpy_equal(m, n, tol)
        # numpy's modulus and Python's can differ in the last bit, so on two
        # entries of n within rounding of the largest, each may pick another.
        second, top = np.sort(np.abs(n).ravel())[-2:]
        if second < top * (1 - 1e-12):
            assert projective_scale(m, n, tol) == pytest.approx(want, rel=1e-14)

    @given(st.data(), shapes, scalars, st.floats(0, 2 * math.pi), tolerances)
    def test_scaled_and_rotated_copies(self, data, shape, lam, phase, tol):
        n = _array(data.draw, shape)
        assume(np.max(np.abs(n)) >= 1.0)
        m = lam * np.exp(1j * phase) * n
        assert projective_equal(m, n, tol) and _numpy_equal(m, n, tol)
        assert projective_scale(m, n, tol) == pytest.approx(_numpy_scale(m, n, tol),
                                                            rel=1e-14)

    @given(st.data(), shapes, scalars, st.floats(0, 2 * math.pi),
           st.sampled_from([1 - 1e-3, 1 + 1e-3]), st.sampled_from([DEFAULT_TOL, 1e-10]))
    def test_perturbed_at_the_tolerance(self, data, shape, lam, phase, factor, tol):
        # One entry off by tol * (1 -+ 1e-3) of n's largest: equal just
        # inside the bound, unequal just outside, on both sides alike. The
        # margin, 1e-3 tol of n's largest, stays far above the rounding of lam n.
        n = _array(data.draw, shape)
        sizes = np.abs(n).ravel()
        assume(sizes.max() >= 1.0)
        top = int(np.argmax(sizes))
        j = data.draw(st.sampled_from([i for i in range(n.size) if i != top]))
        m = lam * n
        m.flat[j] += factor * tol * sizes.max() * np.exp(1j * phase)
        assert projective_equal(m, n, tol) == _numpy_equal(m, n, tol) == (factor < 1)

    @given(st.data(), st.floats(0, 2 * math.pi), st.sampled_from([0.0, 1 - 1e-3, 1 + 1e-3]))
    def test_no_finite_point(self, data, phase, factor):
        v = _array(data.draw, (3,))
        assume(np.max(np.abs(v[:2])) >= 1.0)
        assert no_finite_point(v) == _numpy_no_finite_point(v)
        v[2] = factor * VANISHING_TOL * np.max(np.abs(v[:2])) * np.exp(1j * phase)
        assert no_finite_point(v) == _numpy_no_finite_point(v) == (factor < 1)
        assert no_finite_point(v.real) == _numpy_no_finite_point(v.real)

    def test_zero_reference_raises(self):
        for n in (np.zeros((3, 3)), 0.1 * DEFAULT_TOL * np.eye(3), np.zeros(3)):
            for compare in (projective_scale, projective_equal):
                with pytest.raises(ZeroMatrix):
                    compare(np.ones(n.shape), n)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-12])
    def test_cycle_orders_as_before(self, tol):
        # Every cycle word of the 13 triples keeps the order, or the failed
        # search, that the numpy comparison found.
        for sig in catalog():
            words = _pairing_words(build_domain(sig))
            for _, _, word, _, _ in _CYCLE_ORDERS:
                m = _word(word, words)
                try:
                    want = _numpy_order(m, 200, tol)
                except ExceededBound:
                    with pytest.raises(ExceededBound):
                        projective_order(m, 200, tol)
                    continue
                assert projective_order(m, 200, tol) == want, (sig, word)
