"""Exact pi-rational trigonometry and projective matrix utilities."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dmlat.arithmetic import (
    ExceededBound,
    ExtOrder,
    cos_pi,
    exp_i_pi,
    hermitian_eval,
    projective_equal,
    projective_order,
    projective_scale,
    sin_pi,
    sin_pi_sign,
    signature,
)

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


class TestExpIPi:
    @given(rationals)
    def test_unit_modulus(self, q):
        assert abs(exp_i_pi(q)) == pytest.approx(1.0, abs=1e-13)

    def test_half_turn(self):
        assert exp_i_pi(Fraction(1)) == pytest.approx(-1.0)


class TestExtOrder:
    def test_finite(self):
        n = ExtOrder.finite(5)
        assert n.is_positive and not n.is_infinite and n.to_json() == 5

    def test_negative(self):
        n = ExtOrder.finite(-3)
        assert n.is_negative and not n.is_positive

    def test_infinite(self):
        n = ExtOrder.infinite()
        assert n.is_infinite and not n.is_positive and n.to_json() == "inf"


class TestProjective:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 20])
    def test_order_of_rotation(self, n):
        m = np.diag([1.0, np.exp(2j * np.pi / n), 1.0])
        assert projective_order(m).value == n

    def test_scalar_is_identity(self):
        m = (2.0 + 1.0j) * np.eye(3)
        assert projective_order(m).value == 1

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
