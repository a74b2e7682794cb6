"""Exact pi-rational angle arithmetic and projective matrix predicates.

Angles are stored as exact rationals q meaning the angle q*pi, so degeneracy
predicates (does an angle vanish, is a sine positive) are exact, while all
matrix arithmetic is ordinary double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Union

import numpy as np

# A PiRational is a reduced rational q representing the angle q*pi.
# Fraction already enforces the reduced-form invariant.
PiRational = Fraction

RationalLike = Union[Fraction, int, str]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ORDER = 200


class ZeroMatrix(ValueError):
    """Reference matrix of a projective comparison is numerically zero."""


class NonRealResult(ValueError):
    """A supposedly real Hermitian evaluation had a large imaginary part."""


class ExceededBound(RuntimeError):
    """An order search ran past its bound without finding the identity."""


@dataclass(frozen=True)
class ExtOrder:
    """Order of a map: a nonzero integer (sign meaningful) or infinity.

    ``value`` is None for the infinite order.
    """

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None and self.value == 0:
            raise ValueError("order magnitude must be >= 1")

    @classmethod
    def finite(cls, n: int) -> "ExtOrder":
        return cls(int(n))

    @classmethod
    def infinite(cls) -> "ExtOrder":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_positive(self) -> bool:
        return self.value is not None and self.value > 0

    @property
    def is_negative(self) -> bool:
        return self.value is not None and self.value < 0

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def to_json(self) -> int | str:
        return "inf" if self.value is None else self.value


@cache
def sin_pi(q: RationalLike) -> float:
    """sin(q*pi) with exact 0.0 at integer q and exact symmetry.

    The argument is folded into the first quadrant before evaluation, so
    sin_pi(1 - q) == sin_pi(q) and sin_pi(-q) == -sin_pi(q) hold exactly at
    the floating point representation level. Each value is computed once per
    process: equal keys are equal rationals, since numeric equality is exact.
    """
    q = Fraction(q)
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


def cos_pi(q: RationalLike) -> float:
    """cos(q*pi) with exact 0.0 at half-integer q."""
    return sin_pi(Fraction(q) + Fraction(1, 2))


def sin_pi_sign(q: RationalLike) -> int:
    """Exact sign of sin(q*pi): 1, 0 or -1, decided on the rational alone."""
    r = Fraction(q) % 2
    if r.denominator == 1:
        return 0
    return 1 if r < 1 else -1


@cache
def exp_i_pi(q: RationalLike) -> complex:
    """exp(i*q*pi) evaluated via the exact-zero sin/cos, once per process."""
    q = Fraction(q)
    return complex(cos_pi(q), sin_pi(q))


def read_only(a: np.ndarray) -> np.ndarray:
    """Make ``a`` read-only, so that a cached array can be shared; return it."""
    a.setflags(write=False)
    return a


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    return a


def projective_scale(m, n, tol: float = DEFAULT_TOL) -> complex:
    """Scalar lambda such that m approximates lambda*n, from n's largest entry."""
    m = _as_matrix(m)
    n = _as_matrix(n)
    idx = np.unravel_index(np.argmax(np.abs(n)), n.shape)
    if abs(n[idx]) < tol:
        raise ZeroMatrix("reference matrix is numerically zero")
    return m[idx] / n[idx]


def projective_equal(m, n, tol: float = DEFAULT_TOL) -> bool:
    """True iff m == lambda*n within tol, relative to n's largest entry."""
    m = _as_matrix(m)
    n = _as_matrix(n)
    lam = projective_scale(m, n, tol)
    return bool(np.max(np.abs(m - lam * n)) <= tol * np.max(np.abs(n)))


def renormalize(m) -> np.ndarray:
    """Divide a matrix by its largest-modulus entry (guards over/underflow)."""
    m = _as_matrix(m)
    top = np.max(np.abs(m))
    if top == 0.0:
        raise ZeroMatrix("cannot renormalize the zero matrix")
    return m / top


def projective_order(m, max_n: int = DEFAULT_MAX_ORDER, tol: float = DEFAULT_TOL) -> ExtOrder:
    """Smallest n in [1, max_n] with m**n projectively the identity.

    Powers are renormalized at each step. Raises ExceededBound if no power
    within the bound is a scalar matrix.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    m = renormalize(m)
    eye = np.eye(3, dtype=complex)
    power = m
    for n in range(1, max_n + 1):
        if projective_equal(power, eye, tol):
            return ExtOrder.finite(n)
        power = renormalize(power @ m)
    raise ExceededBound(f"no projective identity among the first {max_n} powers")


@dataclass(frozen=True)
class HermitianForm3:
    """A 3x3 Hermitian matrix, validated to 1e-12 at construction.

    The matrix is read-only, so that one form can be shared by every caller.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        h = _as_matrix(self.matrix)
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError("matrix is not Hermitian to 1e-12")
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)

    def inner(self, v, w) -> complex:
        """<v, w> = w* H v (linear in the first slot)."""
        v = np.asarray(v, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return complex(w.conj() @ self.matrix @ v)


def hermitian_eval(h: HermitianForm3, v):
    """The real number v* H v; errors if the imaginary part is not tiny.

    For a (3, m) array, the m values of its columns, each checked.
    """
    v = np.asarray(v, dtype=complex)
    val = (complex(v.conj() @ h.matrix @ v) if v.ndim == 1
           else np.einsum("ij,ik,kj->j", v.conj(), h.matrix, v))
    imag = np.abs(np.imag(val))
    if np.any(imag > 1e-9 * np.abs(val) + 1e-12):
        raise NonRealResult(f"v*Hv has imaginary part {np.max(imag)}")
    return np.real(val)


def signature(h: HermitianForm3, tol: float = DEFAULT_TOL) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a Hermitian form."""
    eigs = np.linalg.eigvalsh(h.matrix)
    n_zero = int(np.sum(np.abs(eigs) <= tol))
    n_pos = int(np.sum(eigs > tol))
    n_neg = int(np.sum(eigs < -tol))
    return (n_pos, n_neg, n_zero)


def no_finite_point(v) -> bool:
    """Whether a projective 3-vector has no affine point.

    True when the third coordinate vanishes against the largest entry: a
    point at infinity, or the zero vector of a singular chart.
    """
    v = np.asarray(v)
    return bool(abs(v[2]) <= 1e-12 * np.max(np.abs(v)))


def normalize_vector(v, tol: float = 1e-12) -> np.ndarray:
    """Scale a vector so its largest-modulus entry is real positive."""
    v = np.asarray(v, dtype=complex)
    idx = int(np.argmax(np.abs(v)))
    if abs(v[idx]) < tol:
        raise ZeroMatrix("cannot normalize the zero vector")
    return v * (abs(v[idx]) / v[idx]) / abs(v[idx])
