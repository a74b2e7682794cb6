"""Exact pi-rational angle arithmetic and projective matrix predicates.

Angles are stored as exact rationals q meaning the angle q*pi, so degeneracy
predicates (does an angle vanish, is a sine positive) are exact, while all
matrix arithmetic is ordinary double precision. The orders derived from the
angles are ``dmlat.catalog.ExtOrder``s; an order found by searching a
matrix's powers (``projective_order``) is a plain int.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Union

import numpy as np

RationalLike = Union[Fraction, int, str]

# The tolerance table: every tolerance and bound of the package, one name per
# decision. The other modules read these names and write none of the values.
DEFAULT_TOL = 1e-9  # computed matrices or values agree, up to scale or not; --tolerance default
DEFAULT_MAX_ORDER = 200  # the highest power an order search tries; --max-order default
VANISHING_TOL = 1e-12  # a value vanishes against the largest entry it is measured with
ZERO_COORD_TOL = 1e-10  # a coordinate vanishes; catalog vertex coordinates are < 2e-14 or > 0.04
VERTEX_ARG_TOL = 1e-9  # a vertex-table coordinate has its named argument
MEMBERSHIP_TOL = 1e-6  # slack of each argument condition of in_D and in_D_union
RESIDUAL_TOL = 1e-10  # a vertex respects its side bound and meets its bisector
REAL_TOL = 1e-9  # the k'-collapsed vertex's norm is null, relative to its largest entry squared
DRAWS_PER_SAMPLE = 200  # draw cap of every sampler, per requested sample
# Values that pin the sampled reports: changing one changes their streams.
BULLET_NEUTRAL = 1e-8  # default neutral band of the two bullet samplers
TESSELLATE_NEUTRAL = 1e-9  # neutral band of the tessellation sign table


class ZeroMatrix(ValueError):
    """Reference matrix of a projective comparison is numerically zero."""


class ExceededBound(RuntimeError):
    """An order search ran past its bound without finding the identity."""


def sin_pi(q: RationalLike) -> float:
    """sin(q*pi) with exact 0.0 at integer q and exact symmetry.

    The argument is folded into the first quadrant before evaluation, so
    sin_pi(1 - q) == sin_pi(q) and sin_pi(-q) == -sin_pi(q) hold exactly at
    the floating point representation level. Each value is computed once per
    process, cached by the int pair ``_angle_key(q)``. A float is refused
    with ``TypeError``: it is not the rational it approximates.
    """
    return _sin_pi(*_angle_key(q))


def _angle_key(q: RationalLike) -> tuple[int, int]:
    """q's reduced (numerator, denominator): cheaper to hash than a Fraction."""
    if not isinstance(q, (Fraction, int)):
        if isinstance(q, float):
            raise TypeError(f"an angle is a Fraction, an int or a string, not the float {q!r}")
        q = Fraction(q)
    return q.numerator, q.denominator


@cache
def _sin_pi(numerator: int, denominator: int) -> float:
    # r = n/d = q mod 2, reduced, folded into [0, 1/2] in integers.
    n, d = numerator % (2 * denominator), denominator
    if d == 1:
        return 0.0
    sign = 1.0
    if n > d:
        sign = -1.0
        n -= d
    if 2 * n > d:
        n = d - n
    if 2 * n == d:
        return sign
    return sign * math.sin(math.pi * (n / d))


def cos_pi(q: RationalLike) -> float:
    """cos(q*pi) with exact 0.0 at half-integer q."""
    return _cos_pi(*_angle_key(q))


def _cos_pi(numerator: int, denominator: int) -> float:
    """sin((q + 1/2) pi), keyed by the reduced pair of q + 1/2."""
    n, d = 2 * numerator + denominator, 2 * denominator
    g = math.gcd(n, d)
    return _sin_pi(n // g, d // g)


def sin_pi_sign(q: RationalLike) -> int:
    """Exact sign of sin(q*pi): 1, 0 or -1, decided on the rational alone."""
    n, d = _angle_key(q)
    if d == 1:
        return 0
    return 1 if n % (2 * d) < d else -1


def exp_i_pi(q: RationalLike) -> complex:
    """exp(i*q*pi) evaluated via the exact-zero sin/cos, once per process."""
    return _exp_i_pi(*_angle_key(q))


@cache
def _exp_i_pi(numerator: int, denominator: int) -> complex:
    return complex(_cos_pi(numerator, denominator), _sin_pi(numerator, denominator))


def read_only(a: np.ndarray) -> np.ndarray:
    """Make ``a`` read-only, so that a cached array can be shared; return it."""
    a.setflags(write=False)
    return a


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    return a


def _as_pair(m, n) -> tuple[list, list]:
    """Two 3x3 matrices or two 3-vectors as two flat lists of Python complex."""
    m, n = np.asarray(m, dtype=complex), np.asarray(n, dtype=complex)
    if m.shape != n.shape or m.shape not in ((3, 3), (3,)):
        raise ValueError(f"expected two 3x3 matrices or two 3-vectors, got {m.shape}, {n.shape}")
    return m.ravel().tolist(), n.ravel().tolist()


def _scale(m: list, n: list, tol: float) -> tuple[complex, float]:
    """lambda = m[i] / n[i] at n's largest entry, and that entry's modulus."""
    sizes = [abs(x) for x in n]
    top = max(sizes)
    if top < tol:
        raise ZeroMatrix("reference matrix is numerically zero")
    i = sizes.index(top)
    return m[i] / n[i], top


def projective_scale(m, n, tol: float = DEFAULT_TOL) -> complex:
    """Scalar lambda such that m approximates lambda*n, from n's largest entry."""
    return _scale(*_as_pair(m, n), tol)[0]


def projective_equal(m, n, tol: float = DEFAULT_TOL) -> bool:
    """True iff m == lambda*n within tol, relative to n's largest entry.

    m and n are two 3x3 matrices or two 3-vectors: two maps, two forms or
    two line vectors, each determined up to a nonzero scalar. Their entries
    are read once, as Python scalars: cheaper than numpy calls on nine.
    """
    m, n = _as_pair(m, n)
    lam, top = _scale(m, n, tol)
    return all(abs(a - lam * b) <= tol * top for a, b in zip(m, n))


def renormalize(m) -> np.ndarray:
    """Divide a matrix by its largest-modulus entry (guards over/underflow)."""
    m = _as_matrix(m)
    top = np.abs(m).max()
    if top == 0.0:
        raise ZeroMatrix("cannot renormalize the zero matrix")
    return m / top


def projective_order(m, max_n: int = DEFAULT_MAX_ORDER, tol: float = DEFAULT_TOL) -> int:
    """Smallest n in [1, max_n] with m**n projectively the identity.

    m**n is scalar exactly when m**ceil(n/2) and m**-floor(n/2) agree
    projectively; the search compares those two powers, each renormalized
    at each step. Their chains are half as long as that of m**n, so they
    drift half as far from the exact powers. m must be invertible. Returns
    the int n; raises ExceededBound if no power within the bound is a scalar
    matrix.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    m = renormalize(m)
    m_inv = np.linalg.inv(m)
    ahead, behind = m, np.eye(3, dtype=complex)
    for n in range(1, max_n + 1):
        if projective_equal(ahead, behind, tol):
            return n
        if n % 2:
            behind = renormalize(behind @ m_inv)
        else:
            ahead = renormalize(ahead @ m)
    raise ExceededBound(f"no projective identity among the first {max_n} powers")


def hermitian_eval(d: np.ndarray, v):
    """The real number v* H v for the diagonal form H = diag(d).

    For a (3, m) array, the m values of its columns.
    """
    return d @ np.abs(v) ** 2


def signature(d: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of the diagonal form d, zero within ``DEFAULT_TOL``."""
    return (int(np.sum(d > DEFAULT_TOL)), int(np.sum(d < -DEFAULT_TOL)),
            int(np.sum(np.abs(d) <= DEFAULT_TOL)))


def no_finite_point(v) -> bool:
    """Whether a projective 3-vector has no affine point.

    True when the third coordinate vanishes against the largest entry: a
    point at infinity, or the zero vector of a singular chart.
    """
    v = np.asarray(v).tolist()
    return abs(v[2]) <= VANISHING_TOL * max(map(abs, v))

