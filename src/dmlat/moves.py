"""Configuration-tracked move matrices and their composition law.

Each move is a 3x3 complex matrix together with the source and target angle
4-tuples (alpha, beta, theta, phi), stored as exact multiples of pi. Matrix
composition is only allowed when the configurations match exactly, which is
what makes chained identities trustworthy. Each move and area form is built
once per configuration and process, and its array is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from dmlat.arithmetic import (
    DEFAULT_TOL, VANISHING_TOL,
    PiRational,
    exp_i_pi,
    projective_equal,
    read_only,
    sin_pi,
)
from dmlat.catalog import LatticeSignature, derive_params


class DegenerateDenominator(ZeroDivisionError):
    """A sine in a matrix denominator vanishes for these angles."""


class ConfigMismatch(ValueError):
    """Attempted to compose maps whose configurations do not line up."""


class SingularMatrix(ValueError):
    """Attempted to invert a numerically singular matrix."""


@dataclass(frozen=True)
class Configuration:
    """An angle chart (alpha, beta, theta, phi), as exact multiples of pi."""

    alpha: PiRational
    beta: PiRational
    theta: PiRational
    phi: PiRational

    def __post_init__(self) -> None:  # hashed once: the key of every move cache
        object.__setattr__(self, "_hash", hash(self.angles()))

    def __hash__(self) -> int:
        return self._hash

    def angles(self) -> tuple[PiRational, PiRational, PiRational, PiRational]:
        return (self.alpha, self.beta, self.theta, self.phi)

    def __str__(self) -> str:
        return f"({self.alpha}, {self.beta}, {self.theta}, {self.phi})*pi"


@dataclass(frozen=True, eq=False)
class ConfiguredMap:
    """A matrix mapping source-frame coordinates to target-frame coordinates.

    The matrix is made read-only, so that the cached moves can be shared;
    maps compare by identity.
    """

    matrix: np.ndarray
    source: Configuration
    target: Configuration
    label: str

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)


@cache
def hermitian_form(c: Configuration) -> np.ndarray:
    """The area form of a configuration, diag(d0, d1, d2), as the read-only
    float64 array (d0, d1, d2) of its real diagonal."""
    a, b, t, f = c.angles()
    _check_denominators(c, a - f, b - t, t + f)
    return read_only(np.array([
        -sin_pi(f) * sin_pi(a) / sin_pi(a - f),
        -sin_pi(t) * sin_pi(b) / sin_pi(b - t),
        sin_pi(f) * sin_pi(t) / sin_pi(t + f),
    ]))


def _check_denominators(c: Configuration, *quantities: Fraction) -> None:
    for q in quantities:
        if sin_pi(q) == 0.0:
            raise DegenerateDenominator(f"sin({q}*pi) = 0 at configuration {c}")


def r1_target(c: Configuration) -> Configuration:
    a, b, t, f = c.angles()
    return Configuration(a, 1 + t - b, t, f)


def r2_target(c: Configuration) -> Configuration:
    a, b, t, f = c.angles()
    return Configuration(b, a, t + a - b, f + b - a)


def p_target(c: Configuration) -> Configuration:
    return r1_target(r2_target(c))


def p_inverse_target(c: Configuration) -> Configuration:
    a, b, t, f = c.angles()
    return Configuration(1 + t - b, a, a + b - 1, 1 + t + f - a - b)


@cache
def move_R1(c: Configuration) -> ConfiguredMap:
    """Exchange of the second and third cone points."""
    a, b, t, f = c.angles()
    _check_denominators(c, b - t)
    m = np.diag(
        np.asarray([1.0, exp_i_pi(t) * sin_pi(b) / sin_pi(b - t), 1.0], dtype=complex)
    )
    return ConfiguredMap(m, c, r1_target(c), "R1")


@cache
def move_A1(c: Configuration) -> ConfiguredMap:
    """Full twist at the first cone point; keeps the configuration."""
    f = c.phi
    m = np.diag(np.asarray([exp_i_pi(2 * f), 1.0, 1.0], dtype=complex))
    return ConfiguredMap(m, c, c, "A1")


def _A_entry(c: Configuration) -> complex:
    """The bottom-right entry shared by the R2, P and J matrices."""
    a, b, t, f = c.angles()
    fp = f + b - a
    return sin_pi(t) * sin_pi(fp) - sin_pi(t + f) * sin_pi(b) * exp_i_pi(a)


@cache
def move_R2(c: Configuration) -> ConfiguredMap:
    """Exchange of the first and second cone points."""
    a, b, t, f = c.angles()
    tp = t + a - b
    fp = f + b - a
    _check_denominators(c, tp, fp)
    pref = 1.0 / (sin_pi(tp) * sin_pi(fp))
    m = pref * np.asarray(
        [
            [
                sin_pi(a) * sin_pi(tp) * exp_i_pi(a - f),
                sin_pi(a - f) * sin_pi(tp) * exp_i_pi(a),
                -sin_pi(a - f) * sin_pi(tp) * exp_i_pi(a),
            ],
            [
                sin_pi(b - t) * sin_pi(fp) * exp_i_pi(b),
                sin_pi(fp) * sin_pi(b) * exp_i_pi(b - t),
                -sin_pi(b - t) * sin_pi(fp) * exp_i_pi(b),
            ],
            [
                sin_pi(t + f) * sin_pi(a) * exp_i_pi(b),
                sin_pi(t + f) * sin_pi(b) * exp_i_pi(a),
                _A_entry(c),
            ],
        ],
        dtype=complex,
    )
    return ConfiguredMap(m, c, r2_target(c), "R2")


@cache
def move_P(c: Configuration) -> ConfiguredMap:
    """The composite of the two exchanges, given in closed form."""
    a, b, t, f = c.angles()
    tp = t + a - b
    fp = f + b - a
    _check_denominators(c, tp, fp, b - t)
    pref = 1.0 / (sin_pi(tp) * sin_pi(fp))
    m = pref * np.asarray(
        [
            [
                sin_pi(a) * sin_pi(tp) * exp_i_pi(a - f),
                sin_pi(a - f) * sin_pi(tp) * exp_i_pi(a),
                -sin_pi(a - f) * sin_pi(tp) * exp_i_pi(a),
            ],
            [
                sin_pi(a) * sin_pi(fp) * exp_i_pi(a + t),
                sin_pi(fp) * sin_pi(b) * sin_pi(a) / sin_pi(b - t) * exp_i_pi(a),
                -sin_pi(a) * sin_pi(fp) * exp_i_pi(a + t),
            ],
            [
                sin_pi(t + f) * sin_pi(a) * exp_i_pi(b),
                sin_pi(t + f) * sin_pi(b) * exp_i_pi(a),
                _A_entry(c),
            ],
        ],
        dtype=complex,
    )
    return ConfiguredMap(m, c, p_target(c), "P")


@cache
def move_J(c: Configuration) -> ConfiguredMap:
    """P followed by the twist A1; a projective cube root of the identity."""
    p = move_P(c)
    a1 = move_A1(c)
    return ConfiguredMap(p.matrix @ a1.matrix, c, p.target, "J")


@cache
def move_P_inverse(c: Configuration) -> ConfiguredMap:
    """The closed-form inverse-composite matrix, applied at configuration c."""
    a, b, t, f = c.angles()
    tp = a + b - 1
    fp = 1 + t + f - a - b
    _check_denominators(c, tp, fp, b - t)
    pref = 1.0 / (sin_pi(tp) * sin_pi(fp))
    A = -sin_pi(tp) * sin_pi(f) - sin_pi(t + f) * sin_pi(a) * exp_i_pi(b - t)
    m = pref * np.asarray(
        [
            [
                -sin_pi(a) * sin_pi(tp) * exp_i_pi(-(a - f)),
                -sin_pi(a - f) * sin_pi(tp) * sin_pi(b) / sin_pi(b - t) * exp_i_pi(-(a + t)),
                sin_pi(a - f) * sin_pi(tp) * exp_i_pi(-a),
            ],
            [
                sin_pi(b) * sin_pi(fp) * exp_i_pi(b - t),
                sin_pi(b) * sin_pi(fp) * exp_i_pi(b - t),
                -sin_pi(b) * sin_pi(fp) * exp_i_pi(b - t),
            ],
            [
                sin_pi(t + f) * sin_pi(a) * exp_i_pi(b - t),
                -sin_pi(t + f) * sin_pi(b) * exp_i_pi(-(a + t)),
                A,
            ],
        ],
        dtype=complex,
    )
    return ConfiguredMap(m, c, p_inverse_target(c), "P^-1")


def compose(f: ConfiguredMap, g: ConfiguredMap) -> ConfiguredMap:
    """The composite f after g; requires f.source == g.target exactly."""
    if f.source != g.target:
        raise ConfigMismatch(
            f"cannot compose {f.label} (source {f.source}) after {g.label} "
            f"(target {g.target})"
        )
    return ConfiguredMap(f.matrix @ g.matrix, g.source, f.target, f"{f.label}*{g.label}")


def inverse(f: ConfiguredMap) -> ConfiguredMap:
    """Matrix inverse with source and target swapped."""
    m = f.matrix / np.max(np.abs(f.matrix))
    if abs(np.linalg.det(m)) <= VANISHING_TOL:
        raise SingularMatrix(f"map {f.label} is numerically singular")
    inv = np.linalg.inv(f.matrix)
    label = f.label[:-3] if f.label.endswith("^-1") else f.label + "^-1"
    return ConfiguredMap(inv, f.target, f.source, label)


def check_isometry(f: ConfiguredMap) -> bool:
    """True iff f.matrix* H(target) f.matrix == H(source) entrywise to ``DEFAULT_TOL``."""
    lhs = (f.matrix.conj().T * hermitian_form(f.target)) @ f.matrix
    return bool(np.max(np.abs(lhs - np.diag(hermitian_form(f.source)))) <= DEFAULT_TOL)


def check_braid(c: Configuration) -> bool:
    """Configuration-tracked triple products agree projectively.

    Both ways around the commuting square of exchanges are built from c and
    compared; the source and target configurations are asserted equal first.
    """
    left = compose(move_R1(r2_target(r1_target(c))), compose(move_R2(r1_target(c)), move_R1(c)))
    right = compose(move_R2(r1_target(r2_target(c))), compose(move_R1(r2_target(c)), move_R2(c)))
    if (left.source, left.target) != (right.source, right.target):
        raise ConfigMismatch("the two triple products do not share configurations")
    return projective_equal(left.matrix, right.matrix)


def configurations_of(sig: LatticeSignature) -> tuple[Configuration, Configuration, Configuration]:
    """The three charts (C1, C2, C3) attached to a signature.

    They are the move targets r1(C3) = p^-1(C3) = C1 and r2(C3) = p(C3) = C2,
    so each chart's moves and forms are built once. C2's last angle phi' is
    negative exactly when k' < 0, and 0 exactly when k' is infinite.
    """
    params = derive_params(sig)
    a, t, f = params.alpha, params.theta, params.phi
    return (Configuration(a, a, t, f),
            Configuration(1 + t - a, a, 2 * a - 1, 1 + t + f - 2 * a),
            Configuration(a, 1 + t - a, t, f))
