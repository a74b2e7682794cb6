"""Configuration-tracked move matrices and their composition law.

Each move is a 3x3 complex matrix together with the source and target angle
4-tuples (alpha, beta, theta, phi), stored as exact multiples of pi. Matrix
composition is only allowed when the configurations match exactly, which is
what makes chained identities trustworthy. Each move and area form is built
once per configuration and process, and its array is read-only.

Each entry of a move, an area form or a line table is a product of sines
and phases of a chart's angles and their sums and differences: ``chart``
works them out once per configuration, with the move targets, and the
constructors read that table in the closed forms' operand order, so they
do no ``Fraction`` arithmetic and each matrix is the same to the bit.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from dmlat.arithmetic import (
    DEFAULT_TOL, VANISHING_TOL,
    exp_i_pi,
    projective_equal,
    read_only,
    sin_pi,
)
from dmlat.catalog import LatticeSignature, PiRational, derive_params
from dmlat.record import Record


class DegenerateDenominator(ZeroDivisionError):
    """A sine in a matrix denominator vanishes for these angles."""


class ConfigMismatch(ValueError):
    """Attempted to compose maps whose configurations do not line up."""


class SingularMatrix(ValueError):
    """Attempted to invert a numerically singular matrix."""


class Configuration(Record):
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


class ConfiguredMap(Record, eq=False):
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


# The derived angles of a chart (alpha, beta, theta, phi) = (a, b, t, f) whose
# sines and phases its moves, area form and lines read (``chart``).
_SINES = ("a", "b", "t", "f", "a-f", "b-t", "t+f", "t+a-b", "f+b-a", "a+b-1", "1+t+f-a-b")
_PHASES = ("a", "b", "t", "f", "-a", "-t", "-f", "2*f", "a-f", "b-t", "a+t", "-(a-f)", "-(a+t)")


class ChartTable:
    """One configuration's derived angles by name (``angle``), the sines of
    ``_SINES`` and the phases of ``_PHASES`` (``sin``, ``exp``), and its move
    targets r1, r2, p and p^-1."""

    __slots__ = ("angle", "sin", "exp", "r1", "r2", "p", "p_inverse")


@cache
def chart(c: Configuration) -> ChartTable:
    """The derived angles of c, their sines and phases and its move targets:
    worked out once per configuration, the one place that does ``Fraction``
    arithmetic on a chart's angles."""
    a, b, t, f = c.angles()
    af, bt, tf, at, ab1 = a - f, b - t, t + f, a + t, a + b - 1
    k = ChartTable()
    k.angle = q = {
        "a": a, "b": b, "t": t, "f": f, "a-f": af, "b-t": bt, "t+f": tf, "a+t": at,
        "t+a-b": at - b, "f+b-a": b - af, "a+b-1": ab1, "1+t+f-a-b": tf - ab1,
        "1+t-b": 1 - bt, "2*f": 2 * f, "-a": -a, "-t": -t, "-f": -f, "-(a-f)": -af,
        "-(a+t)": -at,
        # The orders of L_*0..L_*3 are 1/q for these (``collapsed_vertices``).
        "1-a-t": 1 - at, "a-t-f": a - tf, "b-t-f": b - tf, "1-b-f": 1 - b - f,
    }
    k.sin = {name: sin_pi(q[name]) for name in _SINES}
    k.exp = {name: exp_i_pi(q[name]) for name in _PHASES}
    k.r1 = Configuration(a, q["1+t-b"], t, f)
    k.r2 = Configuration(b, a, q["t+a-b"], q["f+b-a"])
    k.p = Configuration(b, q["1+t-b"], q["t+a-b"], q["f+b-a"])
    k.p_inverse = Configuration(q["1+t-b"], a, ab1, q["1+t+f-a-b"])
    return k


@cache
def hermitian_form(c: Configuration) -> np.ndarray:
    """The area form of a configuration, diag(d0, d1, d2), as the read-only
    float64 array (d0, d1, d2) of its real diagonal."""
    _check_denominators(c, "a-f", "b-t", "t+f")
    s = chart(c).sin
    return read_only(np.array([
        -s["f"] * s["a"] / s["a-f"],
        -s["t"] * s["b"] / s["b-t"],
        s["f"] * s["t"] / s["t+f"],
    ]))


def _check_denominators(c: Configuration, *names: str) -> None:
    """Refuse a chart on which the sine of one of the named angles vanishes."""
    k = chart(c)
    for name in names:
        if k.sin[name] == 0.0:
            raise DegenerateDenominator(
                f"sin({k.angle[name]}*pi) = 0 at configuration {c}")


@cache
def move_R1(c: Configuration) -> ConfiguredMap:
    """Exchange of the second and third cone points."""
    _check_denominators(c, "b-t")
    k = chart(c)
    m = np.diag(np.asarray(
        [1.0, k.exp["t"] * k.sin["b"] / k.sin["b-t"], 1.0], dtype=complex))
    return ConfiguredMap(m, c, k.r1, "R1")


@cache
def move_A1(c: Configuration) -> ConfiguredMap:
    """Full twist at the first cone point; keeps the configuration."""
    m = np.diag(np.asarray([chart(c).exp["2*f"], 1.0, 1.0], dtype=complex))
    return ConfiguredMap(m, c, c, "A1")


def _outer_rows(k: ChartTable) -> tuple[list, list]:
    """The first and last rows shared by the R2 and P matrices, before their
    common prefactor; the bottom-right entry is the A entry."""
    s, e = k.sin, k.exp
    tp, fp = s["t+a-b"], s["f+b-a"]
    return ([s["a"] * tp * e["a-f"], s["a-f"] * tp * e["a"], -s["a-f"] * tp * e["a"]],
            [s["t+f"] * s["a"] * e["b"], s["t+f"] * s["b"] * e["a"],
             s["t"] * fp - s["t+f"] * s["b"] * e["a"]])


@cache
def move_R2(c: Configuration) -> ConfiguredMap:
    """Exchange of the first and second cone points."""
    _check_denominators(c, "t+a-b", "f+b-a")
    k = chart(c)
    s, e = k.sin, k.exp
    fp = s["f+b-a"]
    first, last = _outer_rows(k)
    m = 1.0 / (s["t+a-b"] * fp) * np.asarray(
        [first, [s["b-t"] * fp * e["b"], fp * s["b"] * e["b-t"], -s["b-t"] * fp * e["b"]], last],
        dtype=complex)
    return ConfiguredMap(m, c, k.r2, "R2")


@cache
def move_P(c: Configuration) -> ConfiguredMap:
    """The composite of the two exchanges, given in closed form."""
    _check_denominators(c, "t+a-b", "f+b-a", "b-t")
    k = chart(c)
    s, e = k.sin, k.exp
    fp = s["f+b-a"]
    first, last = _outer_rows(k)
    m = 1.0 / (s["t+a-b"] * fp) * np.asarray(
        [first,
         [s["a"] * fp * e["a+t"], fp * s["b"] * s["a"] / s["b-t"] * e["a"],
          -s["a"] * fp * e["a+t"]],
         last],
        dtype=complex)
    return ConfiguredMap(m, c, k.p, "P")


@cache
def move_J(c: Configuration) -> ConfiguredMap:
    """P followed by the twist A1; a projective cube root of the identity."""
    p = move_P(c)
    a1 = move_A1(c)
    return ConfiguredMap(p.matrix @ a1.matrix, c, p.target, "J")


@cache
def move_P_inverse(c: Configuration) -> ConfiguredMap:
    """The closed-form inverse-composite matrix, applied at configuration c."""
    _check_denominators(c, "a+b-1", "1+t+f-a-b", "b-t")
    k = chart(c)
    s, e = k.sin, k.exp
    tp, fp = s["a+b-1"], s["1+t+f-a-b"]
    m = 1.0 / (tp * fp) * np.asarray(
        [
            [
                -s["a"] * tp * e["-(a-f)"],
                -s["a-f"] * tp * s["b"] / s["b-t"] * e["-(a+t)"],
                s["a-f"] * tp * e["-a"],
            ],
            [s["b"] * fp * e["b-t"], s["b"] * fp * e["b-t"], -s["b"] * fp * e["b-t"]],
            [
                s["t+f"] * s["a"] * e["b-t"],
                -s["t+f"] * s["b"] * e["-(a+t)"],
                -tp * s["f"] - s["t+f"] * s["a"] * e["b-t"],
            ],
        ],
        dtype=complex,
    )
    return ConfiguredMap(m, c, k.p_inverse, "P^-1")


def compose(f: ConfiguredMap, g: ConfiguredMap) -> ConfiguredMap:
    """The composite f after g; requires f.source == g.target exactly."""
    if f.source != g.target:
        raise ConfigMismatch(
            f"cannot compose {f.label} (source {f.source}) after {g.label} "
            f"(target {g.target})"
        )
    return ConfiguredMap(f.matrix @ g.matrix, g.source, f.target, f"{f.label}*{g.label}")


@cache
def inverse(f: ConfiguredMap) -> ConfiguredMap:
    """Matrix inverse with source and target swapped, built once per map
    (maps hash by identity, so once per chart for a cached move)."""
    m = f.matrix / np.max(np.abs(f.matrix))
    if abs(np.linalg.det(m)) <= VANISHING_TOL:
        raise SingularMatrix(f"map {f.label} at {f.source} is numerically singular")
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
    k = chart(c)
    left = compose(move_R1(chart(k.r1).r2), compose(move_R2(k.r1), move_R1(c)))
    right = compose(move_R2(chart(k.r2).r1), compose(move_R1(k.r2), move_R2(c)))
    if (left.source, left.target) != (right.source, right.target):
        raise ConfigMismatch("the two triple products do not share configurations")
    return projective_equal(left.matrix, right.matrix)


def configurations_of(sig: LatticeSignature) -> tuple[Configuration, Configuration, Configuration]:
    """The three charts (C1, C2, C3) attached to a signature.

    They are the move targets r1(C3) = p^-1(C3) = C1 and r2(C3) = p(C3) = C2,
    so each chart's moves and forms are built once; C1 and C2 are the very
    targets of C3's table (``chart``), so that composing through them
    compares configurations by identity. C2's last angle phi' is negative
    exactly when k' < 0, and 0 exactly when k' is infinite.
    """
    params = derive_params(sig)
    a, t = params.alpha, params.theta
    c3 = Configuration(a, 1 + t - a, t, params.phi)
    k = chart(c3)
    return k.r1, k.r2, c3
