"""The generic single-copy polyhedron: lines, vertices, membership, bounds.

Everything here is parametrized by one angle configuration. The ten complex
lines and fourteen vertices are built in two coordinate frames (t and s,
related by the inverse composite move), and the checks compare reference
closed forms against each other and against sampled half-space conditions.
The sides are the ends of the four argument arcs of ``_ARCS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

import numpy as np

from dmlat.arithmetic import (
    BULLET_NEUTRAL, DEFAULT_TOL, MEMBERSHIP_TOL, RESIDUAL_TOL, VANISHING_TOL, ZERO_COORD_TOL,
    HermitianForm3,
    no_finite_point,
    read_only,
    sin_pi,
    sin_pi_sign,
    exp_i_pi,
)
from dmlat.moves import (
    Configuration,
    _check_denominators,
    hermitian_form,
    inverse,
    move_A1,
    move_J,
    move_P,
    move_P_inverse,
    move_R1,
    move_R2,
    p_inverse_target,
    p_target,
    r1_target,
)
from dmlat.sampling import Bullet, BulletReport, ball_draws, bullet_agreement

LINE_LABELS = ("L_*0", "L_*1", "L_*2", "L_*3", "L_01", "L_02", "L_03", "L_12", "L_13", "L_23")

VERTEX_LINES: dict[str, tuple[str, str]] = {
    "t1": ("L_01", "L_23"),
    "t2": ("L_03", "L_12"),
    "t3": ("L_*0", "L_23"),
    "t4": ("L_*0", "L_12"),
    "t5": ("L_*0", "L_13"),
    "t6": ("L_*1", "L_23"),
    "t7": ("L_*1", "L_02"),
    "t8": ("L_*1", "L_03"),
    "t9": ("L_*3", "L_01"),
    "t10": ("L_*3", "L_12"),
    "t11": ("L_*3", "L_02"),
    "t12": ("L_*2", "L_01"),
    "t13": ("L_*2", "L_13"),
    "t14": ("L_*2", "L_03"),
}

# The argument arcs of the polyhedron, one per column (arg t1, arg t2, arg s1,
# arg s2), as (lo, hi) named angles (``_arc_angles``). Each end is a side
# (``arc_side``): the bisectors, bullets and ``in_D`` read their sides here.
_ARCS = (("-phi", 0), (0, "theta"), (0, "phi''"), (0, "theta''"))

# Bisector label -> (column of ``_ARCS``, end, vertices on it). The defining
# condition is im(phase * x) = 0, with the phase and coordinate of that side.
BISECTOR_TABLE: dict[str, tuple[int, str, tuple[str, ...]]] = {
    "B(P)": (0, "hi", ("t1", "t3", "t4", "t5", "t9", "t10", "t12", "t13")),
    "B(P^-1)": (2, "lo", ("t2", "t3", "t4", "t5", "t6", "t8", "t13", "t14")),
    "B(J)": (0, "lo", ("t1", "t6", "t7", "t8", "t9", "t11", "t12", "t14")),
    "B(J^-1)": (2, "hi", ("t2", "t7", "t8", "t9", "t10", "t11", "t12", "t14")),
    "B(R1)": (1, "lo", ("t1", "t3", "t4", "t6", "t7", "t9", "t10", "t11")),
    "B(R1^-1)": (1, "hi", ("t1", "t3", "t5", "t6", "t8", "t12", "t13", "t14")),
    "B(R2)": (3, "lo", ("t2", "t4", "t5", "t9", "t10", "t12", "t13", "t14")),
    "B(R2^-1)": (3, "hi", ("t2", "t3", "t4", "t6", "t7", "t8", "t10", "t11")),
}


def arc_side(arcs: tuple, angles: dict, column: int, end: str) -> tuple:
    """The ``Bullet`` fields (chart, phase, coord, im_leq) of one side.

    ``arcs`` holds a (lo, hi) pair of names per column, two columns (arg x1,
    arg x2) per chart; ``angles`` maps a name to its angle a, in units of pi.
    The side at ``end`` ("lo" or "hi") is im(e^{-i a pi} x_coord) = 0, <= 0
    inside at "hi" and >= 0 inside at "lo".
    """
    angle = angles[arcs[column][("lo", "hi").index(end)]]
    return column // 2, exp_i_pi(-angle), column % 2 + 1, end == "hi"


def arc_radians(arcs: tuple, angles: dict) -> tuple[tuple[float, float], ...]:
    """The arcs (lo, hi) of an arc table, in radians."""
    return tuple((float(angles[lo]) * math.pi, float(angles[hi]) * math.pi)
                 for lo, hi in arcs)


def _arc_angles(c: Configuration) -> dict:
    """The named angles of ``_ARCS``; theta'' and phi'' are the s-chart's."""
    cs = p_inverse_target(c)
    return {0: 0, "-phi": -c.phi, "theta": c.theta, "phi''": cs.phi, "theta''": cs.theta}


class SingularSystem(ValueError):
    """A line has no usable polar: the area form is singular, or the polar
    is a null vector."""


class PointAtInfinity(ValueError):
    """A projective point with (numerically) vanishing third coordinate."""


class PreconditionFailed(ValueError):
    """An exact sign precondition of a combinatorial lemma does not hold."""


@dataclass(frozen=True)
class ComplexLine:
    """The affine equation a*x1 + b*x2 = c."""

    label: str
    a: complex
    b: complex
    c: complex

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("line equation must involve a coordinate")

    @property
    def vector(self) -> np.ndarray:
        """(a, b, -c): the point p lies on the line when vector @ p = 0."""
        return np.array([self.a, self.b, -self.c])


@cache
def lines_t(c: Configuration) -> MappingProxyType[str, ComplexLine]:
    """The ten reference line equations in the t-frame of c: built once, read-only."""
    a, b, t, f = c.angles()
    _check_denominators(c, a - f, b - t, t + f)
    sa, sb = sin_pi(a), sin_pi(b)
    saf, sbt, stf = sin_pi(a - f), sin_pi(b - t), sin_pi(t + f)
    eqs = {
        "L_*0": (1, 0, saf * sin_pi(t) / (sa * stf)),
        "L_*1": (1, 0, exp_i_pi(-f) * sin_pi(t) / stf),
        "L_*2": (0, 1, exp_i_pi(t) * sin_pi(f) / stf),
        "L_*3": (0, 1, sbt * sin_pi(f) / (sb * stf)),
        "L_01": (1, 0, 0),
        "L_02": (sa / saf * exp_i_pi(f), 1, 1),
        "L_03": (sa / saf * exp_i_pi(f), exp_i_pi(-t) * sb / sbt, 1),
        "L_12": (1, 1, 1),
        "L_13": (1, exp_i_pi(-t) * sb / sbt, 1),
        "L_23": (0, 1, 0),
    }
    return MappingProxyType(
        {k: ComplexLine(k, *map(complex, v)) for k, v in eqs.items()})


@cache
def lines_s(c: Configuration) -> MappingProxyType[str, ComplexLine]:
    """The ten reference line equations in the s-frame attached to c.

    These follow the t-frame shapes evaluated at the angles of the s-frame
    configuration, with the sign of the first-coordinate phase reversed.
    Built once per configuration and read-only, as the moves are.
    """
    cs = p_inverse_target(c)
    a, b, t, f = cs.angles()
    _check_denominators(cs, a - f, b - t, t + f)
    sa, sb = sin_pi(a), sin_pi(b)
    saf, sbt, stf = sin_pi(a - f), sin_pi(b - t), sin_pi(t + f)
    eqs = {
        "L_*0": (1, 0, saf * sin_pi(t) / (sa * stf)),
        "L_*1": (0, 1, exp_i_pi(t) * sin_pi(f) / stf),
        "L_*2": (0, 1, sbt * sin_pi(f) / (sb * stf)),
        "L_*3": (1, 0, exp_i_pi(f) * sin_pi(t) / stf),
        "L_01": (sa / saf * exp_i_pi(-f), 1, 1),
        "L_02": (sa / saf * exp_i_pi(-f), exp_i_pi(-t) * sb / sbt, 1),
        "L_03": (1, 0, 0),
        "L_12": (0, 1, 0),
        "L_13": (1, 1, 1),
        "L_23": (1, exp_i_pi(-t) * sb / sbt, 1),
    }
    return MappingProxyType(
        {k: ComplexLine(k, *map(complex, v)) for k, v in eqs.items()})


def line_normal(line: ComplexLine, h: HermitianForm3) -> np.ndarray:
    """The polar n of the line: <x, n> = n* H x = 0 for every point x on it.

    The line is l^T x = 0 with l = (a, b, -c), so n = H^-1 conj(l).
    """
    try:
        return np.linalg.solve(h.matrix, np.conj([line.a, line.b, -line.c]))
    except np.linalg.LinAlgError:
        raise SingularSystem(f"singular area form for {line.label}") from None


def _t_vertex_coords(c: Configuration) -> dict[str, tuple[complex, complex]]:
    a, b, t, f = c.angles()
    sa, sb, st, sf = sin_pi(a), sin_pi(b), sin_pi(t), sin_pi(f)
    saf, sbt, stf = sin_pi(a - f), sin_pi(b - t), sin_pi(t + f)
    eif, eit = exp_i_pi(f), exp_i_pi(t)
    den2 = eif * sa * sbt - exp_i_pi(-t) * sb * saf
    return {
        "t1": (0, 0),
        "t2": (
            saf * (sbt - exp_i_pi(-t) * sb) / den2,
            exp_i_pi(a) * sbt * sf / den2,
        ),
        "t3": (saf * st / (sa * stf), 0),
        "t4": (saf * st / (sa * stf), sin_pi(a + t) * sf / (sa * stf)),
        "t5": (
            saf * st / (sa * stf),
            eit * sin_pi(a + t) * sbt * sf / (sa * sb * stf),
        ),
        "t6": (exp_i_pi(-f) * st / stf, 0),
        "t7": (exp_i_pi(-f) * st / stf, sin_pi(a - t - f) * sf / (saf * stf)),
        "t8": (
            exp_i_pi(-f) * st / stf,
            eit * sin_pi(a - t - f) * sbt * sf / (saf * sb * stf),
        ),
        "t9": (0, sbt * sf / (sb * stf)),
        "t10": (sin_pi(b + f) * st / (sb * stf), sbt * sf / (sb * stf)),
        "t11": (
            exp_i_pi(-f) * saf * sin_pi(b + f) * st / (sa * sb * stf),
            sbt * sf / (sb * stf),
        ),
        "t12": (0, eit * sf / stf),
        "t13": (sin_pi(b - t - f) * st / (sbt * stf), eit * sf / stf),
        "t14": (
            exp_i_pi(-f) * saf * sin_pi(b - t - f) * st / (sa * sbt * stf),
            eit * sf / stf,
        ),
    }


def _s_vertex_coords(c: Configuration) -> dict[str, tuple[complex, complex]]:
    """Closed-form s-frame coordinates, written in the original angles of c."""
    a, b, t, f = c.angles()
    sa, sb, st, sf = sin_pi(a), sin_pi(b), sin_pi(t), sin_pi(f)
    saf, sbt, stf = sin_pi(a - f), sin_pi(b - t), sin_pi(t + f)
    sab = sin_pi(a + b)
    sd = sin_pi(a + b - t - f)
    eab = exp_i_pi(a + b)
    edm = exp_i_pi(-(a + b - t - f))
    den1 = saf * sb - exp_i_pi(-(t + f)) * sa * sbt
    return {
        "t1": (
            exp_i_pi(-a) * saf * sab / den1,
            exp_i_pi(b - t) * sb * sd / den1,
        ),
        "t2": (0, 0),
        "t3": (
            -saf * sab / (sbt * stf),
            -eab * sin_pi(a + t) * sb * sd / (sbt * sa * stf),
        ),
        "t4": (-saf * sab / (sbt * stf), 0),
        "t5": (-saf * sab / (sbt * stf), sin_pi(a + t) * sd / (sbt * stf)),
        "t6": (sab * sin_pi(t + f - a) / (sb * stf), -eab * sd / stf),
        "t7": (
            -edm * saf * sab * sin_pi(t + f - a) / (sbt * sb * stf),
            -eab * sd / stf,
        ),
        "t8": (0, -eab * sd / stf),
        "t9": (edm * sab / stf, sin_pi(b + f) * sd / (saf * stf)),
        "t10": (edm * sab / stf, 0),
        "t11": (
            edm * sab / stf,
            -eab * sin_pi(b + f) * sb * sd / (saf * sa * stf),
        ),
        "t12": (
            -edm * saf * sin_pi(t + f - b) * sab / (sbt * sa * stf),
            sb * sd / (sa * stf),
        ),
        "t13": (sin_pi(t + f - b) * sab / (sa * stf), sb * sd / (sa * stf)),
        "t14": (0, sb * sd / (sa * stf)),
    }


def _affine_to_projective(coords: dict[str, tuple[complex, complex]]) -> dict[str, np.ndarray]:
    return {
        k: np.array([x1, x2, 1.0], dtype=complex) for k, (x1, x2) in coords.items()
    }


def vertices_t(c: Configuration) -> dict[str, np.ndarray]:
    """The 14 reference t-frame vertices, third coordinate 1."""
    return _affine_to_projective(_t_vertex_coords(c))


def vertices_s(c: Configuration) -> dict[str, np.ndarray]:
    """The 14 reference s-frame vertices, third coordinate 1."""
    return _affine_to_projective(_s_vertex_coords(c))


def check_incidence(c: Configuration) -> bool:
    """Every vertex satisfies its two defining line equations, in both frames."""
    lt, ls = lines_t(c), lines_s(c)
    vt, vs = vertices_t(c), vertices_s(c)
    for name, (l1, l2) in VERTEX_LINES.items():
        for lines, verts in ((lt, vt), (ls, vs)):
            for lab in (l1, l2):
                if abs(lines[lab].vector @ verts[name]) > RESIDUAL_TOL:
                    return False
    return True


def check_s_consistency(c: Configuration) -> bool:
    """Reference s-frame vertices agree with the inverse composite applied to t."""
    pinv = move_P_inverse(c)
    vt, vs = vertices_t(c), vertices_s(c)
    for name, tv in vt.items():
        image = pinv.matrix @ tv
        if no_finite_point(image):
            return False
        image = image / image[2]
        if np.max(np.abs(image - vs[name])) > DEFAULT_TOL:
            return False
    return True


def to_s_frame(point, c: Configuration) -> np.ndarray:
    """Map a projective t-frame point to the s-frame, normalized to x3 = 1."""
    pinv = move_P_inverse(c)
    s = pinv.matrix @ np.asarray(point, dtype=complex)
    if no_finite_point(s):
        raise PointAtInfinity("image has vanishing third coordinate")
    return s / s[2]


def _arg_in(value: complex, lo: float, hi: float) -> bool:
    if abs(value) <= ZERO_COORD_TOL:
        return True
    arg = math.atan2(value.imag, value.real)
    return lo - MEMBERSHIP_TOL <= arg <= hi + MEMBERSHIP_TOL


def in_D(point, c: Configuration) -> bool:
    """Membership in the generic polyhedron: four argument conditions.

    arg t1, arg t2, arg s1 and arg s2 lie in the arcs of ``_ARCS``, each with
    ``MEMBERSHIP_TOL`` slack; a coordinate within ``ZERO_COORD_TOL`` of 0
    satisfies its condition vacuously.
    """
    p = np.asarray(point, dtype=complex)
    if no_finite_point(p):
        raise PointAtInfinity("point has vanishing third t-coordinate")
    p = p / p[2]
    s = to_s_frame(p, c)
    return all(_arg_in(value, lo, hi) for value, (lo, hi)
               in zip((p[0], p[1], s[0], s[1]), arc_radians(_ARCS, _arc_angles(c))))


def collapse_status(c: Configuration) -> dict[str, bool]:
    """Exact sign tests for the four triple-vertex collapses.

    A boundary case (the tested quantity exactly zero) counts as collapsed.
    """
    a, b, t, f = c.angles()
    return {
        "L_*0": 1 - a - t <= 0,
        "L_*1": a - t - f <= 0,
        "L_*2": b - t - f <= 0,
        "L_*3": 1 - b - f <= 0,
    }


def pp_possible(c: Configuration) -> list[str]:
    """Violated sine-sign conditions of the side-combinatorics precondition."""
    a, b, t, f = c.angles()
    checks = {
        "sin(alpha)": a,
        "sin(beta)": b,
        "sin(theta)": t,
        "sin(phi)": f,
        "sin(alpha+beta-pi)": a + b - 1,
        "sin(pi+theta+phi-alpha-beta)": 1 + t + f - a - b,
        "sin(alpha+theta-beta)": a + t - b,
        "sin(beta+phi-alpha)": b + f - a,
    }
    return [name for name, q in checks.items() if sin_pi_sign(q) < 0]


def side_bounds(c: Configuration) -> dict[str, float]:
    """The reference modulus bound of each of the eight sides."""
    a, b, t, f = c.angles()
    stf = sin_pi(t + f)
    return {
        "S(P)": sin_pi(a - f) * sin_pi(t) / (sin_pi(a) * stf),
        "S(J)": sin_pi(t) / stf,
        "S(R1)": sin_pi(b - t) * sin_pi(f) / (sin_pi(b) * stf),
        "S(R1^-1)": sin_pi(f) / stf,
        "S(P^-1)": -sin_pi(a - f) * sin_pi(a + b) / (sin_pi(b - t) * stf),
        "S(J^-1)": -sin_pi(a + b) / stf,
        "S(R2)": sin_pi(a + b - t - f) * sin_pi(b) / (sin_pi(a) * stf),
        # The top ridge of this side lies on L_*1, whose s-frame radius has
        # no sin(beta)/sin(alpha) factor (compare the S(R1)/S(R1^-1) pair).
        "S(R2^-1)": sin_pi(a + b - t - f) / stf,
    }


def _bisector_coords(c: Configuration):
    """(bisector, phase, coordinate of its side) at each vertex of a bisector."""
    verts, angles = (vertices_t(c), vertices_s(c)), _arc_angles(c)
    for bis, (column, end, members) in BISECTOR_TABLE.items():
        chart, phase, coord, _ = arc_side(_ARCS, angles, column, end)
        yield from ((bis, phase, verts[chart][name][coord - 1]) for name in members)


def side_bound_check(c: Configuration) -> bool:
    """The vertices of each bisector B(X) respect the modulus bound of side S(X)."""
    violated = pp_possible(c)
    if violated:
        raise PreconditionFailed(
            "side-combinatorics precondition fails: " + ", ".join(violated)
        )
    bounds = side_bounds(c)
    return not any(abs(x) > bounds["S" + bis[1:]] + RESIDUAL_TOL
                   for bis, _, x in _bisector_coords(c))


def bisector_membership_check(c: Configuration) -> bool:
    """The listed vertices satisfy each bisector's im-equation."""
    return not any(abs((phase * x).imag) > RESIDUAL_TOL
                   for _, phase, x in _bisector_coords(c))


def _polar_row(n: np.ndarray, h: HermitianForm3, label: str) -> np.ndarray:
    """The read-only row n* H / sqrt|n* H n| of a polar vector n.

    The polar of a line meeting the ball is a negative vector; a collapsed
    line has a positive polar, which the half-space comparisons still
    accept under the same absolute-value scale. A null polar has no scale
    and is rejected: |n* H n| at most ``VANISHING_TOL`` |n|^T |H| |n|.
    """
    row = n.conj() @ h.matrix
    norm = (row @ n).real
    if abs(norm) <= VANISHING_TOL * (np.abs(n) @ np.abs(h.matrix) @ np.abs(n)):
        raise SingularSystem(f"normal of {label} is a null vector")
    return read_only(row / math.sqrt(abs(norm)))


def _normal_at(config: Configuration, label: str, chart: int = 0) -> np.ndarray:
    """The polar of line ``label`` of the t-frame of ``config`` (chart 0) or
    of the s-frame attached to it (chart 1)."""
    if chart == 0:
        return line_normal(lines_t(config)[label], hermitian_form(config))
    return line_normal(lines_s(config)[label], hermitian_form(p_inverse_target(config)))


@cache
def _bullet_table(c: Configuration) -> tuple[Bullet, ...]:
    """The eight bullets of ``bisector_equivalence_sample``.

    Built once per configuration. A mapped normal is a move matrix applied
    to a line normal. The pairings were fixed by requiring 100% sampled
    sign agreement on the generic catalog rows; t-frame bullets transport
    t-frame normals of the adjacent chart, while s-frame bullets transport
    s-frame normals with moves at the s-chart.
    """
    cs, pt, rt = p_inverse_target(c), p_target(c), r1_target(c)
    forms, angles = (hermitian_form(c), hermitian_form(cs)), _arc_angles(c)
    specs = (  # bisector, plain line, move, mapped line at
        ("B(P)", "L_*1", move_P_inverse(pt), "L_*3", pt),
        ("B(P^-1)", "L_*3", move_P(cs), "L_*1", c),
        ("B(J)", "L_*0", inverse(move_J(c)), "L_*0", pt),
        ("B(J^-1)", "L_*0", move_A1(cs), "L_*0", c),
        ("B(R1)", "L_*2", inverse(move_R1(c)), "L_*3", rt),
        ("B(R1^-1)", "L_*3", move_R1(rt), "L_*2", rt),
        ("B(R2)", "L_*1", move_R2(cs), "L_*3", c),
        ("B(R2^-1)", "L_*2", move_R1(cs), "L_*1", c),
    )
    bullets = []
    for bis, plain, move, mapped, at in specs:
        chart, *side = arc_side(_ARCS, angles, *BISECTOR_TABLE[bis][:2])
        h, n = forms[chart], _normal_at(c, plain, chart)
        bullets.append(Bullet(chart, *side, chart, _polar_row(n, h, plain), _polar_row(
            move.matrix @ _normal_at(at, mapped, chart), h, mapped)))
    return tuple(bullets)


def bisector_equivalence_sample(
    c: Configuration, n_samples: int = 1000, seed: int = 7, neutral: float = BULLET_NEUTRAL
) -> BulletReport:
    """Check the eight im/distance half-space equivalences on random points.

    The draws are t-frame points of the ball, uniform
    (``dmlat.sampling.ball_draws``, which also sets the draw cap); a draw is
    used when its s-frame image is finite. Each bullet reads the draws in
    order until it has ``n_samples`` outside the ``neutral`` band around
    both zero sets; draws in the band are skipped and their largest value
    reported. The bullets are built once per configuration
    (``_bullet_table``); a failed precondition or a null normal raises on
    every call.
    """
    if pp_possible(c):
        raise PreconditionFailed("equivalence sampling needs the generic regime")
    draws = ball_draws(hermitian_form(c), seed, n_samples,
                       (move_P_inverse(c).matrix,))
    return bullet_agreement(draws, _bullet_table(c), n_samples, neutral)
