"""The generic single-copy polyhedron: lines, vertices, membership, bounds.

Everything here is parametrized by one angle configuration. The ten complex
lines are the one source, built in two coordinate frames (t and s, related
by the inverse composite move): each of the fourteen vertices is where its
two lines of ``VERTEX_LINES`` meet. The sides are the ends of the four
argument arcs of ``_ARCS``; the triple lines at an arc's ends (``_ARC_LINES``)
give each side its modulus bound, its bullet's plain line and its vertices.
The checks compare the two frames with each other, and the vertices with
the bisector equations, the side bounds and sampled half-space conditions.
"""

from __future__ import annotations

import math
from functools import cache
from types import MappingProxyType

import numpy as np

from dmlat.arithmetic import (
    BULLET_NEUTRAL, DEFAULT_TOL, MEMBERSHIP_TOL, RESIDUAL_TOL, VANISHING_TOL, ZERO_COORD_TOL,
    no_finite_point,
    read_only,
    sin_pi_sign,
    exp_i_pi,
)
from dmlat.moves import (
    Configuration,
    _check_denominators,
    chart,
    hermitian_form,
    inverse,
    move_A1,
    move_J,
    move_P,
    move_P_inverse,
    move_R1,
    move_R2,
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

# The triple line L_*i at each end of each arc of ``_ARCS``, (lo, hi) as i.
_ARC_LINES = ((1, 0), (3, 2), (0, 3), (2, 1))

# Bisector label -> (column of ``_ARCS``, end). The defining condition is
# im(phase * x) = 0, with the phase and coordinate of that side.
BISECTOR_TABLE: dict[str, tuple[int, str]] = {
    "B(P)": (0, "hi"), "B(P^-1)": (2, "lo"), "B(J)": (0, "lo"), "B(J^-1)": (2, "hi"),
    "B(R1)": (1, "lo"), "B(R1^-1)": (1, "hi"), "B(R2)": (3, "lo"), "B(R2^-1)": (3, "hi"),
}


def _side_table(arc_lines: tuple) -> dict[str, tuple]:
    """Bisector label -> (column, end, bound line, plain line, vertices): at
    an end whose triple line is L_*b (``arc_lines``), with L_*a at the arc's
    other end, the bound is the radius |l[2]| of L_*b in the side's frame,
    the bullet's plain line is L_*a, and the vertices are those of
    ``VERTEX_LINES`` on none of L_*a, L_bc and L_bd, {c, d} the other two."""
    table = {}
    for bis, (column, end) in BISECTOR_TABLE.items():
        a, b = arc_lines[column][::1 if end == "hi" else -1]
        off = {f"L_*{a}"} | {"L_%d%d" % tuple(sorted((b, i))) for i in {0, 1, 2, 3} - {a, b}}
        members = tuple(v for v, pair in VERTEX_LINES.items() if off.isdisjoint(pair))
        table[bis] = (column, end, f"L_*{b}", f"L_*{a}", members)
    return table


_SIDES = _side_table(_ARC_LINES)


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
    k = chart(c)
    cs = k.p_inverse
    return {0: 0, "-phi": k.angle["-f"], "theta": c.theta, "phi''": cs.phi,
            "theta''": cs.theta}


class SingularSystem(ValueError):
    """A line has no usable polar: the area form is singular, or the polar
    is a null vector."""


class PointAtInfinity(ValueError):
    """A projective point with (numerically) vanishing third coordinate."""


class PreconditionFailed(ValueError):
    """An exact sign precondition of a combinatorial lemma does not hold."""


def _line_table(eqs: dict) -> MappingProxyType[str, np.ndarray]:
    """The lines a*x1 + b*x2 = c of ``eqs`` as read-only vectors l = (a, b, -c),
    so that the point p lies on the line when l @ p = 0."""
    return MappingProxyType({k: read_only(np.array([a, b, -c], dtype=complex))
                             for k, (a, b, c) in eqs.items()})


# The s-frame name of each t-frame line of ``LINE_LABELS``: the s-frame
# numbers the triple lines 0, 1, 2, 3 of the t-frame as 0, 3, 1, 2.
_S_NAMES = ("L_*0", "L_*3", "L_*1", "L_*2", "L_03", "L_01", "L_02", "L_13", "L_23", "L_12")


def _lines(c: Configuration, f_phase: str, f_conj: str, names: tuple) -> MappingProxyType:
    """The ten t-frame line shapes at chart c, under ``names``, with the phases
    of phi written ``f_phase`` (on L_*1) and ``f_conj`` (on L_02 and L_03)."""
    _check_denominators(c, "t+f", "a", "b", "a-f", "b-t")
    k = chart(c)
    s, e = k.sin, k.exp
    sa, sb, saf, sbt, stf = s["a"], s["b"], s["a-f"], s["b-t"], s["t+f"]
    return _line_table(dict(sorted(zip(names, (
        (1, 0, saf * s["t"] / (sa * stf)),
        (1, 0, e[f_phase] * s["t"] / stf),
        (0, 1, e["t"] * s["f"] / stf),
        (0, 1, sbt * s["f"] / (sb * stf)),
        (1, 0, 0),
        (sa / saf * e[f_conj], 1, 1),
        (sa / saf * e[f_conj], e["-t"] * sb / sbt, 1),
        (1, 1, 1),
        (1, e["-t"] * sb / sbt, 1),
        (0, 1, 0),
    )))))


@cache
def lines_t(c: Configuration) -> MappingProxyType[str, np.ndarray]:
    """The ten line vectors in the t-frame of c: built once, read-only."""
    return _lines(c, "-f", "f", LINE_LABELS)


@cache
def lines_s(c: Configuration) -> MappingProxyType[str, np.ndarray]:
    """The ten line vectors in the s-frame attached to c.

    These follow the t-frame shapes evaluated at the angles of the s-frame
    configuration, with the sign of the phase of phi reversed, under their
    s-frame names (``_S_NAMES``). Built once per configuration and
    read-only, as the moves are.
    """
    return _lines(chart(c).p_inverse, "f", "-f", _S_NAMES)


def line_normal(l: np.ndarray, h: np.ndarray, label: str) -> np.ndarray:
    """The polar n of the line l (``label``): <x, n> = n* H x = 0 for every
    point x on it.

    The line is l^T x = 0, so n = H^-1 conj(l), with H = diag(h); a zero
    entry of h has no inverse.
    """
    if not np.all(h):
        raise SingularSystem(f"singular area form for {label}")
    return np.conj(l) / h


def _meeting_points(lines: MappingProxyType[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each vertex of ``VERTEX_LINES`` where its two lines meet, l1 x l2,
    scaled to third coordinate 1."""
    pairs = np.array([(lines[l1], lines[l2]) for l1, l2 in VERTEX_LINES.values()])
    points = np.cross(pairs[:, 0], pairs[:, 1])
    return dict(zip(VERTEX_LINES, points / points[:, 2:]))


def vertices_t(c: Configuration) -> dict[str, np.ndarray]:
    """The 14 t-frame vertices, third coordinate 1."""
    return _meeting_points(lines_t(c))


def vertices_s(c: Configuration) -> dict[str, np.ndarray]:
    """The 14 s-frame vertices, third coordinate 1."""
    return _meeting_points(lines_s(c))


def check_s_consistency(c: Configuration) -> bool:
    """The s-frame vertices are the t-frame ones moved by the inverse composite."""
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


def in_arcs(h: np.ndarray, arcs: tuple[tuple[float, float], ...],
            slack: float) -> np.ndarray:
    """Which columns of h have their arguments in ``arcs``: the one arc rule.

    h is a (3c, m) stack of homogeneous images, three rows per chart, and
    ``arcs`` holds a (lo, hi) pair in radians for each of the c charts' two
    first coordinates. Coordinate i of a chart passes when
    arg(h_i conj(h_3)), the argument of h_i / h_3 read without dividing,
    lies in the open arc (lo - slack, hi + slack), or when |h_i| is at most
    ``ZERO_COORD_TOL`` |h_3|. Returns a (m,) bool array.
    """
    charts = h.reshape(len(arcs) // 2, 3, -1)
    x, third = charts[:, :2], charts[:, 2:]
    arg = np.angle(x * third.conj()).reshape(len(arcs), -1)
    zero = (np.abs(x) <= ZERO_COORD_TOL * np.abs(third)).reshape(len(arcs), -1)
    lo, hi = (np.array(arcs) + [-slack, slack]).T[..., None]
    return np.all((arg > lo) & (arg < hi) | zero, axis=0)


def in_D(point, c: Configuration) -> bool:
    """Membership in the generic polyhedron: four argument conditions.

    arg t1, arg t2, arg s1 and arg s2 lie in the arcs of ``_ARCS``, each with
    ``MEMBERSHIP_TOL`` slack (``in_arcs``); a coordinate within
    ``ZERO_COORD_TOL`` of 0 satisfies its condition vacuously.
    """
    p = np.asarray(point, dtype=complex)
    h = np.vstack([np.eye(3), move_P_inverse(c).matrix]) @ p
    if no_finite_point(p):
        raise PointAtInfinity("point has vanishing third t-coordinate")
    if no_finite_point(h[3:]):
        raise PointAtInfinity("image has vanishing third coordinate")
    return bool(in_arcs(h[:, None], arc_radians(_ARCS, _arc_angles(c)),
                        MEMBERSHIP_TOL)[0])


def pp_possible(c: Configuration) -> list[str]:
    """Violated sine-sign conditions of the side-combinatorics precondition."""
    q = chart(c).angle
    checks = {
        "sin(alpha)": q["a"],
        "sin(beta)": q["b"],
        "sin(theta)": q["t"],
        "sin(phi)": q["f"],
        "sin(alpha+beta-pi)": q["a+b-1"],
        "sin(pi+theta+phi-alpha-beta)": q["1+t+f-a-b"],
        "sin(alpha+theta-beta)": q["t+a-b"],
        "sin(beta+phi-alpha)": q["f+b-a"],
    }
    return [name for name, x in checks.items() if sin_pi_sign(x) < 0]


def collapsed_vertices(c: Configuration) -> frozenset[str]:
    """The vertices of ``VERTEX_LINES`` on a triple line whose order is not
    positive finite.

    The orders of L_*0..L_*3 are 1/q for q = 1-alpha-theta,
    alpha-theta-phi, beta-theta-phi and 1-beta-phi (``chart``): the line
    collapses when q <= 0.
    """
    q = chart(c).angle
    lost = {f"L_*{i}" for i, name in enumerate(("1-a-t", "a-t-f", "b-t-f", "1-b-f"))
            if q[name] <= 0}
    return frozenset(name for name, pair in VERTEX_LINES.items() if lost.intersection(pair))


def _bisector_coords(c: Configuration):
    """(bisector, phase, bound, coordinate of its side) at each vertex of a
    bisector that has not collapsed (``collapsed_vertices``)."""
    lines, angles = (lines_t(c), lines_s(c)), _arc_angles(c)
    verts, collapsed = (vertices_t(c), vertices_s(c)), collapsed_vertices(c)
    for bis, (column, end, line, _, members) in _SIDES.items():
        chart, phase, coord, _ = arc_side(_ARCS, angles, column, end)
        bound = abs(lines[chart][line][2])
        yield from ((bis, phase, bound, verts[chart][name][coord - 1])
                    for name in members if name not in collapsed)


def side_bound_check(c: Configuration) -> bool:
    """The vertices of each bisector B(X) respect the modulus bound of side S(X)."""
    violated = pp_possible(c)
    if violated:
        raise PreconditionFailed(
            "side-combinatorics precondition fails: " + ", ".join(violated)
        )
    return not any(abs(x) > bound + RESIDUAL_TOL
                   for _, _, bound, x in _bisector_coords(c))


def bisector_membership_check(c: Configuration) -> bool:
    """The listed vertices satisfy each bisector's im-equation."""
    return not any(abs((phase * x).imag) > RESIDUAL_TOL
                   for _, phase, _, x in _bisector_coords(c))


def _polar_row(n: np.ndarray, h: np.ndarray, label: str) -> np.ndarray:
    """The read-only row n* H / sqrt|n* H n| of a polar vector n, H = diag(h).

    The polar of a line meeting the ball is a negative vector; a collapsed
    line has a positive polar, which the half-space comparisons still
    accept under the same absolute-value scale. A null polar has no scale
    and is rejected: |n* H n| at most ``VANISHING_TOL`` |h|^T |n|^2.
    """
    row = n.conj() * h
    norm = (row @ n).real
    if abs(norm) <= VANISHING_TOL * (np.abs(h) @ np.abs(n) ** 2):
        raise SingularSystem(f"normal of {label} is a null vector")
    return read_only(row / math.sqrt(abs(norm)))


def _normal_at(config: Configuration, label: str, frame: int = 0) -> np.ndarray:
    """The polar of line ``label`` of the t-frame of ``config`` (frame 0) or
    of the s-frame attached to it (frame 1)."""
    if frame == 0:
        return line_normal(lines_t(config)[label], hermitian_form(config), label)
    return line_normal(lines_s(config)[label],
                       hermitian_form(chart(config).p_inverse), label)


@cache
def _bullet_table(c: Configuration) -> tuple[Bullet, ...]:
    """The eight bullets of ``bisector_equivalence_sample``.

    Built once per configuration. A mapped normal is a move matrix applied
    to a line normal. The pairings were fixed by requiring 100% sampled
    sign agreement on the generic catalog rows; t-frame bullets transport
    t-frame normals of the adjacent chart, while s-frame bullets transport
    s-frame normals with moves at the s-chart.
    """
    k = chart(c)
    cs, pt, rt = k.p_inverse, k.p, k.r1
    forms, angles = (hermitian_form(c), hermitian_form(cs)), _arc_angles(c)
    specs = (  # move, mapped line at, in the order of ``_SIDES``
        (move_P_inverse(pt), "L_*3", pt),
        (move_P(cs), "L_*1", c),
        (inverse(move_J(c)), "L_*0", pt),
        (move_A1(cs), "L_*0", c),
        (inverse(move_R1(c)), "L_*3", rt),
        (move_R1(rt), "L_*2", rt),
        (move_R2(cs), "L_*3", c),
        (move_R1(cs), "L_*1", c),
    )
    bullets = []
    for (column, end, _, plain, _), (move, mapped, at) in zip(_SIDES.values(), specs):
        frame, *side = arc_side(_ARCS, angles, column, end)
        h, n = forms[frame], _normal_at(c, plain, frame)
        bullets.append(Bullet(frame, *side, frame, _polar_row(n, h, plain), _polar_row(
            move.matrix @ _normal_at(at, mapped, frame), h, mapped)))
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
