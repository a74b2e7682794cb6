"""The generic single-copy polyhedron: lines, vertices, membership, bounds.

Everything here is parametrized by one angle configuration. The ten complex
lines and fourteen vertices are built in two coordinate frames (t and s,
related by the inverse composite move), and the checks compare reference
closed forms against each other and against sampled half-space conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from dmlat.arithmetic import (
    HermitianForm3,
    hermitian_eval,
    no_finite_point,
    normalize_vector,
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
from dmlat.sampling import Bullet, BulletReport, ball_draws, box_radius, bullet_agreement

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

# Bisector label -> (frame, coefficient multiplying the coordinate inside im(),
# which coordinate, vertices on it). The defining condition is im(coef*x) = 0.
BISECTOR_TABLE: dict[str, tuple[str, int, tuple[str, ...]]] = {
    "B(P)": ("t", 1, ("t1", "t3", "t4", "t5", "t9", "t10", "t12", "t13")),
    "B(P^-1)": ("s", 1, ("t2", "t3", "t4", "t5", "t6", "t8", "t13", "t14")),
    "B(J)": ("t", 1, ("t1", "t6", "t7", "t8", "t9", "t11", "t12", "t14")),
    "B(J^-1)": ("s", 1, ("t2", "t7", "t8", "t9", "t10", "t11", "t12", "t14")),
    "B(R1)": ("t", 2, ("t1", "t3", "t4", "t6", "t7", "t9", "t10", "t11")),
    "B(R1^-1)": ("t", 2, ("t1", "t3", "t5", "t6", "t8", "t12", "t13", "t14")),
    "B(R2)": ("s", 2, ("t2", "t4", "t5", "t9", "t10", "t12", "t13", "t14")),
    "B(R2^-1)": ("s", 2, ("t2", "t3", "t4", "t6", "t7", "t8", "t10", "t11")),
}


class SingularSystem(ValueError):
    """The two chosen points of a line were linearly dependent."""


class PointAtInfinity(ValueError):
    """A projective point with (numerically) vanishing third coordinate."""


class PreconditionFailed(ValueError):
    """An exact sign precondition of a combinatorial lemma does not hold."""


@dataclass(frozen=True)
class ComplexLine:
    """The affine equation a*x1 + b*x2 = c in the given frame."""

    label: str
    a: complex
    b: complex
    c: complex
    frame: str

    def __post_init__(self) -> None:
        if self.a == 0 and self.b == 0:
            raise ValueError("line equation must involve a coordinate")

    def residual(self, point: np.ndarray) -> float:
        """|a x1 + b x2 - c x3| for a point (x1, x2, x3), or per column of a (3, n) array."""
        p = np.asarray(point, dtype=complex)
        return abs(self.a * p[0] + self.b * p[1] - self.c * p[2])


def lines_t(c: Configuration) -> dict[str, ComplexLine]:
    """The ten reference line equations in the t-frame of configuration c."""
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
    return {k: ComplexLine(k, *map(complex, v), "t") for k, v in eqs.items()}


def lines_s(c: Configuration) -> dict[str, ComplexLine]:
    """The ten reference line equations in the s-frame attached to c.

    These follow the t-frame shapes evaluated at the angles of the s-frame
    configuration, with the sign of the first-coordinate phase reversed.
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
    return {k: ComplexLine(k, *map(complex, v), "s") for k, v in eqs.items()}


def line_normal(line: ComplexLine, h: HermitianForm3) -> np.ndarray:
    """A vector n with <x, n> = 0 for every projective point x on the line.

    Solved from two independent points of the line; normalized so the
    largest-modulus entry is real positive.
    """
    pts = []
    if line.a != 0:
        pts.append(np.array([line.c / line.a, 0.0, 1.0], dtype=complex))
        pts.append(np.array([(line.c - line.b) / line.a, 1.0, 1.0], dtype=complex))
    else:
        pts.append(np.array([0.0, line.c / line.b, 1.0], dtype=complex))
        pts.append(np.array([1.0, line.c / line.b, 1.0], dtype=complex))
    m = np.vstack([p.conj() @ h.matrix for p in pts])
    # Solve m @ n = 0 for the 1-dimensional kernel.
    _, s, vh = np.linalg.svd(m)
    if s[1] <= 1e-12 * max(s[0], 1.0):
        raise SingularSystem(f"dependent sample points on {line.label}")
    n = vh[-1].conj()
    for p in pts:
        if abs(p.conj() @ h.matrix @ n) > 1e-9:
            raise SingularSystem(f"normal solve failed for {line.label}")
    return normalize_vector(n)


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


def check_incidence(c: Configuration, tol: float = 1e-10) -> bool:
    """Every vertex satisfies its two defining line equations, in both frames."""
    lt, ls = lines_t(c), lines_s(c)
    vt, vs = vertices_t(c), vertices_s(c)
    for name, (l1, l2) in VERTEX_LINES.items():
        for lines, verts in ((lt, vt), (ls, vs)):
            for lab in (l1, l2):
                if lines[lab].residual(verts[name]) > tol:
                    return False
    return True


def check_s_consistency(c: Configuration, tol: float = 1e-9) -> bool:
    """Reference s-frame vertices agree with the inverse composite applied to t."""
    pinv = move_P_inverse(c)
    vt, vs = vertices_t(c), vertices_s(c)
    for name, tv in vt.items():
        image = pinv.matrix @ tv
        if abs(image[2]) < 1e-12:
            return False
        image = image / image[2]
        if np.max(np.abs(image - vs[name])) > tol:
            return False
    return True


def to_s_frame(point, c: Configuration) -> np.ndarray:
    """Map a projective t-frame point to the s-frame, normalized to x3 = 1."""
    pinv = move_P_inverse(c)
    s = pinv.matrix @ np.asarray(point, dtype=complex)
    if no_finite_point(s):
        raise PointAtInfinity("image has vanishing third coordinate")
    return s / s[2]


def _arg_in(value: complex, lo: float, hi: float, tol: float) -> bool:
    if abs(value) <= 1e-9:
        return True
    arg = math.atan2(value.imag, value.real)
    return lo - tol <= arg <= hi + tol


def in_D(point, c: Configuration, tol: float = 1e-6) -> bool:
    """Membership in the generic polyhedron: four argument conditions.

    arg(t1) in (-phi, 0), arg(t2) in (0, theta), arg(s1) in (0, phi''),
    arg(s2) in (0, theta''), where theta'' and phi'' are the angles of the
    s-frame chart (``p_inverse_target``); a coordinate smaller than 1e-9 in
    modulus satisfies its condition vacuously.
    """
    p = np.asarray(point, dtype=complex)
    if no_finite_point(p):
        raise PointAtInfinity("point has vanishing third t-coordinate")
    p = p / p[2]
    cs = p_inverse_target(c)
    t, f, tpp, fpp = (float(x) * math.pi for x in (c.theta, c.phi, cs.theta, cs.phi))
    s = to_s_frame(p, c)
    return (
        _arg_in(p[0], -f, 0.0, tol)
        and _arg_in(p[1], 0.0, t, tol)
        and _arg_in(s[0], 0.0, fpp, tol)
        and _arg_in(s[1], 0.0, tpp, tol)
    )


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


def side_bound_check(c: Configuration, tol: float = 1e-10) -> bool:
    """Each side's vertices respect that side's modulus bound."""
    violated = pp_possible(c)
    if violated:
        raise PreconditionFailed(
            "side-combinatorics precondition fails: " + ", ".join(violated)
        )
    vt, vs = vertices_t(c), vertices_s(c)
    bounds = side_bounds(c)
    # Side S(X) is bounded by the vertices of bisector B(X).
    for bis, (frame, coord, members) in BISECTOR_TABLE.items():
        verts = vt if frame == "t" else vs
        for name in members:
            if abs(verts[name][coord - 1]) > bounds["S" + bis[1:]] + tol:
                return False
    return True


def bisector_membership_check(c: Configuration, tol: float = 1e-10) -> bool:
    """The listed vertices satisfy each bisector's im-equation."""
    vt, vs = vertices_t(c), vertices_s(c)
    cs = p_inverse_target(c)
    phases = {
        "B(P)": 1.0,
        "B(P^-1)": 1.0,
        "B(J)": exp_i_pi(c.phi),
        "B(J^-1)": exp_i_pi(-cs.phi),
        "B(R1)": 1.0,
        "B(R1^-1)": exp_i_pi(-c.theta),
        "B(R2)": 1.0,
        "B(R2^-1)": exp_i_pi(-cs.theta),
    }
    for bis, (frame, coord, members) in BISECTOR_TABLE.items():
        verts = vt if frame == "t" else vs
        for name in members:
            if abs((phases[bis] * verts[name][coord - 1]).imag) > tol:
                return False
    return True


def _unit_negative(n: np.ndarray, h: HermitianForm3, label: str) -> np.ndarray:
    """Scale a polar vector to Hermitian norm of modulus 1.

    The polar of a line meeting the ball is a negative vector; a collapsed
    line has a positive polar, which the half-space comparisons still
    accept under the same absolute-value normalization. A null polar has
    no scale and is rejected.
    """
    norm = hermitian_eval(h, n)
    if abs(norm) < 1e-12:
        raise SingularSystem(f"normal of {label} is a null vector")
    return n / math.sqrt(abs(norm))


def _normal_at(config: Configuration, label: str, frame: str = "t") -> np.ndarray:
    """The normal of line ``label`` of the t-frame of ``config`` (or of the
    s-frame attached to it), scaled to Hermitian norm of modulus 1."""
    if frame == "t":
        h, line = hermitian_form(config), lines_t(config)[label]
    else:
        h, line = hermitian_form(p_inverse_target(config)), lines_s(config)[label]
    return _unit_negative(line_normal(line, h), h, label)


@cache
def _bullet_table(c: Configuration) -> tuple[tuple[Bullet, ...], float]:
    """The eight bullets of ``bisector_equivalence_sample`` and its box radius.

    Built once per configuration. A mapped normal is a move matrix applied
    to a line normal. The pairings were fixed by requiring 100% sampled
    sign agreement on the generic catalog rows; t-frame bullets transport
    t-frame normals of the adjacent chart, while s-frame bullets transport
    s-frame normals with moves at the s-chart.
    """
    radius = box_radius(vertices_t(c).values())
    cs, pt, rt = p_inverse_target(c), p_target(c), r1_target(c)
    forms = {"t": hermitian_form(c), "s": hermitian_form(cs)}
    specs = (  # frame, phase, coord, im_leq, plain line, move, mapped line at
        ("t", 1.0, 1, True, "L_*1", move_P_inverse(pt), "L_*3", pt),
        ("s", 1.0, 1, False, "L_*3", move_P(cs), "L_*1", c),
        ("t", exp_i_pi(c.phi), 1, False, "L_*0", inverse(move_J(c)), "L_*0", pt),
        ("s", exp_i_pi(-cs.phi), 1, True, "L_*0", move_A1(cs), "L_*0", c),
        ("t", 1.0, 2, False, "L_*2", inverse(move_R1(c)), "L_*3", rt),
        ("t", exp_i_pi(-c.theta), 2, True, "L_*3", move_R1(rt), "L_*2", rt),
        ("s", 1.0, 2, False, "L_*1", move_R2(cs), "L_*3", c),
        ("s", exp_i_pi(-cs.theta), 2, True, "L_*2", move_R1(cs), "L_*1", c),
    )
    bullets = []
    for frame, phase, coord, im_leq, plain, move, mapped, at in specs:
        h, chart = forms[frame], "ts".index(frame)
        n_plain = _normal_at(c, plain, frame)
        n_mapped = _unit_negative(move.matrix @ _normal_at(at, mapped, frame), h, mapped)
        bullets.append(Bullet(chart, phase, coord, im_leq, chart,
                              n_plain.conj() @ h.matrix, n_mapped.conj() @ h.matrix))
    return tuple(bullets), radius


def bisector_equivalence_sample(
    c: Configuration, n_samples: int = 1000, seed: int = 7, neutral: float = 1e-8
) -> BulletReport:
    """Check the eight im/distance half-space equivalences on random points.

    Draw i, the i-th ``rng.uniform(-radius, radius, 4)``, is the t-frame
    point (r0 + i r1, r2 + i r3, 1) of a box 1.5x the vertex cloud; it is
    used when it lies in the ball and its s-frame image is finite. Each
    bullet reads the draws in order until it has ``n_samples`` outside the
    ``neutral`` band around both zero sets; draws in the band are skipped
    and their largest value reported. At most ``100 * n_samples`` draws are
    made, in chunks of 8,192 (``dmlat.sampling.ball_draws``). The bullets
    and the radius are built once per configuration (``_bullet_table``);
    a failed precondition or a null normal raises on every call.
    """
    if pp_possible(c):
        raise PreconditionFailed("equivalence sampling needs the generic regime")
    bullets, radius = _bullet_table(c)
    draws = ball_draws(hermitian_form(c), radius, seed, 100 * n_samples,
                       (move_P_inverse(c).matrix,))
    return BulletReport(*bullet_agreement(draws, bullets, n_samples, neutral),
                        n_samples)
