"""The glued three-copy polyhedron, its side pairings and vertex table.

The three copies are the generic polyhedra of the charts C1, C2, C3; all
matrices and reports are expressed in the z-frame (the C3 chart). The six
side pairings are built by configuration-tracked composition and verified
against their closed-form factorizations.
"""

from __future__ import annotations

import math
import re
from functools import cache, cached_property, reduce

import numpy as np

from dmlat.arithmetic import (
    BULLET_NEUTRAL, MEMBERSHIP_TOL, REAL_TOL, VERTEX_ARG_TOL, ZERO_COORD_TOL,
    hermitian_eval,
    no_finite_point,
    projective_equal,
    projective_scale,
    read_only,
    signature as form_signature,
    exp_i_pi,
)
from dmlat.catalog import DerivedParams, LatticeSignature, derive_params
from dmlat.moves import (
    ConfiguredMap,
    Configuration,
    chart,
    compose,
    configurations_of,
    hermitian_form,
    inverse,
    move_A1,
    move_J,
    move_P,
    move_P_inverse,
    move_R1,
    move_R2,
)
from dmlat.polyhedron import (
    PointAtInfinity,
    PreconditionFailed,
    _normal_at,
    _polar_row,
    arc_radians,
    arc_side,
    collapsed_vertices,
    in_arcs,
    lines_t,
    vertices_t,
)
from dmlat.record import Record
from dmlat.sampling import Bullet, BulletReport, ball_draws, bullet_agreement

# theta' and phi', the angles of the C2 chart: 2*alpha-pi and pi+theta+phi-2*alpha.
_TP = "theta'"
_FP = "phi'"
# The argument sectors of D, one per column (arg z1, arg z2, arg w1, arg w2,
# arg y1, arg y2), as (lo, hi) named angles in units of pi (``_sector_angles``).
# Every named angle of the vertex table below is an end of one of them, and each
# end is a side (``arc_side``) of ``bisD_check`` and ``tessellate``.
_SECTORS = (("-phi", 0), ("-theta", "theta"), (0, "phi"), ("-theta", "theta"),
            ("-phi'", _FP), (0, _TP))


class DomainD(Record, eq=False):
    """The glued domain: signature, the three charts and the k'-flag.

    The maps between the z-chart and the others, the argument sectors and the
    frame-diagram verdict are computed on first use and kept, the maps
    read-only. ``build_domain`` makes one domain per signature, so domains
    compare and hash by identity, the cheap key of the per-domain caches.
    """

    signature: LatticeSignature
    params: DerivedParams
    c1: Configuration
    c2: Configuration
    c3: Configuration

    @property
    def kneg_flag(self) -> bool:
        """Whether k' is degenerate: negative or infinite."""
        return "k'" in self.params.degenerate

    @cached_property
    def x_of_z(self) -> np.ndarray:
        return move_R1(self.c3).matrix

    @cached_property
    def z_of_x(self) -> np.ndarray:
        return inverse(move_R1(self.c3)).matrix

    @cached_property
    def z_of_y(self) -> np.ndarray:
        return move_R2(self.c2).matrix

    @cached_property
    def y_of_z(self) -> np.ndarray:
        """R2 at C2 inverted; ``SingularMatrix`` exactly when k' is infinite."""
        return inverse(move_R2(self.c2)).matrix

    @cached_property
    def w_of_z(self) -> np.ndarray:
        return _pairing_words(self)["Q^-1"]

    @cached_property
    def u_of_z(self) -> np.ndarray:
        return move_P_inverse(self.c3).matrix

    @cached_property
    def v_of_z(self) -> np.ndarray:
        return read_only(move_P_inverse(self.c1).matrix @ self.x_of_z)

    @cached_property
    def sectors(self) -> tuple[tuple[float, float], ...]:
        """The six arcs (lo, hi) of ``_SECTORS``, in radians."""
        return arc_radians(_SECTORS, _sector_angles(self))

    @cached_property
    def diagram_ok(self) -> bool:
        """Whether the coordinate diagram of the three charts commutes."""
        # u = P^-1(C3) z must equal R1-at-C3 applied to w = Q^-1 z.
        ok = projective_equal(self.u_of_z, self.x_of_z @ self.w_of_z)
        # The relations through the C2 chart degenerate when k' is infinite:
        # v = P^-1 applied to x must equal y, and P^-1(C2) y must equal w.
        if not self.params.k_prime.is_infinite:
            ok = ok and projective_equal(self.v_of_z, self.y_of_z)
            ok = ok and projective_equal(
                move_P_inverse(self.c2).matrix @ self.y_of_z, self.w_of_z)
        return ok


def _sector_angles(dom: DomainD) -> dict:
    """The named angles of ``_SECTORS``, from the C3 and C2 charts."""
    q3, q2 = chart(dom.c3).angle, chart(dom.c2).angle
    return {0: 0, "theta": q3["t"], "-theta": q3["-t"], "phi": q3["f"], "-phi": q3["-f"],
            _TP: q2["t"], _FP: q2["f"], "-phi'": q2["-f"]}


@cache
def build_domain(sig: LatticeSignature) -> DomainD:
    """The domain of a signature, built once per process. It inverts no
    chart map: the C2 chart, singular when k' is infinite, is inverted only
    where it is read (``DomainD.y_of_z``)."""
    return DomainD(sig, derive_params(sig), *configurations_of(sig))


class SidePairingSet(Record, eq=False):
    """The six side pairings in the z-frame, with factorization checks."""

    K: ConfiguredMap
    Q: ConfiguredMap
    R0: ConfiguredMap
    R1: ConfiguredMap
    R2: ConfiguredMap
    A0: ConfiguredMap
    factorizations_ok: bool

    def as_dict(self) -> dict[str, ConfiguredMap]:
        return {"K": self.K, "Q": self.Q, "R'0": self.R0,
                "R'1": self.R1, "R'2": self.R2, "A'0": self.A0}


@cache
def side_pairings(dom: DomainD) -> SidePairingSet:
    """Build the six pairings by tracked composition; cross-check factorizations.

    Q, K, R'0 and R'1 come through the C1 chart. For infinite k' the C2 chart
    is singular: R'2 and A'0 then come from the exchange relations
    R'2 = K R'1 K^-1 and A'0 = K^-2, and the cross-checks through C2 are
    skipped; the C1-chart ones K = J R1 and Q = P R1 run for every signature.
    ``factorizations_ok`` holds these factorizations only: the exchange
    relations are relation rows of ``group_checks``, evaluated there once.
    """
    c1, c2, c3 = dom.c1, dom.c2, dom.c3
    c2_usable = not dom.params.k_prime.is_infinite
    r1p = compose(move_R1(c1), move_R1(c3))
    # Q through the C1 chart works for every signature.
    q = compose(compose(move_R1(c1), move_R2(c1)), move_R1(c3))
    k = compose(q, move_A1(c3))
    # R'0 = R1^-1 R2 R1 through the C1 chart.
    r0p = compose(inverse(move_R1(c3)), compose(move_R2(c1), move_R1(c3)))
    if c2_usable:
        r2p = compose(move_R2(c2), move_R2(c3))
        a0p = compose(compose(move_R2(c2), move_A1(c2)), inverse(move_R2(c2)))
    else:
        # The C2 chart is singular when k' is infinite; use the exchange
        # relation R'2 = K R'1 K^-1 and A'0 = K^-2 instead.
        ki = inverse(k)
        r2p = compose(compose(k, r1p), ki)
        a0p = compose(ki, ki)
    # K = J R1 and Q = P R1 through the C1 chart.
    ok = projective_equal(k.matrix, compose(move_J(c1), move_R1(c3)).matrix)
    ok = ok and projective_equal(q.matrix, compose(move_P(c1), move_R1(c3)).matrix)
    # K = R2 J; Q = R2 P; R'0 = R2 R1 R2^-1, through the C2 chart.
    if c2_usable:
        ok = ok and projective_equal(k.matrix, compose(move_R2(c2), move_J(c3)).matrix)
        ok = ok and projective_equal(q.matrix, compose(move_R2(c2), move_P(c3)).matrix)
        ok = ok and projective_equal(r0p.matrix, compose(
            compose(move_R2(c2), move_R1(c2)), inverse(move_R2(c2))).matrix)
        # A'0 = R1^-1 J^-1 J^-1 R2^-1.
        ok = ok and projective_equal(a0p.matrix, compose(
            compose(compose(inverse(move_R1(c3)), inverse(move_J(c1))),
                    inverse(move_J(c3))),
            inverse(move_R2(c2)),
        ).matrix)
    return SidePairingSet(k, q, r0p, r1p, r2p, a0p, bool(ok))


class MalformedWord(ValueError):
    """A word in the pairings and A1 outside the word grammar."""


_LETTER = re.compile(r"(R'[012]|A'0|A1|K|Q)(?:\^(-?\d+))?")
_WORD = re.compile(f"(?:{_LETTER.pattern})+")


@cache
def _letters(text: str) -> tuple[tuple[str, int], ...]:
    """The (letter, power) pairs of a word, parsed once per text; any text
    outside the grammar raises ``MalformedWord`` on every call."""
    if not _WORD.fullmatch(text):
        raise MalformedWord(f"not a word in the pairings and A1: {text!r}")
    return tuple((letter, int(power or 1)) for letter, power in _LETTER.findall(text))


def _word(text: str, w: dict[str, np.ndarray]) -> np.ndarray:
    """The matrix of a word in the pairings and A1, such as "R'2^-1QR'1".

    A word is letters, each with an optional integer power; any other text,
    such as parentheses, raises ``MalformedWord``. A letter X at power n is
    ``np.linalg.matrix_power`` of the entry X of w, or X^-1 for n < 0, at |n|.
    """
    return reduce(np.matmul, [
        np.linalg.matrix_power(w[letter if n >= 0 else f"{letter}^-1"], abs(n))
        for letter, n in _letters(text)])


# The words of the orbit table's stabilisers and of the cycle checks.
_COMPOUND_WORDS = ("Q^2", "R'0K", "QK^-1", "A'0R'2R'1", "R'1A'0R'2", "KR'0",
                   "R'2^-1K")


@cache
def _pairing_words(dom: DomainD) -> dict[str, np.ndarray]:
    """The pairings, A1, their inverses and ``_COMPOUND_WORDS``: built once per
    domain, read-only.

    This is the one table of letters: outside ``side_pairings`` itself,
    every product of pairings in the package is a ``_word`` on it. The entry
    X^-1 of a letter X is ``moves.inverse`` of X's map.
    """
    maps = {**side_pairings(dom).as_dict(), "A1": move_A1(dom.c3)}
    d = {name: m.matrix for name, m in maps.items()}
    d.update((f"{name}^-1", inverse(m).matrix) for name, m in maps.items())
    d.update((word, _word(word, d)) for word in _COMPOUND_WORDS)
    return {name: read_only(m) for name, m in d.items()}


# The 24-vertex table: label -> (alias in D3, D1, D2, cells). Cells are the
# six columns of ``_SECTORS``; each cell is None (empty), "zero" (the
# coordinate vanishes) or a named angle of ``_SECTORS``.
_VERT_D_TABLE: dict[str, tuple[str | None, str | None, str | None, tuple]] = {
    "v0": (None, "t2", "t1", (None, None, None, None, "zero", "zero")),
    "v1": ("t1", "t1", None, ("zero", "zero", None, None, None, None)),
    "v2": ("t2", None, "t2", (None, None, "zero", "zero", None, None)),
    "v3": ("t3", "t3", "t5", (0, "zero", 0, 0, 0, _TP)),
    "v4": ("t4", "t5", "t4", (0, 0, 0, "zero", 0, 0)),
    "v5": ("t5", None, None, (0, "theta", 0, "-theta", None, None)),
    "v6": ("t6", "t6", "t13", ("-phi", "zero", 0, 0, 0, _TP)),
    "v7": ("t7", "t8", "t12", ("-phi", 0, "phi", 0, "zero", _TP)),
    "v8": ("t8", None, "t14", ("-phi", "theta", "zero", 0, "-phi'", _TP)),
    "v9": ("t9", "t12", None, ("zero", 0, "phi", "-theta", _FP, 0)),
    "v10": ("t10", "t13", "t10", (0, 0, "phi", "zero", 0, 0)),
    "v11": ("t11", "t14", "t9", ("-phi", 0, "phi", 0, "zero", 0)),
    "v12": ("t12", None, None, ("zero", "theta", "phi", "-theta", None, None)),
    "v13": ("t13", None, None, (0, "theta", 0, "-theta", None, None)),
    # The third cell of v14 is a vanishing coordinate, not a zero argument:
    # the w-chart first coordinate is identically zero at this vertex.
    "v14": ("t14", None, None, ("-phi", "theta", "zero", "-theta", None, None)),
    "v16": (None, "t4", "t3", (0, "-theta", 0, "theta", 0, "zero")),
    "v17": (None, "t7", None, ("-phi", "-theta", None, None, _FP, _TP)),
    "v18": (None, "t9", None, ("zero", "-theta", None, None, _FP, 0)),
    "v19": (None, "t10", None, (0, "-theta", None, None, _FP, "zero")),
    "v20": (None, "t11", None, ("-phi", "-theta", None, None, _FP, _TP)),
    "v21": (None, None, "t6", (None, None, 0, "theta", "-phi'", "zero")),
    "v22": (None, None, "t7", (None, None, "phi", "theta", "-phi'", 0)),
    "v23": (None, None, "t8", (None, None, "zero", "theta", "-phi'", _TP)),
    "v24": (None, None, "t11", (None, None, "phi", "theta", "-phi'", 0)),
}


# The vertices that only the C2 chart places, with no alias in C3 or C1.
_C2_ONLY = tuple(label for label, (z, x, _, _) in _VERT_D_TABLE.items() if z is x is None)


class DomainVertexTable(Record, eq=False):
    """z-frame coordinates of the 24 vertices plus cross-check results.

    ``collapsed`` lists vertices lying on a collapsed triple line in at
    least one chart; their table cells are not checked. For k' < 0 the y2
    argument column is checked modulo pi only (the second chart's coordinate
    sector flips there), recorded in notes.
    """

    coords: dict[str, np.ndarray]
    collapsed: frozenset[str]
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def table_ok(self) -> bool:
        """Whether no checked cell failed."""
        return not self.failures


def _collapsed_vertices(dom: DomainD) -> frozenset[str]:
    """Vertices whose alias in one of the charts C3, C1, C2 has collapsed
    there (``collapsed_vertices``)."""
    lost = [collapsed_vertices(c) for c in (dom.c3, dom.c1, dom.c2)]
    return frozenset(label for label, (*aliases, _) in _VERT_D_TABLE.items()
                     if any(alias in chart for alias, chart in zip(aliases, lost)))


@cache
def vertices_D(dom: DomainD) -> DomainVertexTable:
    """Assemble the 24 z-frame vertices and cross-check the reference table.

    Each cell's angle is its ``_sector_angles`` entry times pi. The cells of
    collapsed vertices (``_collapsed_vertices``) are skipped, and so, when
    k' is infinite, are the y columns and the vertices that only the
    singular C2 chart places (``_C2_ONLY``).
    """
    c1, c2, c3 = dom.c1, dom.c2, dom.c3
    vt3 = vertices_t(c3)
    vt1 = vertices_t(c1)
    vt2 = vertices_t(c2)
    y_usable = not dom.params.k_prime.is_infinite
    y2_mod_pi = dom.params.k_prime.is_negative
    collapsed = _collapsed_vertices(dom)
    angles = _sector_angles(dom)
    coords: dict[str, np.ndarray] = {}
    failures: list[str] = []
    notes: list[str] = []
    unplaced: list[str] = []  # not collapsed, but with no finite point
    c2_only: list[str] = []  # not collapsed, placed by the singular C2 chart
    if collapsed:
        notes.append(f"cells skipped for collapsed vertices: {sorted(collapsed)}")
    if y2_mod_pi:
        notes.append("k'-negative regime: y2 arguments compared modulo pi")
    if not y_usable:
        notes.append("k' infinite: the second chart is singular, y columns skipped")
    checked: list[str] = []  # not collapsed, with a finite point
    for label, (z_alias, x_alias, y_alias, _) in _VERT_D_TABLE.items():
        if z_alias is not None:
            z = vt3[z_alias]
        elif x_alias is not None:
            z = dom.z_of_x @ vt1[x_alias]
        else:
            z = dom.z_of_y @ vt2[y_alias]
        finite = not no_finite_point(z)
        if finite:
            z = z / z[2]
        coords[label] = read_only(z)
        if label not in collapsed:
            (unplaced if not finite else c2_only if not y_usable and label in _C2_ONLY
             else checked).append(label)
    # One product per chart map for all the checked vertices, read as scalars.
    zs = np.array([coords[label] for label in checked]).reshape(-1, 3).T
    w = dom.w_of_z @ zs
    columns = [*zs[:2].tolist(), *(w[:2] / w[2]).tolist()]
    if y_usable:
        y = dom.y_of_z @ zs
        columns += (y[:2] / y[2]).tolist()
    for j, label in enumerate(checked):
        for col, (cell, column) in enumerate(zip(_VERT_D_TABLE[label][3], columns)):
            if cell is None:
                continue
            val = column[j]
            if cell == "zero":
                if abs(val) > ZERO_COORD_TOL:
                    failures.append(f"{label}: expected zero, |value|={abs(val):.2e}")
                continue
            if abs(val) <= ZERO_COORD_TOL:
                failures.append(f"{label}: expected arg, got zero coordinate")
                continue
            want = float(angles[cell]) * math.pi
            got = math.atan2(val.imag, val.real)
            period = math.pi if (y2_mod_pi and col == 5) else 2 * math.pi
            diff = abs((got - want + math.pi) % (2 * math.pi) - math.pi)
            diff = min(diff, abs(diff - period)) if period == math.pi else diff
            if diff > VERTEX_ARG_TOL:
                failures.append(f"{label}: arg mismatch {got:.6f} vs {want:.6f}")
    if unplaced:
        notes.append(f"cells skipped for vertices with no finite point: {unplaced}")
    if c2_only:
        notes.append("k' infinite: cells skipped for vertices only the singular "
                     f"second chart places: {c2_only}")
    return DomainVertexTable(coords, collapsed, tuple(failures), tuple(notes))


def in_D_union(point, dom: DomainD) -> bool:
    """Membership in the glued domain: six z/w/y argument conditions.

    Refused unless k' is positive and finite: the second chart is singular
    for infinite k', and the y1 sector (-phi', phi') is empty for k' < 0.
    """
    if dom.kneg_flag:
        raise PreconditionFailed("the second chart is singular (k' = inf) "
                                 "or its y1 sector empty (k' < 0)")
    z = np.asarray(point, dtype=complex)
    h = np.vstack([np.eye(3), dom.w_of_z, dom.y_of_z]) @ z
    if no_finite_point(z):
        raise PointAtInfinity("point has vanishing third z-coordinate")
    if no_finite_point(h[3:6]) or no_finite_point(h[6:]):
        raise PointAtInfinity("image chart coordinate at infinity")
    return bool(in_arcs(h[:, None], dom.sectors, MEMBERSHIP_TOL)[0])


@cache
def _bisd_bullets(dom: DomainD) -> tuple[Bullet, ...]:
    """The 12 bullets of ``bisD_check``, built once per domain.

    All plain normals are the z-frame normals at C3; the transported normal
    is a pairing word of ``_pairing_words`` applied to a C3 normal, except
    the first bullet which transports the C2-chart normal with the inverse
    composite move.
    """
    c2, c3 = dom.c2, dom.c3
    h, w, angles = hermitian_form(c3), _pairing_words(dom), _sector_angles(dom)
    specs = (  # side (column of _SECTORS, end), plain line, matrix, mapped line at
        (0, "hi", "L_*1", move_P_inverse(c2).matrix, "L_*3", c2),
        (0, "lo", "L_*0", _word("K^-1", w), "L_*0", c3),
        (1, "hi", "L_*3", _word("R'1", w), "L_*3", c3),
        (1, "lo", "L_*3", _word("R'1^-1", w), "L_*3", c3),
        (4, "lo", "L_*0", _word("K^2", w), "L_*0", c3),
        (5, "lo", "L_*1", _word("Q^-1R'1", w), "L_*3", c3),
        (5, "hi", "L_*3", _word("R'1^-1Q", w), "L_*1", c3),
        (4, "hi", "L_*0", _word("K^-2", w), "L_*0", c3),
        (2, "lo", "L_*3", _word("Q", w), "L_*1", c3),
        (2, "hi", "L_*0", _word("K", w), "L_*0", c3),
        (3, "hi", "L_*1", _word("R'2", w), "L_*1", c3),
        (3, "lo", "L_*1", _word("R'2^-1", w), "L_*1", c3),
    )
    return tuple(Bullet(*arc_side(_SECTORS, angles, column, end), 0,
                        _polar_row(_normal_at(c3, plain), h, plain),
                        _polar_row(mat @ _normal_at(at, mapped), h, mapped))
                 for column, end, plain, mat, mapped, at in specs)


def bisD_check(dom: DomainD, n_samples: int = 1000, seed: int = 7,
               neutral: float = BULLET_NEUTRAL) -> BulletReport:
    """Sampled sign-equivalence of the 12 half-space inequalities.

    The draws are z-frame points of the ball, uniform
    (``dmlat.sampling.ball_draws``, which also sets the draw cap); a draw is
    used when its w and y images are finite. Each bullet reads the draws in
    order until it has ``n_samples`` outside the ``neutral`` band. The
    bullets are built once per domain (``_bisd_bullets``); a failed
    precondition or a null normal raises on every call.
    """
    if dom.kneg_flag:
        raise PreconditionFailed("bisD sampling requires the generic regime")
    bullets = _bisd_bullets(dom)
    draws = ball_draws(hermitian_form(dom.c3), seed, n_samples,
                       (dom.w_of_z, dom.y_of_z))
    return bullet_agreement(draws, bullets, n_samples, neutral)


def kneg_form(c: Configuration) -> np.ndarray:
    """The area form of the k'-negative C2 chart; asserts signature (1,2)."""
    if c.phi >= 0:
        raise PreconditionFailed("kneg_form needs a negative last angle")
    form = hermitian_form(c)
    if form_signature(form) != (1, 2, 0):
        raise PreconditionFailed("k'-negative form does not have signature (1,2)")
    return form


class CollapsedVertexMisplaced(RuntimeError):
    """The collapsed vertex is not where its k' regime puts it."""


def kneg_collapsed_vertex(dom: DomainD) -> np.ndarray:
    """z-frame coordinates of the vertex where v0, v7 and v11 coalesce.

    In the C2 chart this is the intersection of the L_*2 and L_*3 lines,
    the projective point (1, 0, 0); its self-pairing vanishes exactly when
    k' is infinite.
    """
    if not dom.kneg_flag:
        raise PreconditionFailed("collapsed vertex exists only for k' < 0 or k' = inf")
    y_point = np.array([1.0, 0.0, 0.0], dtype=complex)
    z = dom.z_of_y @ y_point
    norm = hermitian_eval(hermitian_form(dom.c3), z)
    is_null = abs(norm) <= REAL_TOL * float(np.max(np.abs(z)) ** 2)
    if dom.params.k_prime.is_infinite:
        if not is_null:
            raise CollapsedVertexMisplaced(
                "collapsed vertex should be null for infinite k'")
    elif not norm > 0:
        raise CollapsedVertexMisplaced(
            "collapsed vertex should be inside the ball for k' < 0")
    return z


def boundary_null_vertices(dom: DomainD) -> dict[str, list[np.ndarray]]:
    """z-frame vertices forced onto the boundary by each infinite parameter."""
    c1, c3 = dom.c1, dom.c3
    out: dict[str, list[np.ndarray]] = {}
    p = dom.params
    if p.l.is_infinite:
        out["l"] = [vertices_t(c3)["t6"], dom.z_of_x @ vertices_t(c1)["t12"]]
    if p.l_prime.is_infinite:
        out["l'"] = [dom.z_of_x @ vertices_t(c1)["t9"]]
    if p.d.is_infinite:
        out["d"] = [vertices_t(c3)["t3"]]
    if p.k_prime.is_infinite:
        out["k'"] = [dom.z_of_y @ np.array([1.0, 0.0, 0.0], dtype=complex)]
    return out


def _im_form(m: np.ndarray, phase: complex, i: int) -> np.ndarray:
    """The Hermitian A with p* A p = Im(phase q_i conj(q_3)), where q = m p.

    That is |q_3|^2 Im(phase q_i / q_3): A has its sign wherever q is finite.
    """
    c = phase * np.outer(m[2].conj(), m[i])
    return read_only((c - c.conj().T) / 2j)


@cache
def _glueing_forms(dom: DomainD) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The two sides of each glueing identity, as ``_im_form``s: built once
    per domain, read-only.

    With phase e^{-i theta pi}: Im z2 and Im(phase x2), Im(phase u2/u3) and
    Im(w2/w3), Im(v1/v3) and Im(y1/y3). Every chart map is built here, so
    one with a zero denominator raises on every call, as ``v_of_z`` does on
    (3,3,3).
    """
    phase = exp_i_pi(-dom.c3.theta)
    return ((_im_form(np.eye(3), 1.0, 1), _im_form(dom.x_of_z, phase, 1)),
            (_im_form(dom.u_of_z, phase, 1), _im_form(dom.w_of_z, 1.0, 1)),
            (_im_form(dom.v_of_z, 1.0, 0), _im_form(dom.y_of_z, 1.0, 0)))


def glueing_check(dom: DomainD, seed: int = 7) -> bool:
    """The glueing identities: each pair of forms is proportional, ratio > 0.

    Then the two sides have the same sign at every point. ``seed`` is not
    read, since the check makes no draw; it is kept for callers that pass it.
    """
    return all(projective_equal(a, b) and projective_scale(a, b).real > 0
               for a, b in _glueing_forms(dom))


# The same-lines identities: a line each of the z-, y- and x-charts.
_SAME_LINES = (("L_*0", "L_*0", "L_*0"), ("L_*3", "L_*3", "L_*2"),
               ("L_*1", "L_*2", "L_*1"))


def samelines_check(dom: DomainD, seed: int = 7) -> bool:
    """The chart maps carry each z-line of ``_SAME_LINES`` onto its y- and x-lines.

    M carries the line of vector l onto that of l' when l' M is a multiple
    of l (the line vectors of ``lines_t``, ``projective_equal``). ``seed`` is not
    read, since the check makes no draw; it is kept for callers that pass it.
    """
    if dom.params.k_prime.is_infinite:
        raise PreconditionFailed("second chart is singular for infinite k'")
    lz, ly, lx = lines_t(dom.c3), lines_t(dom.c2), lines_t(dom.c1)
    return all(projective_equal(ly[y] @ dom.y_of_z, lz[z])
               and projective_equal(lx[x] @ dom.x_of_z, lz[z])
               for z, y, x in _SAME_LINES)
