"""The glued three-copy polyhedron, its side pairings and vertex table.

The three copies are the generic polyhedra of the charts C1, C2, C3; all
matrices and reports are expressed in the z-frame (the C3 chart). The six
side pairings are built by configuration-tracked composition and verified
against their closed-form factorizations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import chain

import numpy as np

from dmlat.arithmetic import (
    BULLET_NEUTRAL, REAL_TOL, VERTEX_ARG_TOL, ZERO_COORD_TOL,
    HermitianForm3,
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
    SingularMatrix,
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
    VERTEX_LINES,
    PointAtInfinity,
    PreconditionFailed,
    _arg_in,
    _normal_at,
    _polar_row,
    arc_radians,
    arc_side,
    collapse_status,
    lines_t,
    vertices_t,
)
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


@dataclass(frozen=True)
class DomainD:
    """The glued domain: signature, the three charts and the k'-flag.

    The maps from the z-chart to the others, the argument sectors and the
    frame-diagram verdict are computed on first use and kept, the maps
    read-only.
    """

    signature: LatticeSignature
    params: DerivedParams
    c1: Configuration
    c2: Configuration
    c3: Configuration
    kneg_flag: bool

    @cached_property
    def x_of_z(self) -> np.ndarray:
        return move_R1(self.c3).matrix

    @cached_property
    def y_of_z(self) -> np.ndarray:
        m = move_R2(self.c2).matrix
        try:
            return read_only(np.linalg.inv(m))
        except np.linalg.LinAlgError:
            raise SingularMatrix(f"the y chart of {self.signature} is singular: "
                                 f"R2 at C2 {self.c2} has no inverse") from None

    @cached_property
    def w_of_z(self) -> np.ndarray:
        return read_only(_word("Q^-1", _pairing_words(self)))

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
    t, f, fp = dom.c3.theta, dom.c3.phi, dom.c2.phi
    return {0: 0, "theta": t, "-theta": -t, "phi": f, "-phi": -f,
            _TP: dom.c2.theta, _FP: fp, "-phi'": -fp}


@cache
def build_domain(sig: LatticeSignature) -> DomainD:
    """The domain of a signature, built once per process.

    The C2 chart is inverted here, so that a singular one, as on (4,4,4),
    raises ``SingularMatrix`` before anything else is built on the domain.
    """
    params = derive_params(sig)
    kneg = params.k_prime.is_negative or params.k_prime.is_infinite
    dom = DomainD(sig, params, *configurations_of(sig), kneg)
    dom.y_of_z
    return dom


@dataclass(frozen=True)
class SidePairingSet:
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
    """
    c1, c2, c3 = dom.c1, dom.c2, dom.c3
    c2_usable = not dom.params.k_prime.is_infinite
    r1p = compose(move_R1(c1), move_R1(c3))
    # Q through the C1 chart works for every signature.
    q = compose(compose(move_R1(c1), move_R2(c1)), move_R1(c3))
    k = compose(q, move_A1(c3))
    # R'0 = R1^-1 R2 R1 through the C1 chart.
    r0p = compose(inverse(move_R1(c3)), compose(move_R2(c1), move_R1(c3)))
    ki = np.linalg.inv(k.matrix)
    if c2_usable:
        r2p = compose(move_R2(c2), move_R2(c3))
        a0p = compose(compose(move_R2(c2), move_A1(c2)), inverse(move_R2(c2)))
    else:
        # The C2 chart is singular when k' is infinite; use the exchange
        # relation R'2 = K R'1 K^-1 and A'0 = K^-2 instead.
        r2p = ConfiguredMap(k.matrix @ r1p.matrix @ ki, c3, c3, "R2'")
        a0p = ConfiguredMap(ki @ ki, c3, c3, "A'0")
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
    # Exchange relations: R'2 K = K R'1 and R'0^-1 A'0 R'0 = A'0 = K^-2.
    ok = ok and projective_equal(r2p.matrix @ k.matrix, k.matrix @ r1p.matrix)
    ok = ok and projective_equal(a0p.matrix, ki @ ki)
    ok = ok and projective_equal(
        np.linalg.inv(r0p.matrix) @ a0p.matrix @ r0p.matrix, a0p.matrix
    )
    return SidePairingSet(k, q, r0p, r1p, r2p, a0p, bool(ok))


class MalformedWord(ValueError):
    """A word in the pairings and A1 outside the word grammar."""


_LETTER = re.compile(r"(R'[012]|A'0|A1|K|Q)(?:\^(-?\d+))?")
_WORD = re.compile(f"(?:{_LETTER.pattern})+")


def _word(text: str, w: dict[str, np.ndarray]) -> np.ndarray:
    """The matrix of a word in the pairings and A1, such as "R'2^-1QR'1".

    A word is letters, each with an optional integer power; any other text,
    such as parentheses, raises ``MalformedWord``.
    """
    if not _WORD.fullmatch(text):
        raise MalformedWord(f"not a word in the pairings and A1: {text!r}")
    return reduce(np.matmul, [np.linalg.matrix_power(w[letter], int(power or 1))
                              for letter, power in _LETTER.findall(text)])


# The words of the orbit table's stabilisers and of the cycle checks.
_COMPOUND_WORDS = ("Q^2", "R'0K", "QK^-1", "A'0R'2R'1", "R'1A'0R'2", "KR'0",
                   "R'2^-1K")


@cache
def _pairing_words(dom: DomainD) -> dict[str, np.ndarray]:
    """The pairings, A1 and ``_COMPOUND_WORDS``: built once per domain, read-only.

    This is the one table of letters: outside ``side_pairings`` itself,
    every product of pairings in the package is a ``_word`` on it.
    """
    d = {name: m.matrix for name, m in side_pairings(dom).as_dict().items()}
    d["A1"] = move_A1(dom.c3).matrix
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

VERTEX_D_LABELS = tuple(_VERT_D_TABLE)


@dataclass(frozen=True)
class DomainVertexTable:
    """z-frame coordinates of the 24 vertices plus cross-check results.

    ``collapsed`` lists vertices lying on a collapsed triple line in at
    least one chart; their table cells are not checked. In the
    k'-negative regime the y2 argument column is checked modulo pi only
    (the second chart's coordinate sector flips there), recorded in notes.
    """

    coords: dict[str, np.ndarray]
    collapsed: frozenset[str]
    table_ok: bool
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()


def _collapsed_vertices(dom: DomainD) -> frozenset[str]:
    """Vertices lying on a collapsed triple line in any of the three charts."""
    status = {
        "z": collapse_status(dom.c3),
        "x": collapse_status(dom.c1),
        "y": collapse_status(dom.c2),
    }
    out: set[str] = set()
    for label, (z_alias, x_alias, y_alias, _) in _VERT_D_TABLE.items():
        for chart, alias in (("z", z_alias), ("x", x_alias), ("y", y_alias)):
            if alias is None:
                continue
            for line in VERTEX_LINES[alias]:
                if status[chart].get(line, False):
                    out.add(label)
    return frozenset(out)


@cache
def vertices_D(dom: DomainD) -> DomainVertexTable:
    """Assemble the 24 z-frame vertices and cross-check the reference table."""
    c1, c2, c3 = dom.c1, dom.c2, dom.c3
    vt3 = vertices_t(c3)
    vt1 = vertices_t(c1)
    vt2 = vertices_t(c2)
    z_of_x = np.linalg.inv(dom.x_of_z)
    z_of_y = move_R2(c2).matrix
    y_usable = not dom.params.k_prime.is_infinite
    collapsed = _collapsed_vertices(dom)
    angle = dict(zip(chain(*_SECTORS), chain(*dom.sectors)))
    coords: dict[str, np.ndarray] = {}
    failures: list[str] = []
    notes: list[str] = []
    unplaced: list[str] = []  # not collapsed, but with no finite point
    if collapsed:
        notes.append(f"cells skipped for collapsed vertices: {sorted(collapsed)}")
    if dom.kneg_flag:
        notes.append("k'-negative regime: y2 arguments compared modulo pi")
    if not y_usable:
        notes.append("k' infinite: the second chart is singular, y columns skipped")
    for label, (z_alias, x_alias, y_alias, cells) in _VERT_D_TABLE.items():
        if z_alias is not None:
            z = vt3[z_alias]
        elif x_alias is not None:
            z = z_of_x @ vt1[x_alias]
        else:
            z = z_of_y @ vt2[y_alias]
        finite = not no_finite_point(z)
        if finite:
            z = z / z[2]
        coords[label] = read_only(z)
        if label in collapsed:
            continue
        if not finite:
            unplaced.append(label)
            continue
        w = dom.w_of_z @ z
        w = w / w[2]
        if y_usable:
            y = dom.y_of_z @ z
            y = y / y[2]
        else:
            y = np.zeros(3, dtype=complex)
        values = (z[0], z[1], w[0], w[1], y[0], y[1])
        for col, (cell, val) in enumerate(zip(cells, values)):
            if cell is None or (col >= 4 and not y_usable):
                continue
            if cell == "zero":
                if abs(val) > ZERO_COORD_TOL:
                    failures.append(f"{label}: expected zero, |value|={abs(val):.2e}")
                continue
            if abs(val) <= ZERO_COORD_TOL:
                failures.append(f"{label}: expected arg, got zero coordinate")
                continue
            want = angle[cell]
            got = math.atan2(val.imag, val.real)
            period = math.pi if (dom.kneg_flag and col == 5) else 2 * math.pi
            diff = abs((got - want + math.pi) % (2 * math.pi) - math.pi)
            diff = min(diff, abs(diff - period)) if period == math.pi else diff
            if diff > VERTEX_ARG_TOL:
                failures.append(f"{label}: arg mismatch {got:.6f} vs {want:.6f}")
    if unplaced:
        notes.append(f"cells skipped for vertices with no finite point: {unplaced}")
    return DomainVertexTable(
        coords, collapsed, not failures, tuple(failures), tuple(notes)
    )


def in_D_union(point, dom: DomainD) -> bool:
    """Membership in the glued domain: six z/w/y argument conditions.

    Refused unless k' is positive and finite: the second chart is singular
    for infinite k', and the y1 sector (-phi', phi') is empty for k' < 0.
    """
    if dom.kneg_flag:
        raise PreconditionFailed("the second chart is singular (k' = inf) "
                                 "or its y1 sector empty (k' < 0)")
    z = np.asarray(point, dtype=complex)
    if no_finite_point(z):
        raise PointAtInfinity("point has vanishing third z-coordinate")
    z = z / z[2]
    w = dom.w_of_z @ z
    y = dom.y_of_z @ z
    if no_finite_point(w) or no_finite_point(y):
        raise PointAtInfinity("image chart coordinate at infinity")
    w = w / w[2]
    y = y / y[2]
    return all(_arg_in(value, lo, hi) for value, (lo, hi)
               in zip((z[0], z[1], w[0], w[1], y[0], y[1]), dom.sectors))


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


def kneg_form(c: Configuration) -> HermitianForm3:
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
    z = move_R2(dom.c2).matrix @ y_point
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
    c1, c2, c3 = dom.c1, dom.c2, dom.c3
    out: dict[str, list[np.ndarray]] = {}
    z_of_x = np.linalg.inv(dom.x_of_z)
    p = dom.params
    if p.l.is_infinite:
        out["l"] = [vertices_t(c3)["t6"], z_of_x @ vertices_t(c1)["t12"]]
    if p.l_prime.is_infinite:
        out["l'"] = [z_of_x @ vertices_t(c1)["t9"]]
    if p.d.is_infinite:
        out["d"] = [vertices_t(c3)["t3"]]
    if p.k_prime.is_infinite:
        out["k'"] = [move_R2(c2).matrix @ np.array([1.0, 0.0, 0.0], dtype=complex)]
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
    of l (``ComplexLine.vector``, ``projective_equal``). ``seed`` is not
    read, since the check makes no draw; it is kept for callers that pass it.
    """
    if dom.params.k_prime.is_infinite:
        raise PreconditionFailed("second chart is singular for infinite k'")
    lz, ly, lx = lines_t(dom.c3), lines_t(dom.c2), lines_t(dom.c1)
    return all(projective_equal(ly[y].vector @ dom.y_of_z, lz[z].vector)
               and projective_equal(lx[x].vector @ dom.x_of_z, lz[z].vector)
               for z, y, x in _SAME_LINES)
