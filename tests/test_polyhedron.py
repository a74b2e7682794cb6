"""Lines, vertices, frames, side bounds and sampled half-space equivalences."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import dmlat.moves as moves_mod
import dmlat.polyhedron as polyhedron_mod
from dmlat.arithmetic import hermitian_eval
from dmlat.catalog import LatticeSignature, catalog
from dmlat.moves import (
    DegenerateDenominator,
    configurations_of,
    hermitian_form,
)
from dmlat.polyhedron import (
    LINE_LABELS,
    VERTEX_LINES,
    PreconditionFailed,
    SingularSystem,
    bisector_equivalence_sample,
    bisector_membership_check,
    check_s_consistency,
    collapsed_vertices,
    in_D,
    line_normal,
    lines_s,
    lines_t,
    pp_possible,
    side_bound_check,
    vertices_s,
    vertices_t,
)


# The 128 triples of [2,39]^3 whose derived orders are integers.
SWEEP_TRIPLES = [tuple(map(int, key.split(","))) for key in json.loads(
    (Path(__file__).parent / "data" / "vertex_sweep.json").read_text())]

# The seven triples whose charts all meet the side-combinatorics precondition.
GENERIC = [(4, 4, 5), (4, 4, 6), (3, 3, 4), (2, 6, 6), (2, 4, 3), (2, 3, 3), (3, 4, 4)]

# Each bisector's (bound line, plain line, vertices), as they were listed by
# hand before ``polyhedron._side_table`` derived them from ``_ARC_LINES``.
SIDE_ROWS = {
    "B(P)": ("L_*0", "L_*1", ("t1", "t3", "t4", "t5", "t9", "t10", "t12", "t13")),
    "B(P^-1)": ("L_*0", "L_*3", ("t2", "t3", "t4", "t5", "t6", "t8", "t13", "t14")),
    "B(J)": ("L_*1", "L_*0", ("t1", "t6", "t7", "t8", "t9", "t11", "t12", "t14")),
    "B(J^-1)": ("L_*3", "L_*0", ("t2", "t7", "t8", "t9", "t10", "t11", "t12", "t14")),
    "B(R1)": ("L_*3", "L_*2", ("t1", "t3", "t4", "t6", "t7", "t9", "t10", "t11")),
    "B(R1^-1)": ("L_*2", "L_*3", ("t1", "t3", "t5", "t6", "t8", "t12", "t13", "t14")),
    "B(R2)": ("L_*2", "L_*1", ("t2", "t4", "t5", "t9", "t10", "t12", "t13", "t14")),
    "B(R2^-1)": ("L_*1", "L_*2", ("t2", "t3", "t4", "t6", "t7", "t8", "t10", "t11")),
}


def drop_line(monkeypatch, module, line):
    """Leave ``line`` out of the per-chart collapse rule, as ``module`` reads
    it. A vertex lies on at most one triple line, so exactly the vertices on
    ``line`` are kept."""
    rule = polyhedron_mod.collapsed_vertices
    monkeypatch.setattr(module, "collapsed_vertices", lambda c: frozenset(
        v for v in rule(c) if line not in VERTEX_LINES[v]))


def _configs(triple):
    return configurations_of(LatticeSignature(*triple))


def _named_configs(triple):
    """The pairs (chart name, configuration) of C1, C2 and C3."""
    return zip(("C1", "C2", "C3"), _configs(triple))


class TestLines:
    def test_labels(self):
        assert {"L_*0", "L_*1", "L_*2", "L_*3"} <= set(LINE_LABELS)

    def test_vertices_lie_on_their_lines(self, triple):
        for c in _configs(triple):
            lines = lines_t(c)
            verts = vertices_t(c)
            for name, v in verts.items():
                for lab in VERTEX_LINES[name]:
                    assert abs(lines[lab] @ v) < 1e-10

    def test_zero_sine_of_alpha_is_typed(self):
        # p' = 2 puts alpha at pi: the line tables divide by sin(alpha) or
        # sin(beta), and refuse with the moves' typed error.
        for c in _configs((2, 3, 2)):
            for lines in (lines_t, lines_s):
                with pytest.raises(DegenerateDenominator):
                    lines(c)

    def test_normal_is_orthogonal(self, triple):
        # Every vertex is orthogonal to the polars of its two lines, in both
        # frames of every chart whose area form is nonsingular.
        checked = 0
        for chart, c in _named_configs(triple):
            for frame, at, lines_of, verts_of in (
                    ("t", c, lines_t, vertices_t),
                    ("s", moves_mod.chart(c).p_inverse, lines_s, vertices_s)):
                try:
                    h, lines, verts = hermitian_form(at), lines_of(c), verts_of(c)
                except DegenerateDenominator:
                    continue
                if not np.all(h):
                    with pytest.raises(SingularSystem):
                        line_normal(lines["L_*0"], h, "L_*0")
                    continue
                for name, v in verts.items():
                    for lab in VERTEX_LINES[name]:
                        n = line_normal(lines[lab], h, lab)
                        scale = np.abs(n) @ (np.abs(h) * np.abs(v))
                        assert abs(n.conj() @ (h * v)) <= 1e-12 * scale, (
                            chart, frame, name, lab)
                        checked += 1
        assert checked > 0


class TestIncidence:
    def test_s_frame_consistency(self, triple):
        for chart, c in _named_configs(triple):
            try:
                ok = check_s_consistency(c)
            except DegenerateDenominator:
                continue
            if triple == (3, 3, 3) and chart == "C2":
                # The C2 chart is exactly singular at infinite k'.
                continue
            assert ok, (triple, chart)

    def test_shifted_line_breaks_frame_consistency(self, monkeypatch):
        # The vertices are where the lines meet, so the frame check is what
        # guards the line tables: the constant of any one of the ten lines,
        # in either frame, moved by 0.01 fails it on some chart of (4,4,5).
        configs = _configs((4, 4, 5))
        assert all(check_s_consistency(c) for c in configs)
        missed = []
        for frame in ("lines_t", "lines_s"):
            table = getattr(polyhedron_mod, frame)
            for label in LINE_LABELS:
                monkeypatch.setattr(polyhedron_mod, frame, lambda c: {
                    **table(c), label: table(c)[label] + [0, 0, 0.01]})
                if all(check_s_consistency(c) for c in configs):
                    missed.append((frame, label))
            monkeypatch.setattr(polyhedron_mod, frame, table)
        assert missed == []

    def test_bisector_membership(self, triple):
        for c in _configs(triple):
            assert bisector_membership_check(c)

    def test_side_bounds_generic(self):
        for triple in GENERIC + [(3, 3, 3)]:
            for chart, c in _named_configs(triple):
                assert side_bound_check(c), (triple, chart)

    def test_side_bounds_need_positive_sines(self):
        for triple in ((6, 6, 3), (10, 10, 5), (12, 12, 6), (18, 18, 9), (4, 4, 3)):
            for c in _configs(triple):
                with pytest.raises(PreconditionFailed):
                    side_bound_check(c)

    def test_single_copy_checks_hold_on_the_sweep(self):
        # Every chart of the 128 sweep triples: the bisector equations hold
        # wherever the lines build (39 charts raise DegenerateDenominator),
        # and the side bounds wherever the sine precondition holds too.
        built = bounded = 0
        for triple in SWEEP_TRIPLES:
            for chart, c in _named_configs(triple):
                try:
                    assert bisector_membership_check(c), (triple, chart)
                except DegenerateDenominator:
                    continue
                built += 1
                if not pp_possible(c):
                    assert side_bound_check(c), (triple, chart)
                    bounded += 1
        assert (built, bounded) == (345, 279)

    def test_collapsed_vertices_are_skipped(self, monkeypatch):
        # On (2,4,3) C3, d < 0 collapses L_*0 and l' < 0 collapses L_*2. The
        # collapsed t4 = L_*0 . L_12 is on B(R1), where its t2 has modulus
        # sqrt(3) against the L_*3 radius 1/sqrt(3): with L_*0 left out of
        # the per-chart rule, the side bounds read it and fail.
        _, _, c3 = _configs((2, 4, 3))
        assert collapsed_vertices(c3) == {"t3", "t4", "t5", "t12", "t13", "t14"}
        assert "t4" in polyhedron_mod._SIDES["B(R1)"][4]
        assert abs(vertices_t(c3)["t4"][1]) == pytest.approx(3 ** 0.5)
        assert abs(lines_t(c3)["L_*3"][2]) == pytest.approx(3 ** -0.5)
        assert side_bound_check(c3)
        drop_line(monkeypatch, polyhedron_mod, "L_*0")
        assert not side_bound_check(c3)
        rows = [(bound, abs(x)) for bis, _, bound, x
                in polyhedron_mod._bisector_coords(c3) if bis == "B(R1)"]
        assert max(modulus for _, modulus in rows) == pytest.approx(3 ** 0.5)


def _end_line_changes():
    """Each single-index change of ``_ARC_LINES`` to an index not already in
    its column (16), and each column's lo/hi swap (4)."""
    base = polyhedron_mod._ARC_LINES
    for column, ends in enumerate(base):
        for k in (0, 1):
            for i in sorted({0, 1, 2, 3} - set(ends)):
                changed = list(ends)
                changed[k] = i
                yield base[:column] + (tuple(changed),) + base[column + 1:]
        yield base[:column] + (ends[::-1],) + base[column + 1:]


def _single_copy_fails(c) -> bool:
    """The bisector equations, or the side bounds where they apply, fail on c."""
    if not bisector_membership_check(c):
        return True
    return not pp_possible(c) and not side_bound_check(c)


class TestSides:
    def test_derived_rows_are_the_listed_ones(self):
        assert [(bis, row[2:]) for bis, row in polyhedron_mod._SIDES.items()] == list(
            SIDE_ROWS.items())

    def test_every_built_line_is_a_line(self, monkeypatch):
        # With one vertex on each line alone, a side keeps the lines the rule
        # does not leave out: exactly three are left out, the plain line one
        # of them, so every name the rule builds is one of LINE_LABELS.
        monkeypatch.setattr(polyhedron_mod, "VERTEX_LINES",
                            {label: (label, label) for label in LINE_LABELS})
        for bis, (_, _, bound, plain, kept) in polyhedron_mod._side_table(
                polyhedron_mod._ARC_LINES).items():
            off = set(LINE_LABELS) - set(kept)
            assert bound in kept and plain in off and len(off) == 3, bis

    def test_each_end_line_change_fails_a_check(self, monkeypatch):
        charts = [c for sig in catalog() for c in configurations_of(sig)]
        assert not any(map(_single_copy_fails, charts))
        caught = []
        for arc_lines in _end_line_changes():
            monkeypatch.setattr(polyhedron_mod, "_SIDES",
                                polyhedron_mod._side_table(arc_lines))
            caught.append(sum(map(_single_copy_fails, charts)))
        assert len(caught) == 20 and min(caught) > 0
        # The four swaps each fail on 35 of the 39 catalog charts.
        assert caught[4::5] == [35] * 4

    def test_members_are_the_vertices_on_the_side(self):
        # Evidence that does not read the rule: on the 21 charts of the
        # generic triples and (3,3,3) C3, a side's surviving vertices are
        # exactly the surviving vertices on its im-equation that in_D takes.
        charts = [c for triple in GENERIC for c in _configs(triple)]
        charts.append(_configs((3, 3, 3))[2])
        pairs = 0
        for c in charts:
            collapsed, angles = collapsed_vertices(c), polyhedron_mod._arc_angles(c)
            verts = (vertices_t(c), vertices_s(c))
            for bis, (column, end) in polyhedron_mod.BISECTOR_TABLE.items():
                chart, phase, coord, _ = polyhedron_mod.arc_side(
                    polyhedron_mod._ARCS, angles, column, end)
                on_side = {v for v in VERTEX_LINES if v not in collapsed
                           and abs((phase * verts[chart][v][coord - 1]).imag) <= 1e-9
                           and in_D(verts[0][v], c)}
                assert set(polyhedron_mod._SIDES[bis][4]) - collapsed == on_side, (c, bis)
                pairs += 1
        assert pairs == 176


class TestMembership:
    def test_origin_inside(self):
        _, _, c3 = _configs((4, 4, 6))
        assert in_D(np.array([0.0, 0.0, 1.0], dtype=complex), c3)

    def test_far_point_outside(self):
        _, _, c3 = _configs((4, 4, 6))
        h = hermitian_form(c3)
        pt = np.array([0.3 + 0.3j, 0.1, 1.0], dtype=complex)
        assert hermitian_eval(h, pt) > 0
        assert not in_D(pt, c3)

    def test_pp_possible_generic(self):
        for c in _configs((4, 4, 6)):
            assert pp_possible(c) == []

    def test_pp_possible_kneg(self):
        c1, c2, c3 = _configs((6, 6, 3))
        assert pp_possible(c2) == ["sin(phi)"]


class TestSampledEquivalences:
    @pytest.mark.parametrize("triple2", [(4, 4, 6), (3, 3, 4), (4, 4, 5)])
    def test_eight_bullets_at_c3(self, triple2):
        _, _, c3 = _configs(triple2)
        report = bisector_equivalence_sample(c3, n_samples=300, seed=7)
        assert report.all_agree
        assert min(report.samples_used) == 300

    def test_deterministic(self):
        _, _, c3 = _configs((4, 4, 6))
        a = bisector_equivalence_sample(c3, n_samples=100, seed=3)
        b = bisector_equivalence_sample(c3, n_samples=100, seed=3)
        assert a == b

    def test_kneg_rejected(self):
        _, c2, _ = _configs((6, 6, 3))
        with pytest.raises(PreconditionFailed):
            bisector_equivalence_sample(c2, n_samples=10)

    def test_moved_arc_end_fails_both_checks(self, monkeypatch):
        # The bullets and the bisector phases are read from _ARCS: t2's end
        # theta swapped for phi'' must break both checks. On C3, theta'' =
        # theta and phi'' = phi always, and theta = phi when p = k, so the
        # triple has p != k: on (4,4,5) the swap would change nothing.
        _, _, c3 = _configs((2, 4, 3))
        assert bisector_equivalence_sample(c3, n_samples=300).all_agree
        assert bisector_membership_check(c3)
        arcs = list(polyhedron_mod._ARCS)
        arcs[1] = (0, "phi''")
        monkeypatch.setattr(polyhedron_mod, "_ARCS", tuple(arcs))
        polyhedron_mod._bullet_table.cache_clear()
        try:
            report = bisector_equivalence_sample(c3, n_samples=300)
        finally:
            polyhedron_mod._bullet_table.cache_clear()
        assert min(report.per_bullet_agreement) < 1.0
        assert not bisector_membership_check(c3)
