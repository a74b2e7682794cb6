"""Lines, vertices, incidences and sampled half-space equivalences."""

from __future__ import annotations

import numpy as np
import pytest

import dmlat.polyhedron as polyhedron_mod
from dmlat.arithmetic import hermitian_eval
from dmlat.catalog import LatticeSignature
from dmlat.moves import (
    DegenerateDenominator,
    configurations_of,
    hermitian_form,
    p_inverse_target,
)
from dmlat.polyhedron import (
    LINE_LABELS,
    VERTEX_LINES,
    PreconditionFailed,
    SingularSystem,
    bisector_equivalence_sample,
    bisector_membership_check,
    check_incidence,
    check_s_consistency,
    collapse_status,
    in_D,
    line_normal,
    lines_s,
    lines_t,
    pp_possible,
    side_bound_check,
    to_s_frame,
    vertices_s,
    vertices_t,
)


def _configs(triple):
    return configurations_of(LatticeSignature(*triple))


class TestLines:
    def test_labels(self):
        assert {"L_*0", "L_*1", "L_*2", "L_*3"} <= set(LINE_LABELS)

    def test_vertices_lie_on_their_lines(self, triple):
        for c in _configs(triple):
            lines = lines_t(c)
            verts = vertices_t(c)
            for name, v in verts.items():
                if not np.all(np.isfinite(v)):
                    continue
                for lab in VERTEX_LINES[name]:
                    assert abs(lines[lab].vector @ v) < 1e-10

    def test_normal_is_orthogonal(self, triple):
        # Every vertex is orthogonal to the polars of its two lines, in both
        # frames of every chart whose area form is nonsingular.
        checked = 0
        for c in _configs(triple):
            for frame, at, lines_of, verts_of in (
                    ("t", c, lines_t, vertices_t),
                    ("s", p_inverse_target(c), lines_s, vertices_s)):
                try:
                    h, lines, verts = hermitian_form(at), lines_of(c), verts_of(c)
                except DegenerateDenominator:
                    continue
                if not np.all(h.matrix.diagonal()):
                    with pytest.raises(SingularSystem):
                        line_normal(lines["L_*0"], h)
                    continue
                for name, v in verts.items():
                    if not np.all(np.isfinite(v)):
                        continue
                    for lab in VERTEX_LINES[name]:
                        n = line_normal(lines[lab], h)
                        scale = np.abs(n) @ np.abs(h.matrix) @ np.abs(v)
                        assert abs(h.inner(v, n)) <= 1e-12 * scale, (
                            c.type_tag, frame, name, lab)
                        checked += 1
        assert checked > 0


class TestIncidence:
    def test_t_frame(self, triple):
        for c in _configs(triple):
            assert check_incidence(c)

    def test_s_frame_consistency(self, triple):
        for c in _configs(triple):
            try:
                ok = check_s_consistency(c)
            except DegenerateDenominator:
                continue
            if triple == (3, 3, 3) and c.type_tag.startswith("C2"):
                # The C2 chart is exactly singular at infinite k'.
                continue
            assert ok, (triple, c.type_tag)

    def test_bisector_membership(self, triple):
        for c in _configs(triple):
            assert bisector_membership_check(c)

    def test_side_bounds_generic(self):
        for triple in ((4, 4, 5), (4, 4, 6), (3, 3, 4), (2, 6, 6), (3, 4, 4)):
            for c in _configs(triple):
                assert side_bound_check(c), (triple, c.type_tag)

    def test_side_bounds_need_positive_sines(self):
        for c in _configs((6, 6, 3)):
            with pytest.raises(PreconditionFailed):
                side_bound_check(c)


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

    def test_collapse_status(self):
        _, _, c3 = _configs((3, 3, 4))
        status = collapse_status(c3)
        assert status["L_*0"] is True  # 1 - alpha - theta <= 0 here
        _, _, c3g = _configs((4, 4, 6))
        assert not any(collapse_status(c3g).values())

    def test_pp_possible_generic(self):
        for c in _configs((4, 4, 6)):
            assert pp_possible(c) == []

    def test_pp_possible_kneg(self):
        c1, c2, c3 = _configs((6, 6, 3))
        assert pp_possible(c2) == ["sin(phi)"]


class TestFrames:
    def test_s_vertices_match_transformed_t(self, triple):
        if triple == (3, 3, 3):
            pytest.skip("C2 chart singular at infinite k'")
        for c in _configs(triple):
            vt = vertices_t(c)
            vs = vertices_s(c)
            for name in vt:
                v = vt[name]
                if not np.all(np.isfinite(v)) or not np.all(np.isfinite(vs[name])):
                    continue
                img = to_s_frame(v, c)
                assert np.max(np.abs(img - vs[name])) < 1e-8, (triple, name)


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
