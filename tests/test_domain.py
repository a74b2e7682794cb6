"""The glued domain: frame diagram, side pairings, vertices, membership."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import dmlat.domain as domain_mod
from dmlat.arithmetic import exp_i_pi, hermitian_eval, projective_equal, sin_pi
from dmlat.catalog import LatticeSignature
from dmlat.cli import main
from dmlat.domain import (
    VERTEX_D_LABELS,
    bisD_check,
    boundary_null_vertices,
    build_domain,
    glueing_check,
    in_D_union,
    kneg_collapsed_vertex,
    kneg_form,
    samelines_check,
    side_pairings,
    vertices_D,
)
from dmlat.moves import (
    ConfiguredMap,
    check_isometry,
    configurations_of,
    hermitian_form,
    move_R2,
)
from dmlat.polyhedron import PreconditionFailed, _normal_at, _unit_negative
from dmlat.sampling import ball_draws, bullet_agreement
from dmlat.verification import _pairing_words

KNEG_TRIPLES = {(6, 6, 3), (10, 10, 5), (12, 12, 6), (18, 18, 9),
                (4, 4, 3), (3, 3, 3)}
GENERIC_TRIPLES = [(4, 4, 5), (4, 4, 6)]


class TestBuildDomain:
    def test_diagram_commutes(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        assert dom.diagram_ok

    def test_kneg_flag(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        assert dom.kneg_flag == (triple in KNEG_TRIPLES)


class TestBuiltOnce:
    def test_same_objects(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        assert build_domain(LatticeSignature(*triple)) is dom
        assert side_pairings(dom) is side_pairings(dom)
        assert vertices_D(dom) is vertices_D(dom)
        assert _pairing_words(dom) is _pairing_words(dom)
        assert dom.w_of_z is dom.w_of_z

    def test_shared_arrays_read_only(self):
        dom = build_domain(LatticeSignature(4, 4, 6))
        shared = {"x_of_z": dom.x_of_z, "y_of_z": dom.y_of_z,
                  "w_of_z": dom.w_of_z, "u_of_z": dom.u_of_z,
                  "v_of_z": dom.v_of_z, **_pairing_words(dom),
                  **vertices_D(dom).coords}
        assert len(shared) == 5 + 14 + 24
        for name, m in shared.items():
            assert not m.flags.writeable, name
            with pytest.raises(ValueError):
                m[0] = 0.0

    def test_chart_maps(self):
        dom = build_domain(LatticeSignature(4, 4, 6))
        eye = np.eye(3)
        assert projective_equal(dom.w_of_z @ side_pairings(dom).Q.matrix, eye)
        assert projective_equal(move_R2(dom.c2).matrix @ dom.y_of_z, eye)
        assert projective_equal(dom.v_of_z, dom.y_of_z)
        assert projective_equal(dom.u_of_z, dom.x_of_z @ dom.w_of_z)

    def test_check_all_builds_each_domain_once(self, monkeypatch, capsys):
        calls = []

        def counted(sig):
            calls.append(sig)
            return configurations_of(sig)

        monkeypatch.setattr(domain_mod, "configurations_of", counted)
        build_domain.cache_clear()
        try:
            assert main(["--json", "check", "--all"]) == 0
        finally:
            build_domain.cache_clear()
        assert len(calls) == len(set(calls)) == 13
        assert capsys.readouterr().out.count("\n") == 13


class TestSidePairings:
    def test_factorizations(self, triple):
        assert side_pairings(build_domain(LatticeSignature(*triple))).factorizations_ok

    def test_all_are_isometries(self, triple):
        sp = side_pairings(build_domain(LatticeSignature(*triple)))
        for name, m in sp.as_dict().items():
            assert check_isometry(m), (triple, name)

    def test_r1_prime_matrix(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        sp = side_pairings(dom)
        t = dom.params.theta
        expected = np.diag([1.0, exp_i_pi(2 * t), 1.0])
        assert projective_equal(sp.R1.matrix, expected)

    def test_inverted_k_fails_at_infinite_k_prime(self, monkeypatch):
        # At (3,3,3) k' is infinite. K^-1 in place of K satisfies every
        # exchange relation, so only the C1-chart check K = J R1 sees it.
        dom = build_domain(LatticeSignature(3, 3, 3))
        sp = side_pairings(dom)
        wrong = np.linalg.inv(sp.K.matrix @ sp.Q.matrix)  # Q A1 becomes K^-1
        monkeypatch.setattr(domain_mod, "move_A1",
                            lambda c: ConfiguredMap(wrong, c, c, "A1"))
        broken = side_pairings.__wrapped__(dom)
        assert projective_equal(broken.K.matrix, np.linalg.inv(sp.K.matrix))
        assert not broken.factorizations_ok

    def test_braid_style_identities(self, triple):
        sp = side_pairings(build_domain(LatticeSignature(*triple)))
        k, r1, r2, a0, r0 = (sp.K.matrix, sp.R1.matrix, sp.R2.matrix,
                             sp.A0.matrix, sp.R0.matrix)
        assert projective_equal(r2 @ k, k @ r1)
        assert projective_equal(a0, np.linalg.inv(k @ k))
        assert projective_equal(np.linalg.inv(r0) @ a0 @ r0, a0)


class TestVerticesD:
    def test_24_labels(self):
        assert len(VERTEX_D_LABELS) == 24

    def test_argument_table(self, triple):
        vd = vertices_D(build_domain(LatticeSignature(*triple)))
        assert vd.table_ok, (triple, vd.failures)

    def test_v1_is_origin(self):
        vd = vertices_D(build_domain(LatticeSignature(4, 4, 6)))
        v1 = vd.coords["v1"]
        assert np.allclose(v1 / v1[2], [0.0, 0.0, 1.0])

    def test_no_collapse_generic(self):
        for trip in GENERIC_TRIPLES:
            vd = vertices_D(build_domain(LatticeSignature(*trip)))
            assert vd.collapsed == frozenset()

    def test_collapse_degenerate(self):
        assert len(vertices_D(build_domain(LatticeSignature(3, 3, 4))).collapsed) > 0


class TestMembership:
    @pytest.mark.parametrize("trip", GENERIC_TRIPLES)
    def test_vertices_inside(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        vd = vertices_D(dom)
        for label, v in vd.coords.items():
            if label in vd.collapsed:
                continue
            assert in_D_union(v, dom), (trip, label)

    def test_origin_inside(self):
        dom = build_domain(LatticeSignature(4, 4, 6))
        assert in_D_union(np.array([0, 0, 1], dtype=complex), dom)

    def test_image_vertex_outside(self):
        dom = build_domain(LatticeSignature(4, 4, 6))
        v5 = vertices_D(dom).coords["v5"]
        assert not in_D_union(side_pairings(dom).R1.matrix @ v5, dom)

    def test_rejected_when_c2_singular(self):
        dom = build_domain(LatticeSignature(3, 3, 3))
        with pytest.raises(PreconditionFailed):
            in_D_union(np.array([0, 0, 1], dtype=complex), dom)


class TestSampledChecks:
    @pytest.mark.parametrize("trip", GENERIC_TRIPLES)
    def test_glueing(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        assert glueing_check(dom, n_samples=100, seed=7)

    @pytest.mark.parametrize("trip", GENERIC_TRIPLES)
    def test_samelines(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        assert samelines_check(dom, n_samples=50, seed=7)

    @pytest.mark.parametrize("trip", GENERIC_TRIPLES + [(3, 3, 4)])
    def test_bisD(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        report = bisD_check(dom, n_samples=300, seed=7)
        assert report.all_agree
        assert min(report.samples_used) == 300

    def test_scrambled_pairing_breaks_agreement(self):
        # Replace one transported normal of the bullet table with a nearby
        # wrong one and check that the sampled agreement visibly collapses
        # below 100%, while the table's own bullet agrees on every draw.
        dom = build_domain(LatticeSignature(4, 4, 6))
        h = hermitian_form(dom.c3)
        bullet = domain_mod._bisd_bullets(dom)[2]
        bad_mat = side_pairings(dom).R1.matrix @ np.array(
            [[1.0, 0.15, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            dtype=complex)
        n_mapped = _unit_negative(bad_mat @ _normal_at(dom.c3, "L_*3"), h,
                                  "L_*3")
        bad = dataclasses.replace(bullet, mapped=n_mapped.conj() @ h.matrix)
        draws = ball_draws(h, dom.radius, 7, 200 * 200,
                           (dom.w_of_z, dom.y_of_z))
        (good, scrambled), used, _ = bullet_agreement(draws, (bullet, bad),
                                                      200, 1e-8)
        assert used == (200, 200)
        assert good == 1.0
        assert scrambled < 1.0


class TestKnegForms:
    def test_kneg_signature(self):
        _, c2, _ = configurations_of(LatticeSignature(6, 6, 3))
        h = kneg_form(c2)
        from dmlat.arithmetic import signature
        assert signature(h) == (1, 2, 0)

    def test_generic_rejected(self):
        _, c2, _ = configurations_of(LatticeSignature(4, 4, 6))
        with pytest.raises(PreconditionFailed):
            kneg_form(c2)

    def test_collapsed_vertex_null_at_infinite_k_prime(self):
        dom = build_domain(LatticeSignature(3, 3, 3))
        v = kneg_collapsed_vertex(dom)
        h = hermitian_form(dom.c3)
        assert abs(hermitian_eval(h, v)) < 1e-9 * np.max(np.abs(v)) ** 2

    def test_collapsed_vertex_positive_at_negative_k_prime(self):
        dom = build_domain(LatticeSignature(6, 6, 3))
        v = kneg_collapsed_vertex(dom)
        h = hermitian_form(dom.c3)
        assert hermitian_eval(h, v) > 1e-9

    def test_collapsed_vertex_rejected_generic(self):
        dom = build_domain(LatticeSignature(4, 4, 6))
        with pytest.raises(PreconditionFailed):
            kneg_collapsed_vertex(dom)


class TestBoundaryVertices:
    def test_all_null(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        h3 = hermitian_form(dom.c3)
        for param, vecs in boundary_null_vertices(dom).items():
            for v in vecs:
                scale = np.max(np.abs(v)) ** 2
                assert abs(hermitian_eval(h3, v)) < 1e-9 * scale, (triple, param)

    def test_expected_parameters(self):
        dom = build_domain(LatticeSignature(2, 6, 6))
        assert set(boundary_null_vertices(dom)) == {"l"}
        dom = build_domain(LatticeSignature(3, 3, 3))
        assert "k'" in set(boundary_null_vertices(dom))
