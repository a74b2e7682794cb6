"""The glued domain: frame diagram, side pairings, vertices, membership."""

from __future__ import annotations

import json
import math
from itertools import chain, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import dmlat.domain as domain_mod
import dmlat.sampling as sampling_mod
import dmlat.verification as verification_mod
from dmlat.arithmetic import (
    MEMBERSHIP_TOL, ZERO_COORD_TOL,
    exp_i_pi,
    hermitian_eval,
    no_finite_point,
    projective_equal,
    projective_scale,
)
from dmlat.catalog import LatticeSignature, derive_params
from dmlat.cli import main
from dmlat.domain import (
    DomainD,
    DomainVertexTable,
    SidePairingSet,
    _pairing_words,
    _word,
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
    DegenerateDenominator,
    SingularMatrix,
    check_isometry,
    configurations_of,
    hermitian_form,
    inverse,
    move_A1,
    move_P_inverse,
    move_R1,
    move_R2,
)
from dmlat.polyhedron import (
    _ARCS,
    PointAtInfinity,
    PreconditionFailed,
    _arc_angles,
    _normal_at,
    _polar_row,
    arc_radians,
    in_D,
    lines_s,
    lines_t,
    vertices_s,
    vertices_t,
)
from dmlat.sampling import Bullet, ball_draws, bullet_agreement, fill_uniform
from dmlat.verification import tessellation_sign_table
from test_moves import K_PRIME_INFINITE
from test_polyhedron import drop_line

KNEG_TRIPLES = {(6, 6, 3), (10, 10, 5), (12, 12, 6), (18, 18, 9),
                (4, 4, 3), (3, 3, 3)}
GENERIC_TRIPLES = [(4, 4, 5), (4, 4, 6)]

# Every triple of [2,39]^3 whose derived orders are integers (the keys of the
# Euler sweep golden), keyed "p,k,p'": the vertex table's sorted collapsed
# labels, failures, verdict and notes, or the name of the exception raised.
VERTEX_SWEEP = json.loads(
    (Path(__file__).parent / "data" / "vertex_sweep.json").read_text())


class TestBuildDomain:
    def test_diagram_commutes(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        assert dom.diagram_ok

    def test_kneg_flag(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        assert dom.kneg_flag == (triple in KNEG_TRIPLES)

    @pytest.mark.parametrize("trip", [(4, 4, 4), (6, 3, 4)], ids=str)
    def test_singular_y_chart_is_typed(self, trip):
        # move_R2(C2) has no inverse on these non-catalog triples, as on every
        # k' = inf one: the domain is built, and only y_of_z is refused,
        # with the chart named.
        dom = build_domain(LatticeSignature(*trip))
        with pytest.raises(SingularMatrix, match=rf"^map R2 at \({dom.c2.alpha}, 3/4, 1/2, 0\)"):
            dom.y_of_z


class TestBuiltOnce:
    def test_same_objects(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        assert build_domain(LatticeSignature(*triple)) is dom
        assert side_pairings(dom) is side_pairings(dom)
        assert vertices_D(dom) is vertices_D(dom)
        assert _pairing_words(dom) is _pairing_words(dom)
        assert dom.w_of_z is dom.w_of_z
        for c in (dom.c1, dom.c2, dom.c3):
            assert lines_t(c) is lines_t(c)
            assert lines_s(c) is lines_s(c)
        if triple != (3, 3, 3):  # v_of_z has a zero denominator there
            assert domain_mod._glueing_forms(dom) is domain_mod._glueing_forms(dom)

    def test_compared_by_identity(self):
        # A domain and what is built on it hold arrays or a dict: == is
        # identity, and the hash is the object's own, never a field's.
        dom = build_domain(LatticeSignature(4, 4, 6))
        pairs, k, table = side_pairings(dom), side_pairings(dom).K, vertices_D(dom)
        for built, copy in (
                (dom, DomainD(dom.signature, dom.params, dom.c1, dom.c2, dom.c3)),
                (pairs, SidePairingSet(*pairs.as_dict().values(), pairs.factorizations_ok)),
                (k, ConfiguredMap(k.matrix, k.source, k.target, k.label)),
                (table, DomainVertexTable(table.coords, table.collapsed, table.failures,
                                          table.notes))):
            assert built == built and not built != built
            assert copy != built and not copy == built
            assert hash(built) == object.__hash__(built)

    def test_shared_arrays_read_only(self):
        dom = build_domain(LatticeSignature(4, 4, 6))
        shared = {"x_of_z": dom.x_of_z, "y_of_z": dom.y_of_z,
                  "w_of_z": dom.w_of_z, "u_of_z": dom.u_of_z,
                  "v_of_z": dom.v_of_z, "z_of_x": dom.z_of_x,
                  "z_of_y": dom.z_of_y, **_pairing_words(dom),
                  **vertices_D(dom).coords}
        shared.update((f"glueing {i}", a) for i, a in enumerate(
            chain(*domain_mod._glueing_forms(dom))))
        for frame, table in (("t", lines_t(dom.c3)), ("s", lines_s(dom.c3))):
            shared.update((f"{frame} {label}", l) for label, l in table.items())
        assert len(shared) == 7 + 14 + 24 + 6 + 20
        for name, m in shared.items():
            assert not m.flags.writeable, name
            with pytest.raises(ValueError):
                m[0] = 0.0
        for table in (lines_t(dom.c3), lines_s(dom.c3)):
            with pytest.raises(TypeError):
                table["L_*0"] = table["L_*1"]

    def test_chart_maps_are_the_pairings_inverses(self, triple):
        # Each inverted chart map is the very array that side_pairings reads.
        dom = build_domain(LatticeSignature(*triple))
        assert dom.z_of_x is inverse(move_R1(dom.c3)).matrix
        if not dom.params.k_prime.is_infinite:
            assert dom.y_of_z is inverse(move_R2(dom.c2)).matrix

    def test_chart_maps(self):
        dom = build_domain(LatticeSignature(4, 4, 6))
        eye = np.eye(3)
        assert projective_equal(dom.w_of_z @ side_pairings(dom).Q.matrix, eye)
        assert projective_equal(move_R2(dom.c2).matrix @ dom.y_of_z, eye)
        assert dom.z_of_y is move_R2(dom.c2).matrix
        assert projective_equal(dom.z_of_x @ dom.x_of_z, eye)
        assert projective_equal(dom.v_of_z, dom.y_of_z)
        assert projective_equal(dom.u_of_z, dom.x_of_z @ dom.w_of_z)

    @pytest.mark.parametrize("check,count", [(glueing_check, 3),
                                             (samelines_check, 6)],
                             ids=["glueing", "samelines"])
    def test_no_verdict_is_cached(self, check, count):
        # Every call compares every identity: 3 pairs of forms, or 3 z-lines
        # each against a y- and an x-line.
        dom = build_domain(LatticeSignature(4, 4, 6))
        check(dom)
        with mock.patch.object(domain_mod, "projective_equal",
                               wraps=projective_equal) as compare:
            for calls in (count, 2 * count):
                assert check(dom)
                assert compare.call_count == calls

    def test_no_sample_is_cached(self):
        sig = LatticeSignature(4, 4, 6)
        with mock.patch.object(sampling_mod, "fill_uniform",
                               wraps=fill_uniform) as fill:
            first = tessellation_sign_table(sig, n_samples=20)
            drawn = fill.call_count
            assert drawn > 0
            assert tessellation_sign_table(sig, n_samples=20) == first
            assert fill.call_count == 2 * drawn

    def test_check_all_builds_each_domain_once(self, monkeypatch, capsys):
        # ... and derives each signature's params once: the domain and its
        # configurations read the same cached params.
        calls = []

        def counted(sig):
            calls.append(sig)
            return configurations_of(sig)

        monkeypatch.setattr(domain_mod, "configurations_of", counted)
        build_domain.cache_clear()
        derive_params.cache_clear()
        try:
            assert main(["--json", "check", "--all"]) == 0
        finally:
            build_domain.cache_clear()
        assert len(calls) == len(set(calls)) == 13
        assert derive_params.cache_info().misses == 13
        assert capsys.readouterr().out.count("\n") == 13


def _clear_domain_caches():
    """Forget every domain and everything built on one."""
    for module in (domain_mod, verification_mod):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


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

    def test_wrong_r2_fails_the_relation_rows(self, monkeypatch, capsys):
        # R'2 = R2(C2) R2(C3) with A1 slipped in at C3. side_pairings does
        # not compare R'2 with K R'1 K^-1; check does, in its relation rows.
        sig = LatticeSignature(4, 4, 6)
        c3 = build_domain(sig).c3

        def wrong_at_c3(c):
            m = move_R2(c)
            return (ConfiguredMap(m.matrix @ move_A1(c).matrix, c, m.target, m.label)
                    if c == c3 else m)

        monkeypatch.setattr(domain_mod, "move_R2", wrong_at_c3)
        _clear_domain_caches()
        try:
            code = main(["--json", "check", "4", "4", "6"])
            assert side_pairings(build_domain(sig)).factorizations_ok
        finally:
            _clear_domain_caches()
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = {c["name"] for c in checks if c["passed"] is False}
        assert code == 1
        assert {"relation R'2K = KR'1", "relation R'2^p"} <= failed
        assert all(name.startswith(("relation", "cycle")) for name in failed)

    def test_braid_style_identities(self, triple):
        sp = side_pairings(build_domain(LatticeSignature(*triple)))
        k, r1, r2, a0, r0 = (sp.K.matrix, sp.R1.matrix, sp.R2.matrix,
                             sp.A0.matrix, sp.R0.matrix)
        assert projective_equal(r2 @ k, k @ r1)
        assert projective_equal(a0, np.linalg.inv(k @ k))
        assert projective_equal(np.linalg.inv(r0) @ a0 @ r0, a0)


class TestVerticesD:
    def test_24_labels(self):
        assert len(vertices_D(build_domain(LatticeSignature(4, 4, 6))).coords) == 24

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

    def test_collapse_is_read_per_chart(self, monkeypatch):
        # On (2,6,6), d < 0 collapses L_*0 in every chart. With L_*0 left out
        # of the per-chart rule, the table keeps exactly the four vertices
        # that d's merged orbit row v(3,4,5,16) names.
        dom = build_domain(LatticeSignature(2, 6, 6))
        collapsed = domain_mod._collapsed_vertices(dom)
        drop_line(monkeypatch, domain_mod, "L_*0")
        assert collapsed - domain_mod._collapsed_vertices(dom) == {"v3", "v4", "v5", "v16"}

    def test_sweep(self):
        assert len(VERTEX_SWEEP) == 128
        got = {}
        for key in VERTEX_SWEEP:
            try:
                vd = vertices_D(build_domain(
                    LatticeSignature(*map(int, key.split(",")))))
            except Exception as exc:
                got[key] = type(exc).__name__
                continue
            got[key] = {"collapsed": sorted(vd.collapsed),
                        "failures": list(vd.failures),
                        "table_ok": vd.table_ok, "notes": list(vd.notes)}
        assert got == VERTEX_SWEEP

    def test_c2_only_vertices_skipped_at_infinite_k_prime(self):
        # v21-v24 have no alias in C3 or C1. At k' = inf only the singular
        # C2 chart places them, so their cells are skipped, and every table
        # holds.
        assert domain_mod._C2_ONLY == ("v21", "v22", "v23", "v24")
        for trip in K_PRIME_INFINITE:
            assert vertices_D(build_domain(LatticeSignature(*trip))).table_ok, trip

    @pytest.mark.parametrize("trip", [(2, 2, 3), (2, 2, 4)], ids=str)
    def test_zero_sine_denominator_is_typed(self, trip):
        # theta + phi = pi in every chart: sin((theta + phi) pi) = 0 divides
        # the line tables of both frames, and so their vertices, which refuse
        # with the moves' typed error.
        dom = build_domain(LatticeSignature(*trip))
        refusal = r"sin\(1\*pi\) = 0"
        with pytest.raises(DegenerateDenominator, match=refusal):
            vertices_D(dom)
        for c in (dom.c1, dom.c2, dom.c3):
            for vertices in (vertices_t, vertices_s):
                with pytest.raises(DegenerateDenominator, match=refusal):
                    vertices(c)

    @pytest.mark.parametrize("trip", [(3, 3, 3), (6, 6, 3)], ids=str)
    def test_modulo_pi_note_only_for_negative_k_prime(self, trip):
        # At k' = inf the y columns are skipped, so nothing is compared
        # modulo pi; at k' < 0 the y2 column is.
        dom = build_domain(LatticeSignature(*trip))
        assert ("k'-negative regime: y2 arguments compared modulo pi"
                in vertices_D(dom).notes) == dom.params.k_prime.is_negative


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

    def test_rejected_for_negative_k_prime(self):
        # phi' < 0 empties the y1 sector, so every vertex would read outside.
        dom = build_domain(LatticeSignature(6, 6, 3))
        assert dom.params.k_prime.is_negative
        with pytest.raises(PreconditionFailed, match="k' < 0"):
            in_D_union(vertices_D(dom).coords["v4"], dom)


def arg_in_reference(value: complex, lo: float, hi: float) -> bool:
    """The scalar argument-in-arc rule that ``in_arcs`` replaced: a value
    within ``ZERO_COORD_TOL`` of 0, or one whose ``math.atan2`` lies in the
    closed arc [lo - MEMBERSHIP_TOL, hi + MEMBERSHIP_TOL]."""
    if abs(value) <= ZERO_COORD_TOL:
        return True
    return lo - MEMBERSHIP_TOL <= math.atan2(value.imag, value.real) <= hi + MEMBERSHIP_TOL


def divided_charts(point, maps):
    """The point and its images under maps, each scaled to third coordinate 1;
    ``PointAtInfinity`` for one that has no finite point."""
    charts = [np.asarray(point, dtype=complex)]
    charts += [m @ charts[0] for m in maps]
    if any(no_finite_point(x) for x in charts):
        raise PointAtInfinity("no finite point")
    return [x / x[2] for x in charts]


def reference_in_D(point, c):
    charts = divided_charts(point, (move_P_inverse(c).matrix,))
    return all(arg_in_reference(x[i], lo, hi) for (lo, hi), (x, i) in zip(
        arc_radians(_ARCS, _arc_angles(c)), product(charts, (0, 1))))


def reference_in_D_union(point, dom):
    if dom.kneg_flag:
        raise PreconditionFailed("refused")
    charts = divided_charts(point, (dom.w_of_z, dom.y_of_z))
    return all(arg_in_reference(x[i], lo, hi) for (lo, hi), (x, i) in zip(
        dom.sectors, product(charts, (0, 1))))


def outcome(member, point, domain):
    """What member(point, domain) returns, or the type of what it raises."""
    try:
        return member(point, domain)
    except (PointAtInfinity, PreconditionFailed, DegenerateDenominator) as exc:
        return type(exc)


def arc_points(arcs, vertices, seed):
    """400 random points with arg z1 and arg z2 within 0.3 of their arcs,
    and |z1| and |z2| up to the largest finite vertex coordinate, then the
    vertices: inside and outside the arcs, and on their ends."""
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(np.array(arcs[:2]), axis=1).T[..., None]
    radius = max(np.max(np.abs(v[:2] / v[2])) for v in vertices
                 if np.all(np.isfinite(v)) and not no_finite_point(v))
    z = rng.uniform(0.0, radius, (2, 400)) * np.exp(
        1j * rng.uniform(lo - 0.3, hi + 0.3, (2, 400)))
    return [*np.vstack([z, np.ones(400)]).T, *vertices]


class TestOneArcRule:
    """``in_D`` and ``in_D_union`` read their arcs through ``in_arcs``, which
    reads arg(h_i conj(h_3)) in open arcs; on random points and on the
    vertices they agree with the scalar rule that divided each chart and
    read its arguments in closed arcs."""

    @pytest.mark.parametrize("chart", [0, 1, 2])
    def test_in_D_agrees_with_the_scalar_rule(self, triple, chart):
        c = configurations_of(LatticeSignature(*triple))[chart]
        try:
            arcs = arc_radians(_ARCS, _arc_angles(c))
        except DegenerateDenominator:  # (3,3,3) C1: in_D raises too
            arcs = ((-math.pi, math.pi),) * 2
        points = arc_points(arcs, list(vertices_t(c).values()), 1)
        got = [outcome(in_D, p, c) for p in points]
        assert got == [outcome(reference_in_D, p, c) for p in points]
        if triple not in KNEG_TRIPLES:
            assert {True, False} <= set(got)

    def test_in_D_union_agrees_with_the_scalar_rule(self, triple):
        dom = build_domain(LatticeSignature(*triple))
        points = arc_points(dom.sectors, list(vertices_D(dom).coords.values()), 2)
        got = [outcome(in_D_union, p, dom) for p in points]
        assert got == [outcome(reference_in_D_union, p, dom) for p in points]
        assert {True, False} <= set(got) or dom.kneg_flag

    def test_points_at_infinity_raise(self):
        # z3 = 0, and finite points whose image charts have third coordinate
        # 0: (-m_2, 0, m_0) for the third row m of a chart map.
        c3 = configurations_of(LatticeSignature(4, 4, 6))[2]
        dom = build_domain(LatticeSignature(4, 4, 6))
        at_infinity = np.array([0.3, 0.1, 0.0], dtype=complex)
        for member, domain, maps in ((in_D, c3, [move_P_inverse(c3).matrix]),
                                     (in_D_union, dom, [dom.w_of_z, dom.y_of_z])):
            with pytest.raises(PointAtInfinity, match="third z-coordinate|third t-coordinate"):
                member(at_infinity, domain)
            for m in maps:
                point = np.array([-m[2, 2], 0.0, m[2, 0]])
                assert not no_finite_point(point)
                with pytest.raises(PointAtInfinity, match="coordinate"):
                    member(point, domain)


class TestSampledChecks:
    @pytest.mark.parametrize("trip", GENERIC_TRIPLES)
    def test_glueing(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        assert glueing_check(dom, seed=7)

    @pytest.mark.parametrize("trip", GENERIC_TRIPLES)
    def test_samelines(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        assert samelines_check(dom, seed=7)

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
        mapped = _polar_row(bad_mat @ _normal_at(dom.c3, "L_*3"), h, "L_*3")
        bad = Bullet(bullet.chart, bullet.phase, bullet.coord, bullet.im_leq,
                     bullet.dist_chart, bullet.plain, mapped)
        draws = ball_draws(h, 7, 200, (dom.w_of_z, dom.y_of_z))
        report = bullet_agreement(draws, (bullet, bad), 200, 1e-8)
        good, scrambled = report.per_bullet_agreement
        assert report.samples_used == (200, 200)
        assert good == 1.0
        assert scrambled < 1.0

    def test_moved_sector_end_breaks_agreement(self, monkeypatch):
        # The bullets read their sides from _SECTORS: z2's arc moved from
        # (-theta, theta) to (0, theta) must break a bullet. The vertex table
        # would not see this, since its cells name angles, not arcs. On C3,
        # theta'' = theta and phi'' = phi always, and theta = phi when
        # p = k, so the triple has p != k, where a theta/phi mix-up shows.
        dom = build_domain(LatticeSignature(2, 4, 3))
        assert bisD_check(dom, n_samples=300, seed=7).all_agree
        sectors = list(domain_mod._SECTORS)
        sectors[1] = (0, "theta")
        monkeypatch.setattr(domain_mod, "_SECTORS", tuple(sectors))
        domain_mod._bisd_bullets.cache_clear()
        try:
            report = bisD_check(dom, n_samples=300, seed=7)
        finally:
            domain_mod._bisd_bullets.cache_clear()
        assert min(report.per_bullet_agreement) < 1.0

    def test_bullets_read_the_word_table(self, monkeypatch):
        # The transports are words on _pairing_words, the one table of
        # letters: R'1 swapped for its inverse there must reach the bullets.
        dom = build_domain(LatticeSignature(4, 4, 6))
        words = _pairing_words(dom)
        monkeypatch.setitem(words, "R'1", _word("R'1^-1", words))
        domain_mod._bisd_bullets.cache_clear()
        try:
            report = bisD_check(dom, n_samples=300, seed=7)
        finally:
            domain_mod._bisd_bullets.cache_clear()
        assert min(report.per_bullet_agreement) < 1.0


COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                             allow_infinity=False)
# The triples whose mutations of the exact identities are measured: theta
# is 1/4, 1/3 and 1/2.
MUTATED = [(4, 4, 5), (3, 3, 4), (2, 4, 3)]


def _glueing_mutant(monkeypatch, change):
    """Make ``glueing_check`` read the forms of ``_glueing_forms`` as
    ``change(dom, forms)`` returns them, forms a list of the three pairs."""
    forms_of = domain_mod._glueing_forms
    monkeypatch.setattr(domain_mod, "_glueing_forms",
                        lambda dom: change(dom, list(forms_of(dom))))


class TestExactIdentities:
    """The glueing and same-lines identities, compared as matrices."""

    def test_verdicts(self, triple):
        # In the catalog k' is infinite only on (3,3,3). There v_of_z has a
        # zero denominator, and move_R2(C2) is singular, so y_of_z raises:
        # samelines_check refuses it, as in_D_union does.
        dom = build_domain(LatticeSignature(*triple))
        if triple == (3, 3, 3):
            with pytest.raises(DegenerateDenominator):
                glueing_check(dom)
            with pytest.raises(PreconditionFailed, match="infinite k'"):
                samelines_check(dom)
        else:
            assert glueing_check(dom)
            assert samelines_check(dom)

    @pytest.mark.parametrize("trip", K_PRIME_INFINITE, ids=str)
    def test_no_verdict_at_infinite_k_prime(self, trip):
        # Every k' = inf triple gets a typed refusal, never a verdict.
        dom = build_domain(LatticeSignature(*trip))
        with pytest.raises((DegenerateDenominator, SingularMatrix)):
            glueing_check(dom)
        with pytest.raises(PreconditionFailed, match="infinite k'"):
            samelines_check(dom)

    @given(st.sampled_from(GENERIC_TRIPLES + MUTATED[1:]), COMPLEX, COMPLEX)
    def test_forms_are_the_sampled_quantities(self, trip, z1, z2):
        # Each side of an identity is Im(phase q_i / q_3) at the image q of
        # the point p = (z1, z2, 1) in its chart, as the sampled check read
        # it; its form must give |q_3|^2 times that value.
        dom = build_domain(LatticeSignature(*trip))
        phase = exp_i_pi(-dom.c3.theta)
        sides = [(np.eye(3), 1.0, 1), (dom.x_of_z, phase, 1),
                 (dom.u_of_z, phase, 1), (dom.w_of_z, 1.0, 1),
                 (dom.v_of_z, 1.0, 0), (dom.y_of_z, 1.0, 0)]
        forms = [a for pair in domain_mod._glueing_forms(dom) for a in pair]
        p = np.array([z1, z2, 1.0])
        for (m, ph, i), a in zip(sides, forms):
            q = m @ p
            assume(abs(q[2]) > 1e-3 * np.max(np.abs(q)))
            sampled = abs(q[2]) ** 2 * (ph * q[i] / q[2]).imag
            value = p.conj() @ a @ p
            bound = 1e-12 * (np.max(np.abs(m)) * np.max(np.abs(p))) ** 2
            assert abs(value.imag) <= bound
            assert abs(value.real - sampled) <= bound

    @pytest.mark.parametrize("trip", MUTATED, ids=str)
    def test_conjugated_phase_fails(self, trip, monkeypatch):
        # On (2,4,3), theta = 1/2: the conjugated phase negates the form,
        # which is then proportional, with a negative ratio.
        def conjugate(dom, forms):
            phase = exp_i_pi(dom.c3.theta)
            forms[0] = (forms[0][0], domain_mod._im_form(dom.x_of_z, phase, 1))
            return forms

        dom = build_domain(LatticeSignature(*trip))
        _glueing_mutant(monkeypatch, conjugate)
        (a, b), *_ = domain_mod._glueing_forms(dom)
        assert projective_equal(a, b) == (trip == (2, 4, 3))
        assert not glueing_check(dom)

    @pytest.mark.parametrize("trip", MUTATED, ids=str)
    def test_wrong_coordinate_fails(self, trip, monkeypatch):
        def first_coordinate(dom, forms):
            forms[1] = (forms[1][0], domain_mod._im_form(dom.w_of_z, 1.0, 0))
            return forms

        dom = build_domain(LatticeSignature(*trip))
        _glueing_mutant(monkeypatch, first_coordinate)
        assert not projective_equal(*domain_mod._glueing_forms(dom)[1])
        assert not glueing_check(dom)

    @pytest.mark.parametrize("trip", MUTATED, ids=str)
    def test_negated_side_fails(self, trip, monkeypatch):
        def negate(dom, forms):
            forms[2] = (forms[2][0], -forms[2][1])
            return forms

        dom = build_domain(LatticeSignature(*trip))
        _glueing_mutant(monkeypatch, negate)
        a, b = domain_mod._glueing_forms(dom)[2]
        assert projective_equal(a, b) and projective_scale(a, b).real < 0
        assert not glueing_check(dom)

    @pytest.mark.parametrize("trip", MUTATED, ids=str)
    def test_wrong_line_fails(self, trip, monkeypatch):
        # The y-line L_*2 in place of L_*3 in the second identity.
        dom = build_domain(LatticeSignature(*trip))
        lines = list(domain_mod._SAME_LINES)
        assert lines[1] == ("L_*3", "L_*3", "L_*2")
        lines[1] = ("L_*3", "L_*2", "L_*2")
        monkeypatch.setattr(domain_mod, "_SAME_LINES", tuple(lines))
        assert not samelines_check(dom)

    @pytest.mark.parametrize("trip", GENERIC_TRIPLES, ids=str)
    def test_no_draws(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        with mock.patch.object(np.random, "default_rng",
                               wraps=np.random.default_rng) as rng, \
                mock.patch.object(sampling_mod, "fill_uniform",
                                  wraps=fill_uniform) as fill:
            assert glueing_check(dom, seed=7)
            assert samelines_check(dom, seed=7)
        rng.assert_not_called()
        fill.assert_not_called()


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
