"""Sampled half-space checks: exact reports pinned, and the reduction's power.

Every sampler draws from one proposal: two arguments uniform in their arcs
and the two moduli uniform by area inside the ball, on the whole circle for
the bullet samplers and on D's z-sectors for the domain sampler of
``tessellate``. The reports were recorded with that stream. The tests show
that the proposal is uniform on ball and sectors, that it covers what a box
stream, drawn here with ``rng.uniform``, keeps in the ball, that one seed
gives one stream, and that the kept draws are points of the ball, or of D,
whose chart images are finite because every sampler chart is an isometry
onto a ball.
"""

from __future__ import annotations

import math
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import ALL_TRIPLES

import dmlat.polyhedron as polyhedron_mod
import dmlat.sampling as sampling_mod
import dmlat.verification as verification_mod
from dmlat.arithmetic import (
    hermitian_eval,
    no_finite_point,
    projective_equal,
    projective_scale,
)
from dmlat.catalog import LatticeSignature
from dmlat.domain import (
    _bisd_bullets,
    bisD_check,
    build_domain,
    glueing_check,
    in_D_union,
    samelines_check,
    vertices_D,
)
from dmlat.moves import (
    DegenerateDenominator,
    chart,
    configurations_of,
    hermitian_form,
    move_P_inverse,
)
from dmlat.polyhedron import (
    SingularSystem,
    _bullet_table,
    bisector_equivalence_sample,
    line_normal,
    pp_possible,
)
from dmlat.sampling import (
    BATCH,
    FULL_ARCS,
    affine_points,
    ball_batches,
    ball_bounds,
    ball_draws,
    ball_filter,
    fill_sectors,
    first_decisive,
)
from dmlat.verification import (
    _giraud_copies,
    _sample_domain_points,
    tessellation_sign_table,
)

GENERIC = [(4, 4, 5), (4, 4, 6), (3, 3, 4), (2, 6, 6), (2, 4, 3), (2, 3, 3),
           (3, 4, 4)]

# (triple, n, neutral) -> 8-bullet samples used and max near-zero discrepancy
# at seed 7. The wide neutral band makes the bullets skip draws and records
# a near-zero maximum.
EIGHT = {
    ((4, 4, 6), 1000, 1e-8): ((1000,) * 8, 0.0),
    ((3, 3, 4), 1000, 1e-8): ((1000,) * 8, 0.0),
    ((2, 4, 3), 1000, 1e-8): ((1000,) * 8, 0.0),
    ((4, 4, 6), 300, 0.05): ((300,) * 8, 0.3699012232061172),
    ((2, 4, 3), 300, 0.05): ((300,) * 8, 0.46497343176028894),
}

# The same for the 12 bullets of bisD_check.
TWELVE = {
    ((4, 4, 6), 1000, 1e-8): ((1000,) * 12, 0.0),
    ((3, 3, 4), 1000, 1e-8): ((1000,) * 12, 0.0),
    ((2, 4, 3), 1000, 1e-8): ((1000,) * 12, 0.0),
    ((4, 4, 6), 300, 0.05): ((300,) * 12, 3.4874455132126974),
    ((2, 4, 3), 300, 0.05): ((300,) * 12, 3.0586628139198933),
}

# (triple, ridge) -> (samples used, rows) at seed 7, 500 samples, on the
# sector stream. The (3,3,4) F(K,R'1) rows are a known finding: the
# Lagrangian sign rows test the wrong sectors there.
TESSELLATION = {
    ((4, 4, 6), "F(K,R'1)"): (500, (("id", 1.0), ("R'1^-1", 1.0),
                                    ("K^-1", 1.0), ("R'1^-1K^-1", 1.0))),
    ((4, 4, 6), "F(K,K^-1)"): (500, (("id", 1.0), ("K", 1.0),
                                     ("K^-1", 1.0))),
    ((3, 3, 4), "F(K,R'1)"): (500, (("id", 1.0), ("R'1^-1", 0.896),
                                    ("K^-1", 1.0), ("R'1^-1K^-1", 0.8015))),
}


class TestGoldenReports:
    @pytest.mark.parametrize("key", list(EIGHT), ids=str)
    def test_eight_bullets(self, key):
        trip, n, neutral = key
        c3 = configurations_of(LatticeSignature(*trip))[2]
        report = bisector_equivalence_sample(c3, n_samples=n, seed=7,
                                             neutral=neutral)
        used, near = EIGHT[key]
        assert report.samples_used == used
        assert report.per_bullet_agreement == (1.0,) * 8
        assert report.max_near_zero_discrepancy == pytest.approx(near,
                                                                 rel=1e-9)

    @pytest.mark.parametrize("key", list(TWELVE), ids=str)
    def test_twelve_bullets(self, key):
        trip, n, neutral = key
        report = bisD_check(build_domain(LatticeSignature(*trip)), n_samples=n,
                            seed=7, neutral=neutral)
        used, near = TWELVE[key]
        assert report.samples_used == used
        assert report.per_bullet_agreement == (1.0,) * 12
        assert report.max_near_zero_discrepancy == pytest.approx(near,
                                                                 rel=1e-9)

    @pytest.mark.parametrize("key", list(TESSELLATION), ids=str)
    def test_sign_table(self, key):
        trip, ridge = key
        report = tessellation_sign_table(LatticeSignature(*trip), ridge,
                                         n_samples=500, seed=7)
        assert (report.samples_used, report.rows) == TESSELLATION[key]

    @pytest.mark.parametrize("trip", GENERIC)
    def test_glueing_and_samelines(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        assert glueing_check(dom, seed=7)
        assert samelines_check(dom, seed=7)


@pytest.mark.parametrize("trip", GENERIC)
def test_domain_points_are_members(trip):
    # The domain sampler and in_D_union both read DomainD.sectors.
    dom = build_domain(LatticeSignature(*trip))
    points = _sample_domain_points(dom, 500, 7)
    assert points.shape == (3, 500)
    assert np.all(hermitian_eval(hermitian_form(dom.c3), points) > 0)
    assert all(in_D_union(z, dom) for z in points.T)


def divided_rule_points(dom, n, seed):
    """The points of ``_sample_domain_points`` by the rule that divides: on
    the same batches, the draws whose z arguments lie in their arcs, then
    ``np.angle`` of the w and y coordinates of their images scaled to third
    coordinate 1."""
    def inside(args, arcs):
        return np.logical_and.reduce([(arg > lo) & (arg < hi)
                                      for arg, (lo, hi) in zip(args, arcs)])

    points, count = [], 0
    for r in ball_batches(hermitian_form(dom.c3), dom.sectors[:2], seed, n):
        keep = inside((np.arctan2(r[1], r[0]), np.arctan2(r[3], r[2])),
                      dom.sectors[:2])
        z = affine_points(r[:, keep])
        w, y = dom.w_of_z @ z, dom.y_of_z @ z
        keep = inside(np.angle([w[0] / w[2], w[1] / w[2], y[0] / y[2],
                                y[1] / y[2]]), dom.sectors[2:])
        points.append(z[:, keep])
        count += points[-1].shape[1]
        if count >= n:
            break
    return np.hstack(points)[:, :n]


@pytest.mark.parametrize("seed", [7, 11, 3000017, 3003000894])
@pytest.mark.parametrize("trip", GENERIC, ids=str)
def test_arc_rule_keeps_the_divided_rules_points(trip, seed):
    # The domain sampler reads arg(h_i conj(h_3)) of the homogeneous images
    # h instead of dividing them; it keeps the same draws, in order.
    dom = build_domain(LatticeSignature(*trip))
    points = _sample_domain_points(dom, 500, seed)
    assert points.shape == (3, 500)
    assert np.array_equal(points, divided_rule_points(dom, 500, seed))


@pytest.mark.parametrize("seed", [7, 11, 3000017])
@pytest.mark.parametrize("trip", [(2, 4, 3), (2, 3, 3), (3, 4, 4)], ids=str)
def test_giraud_reaches_its_count(trip, seed):
    # The box stream stopped short of 500 points on (2,4,3) and (2,3,3) at
    # every seed, and on (3,4,4) at seed 3000017.
    report = tessellation_sign_table(LatticeSignature(*trip), "F(K,K^-1)",
                                     n_samples=500, seed=seed)
    assert report.samples_used == report.samples_requested == 500
    assert report.all_match


class TestTablesBuiltOnce:
    def test_second_call_solves_no_line_normal(self, monkeypatch):
        sig = LatticeSignature(4, 4, 5)
        c3 = configurations_of(sig)[2]
        dom = build_domain(sig)
        bisector_equivalence_sample(c3, n_samples=50)
        bisD_check(dom, n_samples=50)
        calls = []
        monkeypatch.setattr(polyhedron_mod, "line_normal",
                            lambda *args: calls.append(args) or line_normal(*args))
        bisector_equivalence_sample(c3, n_samples=50)
        bisD_check(dom, n_samples=50)
        assert calls == []
        # The patch is seen: building the eight bullets afresh solves 16.
        _bullet_table.__wrapped__(c3)
        assert len(calls) == 16

    def test_tables_shared_and_read_only(self):
        sig = LatticeSignature(4, 4, 6)
        c3 = configurations_of(sig)[2]
        dom = build_domain(sig)
        for build, arg in ((_bullet_table, c3), (_bisd_bullets, dom),
                           (_giraud_copies, dom)):
            assert build(arg) is build(arg), build.__name__
        bullets = _bullet_table(c3) + _bisd_bullets(dom)
        assert len(bullets) == 8 + 12
        arrays = [row for b in bullets for row in (b.plain, b.mapped)]
        for _, m, own, others in _giraud_copies(dom):
            arrays += [m, own, *others]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_null_normal_raises_on_every_call(self):
        # A failed build is not cached: each call raises again. On (3,4,4)
        # only the 8-bullet table meets a null polar.
        for trip, label, twelve in (((2, 6, 6), "L_\\*1", True),
                                    ((2, 3, 3), "L_\\*1", True),
                                    ((3, 4, 4), "L_\\*2", False)):
            sig = LatticeSignature(*trip)
            match = f"{label} is a null vector"
            for _ in range(2):
                with pytest.raises(SingularSystem, match=match):
                    bisector_equivalence_sample(configurations_of(sig)[2])
                if twelve:
                    with pytest.raises(SingularSystem, match=match):
                        bisD_check(build_domain(sig))

    def test_singular_form_raises_singular_system(self):
        # The (3,3,3) C2 chart has a singular area form, so its lines have
        # no polar; bisD_check refuses (3,3,3) before it gets there.
        with pytest.raises(SingularSystem, match="singular area form for L_\\*3"):
            _bisd_bullets.__wrapped__(build_domain(LatticeSignature(3, 3, 3)))


class TestReductionCanFail:
    def test_lagrangian_rows_below_one_on_334(self):
        # A known finding: two sign rows of F(K,R'1) disagree on (3,3,4).
        report = tessellation_sign_table(LatticeSignature(3, 3, 4),
                                         "F(K,R'1)", n_samples=500, seed=7)
        rows = dict(report.rows)
        assert rows["R'1^-1"] < 1.0 and rows["R'1^-1K^-1"] < 1.0
        assert not report.all_match

    @pytest.mark.parametrize("trip", [(4, 4, 5), (4, 4, 6), (3, 3, 4)])
    def test_unconjugated_polar_breaks_agreement(self, trip, monkeypatch):
        # The polar of l^T x = 0 is H^-1 conj(l). H^-1 l is not orthogonal
        # to the line, and the first bullet then never agrees.
        monkeypatch.setattr(polyhedron_mod, "line_normal",
                            lambda l, h, label: l / h)
        _bullet_table.cache_clear()
        try:
            report = bisector_equivalence_sample(
                configurations_of(LatticeSignature(*trip))[2], n_samples=200)
        finally:
            _bullet_table.cache_clear()
        assert report.per_bullet_agreement[0] == 0.0

    def test_flipped_sign_gives_zero_agreement(self):
        rng = np.random.default_rng(1)
        im = rng.uniform(0.1, 1.0, (2, 50)) * rng.choice([-1.0, 1.0], (2, 50))
        dist = im.copy()
        dist[1] = -dist[1]
        used, agree, near = first_decisive(im, dist, 1e-8, np.array([50, 50]))
        assert list(used) == [50, 50]
        assert list(agree) == [50, 0]
        assert near == 0.0

    def test_neutral_draws_skipped_and_recorded(self):
        im = np.array([[0.5, 1e-9, -0.3, 0.2, 0.4]])
        dist = np.array([[0.7, 0.25, -0.1, 2e-9, 0.9]])
        used, agree, near = first_decisive(im, dist, 1e-8, np.array([2]))
        # Draws 1 and 3 are neutral; the second decisive draw (2) stops the
        # bullet, so draw 3 is never looked at and draw 4 is not used.
        assert (list(used), list(agree)) == ([2], [2])
        assert near == 0.25
        used, agree, near = first_decisive(im, dist, 1e-8, np.array([5]))
        assert (list(used), list(agree), near) == ([3], [3], 0.25)
        # A wider band makes draw 2 neutral too; decisive draws 0 and 4 never
        # count towards the near-zero maximum.
        used, agree, near = first_decisive(im, dist, 0.3, np.array([5]))
        assert (list(used), list(agree), near) == ([2], [2], 0.3)


class TestSamplesRequested:
    """Each report carries the count asked for next to the count used. With
    the one draw cap cut to a single batch, every sampler stops short of it
    on (2,4,3) at seed 7, and the report fails although every sample used
    agrees. Nearly every draw of the batch lands in the ball, so the bullet
    samplers fall short through the neutral band of the goldens, 0.05, which
    skips draws; the domain sampler keeps about 1 draw in 9 there."""

    SIG = LatticeSignature(2, 4, 3)

    @pytest.fixture(autouse=True)
    def one_batch(self, monkeypatch):
        monkeypatch.setattr(sampling_mod, "DRAWS_PER_SAMPLE", 1)

    def test_eight_bullets(self):
        report = bisector_equivalence_sample(configurations_of(self.SIG)[2],
                                             n_samples=1000, seed=7,
                                             neutral=0.05)
        assert report.samples_requested == 1000
        assert report.samples_used == (978, 953, 968, 960, 916, 910, 931, 995)
        assert report.per_bullet_agreement == (1.0,) * 8
        assert not report.all_agree

    def test_twelve_bullets(self):
        report = bisD_check(build_domain(self.SIG), n_samples=1000, seed=7,
                            neutral=0.05)
        assert report.samples_requested == 1000
        assert report.samples_used == (978, 968, 910, 910, 1000, 821, 897, 831,
                                       953, 960, 878, 878)
        assert report.per_bullet_agreement == (1.0,) * 12
        assert not report.all_agree

    def test_sign_table(self):
        report = tessellation_sign_table(self.SIG, "F(K,K^-1)", n_samples=500,
                                         seed=7)
        assert report.samples_requested == 500
        assert report.samples_used == 99
        assert all(frac == 1.0 for _, frac in report.rows)
        assert not report.all_match


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("sampler", [
    lambda sig, n: bisector_equivalence_sample(configurations_of(sig)[2], n),
    lambda sig, n: bisD_check(build_domain(sig), n_samples=n),
    lambda sig, n: tessellation_sign_table(sig, n_samples=n),
], ids=["eight_bullets", "twelve_bullets", "sign_table"])
def test_sampler_refuses_fewer_than_one_sample(monkeypatch, sampler, n):
    # The one generator refuses n before it fills a batch, so no sampler
    # reports an agreement read from no samples.
    fill = mock.Mock(wraps=sampling_mod.fill_sectors)
    monkeypatch.setattr(sampling_mod, "fill_sectors", fill)
    with pytest.raises(ValueError, match=f"not {n}$"):
        sampler(LatticeSignature(4, 4, 6), n)
    assert fill.call_count == 0


@cache
def sampler_charts(trip):
    """Every chart map a sampler applies on one triple, by name, with the
    area forms of its source and image charts: P^-1 at each of the three
    charts (``bisector_equivalence_sample``), w_of_z and y_of_z (``bisD_check``
    and the domain sampler)."""
    sig = LatticeSignature(*trip)
    dom = build_domain(sig)
    h = hermitian_form(dom.c3)
    charts = {f"P^-1 at {name}": (move_P_inverse(c).matrix, hermitian_form(c),
                                  hermitian_form(chart(c).p_inverse))
              for name, c in zip(("C1", "C2", "C3"), configurations_of(sig))}
    charts["w_of_z"] = (dom.w_of_z, h, h)
    charts["y_of_z"] = (dom.y_of_z, h, hermitian_form(dom.c2))
    return charts


def ball_bound(m, image):
    """The lower bound sqrt(c / (1 + c)) sigma_min(m) on |(m z)_3| over the
    points z = (z1, z2, 1) of the closed ball of H, for a map m with
    m* H' m = lambda H, lambda > 0, and H' = diag(d0', d1', d2') of signs
    (-, -, +), ``image`` = (d0', d1', d2'), c = min(-d0', -d1') / d2'. There
    (m z)* H' (m z) >= 0 gives
    |h3|^2 >= c (|h1|^2 + |h2|^2) for h = m z, so
    |h3|^2 >= c / (1 + c) |h|^2, and |h| >= sigma_min(m) |z| >= sigma_min(m)."""
    c = min(-image[0], -image[1]) / image[2]
    return math.sqrt(c / (1 + c)) * np.linalg.svd(m, compute_uv=False)[-1]


def sampler_draws(trip, sampler):
    """The form and chart maps one sampler hands ``ball_draws``, and each
    map's ``ball_bound``. "glueing" is the no-map case, the draws the
    glueing check made before it became exact."""
    charts = sampler_charts(trip)
    names = {"eight": ("P^-1 at C3",), "twelve": ("w_of_z", "y_of_z"),
             "glueing": ()}[sampler]
    return (charts["w_of_z"][1], tuple(charts[k][0] for k in names),
            tuple(ball_bound(charts[k][0], charts[k][2]) for k in names))


def batches_for(n):
    """The batches the draw cap allows for n samples."""
    return -(-sampling_mod.DRAWS_PER_SAMPLE * n // BATCH)


REPLAY_SEEDS = [7, 11, 3000017]


class TestStreamReplay:
    """One seed gives one stream. The bullet samplers' draws are points of
    the ball whose chart images keep to ``ball_bound``, and every ball_draws
    stream runs to its draw cap. The domain sampler reaches 500 points at
    every seed. Both streams give the same points on a second call, and
    their first points for a smaller count, since the cap is whole
    batches."""

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_domain_points(self, trip, seed):
        dom = build_domain(LatticeSignature(*trip))
        points = _sample_domain_points(dom, 500, seed)
        assert points.shape == (3, 500)
        assert np.array_equal(_sample_domain_points(dom, 500, seed), points)
        assert np.array_equal(_sample_domain_points(dom, 37, seed),
                              points[:, :37])
        assert not np.array_equal(_sample_domain_points(dom, 500, seed + 1),
                                  points)

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    @pytest.mark.parametrize("sampler", ["eight", "twelve", "glueing"])
    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_ball_draws(self, trip, sampler, seed):
        h, maps, bounds = sampler_draws(trip, sampler)
        draws = list(ball_draws(h, seed, 100, maps))
        assert len(draws) == batches_for(100)
        for z, *images in draws:
            assert len(images) == len(maps)
            assert np.all(hermitian_eval(h, z) > 0)
            for m, bound, image in zip(maps, bounds, images):
                raw = m @ z
                assert np.all(np.abs(raw[2]) >= bound)
                assert np.allclose(image, raw / raw[2], rtol=1e-12, atol=0.0)
        again = list(ball_draws(h, seed, 100, maps))
        prefix = list(ball_draws(h, seed, 37, maps))
        assert len(again) == len(draws)
        assert len(prefix) == batches_for(37) < len(draws)
        for stream in (again, prefix):
            for new, old in zip(stream, draws):
                assert all(np.array_equal(a, b) for a, b in zip(new, old))
        other = next(ball_draws(h, seed + 1, 100, maps))[0]
        assert not np.array_equal(other[:, :10], draws[0][0][:, :10])


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_bullets_reach_their_count_on_243(seed):
    # The box stream stopped both samplers short of 1000 on (2,4,3).
    sig = LatticeSignature(2, 4, 3)
    for report, bullets in (
            (bisector_equivalence_sample(configurations_of(sig)[2],
                                         n_samples=1000, seed=seed), 8),
            (bisD_check(build_domain(sig), n_samples=1000, seed=seed), 12)):
        assert report.samples_used == (1000,) * bullets
        assert report.all_agree


class TestDomainSamplerIsLazy:
    """The domain sampler stops at the batch that brings its count to n,
    well inside its cap of 98 batches for 500 points: an eager generator
    makes more fills, and no output shows it."""

    @pytest.mark.parametrize("trip", [(4, 4, 5), (2, 4, 3)], ids=str)
    def test_fills_only_the_groups_it_reads(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        with mock.patch.object(sampling_mod, "fill_sectors",
                               wraps=fill_sectors) as fill:
            points = _sample_domain_points(dom, 500, 7)
        assert (points.shape[1], fill.call_count) == (
            500, {(4, 4, 5): 2, (2, 4, 3): 5}[trip])


def ks_distance(u: np.ndarray) -> float:
    """The Kolmogorov-Smirnov distance of the sample u from uniform on [0, 1]."""
    u = np.sort(u)
    i = np.arange(1, len(u) + 1)
    return float(max(np.max(i / len(u) - u), np.max(u - (i - 1) / len(u))))


def triangle_distances(t: np.ndarray) -> list[float]:
    """The KS distances of (t1, t2), the rows of a (2, m) array, from the
    laws of a point uniform in the triangle t1 + t2 < 1: t1 and t2 have CDF
    1 - (1 - t)^2, and t1 + t2 has CDF s^2, read as 1 above 1."""
    return ([ks_distance(1.0 - (1.0 - ti) ** 2) for ti in t]
            + [ks_distance(np.minimum(t.sum(axis=0), 1.0) ** 2)])


def stacked(draw, m):
    """The first m columns of the (4, BATCH) batches ``draw(rng)``, side by
    side, from one generator at seed 7."""
    rng = np.random.default_rng(7)
    return np.hstack([draw(rng) for _ in range(-(-m // BATCH))])[:, :m]


def assert_uniform(arcs, bounds):
    """At a fixed seed, the draws of ``fill_sectors`` are uniform on ball and
    sectors: every draw lies in the closed triangle of (t1, t2), each
    argument is uniform in its arc, and t1, t2 and t1 + t2 follow the
    triangle's laws. Each KS distance is below its 1% critical value
    1.63 / sqrt(m)."""
    m = 20000
    r = stacked(lambda rng: fill_sectors(rng, arcs, bounds), m)
    z = affine_points(r)[:2]
    t = np.abs(z) ** 2 / bounds[:, None] ** 2
    assert np.all(t.sum(axis=0) <= 1.0 + 1e-12)
    for (lo, hi), arg in zip(arcs, np.angle(z)):
        u = (arg - lo) / (hi - lo)
        assert np.all((u > -1e-12) & (u < 1.0 + 1e-12))
        assert ks_distance(u) < 1.63 / math.sqrt(m)
    assert max(triangle_distances(t)) < 1.63 / math.sqrt(m)


def box_stream(h, radius, seed, batches):
    """The draws in the ball of a box stream, batch by batch: 8,192 draws of
    ``rng.uniform`` on [-radius, radius]^4 each, as (4, k) arrays."""
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        r = rng.uniform(-radius, radius, (4, 8192))
        yield r[:, hermitian_eval(h, affine_points(r)) > 0]


@cache
def box_draws_in_ball(trip):
    """The form of D's ball, the half-width of the box the bullet samplers
    once drew from (1.5x the cloud of D's finite vertices), and the draws in
    the ball of 100 batches of that box at seed 7."""
    dom = build_domain(LatticeSignature(*trip))
    h = hermitian_form(dom.c3)
    radius = 1.5 * max(np.max(np.abs(v[:2])) for v in vertices_D(dom).coords.values()
                       if not no_finite_point(v))
    return h, radius, np.hstack(list(box_stream(h, radius, 7, 100)))


def covered(r, bounds):
    """Whether every draw of the (4, k) array r has |z_i| below bounds[i],
    and some come within 10% of them: the bounds hold the draws, tightly."""
    ratio = np.abs(affine_points(r)[:2]).max(axis=1) / bounds
    return bool(np.all((ratio > 0.9) & (ratio < 1.0)))


class TestSectorProposal:
    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_uniform_in_arc_and_area(self, trip):
        dom = build_domain(LatticeSignature(*trip))
        assert_uniform(dom.sectors[:2], ball_bounds(hermitian_form(dom.c3)))

    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_uniform_on_the_circle(self, trip):
        # The proposal of the bullet samplers. The ball turns with each
        # argument, so the arguments of the draws ball_draws keeps are
        # uniform on the circle too.
        h = hermitian_form(configurations_of(LatticeSignature(*trip))[2])
        assert_uniform(FULL_ARCS, ball_bounds(h))
        z = np.hstack([charts[0] for charts in ball_draws(h, 7, 100, ())])
        for u in (np.angle(z[0]) / (2 * math.pi) + 0.5,
                  np.angle(z[1]) / (2 * math.pi) + 0.5):
            assert ks_distance(u) < 1.63 / math.sqrt(len(u))

    def test_fold_is_the_point_reflection(self):
        # The same uniforms read before the fold, t_i = (u_i + 1) / 2, are
        # uniform in the unit square: t1 + t2 then fails the triangle's law
        # (by 0.5, at s = 1). The fold maps them by t -> 1 - t where
        # t1 + t2 > 1 and keeps them elsewhere.
        m = 20000
        bounds = ball_bounds(hermitian_form(
            configurations_of(LatticeSignature(4, 4, 5))[2]))
        r = stacked(lambda rng: fill_sectors(rng, FULL_ARCS, bounds), m)
        t = np.abs(affine_points(r)[:2]) ** 2 / bounds[:, None] ** 2
        square = (stacked(lambda rng: rng.uniform(-1.0, 1.0, (4, BATCH)), m)[1::2]
                  + 1.0) / 2.0
        assert triangle_distances(square)[2] > 1.63 / math.sqrt(m)
        folded = np.where(square.sum(axis=0) > 1.0, 1.0 - square, square)
        assert np.allclose(t, folded, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_covers_what_a_box_stream_keeps(self, trip):
        # The box the bullet samplers drew from holds the polydisc of the
        # bounds, so it holds the ball, and the proposal keeps draws uniform
        # on the same set. Every box draw in the ball lies inside the moduli
        # bounds, which are tight. The points the domain sampler keeps from
        # box draws, uniform on D like the sectors', lie inside the arcs too.
        dom = build_domain(LatticeSignature(*trip))
        h, radius, r = box_draws_in_ball(trip)
        bounds = ball_bounds(h)
        assert np.all(bounds < radius)
        assert covered(r, bounds)

        def box_batches(h, arcs, seed, n):
            return box_stream(h, radius, seed, 400)

        with mock.patch.object(verification_mod, "ball_batches", box_batches):
            points = _sample_domain_points(dom, 10, 7)
        assert points.shape[1] > 0
        for (lo, hi), bound, z in zip(dom.sectors[:2], bounds, points[:2]):
            assert np.all((np.angle(z) > lo) & (np.angle(z) < hi))
            assert np.all(np.abs(z) < bound)

    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_wrong_bounds_fail_coverage(self, trip):
        # Bounds shrunk by 1.1 leave box draws of the ball outside; bounds
        # grown by 1.2 are not tight.
        h, _, r = box_draws_in_ball(trip)
        assert not covered(r, ball_bounds(h) / 1.1)
        assert not covered(r, ball_bounds(h) * 1.2)


class TestFiniteCharts:
    """No chart image of a point of the ball is at infinity, so the samplers
    divide by it without a mask. Every chart map m that a sampler applies
    is an isometry onto a ball: m* H' m = lambda H with lambda > 0 and H'
    real diagonal of signs (-, -, +). On the closed ball |(m z)_3| then
    keeps to ``ball_bound``, which is at least 0.05 on every such map."""

    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_sampler_charts_are_isometries(self, trip):
        for name, (m, h, image) in sampler_charts(trip).items():
            assert image.dtype == np.float64 and image.shape == (3,), name
            assert list(np.sign(image)) == [-1, -1, 1], name
            pulled = (m.conj().T * image) @ m
            scale = projective_scale(pulled, np.diag(h))
            assert projective_equal(pulled, np.diag(h)), name
            assert scale.real > 0 and abs(scale.imag) < 1e-9 * scale.real, name
            assert ball_bound(m, image) >= 0.05, name

    def test_every_admitted_chart_is_covered(self):
        # pp_possible admits the charts of the generic triples, and those of
        # (3,3,3), where k' is infinite. There the 8-bullet sampler raises
        # before it draws; P^-1 at C2 is singular, and has no bound.
        admitted = {trip for trip in ALL_TRIPLES if any(
            not pp_possible(c) for c in configurations_of(LatticeSignature(*trip)))}
        assert admitted == set(GENERIC) | {(3, 3, 3)}
        for c in configurations_of(LatticeSignature(3, 3, 3)):
            with mock.patch.object(sampling_mod, "fill_sectors",
                                   wraps=fill_sectors) as fill:
                with pytest.raises(DegenerateDenominator):
                    bisector_equivalence_sample(c)
            fill.assert_not_called()

    def test_a_chart_that_is_no_isometry_fails(self):
        # This chart sends the point (1/2, 0, 1) of the unit ball to
        # infinity; it maps no ball onto a ball.
        chart = np.array([[0, 0, 1], [0, 1, 0], [1, 0, -0.5]], dtype=complex)
        ball = np.diag([-1.0, -1.0, 1.0]).astype(complex)
        assert abs((chart @ [0.5, 0.0, 1.0])[2]) == 0.0
        assert not projective_equal(chart.conj().T @ ball @ chart, ball)

    @pytest.mark.parametrize("full", [False, True])
    def test_drops_sphere_draws(self, full):
        # Draw j is the point (x_j, 0, 1), inside the unit ball. The numbers
        # that make these draws, bounded by 1: argument 0 and squared
        # modulus x_j^2 for z1, modulus 0 for z2. The rest of the batch has
        # |z1| at its bound and z2 = 0, t1 + t2 = 1, which the fold keeps:
        # the points (1, 0, 1) of the sphere, which the ball test drops. The
        # generator hands out that batch; it is read through the arcs
        # (-1, 1), or through ball_draws, whose arcs are the whole circle.
        x = np.array([0.25, 0.5, 0.75])
        draws = np.zeros((4, 3))
        draws[0] = x
        ball = np.array([-1.0, -1.0, 1.0])
        filled = np.zeros((4, BATCH))
        filled[1], filled[3] = 1.0, -1.0
        filled[1, :3], filled[3, :3] = 2 * x ** 2 - 1, -1.0
        rng = mock.Mock(**{"uniform.return_value": filled})
        with mock.patch.object(np.random, "default_rng", return_value=rng):
            r = next(ball_batches(ball, FULL_ARCS if full else ((-1.0, 1.0),) * 2,
                                  7, 3))
            charts = next(ball_draws(ball, 7, 3, ())) if full else (affine_points(r),)
        assert np.allclose(r, draws, rtol=0.0, atol=1e-15)
        assert len(charts) == 1 and np.array_equal(charts[0], affine_points(r))


def _boundary_scale(d, u):
    """The factor that puts the affine point of u on the sphere of diag(d)."""
    s0, s1 = u[0] ** 2 + u[1] ** 2, u[2] ** 2 + u[3] ** 2
    return math.sqrt(-d[2] / (d[0] * s0 + d[1] * s1))


DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda u: max(abs(x) for x in u) > 1e-3)


class TestInBall:
    @given(st.sampled_from(GENERIC), DIRECTIONS, st.floats(1e-12, 1.0),
           st.booleans())
    def test_agrees_with_hermitian_eval_off_the_sphere(self, trip, u, delta,
                                                       outside):
        h = hermitian_form(configurations_of(LatticeSignature(*trip))[2])
        scale = _boundary_scale(h, u) * (1.0 + delta if outside else 1.0 - delta)
        r = np.array(u)[:, None] * scale
        inside = hermitian_eval(h, affine_points(r))[0] > 0
        assert inside != outside  # the property is not vacuous
        kept = ball_filter(h, r)
        assert (kept.shape[1] == 1) == inside
        assert not np.shares_memory(kept, r)

    @given(st.sampled_from(GENERIC), DIRECTIONS, st.floats(1e-6, 1.0))
    def test_drops_points_well_outside(self, trip, u, delta):
        h = hermitian_form(configurations_of(LatticeSignature(*trip))[2])
        r = np.array(u)[:, None] * _boundary_scale(h, u) * (1.0 + delta)
        assert ball_filter(h, r).shape[1] == 0
