"""Sampled half-space checks: exact reports pinned, and the reduction's power.

The pinned values were recorded with the per-draw samplers that the batched
kernel replaced; the kernel replays the same random stream, so every report
must stay equal. The ball screen and the grouped domain sampler are replayed
against in-test copies of the loops they replaced, draw for draw.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dmlat.polyhedron as polyhedron_mod
from dmlat.arithmetic import HermitianForm3, hermitian_eval
from dmlat.catalog import LatticeSignature
from dmlat.domain import (
    _bisd_bullets,
    bisD_check,
    build_domain,
    glueing_check,
    in_D_union,
    samelines_check,
)
from dmlat.moves import configurations_of, hermitian_form, move_P_inverse
from dmlat.polyhedron import (
    SingularSystem,
    _bullet_table,
    bisector_equivalence_sample,
    line_normal,
    vertices_t,
)
from dmlat.sampling import (
    CHUNK,
    NotRealDiagonal,
    affine_points,
    ball_draws,
    first_decisive,
    near_ball,
)
from dmlat.verification import (
    _giraud_copies,
    _lagrangian_copies,
    _sample_domain_points,
    tessellation_sign_table,
)

GENERIC = [(4, 4, 5), (4, 4, 6), (3, 3, 4), (2, 6, 6), (2, 4, 3), (2, 3, 3),
           (3, 4, 4)]

# (triple, n, neutral) -> 8-bullet samples used and max near-zero discrepancy
# at seed 7. (2,4,3) stops at the 100n draw cap; the wide neutral band makes
# the bullets stop at different draws and records a near-zero maximum.
EIGHT = {
    ((4, 4, 6), 1000, 1e-8): ((1000,) * 8, 0.0),
    ((3, 3, 4), 1000, 1e-8): ((1000,) * 8, 0.0),
    ((2, 4, 3), 1000, 1e-8): ((160,) * 8, 0.0),
    ((4, 4, 6), 300, 0.05): ((300,) * 8, 0.3686266783401928),
    ((2, 4, 3), 300, 0.05): ((39, 40, 38, 38, 34, 38, 40, 41),
                             0.43889533928462),
}

# The same for the 12 bullets of bisD_check (draw cap 200n).
TWELVE = {
    ((4, 4, 6), 1000, 1e-8): ((1000,) * 12, 0.0),
    ((3, 3, 4), 1000, 1e-8): ((1000,) * 12, 0.0),
    ((2, 4, 3), 1000, 1e-8): ((331,) * 12, 0.0),
    ((4, 4, 6), 300, 0.05): ((300,) * 12, 2.4965476963452824),
    ((2, 4, 3), 300, 0.05): ((74, 74, 73, 73, 76, 57, 72, 69, 76, 73, 68, 68),
                             2.7783205219707785),
}

# (triple, ridge) -> (samples used, rows) at seed 7, 500 samples.
TESSELLATION = {
    ((4, 4, 6), "F(K,R'1)"): (500, (("id", 1.0), ("R'1^-1", 1.0),
                                    ("K^-1", 1.0), ("R'1^-1K^-1", 1.0))),
    ((4, 4, 6), "F(K,K^-1)"): (500, (("id", 1.0), ("K", 1.0),
                                     ("K^-1", 1.0))),
    ((3, 3, 4), "F(K,R'1)"): (500, (("id", 1.0), ("R'1^-1", 0.8815),
                                    ("K^-1", 1.0), ("R'1^-1K^-1", 0.8035))),
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
    assert points.shape[1] > 0
    assert all(in_D_union(z, dom) for z in points.T)


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
                           (_lagrangian_copies, dom), (_giraud_copies, dom)):
            assert build(arg) is build(arg), build.__name__
        bullets = _bullet_table(c3)[0] + _bisd_bullets(dom)
        assert len(bullets) == 8 + 12
        arrays = [row for b in bullets for row in (b.plain, b.mapped)]
        arrays += _lagrangian_copies(dom).values()
        for _, m, own, others in _giraud_copies(dom):
            arrays += [m, own, *others]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_null_normal_raises_on_every_call(self):
        # A failed build is not cached: each call raises again.
        sig = LatticeSignature(2, 6, 6)
        for _ in range(2):
            with pytest.raises(SingularSystem, match="L_\\*1 is a null vector"):
                bisector_equivalence_sample(configurations_of(sig)[2])
            with pytest.raises(SingularSystem, match="L_\\*1 is a null vector"):
                bisD_check(build_domain(sig))


class TestReductionCanFail:
    def test_lagrangian_rows_below_one_on_334(self):
        # A known finding: two sign rows of F(K,R'1) disagree on (3,3,4).
        report = tessellation_sign_table(LatticeSignature(3, 3, 4),
                                         "F(K,R'1)", n_samples=500, seed=7)
        rows = dict(report.rows)
        assert rows["R'1^-1"] < 1.0 and rows["R'1^-1K^-1"] < 1.0
        assert not report.all_match

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
    """Each report carries the count asked for next to the count used: on
    (2,4,3) at seed 7 the draw cap stops every sampler short of it."""

    SIG = LatticeSignature(2, 4, 3)

    def test_eight_bullets(self):
        report = bisector_equivalence_sample(configurations_of(self.SIG)[2],
                                             n_samples=1000, seed=7)
        assert report.samples_requested == 1000
        assert report.samples_used == (160,) * 8

    def test_twelve_bullets(self):
        report = bisD_check(build_domain(self.SIG), n_samples=1000, seed=7)
        assert report.samples_requested == 1000
        assert report.samples_used == (331,) * 12

    def test_sign_table(self):
        report = tessellation_sign_table(self.SIG, "F(K,K^-1)", n_samples=500,
                                         seed=7)
        assert report.samples_requested == 500
        assert report.samples_used == 35


def per_batch_domain_points(dom, n, seed):
    """The domain sampler as it was before the ball screen: every batch of
    8,192 draws is tested on its own, z arguments first."""
    h = hermitian_form(dom.c3)
    a, _, t, f = (float(x) for x in dom.c3.angles())
    tp = 2 * a - 1.0
    fp = 1.0 + t + f - 2 * a
    pi = math.pi

    def args_in(arg, lo, hi):
        return (arg > lo) & (arg < hi)

    rng = np.random.default_rng(seed)
    points = np.zeros((3, 0), dtype=complex)
    for _ in range(400):
        if points.shape[1] >= n:
            break
        r = rng.uniform(-dom.radius, dom.radius, (4, CHUNK))
        keep = (args_in(np.arctan2(r[1], r[0]), -f * pi, 0.0)
                & args_in(np.arctan2(r[3], r[2]), -t * pi, t * pi))
        z = affine_points(r.take(np.flatnonzero(keep), axis=1))
        z = z[:, hermitian_eval(h, z) > 0]
        w = dom.w_of_z @ z
        y = dom.y_of_z @ z
        finite = (np.abs(w[2]) > 1e-12) & (np.abs(y[2]) > 1e-12)
        z, w, y = z[:, finite], w[:, finite], y[:, finite]
        w, y = w / w[2], y / y[2]
        keep = (args_in(np.angle(w[0]), 0.0, f * pi)
                & args_in(np.angle(w[1]), -t * pi, t * pi)
                & args_in(np.angle(y[0]), -fp * pi, fp * pi)
                & args_in(np.angle(y[1]), 0.0, tp * pi))
        points = np.hstack([points, z[:, keep]])
    return points[:, :n]


def unscreened_ball_draws(h, radius, seed, cap, maps=()):
    """``ball_draws`` as it was before the ball screen: ``hermitian_eval``
    on every draw of the chunk."""
    rng = np.random.default_rng(seed)
    for start in range(0, cap, CHUNK):
        r = rng.uniform(-radius, radius, (min(CHUNK, cap - start), 4))
        z = affine_points(r.T)
        z = z[:, hermitian_eval(h, z) > 0]
        images = [m @ z for m in maps]
        keep = np.ones(z.shape[1], dtype=bool)
        for image in images:
            keep &= np.abs(image[2]) >= 1e-9
        yield (z[:, keep], *(im[:, keep] / im[2, keep] for im in images))


def sampler_draws(trip, sampler):
    """The arguments of ``ball_draws`` in one sampler at n = 300, seed left
    out: form, radius, draw cap and maps."""
    sig = LatticeSignature(*trip)
    dom = build_domain(sig)
    if sampler == "eight":
        c3 = configurations_of(sig)[2]
        radius = 1.5 * max(np.max(np.abs(v[:2])) for v in vertices_t(c3).values())
        return hermitian_form(c3), radius, 100 * 300, (move_P_inverse(c3).matrix,)
    if sampler == "twelve":
        return hermitian_form(dom.c3), dom.radius, 200 * 300, (dom.w_of_z, dom.y_of_z)
    return hermitian_form(dom.c3), dom.radius, 200 * 300, ()


REPLAY_SEEDS = [7, 11, 3000017]

# (triple, seed) where the domain sampler reaches its 400-batch cap short of
# 500 points.
CAPPED = ({((2, 4, 3), s) for s in REPLAY_SEEDS}
          | {((2, 3, 3), s) for s in REPLAY_SEEDS} | {((3, 4, 4), 3000017)})


class TestStreamReplay:
    """The screened samplers keep the same draws, in the same order, as the
    loops they replaced. The domain sampler is replayed both where it stops
    at 500 points and where its 400-batch cap binds; every ball_draws replay
    runs to its draw cap, the last chunk a partial one."""

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_domain_points(self, trip, seed):
        dom = build_domain(LatticeSignature(*trip))
        new = _sample_domain_points(dom, 500, seed)
        old = per_batch_domain_points(dom, 500, seed)
        assert np.array_equal(new, old)
        assert 0 < new.shape[1] <= 500
        assert (new.shape[1] < 500) == ((trip, seed) in CAPPED)

    @pytest.mark.parametrize("seed", REPLAY_SEEDS)
    @pytest.mark.parametrize("sampler", ["eight", "twelve", "glueing"])
    @pytest.mark.parametrize("trip", GENERIC, ids=str)
    def test_ball_draws(self, trip, sampler, seed):
        h, radius, cap, maps = sampler_draws(trip, sampler)
        new = list(ball_draws(h, radius, seed, cap, maps))
        old = list(unscreened_ball_draws(h, radius, seed, cap, maps))
        assert len(new) == len(old) == -(-cap // CHUNK)
        for new_charts, old_charts in zip(new, old):
            assert len(new_charts) == len(old_charts) == 1 + len(maps)
            for a, b in zip(new_charts, old_charts):
                assert np.array_equal(a, b)


def _boundary_scale(d, u):
    """The factor that puts the affine point of u on the sphere of diag(d)."""
    s0, s1 = u[0] ** 2 + u[1] ** 2, u[2] ** 2 + u[3] ** 2
    return math.sqrt(-d[2] / (d[0] * s0 + d[1] * s1))


DIRECTIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda u: max(abs(x) for x in u) > 1e-3)


class TestNearBall:
    @given(st.sampled_from(GENERIC), DIRECTIONS, st.floats(-1e-12, 1e-12))
    def test_keeps_every_ball_point_near_the_boundary(self, trip, u, delta):
        h = hermitian_form(configurations_of(LatticeSignature(*trip))[2])
        d = h.matrix.diagonal().real
        r = np.array(u)[:, None] * _boundary_scale(d, u) * (1.0 + delta)
        value = hermitian_eval(h, affine_points(r))[0]
        if delta < -1e-13:
            assert value > 0  # strictly inside: the property is not vacuous
        if value > 0:
            assert near_ball(h, r)[0]

    @given(st.sampled_from(GENERIC), DIRECTIONS, st.floats(1e-6, 1.0))
    def test_drops_points_well_outside(self, trip, u, delta):
        # The screen is tight: outside by 1e-6 of the radius, far past the
        # 1e-9 margin, a draw never reaches hermitian_eval.
        h = hermitian_form(configurations_of(LatticeSignature(*trip))[2])
        d = h.matrix.diagonal().real
        r = np.array(u)[:, None] * _boundary_scale(d, u) * (1.0 + delta)
        assert not near_ball(h, r)[0]

    @given(st.sampled_from(GENERIC), st.integers(0, 2), st.integers(1, 2),
           st.floats(1e-6, 1.0), st.booleans())
    def test_refuses_a_form_that_is_not_real_diagonal(self, trip, i, step,
                                                       value, imaginary):
        h = hermitian_form(configurations_of(LatticeSignature(*trip))[2])
        j = (i + step) % 3
        m = h.matrix.copy()
        m[i, j] = value * (1j if imaginary else 1.0)
        m[j, i] = np.conj(m[i, j])
        with pytest.raises(NotRealDiagonal):
            near_ball(HermitianForm3(m), np.zeros((4, 3)))
