"""Sampled half-space checks: exact reports pinned, and the reduction's power.

The pinned values were recorded with the per-draw samplers that the batched
kernel replaced; the kernel replays the same random stream, so every report
must stay equal.
"""

from __future__ import annotations

import numpy as np
import pytest

import dmlat.polyhedron as polyhedron_mod
from dmlat.catalog import LatticeSignature
from dmlat.domain import (
    _bisd_bullets,
    bisD_check,
    build_domain,
    glueing_check,
    samelines_check,
)
from dmlat.moves import configurations_of
from dmlat.polyhedron import (
    SingularSystem,
    _bullet_table,
    bisector_equivalence_sample,
    line_normal,
)
from dmlat.sampling import first_decisive
from dmlat.verification import (
    _giraud_copies,
    _lagrangian_copies,
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
    ((4, 4, 6), 1000, 1e-8): (1000,) * 12,
    ((3, 3, 4), 1000, 1e-8): (1000,) * 12,
    ((2, 4, 3), 1000, 1e-8): (331,) * 12,
    ((4, 4, 6), 300, 0.05): (300,) * 12,
    ((2, 4, 3), 300, 0.05): (74, 74, 73, 73, 76, 57, 72, 69, 76, 73, 68, 68),
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
        assert report.samples_used == TWELVE[key]
        assert report.per_bullet_agreement == (1.0,) * 12

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
