"""Ten end-to-end acceptance checks, one reported line each."""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import numpy as np

from dmlat.catalog import LatticeSignature, cone_angles, derive_params
from dmlat.domain import (
    _pairing_words,
    bisD_check,
    boundary_null_vertices,
    build_domain,
    vertices_D,
)
from dmlat.moves import (
    DegenerateDenominator,
    check_braid,
    check_isometry,
    configurations_of,
    hermitian_form,
    move_A1,
    move_J,
    move_P,
    move_P_inverse,
    move_R1,
    move_R2,
)
from dmlat.polyhedron import (
    bisector_equivalence_sample,
    check_s_consistency,
)
from dmlat.verification import (
    apply_degenerations,
    base_orbit_table,
    check_relations,
    commensurability_check,
    cycle_orders,
    euler_characteristic,
    order_value,
    stabilizer_bfs,
    stabilizer_generators,
    tessellation_sign_table,
)
from dmlat.arithmetic import hermitian_eval

from conftest import ALL_TRIPLES
from test_catalog import CONE_TABLE, PARAM_TABLE
from test_verification import CHI_TABLE


def report(number: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {text}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_exact_euler_characteristics():
    start = time.perf_counter()
    ok = all(
        euler_characteristic(LatticeSignature(*trip)).chi == CHI_TABLE[trip]
        for trip in ALL_TRIPLES if trip != (4, 4, 5))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"12 exact Euler characteristics in {elapsed:.3f}s")


def test_criterion_02_flagged_row_ratio():
    chi = euler_characteristic(LatticeSignature(4, 4, 5)).chi
    entries = {e.signature: e for e in commensurability_check()}
    e = entries[(4, 4, 5)]
    ok = (chi == Fraction(99, 400) and e.ratio == 6
          and "flagged" in e.detail)
    report(2, ok, "(4,4,5) gives 99/400 with index-6 ratio, reference value flagged")


def test_criterion_03_parameter_table():
    ok = True
    for trip in ALL_TRIPLES:
        p = derive_params(LatticeSignature(*trip))
        got = (p.k_prime.to_json(), p.l.to_json(),
               p.l_prime.to_json(), p.d.to_json())
        ok = ok and got == PARAM_TABLE[trip]
    report(3, ok, "derived parameters match the frozen table for all 13 rows")


def test_criterion_04_cone_angles():
    ok = True
    for trip in ALL_TRIPLES:
        angles = cone_angles(LatticeSignature(*trip))
        ok = ok and tuple(str(a) for a in angles) == CONE_TABLE[trip]
        ok = ok and sum(angles) == 6
    report(4, ok, "five cone angles match and sum to 6*pi for all 13 rows")


def test_criterion_05_relations():
    start = time.perf_counter()
    ok = True
    for trip in ALL_TRIPLES:
        sig = LatticeSignature(*trip)
        ok = ok and check_relations(sig).all_pass
        ok = ok and cycle_orders(sig).all_pass
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(5, ok, f"all presentation and cycle relations pass in {elapsed:.2f}s")


def test_criterion_06_braid_and_isometry():
    ok = True
    for trip in ALL_TRIPLES:
        for c in configurations_of(LatticeSignature(*trip)):
            try:
                ok = ok and check_braid(c)
            except DegenerateDenominator:
                pass
            for make in (move_R1, move_R2, move_A1, move_P, move_J,
                         move_P_inverse):
                try:
                    m = make(c)
                except DegenerateDenominator:
                    continue
                ok = ok and check_isometry(m)
    report(6, ok, "braid and isometry contracts hold for all charts")


def test_criterion_07_vertex_geometry():
    ok = True
    for trip in ALL_TRIPLES:
        charts = zip(("C1", "C2", "C3"), configurations_of(LatticeSignature(*trip)))
        for chart, c in charts:
            try:
                s_ok = check_s_consistency(c)
            except DegenerateDenominator:
                continue
            if trip == (3, 3, 3) and chart == "C2":
                continue  # exactly singular chart
            ok = ok and s_ok
        ok = ok and vertices_D(build_domain(LatticeSignature(*trip))).table_ok
    report(7, ok, "frame consistency and the 24-vertex table")


def test_criterion_08_bfs_oracle():
    start = time.perf_counter()
    ok = True
    tested = 0
    special = {}
    for trip in ALL_TRIPLES:
        sig = LatticeSignature(*trip)
        params = derive_params(sig)
        words = _pairing_words(build_domain(sig))
        rows, _, _ = apply_degenerations(base_orbit_table(), params)
        for row in rows:
            value = order_value(row.order_expr, sig, params)
            if value is None or value > 400:
                continue
            gens = stabilizer_generators(row.stabilizer, words)
            n = stabilizer_bfs(gens, max_size=2000)
            tested += 1
            ok = ok and n == value
            if (trip, row.order_expr) in (((3, 3, 4), "2d^2"),
                                          ((10, 10, 5), "2k'^2")):
                special[row.order_expr] = n
    elapsed = time.perf_counter() - start
    ok = ok and special.get("2d^2") == 288 and special.get("2k'^2") == 50
    ok = ok and elapsed < 60.0
    report(8, ok, f"{tested} BFS orders equal symbolic orders in {elapsed:.1f}s")


def test_criterion_09_sampled_lemmas():
    ok = True
    for trip in ((4, 4, 6), (3, 3, 4)):
        sig = LatticeSignature(*trip)
        c3 = configurations_of(sig)[2]
        eight = bisector_equivalence_sample(c3, n_samples=1000, seed=7,
                                            neutral=1e-8)
        ok = ok and eight.all_agree and min(eight.samples_used) == 1000
        dom = build_domain(sig)
        twelve = bisD_check(dom, n_samples=1000, seed=7, neutral=1e-8)
        ok = ok and twelve.all_agree and min(twelve.samples_used) == 1000
    lag = tessellation_sign_table(LatticeSignature(4, 4, 6), "F(K,R'1)",
                                  n_samples=500, seed=7)
    gir = tessellation_sign_table(LatticeSignature(4, 4, 6), "F(K,K^-1)",
                                  n_samples=500, seed=7)
    ok = ok and lag.all_match and gir.all_match
    ok = ok and lag.samples_used == 500 and gir.samples_used == 500
    report(9, ok, "8- and 12-bullet lemmas and both ridge sign tables at 100%")


def test_criterion_10_boundary_null_vertices():
    expected = {
        (2, 6, 6): {"l"}, (2, 3, 3): {"l"}, (6, 6, 3): {"l'", "d"},
        (3, 4, 4): {"l'"}, (3, 3, 3): {"k'"},
    }
    ok = True
    for trip, params in expected.items():
        dom = build_domain(LatticeSignature(*trip))
        null_sets = boundary_null_vertices(dom)
        ok = ok and params <= set(null_sets)
        h = hermitian_form(dom.c3)
        for vecs in null_sets.values():
            for v in vecs:
                scale = float(np.max(np.abs(v)) ** 2)
                ok = ok and abs(hermitian_eval(h, v)) < 1e-9 * scale
    report(10, ok, "collapsed vertices are null for every infinite parameter")
