"""Orbit table, Euler characteristics, BFS oracle, relations, tessellation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dmlat.verification as verification_mod
from dmlat.arithmetic import ExceededBound
from dmlat.catalog import LatticeSignature, derive_params
from dmlat.domain import build_domain
from dmlat.verification import (
    HashCollisionAmbiguity,
    RidgeCollapsed,
    UnsupportedDegeneracy,
    _pairing_words,
    _word,
    apply_degenerations,
    base_orbit_table,
    check_relations,
    commensurability_check,
    cycle_orders,
    euler_characteristic,
    group_checks,
    order_value,
    stabilizer_bfs,
    stabilizer_generators,
    tessellation_sign_table,
    triangle_group_order,
)

from conftest import ALL_TRIPLES

CHI_TABLE = {
    (6, 6, 3): Fraction(1, 12),
    (10, 10, 5): Fraction(3, 20),
    (12, 12, 6): Fraction(7, 48),
    (18, 18, 9): Fraction(13, 108),
    (4, 4, 3): Fraction(1, 12),
    (4, 4, 5): Fraction(99, 400),
    (4, 4, 6): Fraction(13, 48),
    (3, 3, 4): Fraction(7, 48),
    (3, 3, 3): Fraction(1, 12),
    (2, 6, 6): Fraction(1, 8),
    (2, 4, 3): Fraction(7, 96),
    (2, 3, 3): Fraction(1, 24),
    (3, 4, 4): Fraction(17, 96),
}

ROW_COUNTS = {
    (6, 6, 3): 31, (10, 10, 5): 40, (12, 12, 6): 40, (18, 18, 9): 40,
    (4, 4, 3): 33, (4, 4, 5): 44, (4, 4, 6): 44, (3, 3, 4): 37,
    (3, 3, 3): 32, (2, 6, 6): 35, (2, 4, 3): 37, (2, 3, 3): 31,
    (3, 4, 4): 36,
}


class TestOrbitTable:
    def test_44_rows(self):
        rows = base_orbit_table()
        assert len(rows) == 44
        by_dim = {d: sum(1 for r in rows if r.dim == d) for d in range(5)}
        assert by_dim == {0: 9, 1: 14, 2: 14, 3: 6, 4: 1}

    def test_order_values(self):
        sig = LatticeSignature(4, 4, 6)
        params = derive_params(sig)
        assert order_value("kp", sig, params) == 16
        assert order_value("p'd", sig, params) == 72
        assert order_value("2d", sig, params) == 24
        assert order_value("2k'^2", sig, params) == 72
        assert order_value("1", sig, params) == 1

    @pytest.mark.parametrize("expr", ["2kp^2", "x", "2q"])
    def test_malformed_order_is_a_value_error(self, expr):
        sig = LatticeSignature(4, 4, 6)
        with pytest.raises(ValueError):
            order_value(expr, sig, derive_params(sig))

    def test_infinite_order_is_none(self):
        sig = LatticeSignature(6, 6, 3)
        params = derive_params(sig)
        assert order_value("d", sig, params) is None

    def test_row_counts_after_degeneration(self, triple):
        params = derive_params(LatticeSignature(*triple))
        rows, _, _ = apply_degenerations(base_orbit_table(), params)
        assert len(rows) == ROW_COUNTS[triple]

    def test_negative_l_unsupported(self):
        from dmlat.arithmetic import ExtOrder
        from dmlat.catalog import DerivedParams
        params = DerivedParams(
            alpha=Fraction(1, 2), theta=Fraction(1, 3), phi=Fraction(1, 3),
            k_prime=ExtOrder.finite(6), l=ExtOrder.finite(-6),
            l_prime=ExtOrder.finite(6), d=ExtOrder.finite(6))
        with pytest.raises(UnsupportedDegeneracy):
            apply_degenerations(base_orbit_table(), params)


class TestEuler:
    def test_chi(self, triple):
        report = euler_characteristic(LatticeSignature(*triple))
        assert report.chi == CHI_TABLE[triple]
        assert report.volume_coeff == Fraction(8, 3) * CHI_TABLE[triple]

    def test_example_row(self):
        report = euler_characteristic(LatticeSignature(4, 4, 6))
        assert report.volume_coeff == Fraction(13, 18)
        assert report.applied_rules == ()


class TestBFS:
    def test_identity(self):
        assert stabilizer_bfs([np.eye(3)]) == 1
        assert stabilizer_bfs([]) == 1

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_cyclic(self, n):
        m = np.diag([1.0, np.exp(2j * np.pi / n), 1.0])
        assert stabilizer_bfs([m]) == n

    def test_product_group(self):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        assert stabilizer_bfs([w["Q^2"], w["R'1"]]) == 48  # pd

    def test_merged_row_order(self):
        w = _pairing_words(build_domain(LatticeSignature(3, 3, 4)))
        assert stabilizer_bfs([w["R'1"], w["R'0"]]) == 288  # 2d^2

    def test_k_prime_merged_row(self):
        w = _pairing_words(build_domain(LatticeSignature(10, 10, 5)))
        assert stabilizer_bfs([w["R'0"], w["K"]]) == 50  # 2k'^2

    def test_ambiguous_pair_raises(self):
        m = np.diag([1.0, np.exp(2j * np.pi / 3), 1.0])
        m2 = m.copy()
        m2[0, 0] += 5e-9
        with pytest.raises(HashCollisionAmbiguity):
            stabilizer_bfs([m, m2], max_size=100)

    @pytest.mark.parametrize("shift,order", [(5e-9, None), (0.0, 7)])
    def test_ambiguous_pair_across_levels_raises(self, shift, order):
        # b is a^2 moved by 5e-9: b is registered on level 1 and a.a, within
        # 10x the tolerance of it, is met on level 2. Unmoved, b = a^2.
        a = np.diag([1.0, np.exp(2j * np.pi / 7), 1.0])
        b = a @ a
        b[0, 0] += shift
        if order is None:
            with pytest.raises(HashCollisionAmbiguity):
                stabilizer_bfs([a, b], max_size=100)
        else:
            assert stabilizer_bfs([a, b], max_size=100) == order

    def test_max_size_boundary(self):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        gens = [w["Q^2"], w["R'1"]]
        assert stabilizer_bfs(gens, max_size=48) == 48
        with pytest.raises(ExceededBound):
            stabilizer_bfs(gens, max_size=47)

    def test_oracle_pass_replay(self):
        # Every orbit row of order <= 400 on the 13 triples, the generators
        # of each triple conjugated by a seeded random diagonal unitary.
        rng = np.random.default_rng(61)
        orders = []
        for triple in ALL_TRIPLES:
            phases = np.exp(2j * np.pi * rng.random(3))
            conj = np.outer(phases, phases.conj())
            sig = LatticeSignature(*triple)
            params = derive_params(sig)
            words = _pairing_words(build_domain(sig))
            rows, _, _ = apply_degenerations(base_orbit_table(), params)
            for row in rows:
                value = order_value(row.order_expr, sig, params)
                if value is None or value > 400:
                    continue
                gens = [conj * g for g in
                        stabilizer_generators(row.stabilizer, words)]
                orders.append((stabilizer_bfs(gens, max_size=2000), value))
        assert (len(orders), sum(n for n, _ in orders)) == (480, 7067)
        assert all(n == value for n, value in orders)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.floats(0, 2 * np.pi), min_size=5, max_size=5))
    @pytest.mark.parametrize("group,order", [
        (((4, 4, 6), ("Q^2", "R'1")), 48),  # pd
        (((3, 3, 4), ("R'1", "R'0")), 288),  # 2d^2
        (((10, 10, 5), ("R'0", "K")), 50),  # 2k'^2
        (None, 400),  # diagonal cyclic: every element has the same moduli
    ])
    def test_order_ignores_phase_and_diagonal_conjugation(
            self, group, order, angles):
        if group is None:
            gens = [np.diag([1.0, np.exp(2j * np.pi / order), 1.0])]
        else:
            triple, names = group
            words = _pairing_words(build_domain(LatticeSignature(*triple)))
            gens = [words[name] for name in names]
        phases = np.exp(1j * np.array(angles))
        conj = np.outer(phases[:3], phases[:3].conj())
        gens = [s * conj * g for s, g in zip(phases[3:], gens)]
        assert stabilizer_bfs(gens) == order

    def test_exceeds_bound(self):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        with pytest.raises(ExceededBound):
            stabilizer_bfs([w["Q^2"], w["R'1"]], max_size=10)

    def test_max_size_cap(self):
        with pytest.raises(ValueError):
            stabilizer_bfs([np.eye(3)], max_size=20000)

    def test_generator_words(self):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        gens = stabilizer_generators("<Q^2,R'1>", w)
        assert len(gens) == 2


class TestRelations:
    def test_all_pass(self, triple):
        report = check_relations(LatticeSignature(*triple))
        assert report.all_pass, [e for e in report.entries
                                 if e.status == "fail"]

    def test_skips_reported(self):
        report = check_relations(LatticeSignature(6, 6, 3))
        skipped = {e.name for e in report.entries if e.status == "skipped"}
        assert "A'0^k'" in skipped and "Q^2d" in skipped

    def test_word_reads_a1_and_powers(self):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        assert np.array_equal(_word("A1R'1^2K^-1", w),
                              w["A1"] @ (w["R'1"] @ w["R'1"]) @ np.linalg.inv(w["K"]))
        assert np.array_equal(_word("Q^2", w), w["Q^2"])

    def test_measured_orders(self):
        report = check_relations(LatticeSignature(4, 4, 6))
        by_name = {e.name: e for e in report.entries}
        assert by_name["R'1^p"].detail == "order 4"
        assert by_name["A'0^k'"].detail == "order 6"
        assert by_name["Q^2d"].detail == "order 24"


class TestCycles:
    def test_all_pass(self, triple):
        report = cycle_orders(LatticeSignature(*triple))
        assert report.all_pass, [e for e in report.entries
                                 if e.status == "fail"]

    def test_pointwise_fix_runs_generic(self):
        report = cycle_orders(LatticeSignature(4, 4, 6))
        entry = [e for e in report.entries if "pointwise" in e.name][0]
        assert entry.status == "pass"

    def test_relation_and_cycle_share_each_equation(self, monkeypatch):
        # Q = R'0R'1 breaks the relation Q = R'1R'0, and the cycle row that
        # rearranges it reads the same evaluation; likewise R'2 = R'1^2, of
        # order 2, breaks both rows of the order p = 4.
        sig = LatticeSignature(4, 4, 6)
        words = _pairing_words(build_domain(sig))
        broken = {**words, "Q": words["R'0"] @ words["R'1"],
                  "R'2": words["R'1"] @ words["R'1"]}
        monkeypatch.setattr(verification_mod, "_pairing_words", lambda dom: broken)
        relations, cycles = group_checks(sig)
        rel = {e.name: e.status for e in relations.entries}
        cyc = {e.name: e.status for e in cycles.entries}
        assert (rel["Q = R'1R'0"], cyc["R'0Q^-1R'1 = id"]) == ("fail", "fail")
        assert (rel["R'2^p"], cyc["R'2"]) == ("fail", "fail")


    @pytest.mark.parametrize("letter,word,failing", [
        ("A1", "A1R'0", {"br2((R'1R'0A1)^-2,R'0)", "br2(A1,R'1)"}),
        ("R'0", "R'2", {"br4(R'1,R'0)", "br2((R'1R'0A1)^-2,R'0)"}),
    ])
    def test_each_braid_row_can_fail(self, monkeypatch, letter, word, failing):
        # A braid row reads its letters from the words: a wrong letter fails
        # the braid rows that contain it and no other.
        sig = LatticeSignature(4, 4, 6)
        words = _pairing_words(build_domain(sig))
        broken = {**words, letter: _word(word, words)}
        monkeypatch.setattr(verification_mod, "_pairing_words", lambda dom: broken)
        braids = {e.name: e.status for e in check_relations(sig).entries
                  if e.name.startswith("br")}
        assert len(braids) == 3
        assert {name for name, status in braids.items()
                if status == "fail"} == failing


class TestTessellation:
    def test_lagrangian_ridge(self):
        report = tessellation_sign_table(
            LatticeSignature(4, 4, 6), "F(K,R'1)", n_samples=200, seed=7)
        assert report.all_match
        assert len(report.rows) == 4

    def test_giraud_ridge(self):
        report = tessellation_sign_table(
            LatticeSignature(4, 4, 6), "F(K,K^-1)", n_samples=200, seed=7)
        assert report.all_match
        assert len(report.rows) == 3

    def test_collapsed_ridge(self):
        with pytest.raises(RidgeCollapsed):
            tessellation_sign_table(
                LatticeSignature(2, 6, 6), "F(K^-1,R'0)")

    def test_unknown_ridge(self):
        with pytest.raises(ValueError):
            tessellation_sign_table(LatticeSignature(4, 4, 6), "F(X,Y)")

    def test_unknown_ridge_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled for an unknown ridge")

        monkeypatch.setattr(verification_mod, "_sample_domain_points", no_sampling)
        with pytest.raises(ValueError, match="unsupported ridge F"):
            tessellation_sign_table(LatticeSignature(2, 4, 3), "F(X,Y)")


class TestCommensurability:
    def test_ratios(self):
        entries = commensurability_check()
        assert len(entries) == 7
        for e in entries:
            assert e.status == "pass"
            assert e.ratio == 6

    def test_flagged_row(self):
        entries = {e.signature: e for e in commensurability_check()}
        flagged = entries[(4, 4, 5)]
        assert flagged.computed_chi == Fraction(99, 400)
        assert "flagged" in flagged.detail


class TestTriangleGroups:
    def test_classical_orders(self):
        assert triangle_group_order(3, 3) == 12
        assert triangle_group_order(3, 4) == 24
        assert triangle_group_order(3, 5) == 60

    @pytest.mark.parametrize("trip", [(4, 4, 3), (3, 3, 3), (2, 4, 3),
                                      (3, 4, 4), (2, 3, 3)])
    def test_reproduces_negative_orders(self, trip):
        sig = LatticeSignature(*trip)
        p = derive_params(sig)
        if p.d.is_negative:
            assert triangle_group_order(sig.p, sig.p_prime) == -2 * p.d.value
        if p.l_prime.is_negative:
            assert triangle_group_order(sig.p_prime, sig.k) == -2 * p.l_prime.value
        if p.k_prime.is_negative:
            assert triangle_group_order(sig.p_prime, p.l.value) == -2 * p.k_prime.value
