"""Orbit table, Euler characteristics, BFS oracle, relations, tessellation."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dmlat.verification as verification_mod
from dmlat.arithmetic import (
    DEFAULT_TOL, ExceededBound, projective_equal, projective_order,
    renormalize,
)
from dmlat.catalog import LatticeSignature, derive_params
from dmlat.domain import (
    MalformedWord,
    _COMPOUND_WORDS,
    _LETTER,
    _pairing_words,
    _word,
    build_domain,
    side_pairings,
)
from dmlat.moves import inverse
from dmlat.verification import (
    HashCollisionAmbiguity,
    MalformedOrder,
    UnsupportedDegeneracy,
    _BRAIDS,
    _CYCLE_IDENTITIES,
    _CYCLE_ORDERS,
    _IDENTITY_KEY,
    _IDENTITY_MEMBER,
    _IDENTITY_ROW,
    _KEY_ROW,
    _KEY_SCALE,
    _KEY_WEIGHTS,
    _MERGED_ROWS,
    MalformedGenerator,
    OrbitRow,
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

# Every triple of [2,39]^3 whose derived orders are integers, keyed "p,k,p'":
# chi, row count, applied rules and the labels of the deleted base rows, or
# "UnsupportedDegeneracy".
EULER_SWEEP = json.loads(
    (Path(__file__).parent / "data" / "euler_sweep.json").read_text())

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

    @pytest.mark.parametrize("expr", ["2kp^2", "x", "2q", "", "2"])
    def test_malformed_order_is_a_value_error(self, expr):
        # "" and "2" hold no symbol; they once read as 1 and 2.
        sig = LatticeSignature(4, 4, 6)
        with pytest.raises(MalformedOrder):
            order_value(expr, sig, derive_params(sig))

    def test_every_table_order_parses(self):
        # On (4,4,6) every symbol is positive and finite.
        sig = LatticeSignature(4, 4, 6)
        exprs = {row.order_expr for row in base_orbit_table()}
        exprs.update(row.order_expr for row in _MERGED_ROWS.values())
        exprs.update(sym for *_, sym in _CYCLE_ORDERS)
        for expr in exprs:
            assert order_value(expr, sig, derive_params(sig)) > 0, expr

    def test_infinite_order_is_none(self):
        sig = LatticeSignature(6, 6, 3)
        params = derive_params(sig)
        assert order_value("d", sig, params) is None

    def test_row_counts_after_degeneration(self, triple):
        params = derive_params(LatticeSignature(*triple))
        rows, _, _ = apply_degenerations(base_orbit_table(), params)
        assert len(rows) == ROW_COUNTS[triple]

    def test_negative_l_unsupported(self):
        from dmlat.catalog import ExtOrder
        from dmlat.catalog import DerivedParams
        params = DerivedParams(
            alpha=Fraction(1, 2), theta=Fraction(1, 3), phi=Fraction(1, 3),
            k_prime=ExtOrder(6), l=ExtOrder(-6),
            l_prime=ExtOrder(6), d=ExtOrder(6))
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


def sweep_entry(key: str):
    """The golden entry of ``EULER_SWEEP`` as the current code computes it."""
    sig = LatticeSignature(*map(int, key.split(",")))
    try:
        report = euler_characteristic(sig)
    except UnsupportedDegeneracy:
        return "UnsupportedDegeneracy"
    _, _, deleted = apply_degenerations(verification_mod.base_orbit_table(),
                                        derive_params(sig))
    return {"chi": str(report.chi), "row_count": report.row_count,
            "applied_rules": list(report.applied_rules),
            "deleted": [row.label for row in deleted]}


def sweep_mismatches() -> list[str]:
    """The keys of ``EULER_SWEEP`` whose entry the current code changes."""
    return [key for key, want in EULER_SWEEP.items() if sweep_entry(key) != want]


class TestEulerSweep:
    def test_golden_has_every_integer_triple(self):
        assert len(EULER_SWEEP) == 128
        assert list(EULER_SWEEP.values()).count("UnsupportedDegeneracy") == 15

    def test_every_entry_matches(self):
        start = time.perf_counter()
        mismatches = sweep_mismatches()
        elapsed = time.perf_counter() - start
        assert mismatches == []
        assert elapsed < 0.5

    def test_survivors_keep_table_order(self):
        # The merged rows come first, then the undeleted base rows in order.
        base = base_orbit_table()
        for key, want in EULER_SWEEP.items():
            if want == "UnsupportedDegeneracy":
                continue
            params = derive_params(LatticeSignature(*map(int, key.split(","))))
            rows, _, deleted = apply_degenerations(base, params)
            kept = [row for row in base if row not in deleted]
            assert rows[len(rows) - len(kept):] == kept, key
            assert set(rows[:len(rows) - len(kept)]) <= set(_MERGED_ROWS.values())

    def test_fails_on_a_renamed_order(self, monkeypatch):
        table = base_orbit_table()
        i = next(i for i, row in enumerate(table) if row.order_expr == "d")
        table[i] = OrbitRow(table[i].dim, table[i].label, table[i].stabilizer, "p")
        monkeypatch.setattr(verification_mod, "base_orbit_table", lambda: list(table))
        assert sweep_mismatches() != []

    def test_fails_without_the_k_prime_merge(self, monkeypatch):
        monkeypatch.delitem(verification_mod._MERGED_ROWS, "k'")
        assert sweep_mismatches() != []


def _oracle_rows():
    """The (generators, symbolic order) of every orbit row of order <= 400
    on the 13 triples, each triple's generators conjugated by a seeded
    random diagonal unitary: the groups of one oracle pass."""
    rng = np.random.default_rng(61)
    rows = []
    for triple in ALL_TRIPLES:
        phases = np.exp(2j * np.pi * rng.random(3))
        conj = np.outer(phases, phases.conj())
        sig = LatticeSignature(*triple)
        params = derive_params(sig)
        words = _pairing_words(build_domain(sig))
        table, _, _ = apply_degenerations(base_orbit_table(), params)
        for row in table:
            value = order_value(row.order_expr, sig, params)
            if value is None or value > 400:
                continue
            rows.append(([conj * g for g in
                          stabilizer_generators(row.stabilizer, words)], value))
    return rows


def _normalises(a, b) -> bool:
    """Whether b^-1 a b is a power of a, that is b normalises <a>."""
    conjugate = np.linalg.inv(b) @ a @ b
    power = np.eye(3, dtype=complex)
    for _ in range(projective_order(a)):
        if projective_equal(conjugate, power, tol=1e-6):
            return True
        power = renormalize(power @ a)
    return False


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

    def test_probe_bound(self):
        # The three probed buckets find every element within 10x the
        # tolerance while ||c||_1 * 10 tol < the bucket width 1/_KEY_SCALE.
        assert np.abs(_KEY_WEIGHTS).sum() < 3
        assert 30 * DEFAULT_TOL < 1 / _KEY_SCALE
        # The same bound on the pre-scaled key row that the BFS reads, whose
        # buckets are of width 1.
        assert np.abs(_KEY_ROW).sum() * 10 * DEFAULT_TOL < 1

    def test_identity_constants_are_a_level_of_the_identity(self):
        # A level normalises each product row and keys it by rint(|m @ _KEY_ROW|).
        flat = np.eye(3, dtype=complex).reshape(-1, 9)
        real = flat.view(float)
        real /= np.sqrt(np.einsum("ij,ij->i", real, real))[:, None]
        keys = np.rint(np.abs(flat @ _KEY_ROW))
        assert np.array_equal(_IDENTITY_ROW, flat)
        assert _IDENTITY_MEMBER == tuple(flat[0].tolist())
        assert _IDENTITY_KEY == keys[0] and type(_IDENTITY_KEY) is float
        assert np.array_equal(_KEY_ROW, _KEY_WEIGHTS.conj().ravel() * _KEY_SCALE)

    def test_max_size_boundary(self):
        # |<Q^2>| = 12 and |<R'1>| = 4, so the 48 elements are 4 or 12
        # cosets, by the generator order. Each max_size below 48 falls
        # inside a coset, or, for 5, inside the first run's H = <Q^2>.
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        for gens in ([w["Q^2"], w["R'1"]], [w["R'1"], w["Q^2"]]):
            assert stabilizer_bfs(gens, max_size=48) == 48
            for max_size in (5, 37, 45, 47):
                with pytest.raises(ExceededBound):
                    stabilizer_bfs(gens, max_size=max_size)

    def test_oracle_pass_replay(self):
        orders = [(stabilizer_bfs(gens, max_size=2000), value)
                  for gens, value in _oracle_rows()]
        assert (len(orders), sum(n for n, _ in orders)) == (480, 7067)
        assert all(n == value for n, value in orders)

    def test_reversed_generators(self):
        # H = <first generator> changes with the order. On 17 of the 86
        # two-generator rows neither cyclic group is normal, so a left coset
        # taken for a right one would miscount there in either order.
        rows = [(gens, value) for gens, value in _oracle_rows() if len(gens) == 2]
        assert len(rows) == 86
        normal = [(_normalises(a, b), _normalises(b, a)) for (a, b), _ in rows]
        assert (normal.count((False, False)), normal.count((True, True))) == (17, 69)
        for (a, b), value in rows:
            assert stabilizer_bfs([a, b], max_size=2000) == value
            assert stabilizer_bfs([b, a], max_size=2000) == value

    def test_trivial_first_generator(self):
        # H = {1}: the second run is the plain BFS over single elements.
        b = np.diag([1.0, np.exp(2j * np.pi / 7), 1.0])
        assert stabilizer_bfs([np.eye(3), b]) == 7

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

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_max_size_below_one(self, max_size):
        with pytest.raises(ValueError, match="1..10000"):
            stabilizer_bfs([np.eye(3)], max_size=max_size)
        assert stabilizer_bfs([np.eye(3)], max_size=1) == 1

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_generator_refused(self, entry):
        # Refused before the first level: no RuntimeWarning (an error under
        # this suite's settings) and no ExceededBound.
        a = np.diag([1.0, np.exp(2j * np.pi / 3), 1.0])
        bad = np.full((3, 3), entry)
        for gens in ([bad], [a, bad]):
            with pytest.raises(MalformedGenerator, match="non-finite"):
                stabilizer_bfs(gens, max_size=2000)

    @pytest.mark.parametrize("gens", [
        [np.arange(1.0, 10.0)],  # a 9-vector is not reshaped into a matrix
        np.arange(1.0, 10.0),
        np.eye(3),  # one matrix, not a sequence of them
        [np.eye(2)],
        [np.eye(3), np.eye(2)],
        [np.ones((3, 4))],
        ["abc"],
        [object()],
        3,
    ], ids=["9-vector", "bare 9-vector", "bare matrix", "2x2", "ragged",
            "3x4", "string", "object", "scalar"])
    def test_non_matrix_generator_refused(self, gens):
        with pytest.raises(MalformedGenerator, match="3x3 matrices"):
            stabilizer_bfs(gens)

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]),
        np.diag([1e-310, 1.0, 1.0]),  # its float inverse overflows
    ], ids=["zero", "rank 2", "subnormal"])
    def test_singular_generator_refused(self, bad):
        a = np.diag([1.0, np.exp(2j * np.pi / 3), 1.0])
        for gens in ([bad], [a, bad]):
            with pytest.raises(MalformedGenerator, match="singular"):
                stabilizer_bfs(gens)

    def test_generator_words(self):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        gens = stabilizer_generators("<Q^2,R'1>", w)
        assert len(gens) == 2

    @pytest.mark.parametrize("text", ["<Q^2,X>", "<>", "Q^2", "<Q^2,>",
                                      "<Q^2", "Q^2>", "<<Q^2>>", "", "<1>"])
    def test_malformed_stabilizer_raises(self, text):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        with pytest.raises(MalformedWord):
            stabilizer_generators(text, w)

    def test_every_stabilizer_parses(self, triple):
        w = _pairing_words(build_domain(LatticeSignature(*triple)))
        rows = base_orbit_table() + list(_MERGED_ROWS.values())
        for row in rows:
            gens = stabilizer_generators(row.stabilizer, w)
            names = [] if row.stabilizer == "1" else row.stabilizer[1:-1].split(",")
            assert len(gens) == max(len(names), 1), row
            assert all(g is w[name] for g, name in zip(gens, names)), row


def _all_table_words() -> list[str]:
    """Every word of the word table, the relations, cycles, braids and stabilisers."""
    words = set(_COMPOUND_WORDS)
    words.update(word for *_, word, _, _ in _CYCLE_ORDERS)
    for _, relation, word in _CYCLE_IDENTITIES:
        words.update([word, *relation.split(" = ")])
    for _, equation in _BRAIDS:
        words.update(equation.split(" = "))
    for row in base_orbit_table():
        if row.stabilizer != "1":
            words.update(row.stabilizer.strip("<>").split(","))
    return sorted(words)


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

    @pytest.mark.parametrize("text", ["(R'1R'0A1)^2", "A2R'1", "", "R'1 R'0",
                                      "K^", "R'3"])
    def test_malformed_word_raises(self, text):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        with pytest.raises(MalformedWord):
            _word(text, w)

    @pytest.mark.parametrize("text", ["(K)", "", "Q^", "K^-", "R'1^2^2", "Q^-1)"])
    def test_malformed_word_raises_every_time(self, text):
        # The parse is cached; a refusal never is.
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        for _ in range(3):
            with pytest.raises(MalformedWord):
                _word(text, w)

    def test_words_are_the_matrix_power_product(self, triple):
        # Every word, at any power, is bit for bit the product of one
        # np.linalg.matrix_power per letter, as words were first evaluated.
        w = _pairing_words(build_domain(LatticeSignature(*triple)))
        words = ["Q^2", "K^-2", "R'1^3K^-1", "A'0^-3R'2^2", "A1^2Q^-2R'0^4", "K^0Q",
                 "R'0^-1A'0^-1R'1^-1", "Q^1K^-1", *_all_table_words()]
        for text in words:
            expected = reduce(np.matmul, [np.linalg.matrix_power(w[letter], int(power or 1))
                                          for letter, power in _LETTER.findall(text)])
            assert _word(text, w).tobytes() == expected.tobytes(), text

    def test_inverse_follows_the_letter(self):
        # A letter's inverse is the table's entry X^-1, the very array that
        # moves.inverse built from the letter's map; a negative power reads it.
        dom = build_domain(LatticeSignature(4, 4, 6))
        w = _pairing_words(dom)
        assert w["K^-1"] is inverse(side_pairings(dom).K).matrix
        assert _word("K^-1", w) is w["K^-1"]
        relabeled = {**w, "K^-1": w["Q"]}
        assert _word("K^-2", relabeled).tobytes() == (w["Q"] @ w["Q"]).tobytes()

    def test_every_table_word_parses(self):
        w = _pairing_words(build_domain(LatticeSignature(4, 4, 6)))
        for word in _all_table_words():
            assert _word(word, w).shape == (3, 3), word

    def test_measured_orders(self):
        report = check_relations(LatticeSignature(4, 4, 6))
        by_name = {e.name: e for e in report.entries}
        assert by_name["R'1^p"].detail == "order 4"
        assert by_name["A'0^k'"].detail == "order 6"
        assert by_name["Q^2d"].detail == "order 24"

    def test_order_18_stabiliser_generator(self):
        # Its 18th power, taken one factor at a time, misses the identity by
        # more than the default tolerance; the search compares m^9 with m^-9.
        w = _pairing_words(build_domain(LatticeSignature(18, 18, 9)))
        assert projective_order(w["QK^-1"]) == 18


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

    def test_unknown_ridge(self):
        with pytest.raises(ValueError):
            tessellation_sign_table(LatticeSignature(4, 4, 6), "F(X,Y)")

    def test_unknown_ridge_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled for an unknown ridge")

        monkeypatch.setattr(verification_mod, "_sample_domain_points", no_sampling)
        # F(K^-1,R'0) is a collapsed ridge of (2,6,6): it is refused the same way.
        for trip, ridge in (((2, 4, 3), "F(X,Y)"), ((2, 6, 6), "F(K^-1,R'0)")):
            with pytest.raises(ValueError, match="unsupported ridge F"):
                tessellation_sign_table(LatticeSignature(*trip), ridge)


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
