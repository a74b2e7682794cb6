"""Configured isometries: matrices, composition, braid and isometry laws."""

from __future__ import annotations

import contextlib
from fractions import Fraction

import numpy as np
import pytest

import dmlat.moves as moves_mod
from dmlat.arithmetic import (
    VANISHING_TOL,
    _angle_key, _exp_i_pi, _sin_pi, exp_i_pi, projective_equal, sin_pi,
)
from dmlat.catalog import AngleOutOfRange, LatticeSignature, catalog, cone_angles, derive_params
from dmlat.moves import (
    ConfigMismatch,
    Configuration,
    DegenerateDenominator,
    SingularMatrix,
    chart,
    check_braid,
    check_isometry,
    compose,
    configurations_of,
    hermitian_form,
    inverse,
    move_A1,
    move_J,
    move_P,
    move_P_inverse,
    move_R1,
    move_R2,
)
from test_polyhedron import SWEEP_TRIPLES


def _has_cone_angles(triple) -> bool:
    try:
        cone_angles(LatticeSignature(*triple))
    except AngleOutOfRange:
        return False
    return True


# The 115 triples of the sweep with valid cone angles, and the nine of them
# with k' = inf.
VALID_TRIPLES = [t for t in SWEEP_TRIPLES if _has_cone_angles(t)]
K_PRIME_INFINITE = [t for t in VALID_TRIPLES
                    if derive_params(LatticeSignature(*t)).k_prime.is_infinite]

MEMOISED = (move_R1, move_R2, move_A1, move_P, move_J, move_P_inverse,
            hermitian_form)


def _configs(triple):
    return configurations_of(LatticeSignature(*triple))


class TestMatrices:
    def test_r1_is_diagonal(self, triple):
        for c in _configs(triple):
            a, b, t, f = c.angles()
            try:
                m = move_R1(c).matrix
            except DegenerateDenominator:
                continue
            expected = np.diag([
                1.0, exp_i_pi(t) * sin_pi(b) / sin_pi(b - t), 1.0])
            assert np.allclose(m, expected)

    def test_a1_is_diagonal(self, triple):
        for c in _configs(triple):
            _, _, _, f = c.angles()
            m = move_A1(c).matrix
            assert np.allclose(m, np.diag([exp_i_pi(2 * f), 1.0, 1.0]))

    def test_j_factors_through_p(self, triple):
        for c in _configs(triple):
            try:
                j = move_J(c)
                p = move_P(c)
            except DegenerateDenominator:
                continue
            assert projective_equal(
                j.matrix, p.matrix @ move_A1(c).matrix)


class TestIsometry:
    def test_all_moves_are_isometries(self, triple):
        for c in _configs(triple):
            for make in (move_R1, move_R2, move_A1, move_P, move_J,
                         move_P_inverse):
                try:
                    m = make(c)
                except DegenerateDenominator:
                    continue
                assert check_isometry(m), (triple, c, m.label)

    def test_braid(self, triple):
        for c in _configs(triple):
            try:
                assert check_braid(c), (triple, c)
            except DegenerateDenominator:
                continue


class TestComposition:
    def test_compose_tracks_targets(self):
        c1, c2, c3 = _configs((4, 4, 6))
        r1 = move_R1(c3)
        again = move_R1(chart(c3).r1)
        prod = compose(again, r1)
        assert prod.source == c3

    def test_config_mismatch(self):
        c1, c2, c3 = _configs((4, 4, 6))
        with pytest.raises(ConfigMismatch):
            compose(move_A1(c1), move_A1(c3))

    def test_inverse_roundtrip(self):
        _, _, c3 = _configs((4, 4, 6))
        r1 = move_R1(c3)
        prod = compose(inverse(r1), r1)
        assert projective_equal(prod.matrix, np.eye(3))

    def test_singular_inverse(self):
        # The C2 chart of the triple with infinite k' has a singular R2.
        _, c2, _ = _configs((3, 3, 3))
        with pytest.raises((SingularMatrix, DegenerateDenominator)):
            inverse(move_R2(c2))

    def test_r2_at_c2_is_singular_exactly_at_infinite_k_prime(self):
        # The one rule for the C2 chart: its R2 is refused exactly when
        # k' = inf (phi' = 0), where (1, 0, 1) spans its kernel, and the
        # refusal names the map and the chart.
        assert (len(VALID_TRIPLES), len(K_PRIME_INFINITE)) == (115, 9)
        for triple in VALID_TRIPLES:
            _, c2, _ = _configs(triple)
            r2 = move_R2(c2)
            if triple in K_PRIME_INFINITE:
                with pytest.raises(SingularMatrix,
                                   match=rf"^map R2 at \({c2.alpha}, .*, 0\)\*pi is"):
                    inverse(r2)
                kernel = r2.matrix @ np.array([1.0, 0.0, 1.0])
                assert np.max(np.abs(kernel)) <= VANISHING_TOL * np.max(np.abs(r2.matrix))
            else:
                assert projective_equal(r2.matrix @ inverse(r2).matrix, np.eye(3))


class TestConfigurations:
    def test_chart_relations(self, triple):
        sig = LatticeSignature(*triple)
        c1, c2, c3 = configurations_of(sig)
        params = derive_params(sig)
        a, t, f = params.alpha, params.theta, params.phi
        assert c1.angles() == (a, a, t, f)
        assert c3.angles() == (a, 1 + t - a, t, f)
        assert c2.angles() == (1 + t - a, a, 2 * a - 1, 1 + t + f - 2 * a)

    def test_c2_phi_reads_k_prime(self):
        # phi' = 1/k': negative exactly when k' < 0, 0 exactly when k' = inf.
        signs = set()
        for sig in catalog():
            _, c2, _ = configurations_of(sig)
            k_prime = derive_params(sig).k_prime
            assert (c2.phi < 0) == k_prime.is_negative, sig
            assert (c2.phi == 0) == k_prime.is_infinite, sig
            signs.add((c2.phi > 0) - (c2.phi < 0))
        assert signs == {-1, 0, 1}

    def test_charts_are_move_targets(self, triple):
        c1, c2, c3 = _configs(triple)
        assert chart(c3).r1 == chart(c3).p_inverse == c1
        assert chart(c3).r2 == chart(c3).p == c2

    def test_each_chart_is_built_once(self, triple):
        # Equal configurations are one cache key, whichever move made them.
        c1, _, c3 = _configs(triple)
        assert hermitian_form(chart(c3).p_inverse) is hermitian_form(c1)
        assert move_R1(chart(c3).r1) is move_R1(c1)

    def test_degenerate_chart_raises(self):
        c1, _, c3 = _configs((3, 3, 3))
        with pytest.raises(DegenerateDenominator):
            move_P_inverse(c1)
        with pytest.raises(DegenerateDenominator):
            move_R2(c3)

    def test_hermitian_form_is_hermitian(self, triple):
        # The form is real diagonal: its three reals, the closed-form products.
        for c in _configs(triple):
            h = hermitian_form(c)
            a, b, t, f = c.angles()
            assert h.dtype == np.float64 and h.shape == (3,)
            assert h.tolist() == [-sin_pi(f) * sin_pi(a) / sin_pi(a - f),
                                  -sin_pi(t) * sin_pi(b) / sin_pi(b - t),
                                  sin_pi(f) * sin_pi(t) / sin_pi(t + f)]


class TestCaches:
    def test_shared_and_read_only(self):
        c = _configs((4, 4, 6))[0]
        for build in MEMOISED:
            assert build(c) is build(c), build.__name__
            array = build(c) if build is hermitian_form else build(c).matrix
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

    def test_equal_configuration_hits_the_cache(self):
        # A chart built afresh from the same angles is another object with
        # the same hash and the same cached moves.
        for c in _configs((4, 4, 6)):
            again = Configuration(*c.angles())
            assert again is not c and again == c and hash(again) == hash(c)
            assert hash(c) == hash(tuple((q.numerator, q.denominator) for q in c.angles()))
            for build in MEMOISED:
                with contextlib.suppress(DegenerateDenominator):
                    assert build(again) is build(c), build.__name__

    def test_compares_and_hashes_by_exact_angles(self):
        # Equal angles built separately compare and hash equal, an int angle
        # among them; angles that differ by 1e-18 do not.
        third = Fraction(1, 3)
        c = Configuration(Fraction(2, 3), Fraction(5, 6), Fraction(1, 4), Fraction(1, 4))
        same = Configuration(Fraction(4, 6), Fraction(10, 12), Fraction(1, 4), 1 - Fraction(3, 4))
        assert same == c and not same != c and hash(same) == hash(c)
        assert (Configuration(Fraction(1), third, third, third)
                == Configuration(1, third, third, third))
        near = Configuration(Fraction(2, 3), Fraction(5, 6), Fraction(1, 4),
                             Fraction(1, 4) + Fraction(1, 10**18))
        assert near != c and not near == c and hash(near) != hash(c)
        assert c != c.angles()

    def test_cached_angles_equal_direct_evaluation(self, monkeypatch):
        # The moves read their angles from the chart table. Record every angle
        # the tables of the 13 signatures' charts evaluate, building each table
        # afresh, then compare cached and direct values, and each entry of a
        # table with the direct value of its named angle. The direct value is
        # the uncached evaluation of the int-pair key.
        cached = {"sin_pi": sin_pi, "exp_i_pi": exp_i_pi}
        direct = {"sin_pi": lambda q: _sin_pi.__wrapped__(*_angle_key(q)),
                  "exp_i_pi": lambda q: _exp_i_pi.__wrapped__(*_angle_key(q))}
        angles = {name: set() for name in cached}
        for name, seen in angles.items():
            monkeypatch.setattr(moves_mod, name, lambda q, f=direct[name],
                                s=seen: s.add(q) or f(q))
        tables = [chart.__wrapped__(c) for sig in catalog() for c in configurations_of(sig)]
        monkeypatch.undo()
        assert len(angles["sin_pi"]) >= 30 and len(angles["exp_i_pi"]) >= 56
        for name, seen in angles.items():
            for q in seen:
                assert cached[name](q) == direct[name](q), (name, q)
        for k in tables:
            for values, evaluate in ((k.sin, direct["sin_pi"]), (k.exp, direct["exp_i_pi"])):
                for name, value in values.items():
                    assert value == evaluate(k.angle[name]), name

    def test_chart_angles_are_their_names(self, triple):
        # Each derived angle is the expression its name spells in a, b, t, f,
        # and each move target is built from the right ones.
        for c in _configs(triple):
            env = dict(zip("abtf", c.angles()))
            k = chart(c)
            for name, q in k.angle.items():
                assert q == eval(name, {}, env), name
            a, b, t, f = c.angles()
            assert k.r1.angles() == (a, 1 + t - b, t, f)
            assert k.r2.angles() == (b, a, t + a - b, f + b - a)
            assert k.p == chart(k.r2).r1
            assert k.p_inverse.angles() == (1 + t - b, a, a + b - 1, 1 + t + f - a - b)

    def test_table_and_inverses_built_once(self):
        # Equal charts share one table; the inverse of a cached move is one map.
        for c in _configs((4, 4, 6)):
            again = Configuration(*c.angles())
            assert chart(again) is chart(c)
            assert inverse(move_R1(c)) is inverse(move_R1(again))
            assert inverse(move_R1(c)).matrix.flags.writeable is False
