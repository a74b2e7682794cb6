"""Catalog rows, exact derived parameters, cone angles, degeneracies."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dmlat.catalog import (
    AngleOutOfRange,
    DerivedParams,
    ExtOrder,
    LatticeSignature,
    NonIntegerOrder,
    catalog,
    cone_angles,
    derive_params,
)
from dmlat.cli import main
from dmlat.verification import apply_degenerations, base_orbit_table, collapsed_ridges

# Frozen oracle: (k', l, l', d) for every catalog row ("inf" = infinite).
PARAM_TABLE = {
    (6, 6, 3): (-3, 2, "inf", "inf"),
    (10, 10, 5): (-5, 2, 5, 5),
    (12, 12, 6): (-6, 2, 4, 4),
    (18, 18, 9): (-9, 2, 3, 3),
    (4, 4, 3): (-6, 3, -12, -12),
    (4, 4, 5): (10, 5, 20, 20),
    (4, 4, 6): (6, 6, 12, 12),
    (3, 3, 4): (6, 12, -12, -12),
    (3, 3, 3): ("inf", 6, -6, -6),
    (2, 6, 6): (3, "inf", 6, -6),
    (2, 4, 3): (12, 12, -12, -3),
    (2, 3, 3): (6, "inf", -6, -3),
    (3, 4, 4): (12, 6, "inf", -12),
}

# Frozen oracle: the five cone angles as multiples of pi.
CONE_TABLE = {
    (6, 6, 3): ("2/3", "5/3", "5/3", "2/3", "4/3"),
    (10, 10, 5): ("4/5", "7/5", "7/5", "4/5", "8/5"),
    (12, 12, 6): ("5/6", "4/3", "4/3", "5/6", "5/3"),
    (18, 18, 9): ("8/9", "11/9", "11/9", "8/9", "16/9"),
    (4, 4, 3): ("5/6", "5/3", "5/3", "5/6", "1"),
    (4, 4, 5): ("11/10", "7/5", "7/5", "11/10", "1"),
    (4, 4, 6): ("7/6", "4/3", "4/3", "7/6", "1"),
    (3, 3, 4): ("7/6", "3/2", "3/2", "7/6", "2/3"),
    (3, 3, 3): ("1", "5/3", "5/3", "1", "2/3"),
    (2, 6, 6): ("1", "4/3", "4/3", "5/3", "2/3"),
    (2, 4, 3): ("5/6", "5/3", "5/3", "4/3", "1/2"),
    (2, 3, 3): ("1", "5/3", "5/3", "4/3", "1/3"),
    (3, 4, 4): ("1", "3/2", "3/2", "7/6", "5/6"),
}

DEGENERATE_SETS = {
    (6, 6, 3): {"k'", "l'", "d"},
    (10, 10, 5): {"k'"},
    (12, 12, 6): {"k'"},
    (18, 18, 9): {"k'"},
    (4, 4, 3): {"k'", "l'", "d"},
    (4, 4, 5): set(),
    (4, 4, 6): set(),
    (3, 3, 4): {"l'", "d"},
    (3, 3, 3): {"k'", "l'", "d"},
    (2, 6, 6): {"l", "d"},
    (2, 4, 3): {"l'", "d"},
    (2, 3, 3): {"l", "l'", "d"},
    (3, 4, 4): {"l'", "d"},
}


class TestExtOrder:
    def test_finite(self):
        n = ExtOrder(5)
        assert n.is_positive and not n.is_infinite and n.to_json() == 5

    def test_negative(self):
        n = ExtOrder(-3)
        assert n.is_negative and not n.is_positive

    def test_infinite(self):
        n = ExtOrder(None)
        assert n.is_infinite and not n.is_positive and n.to_json() == "inf"

    @pytest.mark.parametrize("make", [ExtOrder])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_only_an_int_or_none(self, make, value):
        with pytest.raises(TypeError, match="an order is an int or None"):
            make(value)


class TestCatalog:
    def test_thirteen_rows_in_order(self):
        sigs = catalog()
        assert len(sigs) == 13
        assert [(s.p, s.k, s.p_prime) for s in sigs] == list(PARAM_TABLE)

    def test_membership_flag(self):
        assert LatticeSignature(4, 4, 6).in_catalog
        assert not LatticeSignature(9, 9, 9).in_catalog

    def test_str(self):
        assert str(LatticeSignature(4, 4, 6)) == "(4,4,6)"

    @pytest.mark.parametrize("entries, name", [
        ((4, 4, 6.0), "p_prime"), (("4", 4, 6), "p"), ((4, 4, True), "p_prime"),
        ((4, Fraction(4), 6), "k"),
    ])
    def test_entries_are_ints(self, entries, name):
        # Refused when built, whether or not (4,4,6)'s params are cached.
        derive_params(LatticeSignature(4, 4, 6))
        with pytest.raises(TypeError, match=f"LatticeSignature.{name} is an int"):
            LatticeSignature(*entries)


class TestDeriveParams:
    def test_base_angles(self, triple):
        p, k, pp = triple
        params = derive_params(LatticeSignature(*triple))
        assert params.theta == Fraction(1, p)
        assert params.phi == Fraction(1, k)
        assert params.alpha == Fraction(1, 2) + Fraction(1, pp)

    def test_parameter_table(self, triple):
        params = derive_params(LatticeSignature(*triple))
        got = (params.k_prime.to_json(), params.l.to_json(),
               params.l_prime.to_json(), params.d.to_json())
        assert got == PARAM_TABLE[triple]

    def test_non_integer_order(self):
        with pytest.raises(NonIntegerOrder):
            derive_params(LatticeSignature(5, 5, 5))

    def test_rejects_tiny_orders(self):
        with pytest.raises(ValueError):
            derive_params(LatticeSignature(1, 4, 4))


class TestConeAngles:
    def test_cone_table(self, triple):
        angles = cone_angles(LatticeSignature(*triple))
        assert tuple(str(a) for a in angles) == CONE_TABLE[triple]

    def test_angle_sum(self, triple):
        angles = cone_angles(LatticeSignature(*triple))
        assert sum(angles) == 6  # total cone angle 6*pi

    def test_out_of_range(self):
        with pytest.raises(AngleOutOfRange):
            cone_angles(LatticeSignature(2, 2, 2))


class TestDegeneracies:
    def test_sign_classification(self, triple):
        params = derive_params(LatticeSignature(*triple))
        assert set(params.degenerate) == DEGENERATE_SETS[triple]
        assert {name for name, order in params.named_orders.items()
                if order.status != "positive-finite"} == DEGENERATE_SETS[triple]

    def test_ridge_lists(self):
        params = derive_params(LatticeSignature(2, 6, 6))
        assert collapsed_ridges(params) == ("F(Q,Q^-1)", "F(K,R'0^-1)", "F(K^-1,R'0)")

    def test_one_rule_feeds_every_reader(self, monkeypatch, capsys):
        # Dropping d from the one rule on (2,6,6) changes the collapsed
        # ridges, the deleted orbit rows and the list suffix alike. The
        # vertex table reads each chart's angles instead: see
        # test_domain.py::TestVerticesD::test_collapse_is_read_per_chart.
        params = derive_params(LatticeSignature(2, 6, 6))

        def readings():
            deleted = apply_degenerations(base_orbit_table(), params)[2]
            main(["list"])
            line = capsys.readouterr().out.splitlines()[9]
            return collapsed_ridges(params), [row.label for row in deleted], line

        ridges, deleted, line = readings()
        degenerate = DerivedParams.degenerate.fget
        monkeypatch.setattr(DerivedParams, "degenerate", property(
            lambda self: {n: o for n, o in degenerate(self).items() if n != "d"}))
        mutated = readings()
        assert line.endswith("degenerate: l,d")
        assert mutated[0] == tuple(r for r in ridges if r != "F(Q,Q^-1)")
        assert set(mutated[1]) < set(deleted)
        assert "F(Q,Q^-1)" in set(deleted) - set(mutated[1])
        assert mutated[2].endswith("degenerate: l")


@given(st.integers(2, 24), st.integers(2, 24), st.integers(2, 24))
def test_deficits_always_sum_to_four(p, k, pp):
    sig = LatticeSignature(p, k, pp)
    try:
        angles = cone_angles(sig)
    except (NonIntegerOrder, AngleOutOfRange):
        return
    assert sum(2 - a for a in angles) == 4
