"""Frozen records: construction, immutability, equality, hash and repr."""

from __future__ import annotations

import pytest

from dmlat.catalog import DerivedParams, ExtOrder, LatticeSignature, derive_params
from dmlat.record import Record
from dmlat.verification import CheckEntry


def test_frozen():
    sig = LatticeSignature(4, 4, 6)
    with pytest.raises(AttributeError, match="frozen"):
        sig.p = 5
    with pytest.raises(AttributeError, match="frozen"):
        sig.extra = 1
    with pytest.raises(AttributeError, match="frozen"):
        del sig.p
    assert sig.p == 4


def test_value_equality_and_hash():
    a, b = LatticeSignature(4, 4, 6), LatticeSignature(4, 4, 6)
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash((4, 4, 6))
    assert {a: 1}[b] == 1
    assert a != LatticeSignature(4, 4, 5)
    assert a != (4, 4, 6) and not a == (4, 4, 6)
    # One field hashes as a 1-tuple, like the other records.
    assert ExtOrder(3) == ExtOrder(3) and hash(ExtOrder(3)) == hash((3,))
    assert ExtOrder(None) != ExtOrder(3)


def test_a_class_keeps_its_own_hash():
    class Own(Record):
        x: int

        def __hash__(self):
            return 7

    assert hash(Own(1)) == 7 and Own(1) == Own(1) and Own(1) != Own(2)


def test_a_class_keeps_its_own_eq():
    class Parity(Record):
        x: int

        def __eq__(self, other):
            return self.x % 2 == other.x % 2

        def __hash__(self):
            return self.x % 2

    assert Parity(1) == Parity(3) and Parity(1) != Parity(2)


def test_defaults_and_keywords():
    assert CheckEntry("R1", "pass") == CheckEntry(name="R1", status="pass", detail="")
    # Every field is stored in the instance, a default too.
    assert vars(CheckEntry("R1", "pass")) == {"name": "R1", "status": "pass", "detail": ""}
    assert CheckEntry("R1", status="fail", detail="x").detail == "x"
    params = derive_params(LatticeSignature(4, 4, 6))
    named = {name: getattr(params, name) for name in DerivedParams._fields}
    assert DerivedParams(**named) == params
    assert DerivedParams(params.alpha, params.theta, **{k: v for k, v in named.items()
                                                       if k not in ("alpha", "theta")}) == params


@pytest.mark.parametrize("args, kwargs, message", [
    ((4, 4), {}, r"missing required arguments: 'p_prime'"),
    ((), {"p": 4}, r"missing required arguments: 'k', 'p_prime'"),
    ((4, 4, 6, 1), {}, r"takes 3 arguments but 4 were given"),
    ((4, 4, 6), {"q": 1}, r"unexpected keyword argument 'q'"),
    ((4, 4), {"p": 1, "p_prime": 6}, r"multiple values for argument 'p'"),
])
def test_bad_arguments(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        LatticeSignature(*args, **kwargs)


def test_post_init_validates():
    with pytest.raises(ValueError, match="order magnitude"):
        ExtOrder(0)
    with pytest.raises(ValueError, match="order magnitude"):
        ExtOrder(value=0)


def test_repr():
    assert repr(LatticeSignature(4, 4, 6)) == "LatticeSignature(p=4, k=4, p_prime=6)"
    assert repr(CheckEntry("R1", "pass")) == "CheckEntry(name='R1', status='pass', detail='')"


def test_subclass_fields():
    class Base(Record):
        x: int
        y: int = 2

    class Child(Base, eq=False):
        z: int = 3

    assert Child._fields == ("x", "y", "z")
    c = Child(1)
    assert (c.x, c.y, c.z) == (1, 2, 3) and c != Child(1)
    assert Base(1) == Base(1, 2) and Base(1) != Base(1, 3)


def test_defaults_come_last():
    with pytest.raises(TypeError, match="without a default follows"):
        class Bad(Record):
            x: int = 0
            y: int
