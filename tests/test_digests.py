"""Bit-identity of the move matrices, forms, line vectors and words.

``tests/data/chart_digests.json`` holds, for each of the 13 catalog triples,
the SHA-256 of ``tobytes()`` of every array below, or the name of the
exception its construction raises:

- on each chart C1, C2, C3: the six moves, the area form, and each vector of
  ``lines_t`` and ``lines_s``;
- each entry of the word table ``_pairing_words``, the letters' inverses included;
- each word that ``group_checks`` evaluates, in the order of evaluation.

``tests/data/stream_digests.json`` holds the same for the sampler stream,
on the 7 generic triples at two seeds: each of the first 3 batches of
``ball_batches`` on the ball of C3, through ``FULL_ARCS`` and through D's
z-sectors, and the points of ``_sample_domain_points`` for 500 samples.

A change that reorders a float product or rounds an angle differently moves
a digest, even where every check still passes.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import dmlat.verification as verification_mod
from dmlat.catalog import LatticeSignature
from dmlat.domain import _pairing_words, build_domain
from dmlat.moves import (
    configurations_of,
    hermitian_form,
    move_A1,
    move_J,
    move_P,
    move_P_inverse,
    move_R1,
    move_R2,
)
from dmlat.polyhedron import lines_s, lines_t
from dmlat.sampling import FULL_ARCS, ball_batches
from dmlat.verification import _sample_domain_points, group_checks

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "chart_digests.json").read_text())
STREAMS = json.loads((DATA / "stream_digests.json").read_text())
GENERIC = [(4, 4, 5), (4, 4, 6), (3, 3, 4), (2, 6, 6), (2, 4, 3), (2, 3, 3),
           (3, 4, 4)]
STREAM_SEEDS = [7, 3000017]

MOVES = {"R1": move_R1, "R2": move_R2, "A1": move_A1, "P": move_P, "J": move_J,
         "P^-1": move_P_inverse}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _built(build):
    """The digest of what ``build()`` returns, or the name of what it raises."""
    try:
        return build()
    except Exception as exc:  # the golden records which refusal it was
        return type(exc).__name__


def _table_digests(build) -> dict[str, str] | str:
    table = _built(build)
    return table if isinstance(table, str) else {k: _digest(v) for k, v in table.items()}


def chart_digests(c) -> dict:
    out = {name: _built(lambda: _digest(move(c).matrix)) for name, move in MOVES.items()}
    out["form"] = _built(lambda: _digest(hermitian_form(c)))
    out["lines_t"] = _table_digests(lambda: lines_t(c))
    out["lines_s"] = _table_digests(lambda: lines_s(c))
    return out


def triple_digests(triple, monkeypatch) -> dict:
    """Everything the golden holds for one triple."""
    sig = LatticeSignature(*triple)
    charts = {f"C{i}": chart_digests(c) for i, c in enumerate(configurations_of(sig), 1)}
    words = _table_digests(lambda: _pairing_words(build_domain(sig)))
    evaluated: list[list[str]] = []
    word = verification_mod._word

    def recording(text, w):
        m = word(text, w)
        evaluated.append([text, _digest(m)])
        return m

    monkeypatch.setattr(verification_mod, "_word", recording)
    group_checks(sig)
    monkeypatch.undo()
    return {"charts": charts, "words": words, "group_checks": evaluated}


def test_golden_covers_the_catalog(triple):
    key = ",".join(map(str, triple))
    entry = GOLDEN["triples"][key]
    assert len(GOLDEN["triples"]) == 13
    assert len(entry["charts"]) == 3 and len(entry["words"]) == 21
    assert len(entry["group_checks"]) >= 20


def test_digests_unchanged(triple, monkeypatch):
    key = ",".join(map(str, triple))
    assert triple_digests(triple, monkeypatch) == GOLDEN["triples"][key]


def stream_digests(triple, seed) -> dict:
    """Everything the stream golden holds for one triple at one seed."""
    dom = build_domain(LatticeSignature(*triple))
    h = hermitian_form(dom.c3)
    out = {name: [_digest(r) for r in islice(ball_batches(h, arcs, seed, 500), 3)]
           for name, arcs in (("full", FULL_ARCS), ("sectors", dom.sectors[:2]))}
    out["domain_points"] = _digest(_sample_domain_points(dom, 500, seed))
    return out


def test_stream_golden_covers_the_generic_triples():
    assert sorted(STREAMS["streams"]) == sorted(",".join(map(str, t)) for t in GENERIC)
    for entry in STREAMS["streams"].values():
        assert sorted(entry) == sorted(map(str, STREAM_SEEDS))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("trip", GENERIC, ids=str)
def test_stream_digests_unchanged(trip, seed):
    key = ",".join(map(str, trip))
    assert stream_digests(trip, seed) == STREAMS["streams"][key][str(seed)]
