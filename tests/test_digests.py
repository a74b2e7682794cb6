"""Bit-identity of the move matrices, forms, line vectors and words.

``tests/data/chart_digests.json`` holds, for each of the 13 catalog triples,
the SHA-256 of ``tobytes()`` of every array below, or the name of the
exception its construction raises:

- on each chart C1, C2, C3: the six moves, the area form, and each vector of
  ``lines_t`` and ``lines_s``;
- each entry of the word table ``_pairing_words``;
- each word that ``group_checks`` evaluates, in the order of evaluation.

A change that reorders a float product or rounds an angle differently moves
a digest, even where every check still passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

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
from dmlat.verification import group_checks

GOLDEN = json.loads((Path(__file__).parent / "data" / "chart_digests.json").read_text())

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
    assert len(entry["charts"]) == 3 and len(entry["words"]) == 14
    assert len(entry["group_checks"]) >= 20


def test_digests_unchanged(triple, monkeypatch):
    key = ",".join(map(str, triple))
    assert triple_digests(triple, monkeypatch) == GOLDEN["triples"][key]
