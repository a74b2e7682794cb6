"""The README demos print the verdicts of the CLI and exit 1 on a failure."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from dmlat.catalog import LatticeSignature
from dmlat.verification import CheckEntry, CheckReport, TessellationReport

DEMOS = Path(__file__).parents[1] / "demos"


def _demo(name: str):
    """The module of ``demos/<name>.py``, loaded afresh."""
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("agreement, used, verdict", [
    (1.0, 500, "all rows match"),
    (0.9, 500, "MISMATCH"),
    (0.9, 400, "MISMATCH"),
    (1.0, 400, "SHORTFALL"),
])
def test_tessellation_demo_verdicts(monkeypatch, capsys, agreement, used, verdict):
    # The verdicts of `dmlat tessellate`: a row below 1 is a MISMATCH before
    # a reached draw cap is a SHORTFALL.
    demo = _demo("tessellation_demo")
    monkeypatch.setattr(demo, "tessellation_sign_table", lambda sig, ridge, **_: (
        TessellationReport(sig, ridge, (("id", agreement),), used, 500)))
    code = demo.main()
    assert capsys.readouterr().out.count(f"=> {verdict}\n") == 2
    assert code == (0 if verdict == "all rows match" else 1)


def test_verify_signature_counts_failed_rows(monkeypatch, capsys):
    demo = _demo("verify_signature")
    sig = LatticeSignature(4, 4, 6)
    rel = CheckReport(sig, tuple(CheckEntry(s, s) for s in ("pass", "fail", "skipped")))
    monkeypatch.setattr(demo, "group_checks", lambda _: (rel, CheckReport(sig, ())))
    monkeypatch.setattr(demo.sys, "argv", ["verify_signature.py", "4", "4", "6"])
    assert demo.main() == 1
    out = capsys.readouterr().out
    assert "relations          1 pass, 1 fail, 1 skipped\n" in out
    assert "cycle checks       0 pass, 0 fail, 0 skipped\n" in out


def test_verify_signature_passes_on_334(monkeypatch, capsys):
    demo = _demo("verify_signature")
    monkeypatch.setattr(demo.sys, "argv", ["verify_signature.py", "3", "3", "4"])
    assert demo.main() == 0
    assert "FAILED" not in capsys.readouterr().out
