"""CLI subcommands, exit codes and deterministic JSON reports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmlat
import dmlat.sampling as sampling_mod
import dmlat.verification as verification_mod
from dmlat.cli import build_parser, main

from conftest import ALL_TRIPLES
from test_moves import K_PRIME_INFINITE

# The list, euler and check reports hold no floats, so they are the same on
# every machine.
DATA = Path(__file__).parent / "data"
EULER_GOLDEN = dict(zip(ALL_TRIPLES, (DATA / "euler.jsonl").read_text()
                        .splitlines(keepends=True)))
# `--json vertices` of the 13 catalog triples and two `--force` triples, keyed
# "p,k,p'": exit code, table verdict, notes, and one [label, collapsed,
# coordinates] row per vertex (coordinates as [re, im] pairs, or null).
VERTICES_GOLDEN = json.loads((DATA / "vertices.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "list")
        assert (code, out) == (0, (DATA / "list.txt").read_text())

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "list")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "dmlat-report/1"
        assert len(doc["signatures"]) == 13

    def test_json_matches_golden_report(self, capsys):
        code, out, _ = run(capsys, "--json", "list")
        assert (code, out) == (0, (DATA / "list.json").read_text())


class TestEuler:
    def test_text_example(self, capsys):
        code, out, _ = run(capsys, "euler", "4", "4", "6")
        assert code == 0
        assert out.strip() == "chi = 13/48, volume = 13/18 · π²"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "euler", "4", "4", "5")
        doc = json.loads(out)
        assert doc["chi"] == {"num": 99, "den": 400}
        assert doc["volume_coefficient"] == {"num": 33, "den": 50}

    def test_json_matches_golden_report(self, capsys, triple):
        code, out, _ = run(capsys, "--json", "euler", *map(str, triple))
        assert (code, out) == (0, EULER_GOLDEN[triple])

    # euler has no exploratory mode: one refusal, with or without --force.
    CATALOG_ONLY = ("error: (9,9,9) is not a catalog signature; this command "
                    "requires a catalog signature\n")

    def test_non_catalog_rejected(self, capsys):
        code, out, err = run(capsys, "euler", "9", "9", "9")
        assert (code, out, err) == (2, "", self.CATALOG_ONLY)

    def test_force_still_rejected_for_euler(self, capsys):
        code, out, err = run(capsys, "--force", "euler", "9", "9", "9")
        assert (code, out, err) == (2, "", self.CATALOG_ONLY)


class TestCheck:
    @pytest.mark.parametrize("command", ["check", "vertices", "tessellate"])
    def test_k_prime_infinite(self, capsys, command):
        # The C2 chart is singular on each k' = inf triple, and each takes
        # the path of (3,3,3): check and vertices skip what only C2 carries
        # and pass; tessellate, which samples D through C2, is a clean error.
        for triple in K_PRIME_INFINITE:
            code, out, err = run(capsys, "--force", command, *map(str, triple))
            if command == "tessellate":
                assert (code, out, err) == (
                    2, "", "error: sampling requires the generic regime\n")
            else:
                assert (code, err) == (0, ""), triple

    @pytest.mark.parametrize("command", ["check", "vertices", "tessellate"])
    @pytest.mark.parametrize("triple,angle", [
        ("2 2 3", "0"), ("2 2 4", "0"), ("4 4 2", "2")])
    def test_degenerate_cone_angle_is_an_error(self, capsys, command, triple,
                                               angle):
        # A cone angle of 0 or 2*pi is refused before any matrix is built.
        code, out, err = run(capsys, "--force", command, *triple.split())
        assert (code, out) == (2, "")
        assert err == f"error: cone angle {angle}*pi out of (0, 2*pi)\n"

    def test_check_all_matches_golden_report(self, capsys):
        golden = (DATA / "check_all.json").read_text()
        code, out, _ = run(capsys, "--json", "check", "--all")
        assert (code, out) == (0, golden)

    def test_check_all_evaluates_each_order_once(self, capsys, monkeypatch):
        # 81 relation exponents of the catalog are positive and finite; each
        # is one cycle's order too, and is measured once for both rows.
        calls = []
        measure = verification_mod.projective_order
        monkeypatch.setattr(verification_mod, "projective_order",
                            lambda *args: calls.append(args) or measure(*args))
        code, _, _ = run(capsys, "check", "--all")
        assert (code, len(calls)) == (0, 81)

    def test_single(self, capsys):
        code, out, _ = run(capsys, "check", "4", "4", "5")
        assert code == 0
        assert "all checks passed" in out

    @pytest.mark.parametrize("argv", [
        ("--tolerance", "1e-10", "check", "18", "18", "9"),
        ("--force", "check", "24", "4", "8"),
        ("--force", "check", "4", "24", "8"),
        ("--force", "check", "24", "3", "8"),
    ], ids=["18-18-9-tol-1e-10", "24-4-8", "4-24-8", "24-3-8"])
    def test_order_search_holds_near_the_tolerance(self, capsys, argv):
        # An order-18 power at 1e-10, and the order-24 powers R'2^p,
        # A'0^k' and (A'0R'2R'1)^l' at the default tolerance: taken one
        # factor at a time, each misses the identity by more than the
        # tolerance.
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "all checks passed" in out

    def test_kneg_row(self, capsys):
        code, out, _ = run(capsys, "check", "6", "6", "3")
        assert code == 0

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "--json", "check", "4", "4", "6")
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert any(c["name"].startswith("relation") for c in doc["checks"])

    def test_non_catalog_suggests_force(self, capsys):
        code, out, err = run(capsys, "check", "5", "5", "5")
        assert (code, out) == (2, "")
        assert err == ("error: (5,5,5) is not a catalog signature "
                       "(use --force for exploratory mode)\n")

    def test_missing_args(self, capsys):
        code, out, err = run(capsys, "check")
        assert code == 2

    @pytest.mark.parametrize("args", [("4", "4", "6", "--all"),
                                      ("--all", "4", "4", "6"),
                                      ("4", "--all")])
    def test_triple_and_all_is_an_error(self, capsys, args):
        # Before, the triple was ignored and all 13 triples were checked.
        code, out, err = run(capsys, "check", *args)
        assert (code, out) == (2, "")
        assert err == "error: check takes p k p' or --all, not both\n"


class TestVertices:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "vertices", "4", "4", "6")
        assert code == 0
        assert "v1:" in out and "v24:" in out

    def test_text_prints_no_signed_zero(self, capsys, triple):
        # A part that prints as zero prints as +0.000000, whatever its sign:
        # every catalog report has parts that are -0.0 or residues such as
        # -1e-17 from the cross products.
        code, out, _ = run(capsys, "vertices", *map(str, triple))
        assert "v24:" in out and "-0.000000" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "vertices", "3", "3", "4")
        doc = json.loads(out)
        assert doc["table_ok"] is True
        assert len(doc["vertices"]) == 24
        assert any(v["collapsed"] for v in doc["vertices"])

    def test_unplaced_vertex_is_noted(self, capsys):
        # At (3,3,3) v21-v23 are collapsed; v24 is not, and has no finite
        # point, so its cells are skipped and a note names it.
        code, out, _ = run(capsys, "--json", "vertices", "3", "3", "3")
        doc = json.loads(out)
        assert (code, doc["table_ok"]) == (0, True)
        v24 = doc["vertices"][23]
        assert (v24["label"], v24["collapsed"], v24["coordinates"]) == (
            "v24", False, None)
        assert doc["notes"][-1] == (
            "cells skipped for vertices with no finite point: ['v24']")

    @pytest.mark.parametrize("argv,labels", [
        (("vertices", "3", "3", "3"), ["v21", "v22", "v23", "v24"]),
        (("--force", "vertices", "2", "4", "8"), ["v24"]),
    ])
    def test_no_finite_point(self, capsys, argv, labels):
        # At (3,3,3) the C2 chart is singular and v21-v24 are zero vectors;
        # at (2,4,8) v24 is a point at infinity.
        _, out, _ = run(capsys, *argv)
        assert [line.split(":")[0] for line in out.splitlines()
                if ": no finite point" in line] == labels
        _, out, _ = run(capsys, "--json", *argv)
        assert [v["label"] for v in json.loads(out)["vertices"]
                if v["coordinates"] is None] == labels

    @pytest.mark.parametrize("triple,labels", [
        ("3 6 4", ["v21", "v22", "v23", "v24"]),
        ("2 6 3", ["v24"]),
        ("4 12 6", ["v21", "v22", "v23", "v24"]),
        ("12 4 6", ["v21", "v22", "v23", "v24"]),
    ])
    def test_singular_chart_vertex_not_placed(self, capsys, triple, labels):
        # At k' = inf these vertices are not collapsed and only the singular
        # C2 chart places them, at its degenerate image (0, 0, 1), the point
        # v1: the rows say so and give no coordinates.
        _, out, _ = run(capsys, "--force", "vertices", *triple.split())
        assert [line.split(":")[0] for line in out.splitlines()
                if ": not placed: only the singular second chart has it" in line] == labels
        _, out, _ = run(capsys, "--json", "--force", "vertices", *triple.split())
        doc = json.loads(out)
        assert [v["label"] for v in doc["vertices"]
                if v["coordinates"] is None and not v["collapsed"]] == labels
        assert doc["notes"][-1].endswith(f"only the singular second chart places: {labels}")

    @pytest.mark.parametrize("key", VERTICES_GOLDEN)
    def test_json_matches_golden_report(self, capsys, key):
        # Labels, flags, notes and exit code exactly; coordinates to 1e-12.
        want = VERTICES_GOLDEN[key]
        triple = key.split(",")
        force = [] if tuple(map(int, triple)) in ALL_TRIPLES else ["--force"]
        code, out, _ = run(capsys, "--json", *force, "vertices", *triple)
        doc = json.loads(out)
        assert (code, doc["table_ok"], doc["notes"]) == (
            want["exit"], want["table_ok"], want["notes"])
        got = [[v["label"], v["collapsed"], v["coordinates"]]
               for v in doc["vertices"]]
        assert [row[:2] for row in got] == [row[:2] for row in want["vertices"]]
        for (label, _, coords), (_, _, golden) in zip(got, want["vertices"]):
            assert (coords is None) == (golden is None), label
            if coords is not None:
                assert np.allclose(coords, golden, rtol=0, atol=1e-12), label


class TestTessellate:
    def test_default_ridge(self, capsys):
        code, out, _ = run(capsys, "tessellate", "4", "4", "6",
                           "--samples", "100")
        assert code == 0
        assert "all rows match" in out

    @pytest.mark.parametrize("trip", ["2 6 6", "4 4 6"])
    def test_unsupported_ridge_one_answer(self, capsys, trip):
        # F(K^-1,R'0) is collapsed on (2,6,6) but not on (4,4,6); neither
        # is a ridge that tessellate supports, and both get its refusal.
        code, out, err = run(capsys, "tessellate", *trip.split(),
                             "--ridge", "F(K^-1,R'0)")
        assert (code, out, err) == (2, "", "error: unsupported ridge F(K^-1,R'0)\n")

    def test_draw_cap_shortfall_fails(self, capsys, monkeypatch):
        # With its cap cut to one batch, the sampler stops short of the
        # requested count: the rows that were sampled match, but the report
        # must fail, and say why.
        monkeypatch.setattr(sampling_mod, "DRAWS_PER_SAMPLE", 1)
        code, out, _ = run(capsys, "tessellate", "2", "4", "3",
                           "--ridge", "F(K,K^-1)", "--samples", "500")
        assert (code, out.splitlines()[-1]) == (
            1, "99 of 500 samples (draw cap reached); SHORTFALL")
        code, out, _ = run(capsys, "--json", "tessellate", "2", "3", "3",
                           "--ridge", "F(K,K^-1)", "--samples", "500")
        report = json.loads(out)
        assert code == 1
        assert (report["samples_used"], report["samples_requested"],
                report["all_match"]) == (56, 500, False)

    def test_seed_that_fell_short_on_the_box_stream(self, capsys):
        # At this seed the sampler's box stream stopped at 497 of 500 points.
        code, out, _ = run(capsys, "--seed", "3003000894", "tessellate", "2",
                           "6", "6", "--ridge", "F(K,K^-1)", "--samples", "500")
        assert (code, out.splitlines()[-1]) == (0, "500 samples; all rows match")

    def test_json_deterministic(self, capsys):
        args = ("--json", "--seed", "11", "tessellate", "4", "4", "6",
                "--samples", "100")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        json.loads(out1)


@pytest.mark.parametrize("argv,flag", [
    (("--tolerance", "0", "check", "--all"), "--tolerance"),
    (("--tolerance", "-1", "check", "--all"), "--tolerance"),
    (("--tolerance", "nan", "check", "--all"), "--tolerance"),
    (("--tolerance", "inf", "check", "--all"), "--tolerance"),
    (("--tolerance", "tiny", "check", "--all"), "--tolerance"),
    (("tessellate", "4", "4", "6", "--samples", "2.5"), "--samples"),
    (("--seed", "2.5", "tessellate", "4", "4", "5", "--samples", "5"), "--seed"),
    (("tessellate", "4", "4", "6", "--samples", "0"), "--samples"),
    (("tessellate", "4", "4", "6", "--samples", "-5"), "--samples"),
    (("--seed", "-1", "tessellate", "4", "4", "5", "--samples", "5"), "--seed"),
    (("--seed", "x", "tessellate", "4", "4", "5", "--samples", "5"), "--seed"),
])
def test_bad_value_is_a_usage_error_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"error: argument {flag}: " in err


@pytest.mark.parametrize("value", ["1", "2"])
def test_tolerance_of_one_or_more_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--tolerance", value, "check", "--all"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert (f"error: argument --tolerance: must be a number in (0, 1), got '{value}'"
            in err)


def test_smallest_good_values_are_accepted(capsys):
    code, out, _ = run(capsys, "tessellate", "4", "4", "6", "--samples", "1")
    assert (code, out.splitlines()[-1]) == (0, "1 samples; all rows match")
    code, out, _ = run(capsys, "--seed", "0", "tessellate", "4", "4", "6",
                       "--samples", "5")
    assert (code, out.splitlines()[-1]) == (0, "5 samples; all rows match")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _outcome(capsys, argv):
    """Exit code, standard output and standard error of ``main(argv)``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error found by argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_carries_no_state_between_calls(capsys):
    tess = ["--json", "--seed", "3", "tessellate", "4", "4", "6", "--samples", "50"]
    argvs = [tess, ["frobnicate"],
             ["--tolerance", "1e-8", "--json", "check", "4", "4", "6"],
             ["--json", "tessellate", "4", "4", "6"], tess]
    build_parser.cache_clear()
    parser = build_parser()
    shared = [_outcome(capsys, argv) for argv in argvs]
    assert build_parser() is parser
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0]
    assert shared[0] == shared[4]
    # The fourth call takes the defaults, not the first call's seed and samples.
    assert shared[3] == _outcome(capsys, ["--json", "--seed", "7", "tessellate",
                                          "4", "4", "6", "--samples", "200"])
    assert json.loads(shared[3][1])["samples_requested"] == 200


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_reader_closing_the_pipe_gets_no_traceback(mode):
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    # The report is several times the one-page pipe, so the program is still
    # writing when the reader closes its end after one line.
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = {**os.environ, "PYTHONPATH": str(Path(dmlat.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dmlat.cli", *mode, "check", "--all"],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with open(read_end, "rb") as reader:
        assert reader.readline()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
