import copy
import gc
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hakensum import (DomainError, DualCurveCertificate, HakenSumError,
                      ScenarioError)
from hakensum import cli, schema
from hakensum.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, main

import generators
from oracles import resolve_by_union_find, walk_dual_curve
from test_known_faults import run_capped

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def builtin_data(name):
    """The raw JSON of a builtin scenario, by its file stem."""
    return json.loads((schema.resources.files("hakensum") / "data"
                       / (name + ".json")).read_text(encoding="utf-8"))


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSchema:
    def test_builtins_load(self):
        for name in schema.BUILTIN_SCENARIOS:
            loaded = schema.load_builtin(name)
            assert loaded.name == name

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ScenarioError, match=(
                r"^unknown builtin scenario 'no-such-scenario'$")):
            schema.load_builtin("no-such-scenario")

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError):
            schema.scenario_from_dict({"version": 1, "surprise": {}})

    def test_version_checked(self):
        # JSON true and 1.0 equal 1 in Python, but neither is the integer 1.
        for version in (99, True, 1.0):
            with pytest.raises(ScenarioError):
                schema.scenario_from_dict({"version": version})
        with pytest.raises(ScenarioError):
            schema.scenario_from_dict({})

    def test_expectations_need_provenance(self):
        with pytest.raises(ScenarioError):
            schema.scenario_from_dict({
                "version": 1,
                "expectations": {"connected": {"value": True}},
            })

    def test_separating_key_is_ignored(self):
        # Files written before the flag was dropped still load unchanged.
        plain = {"euler": -2, "orientable": True, "boundary_components": 2}
        flagged = dict(plain, separating=True)
        assert (schema.descriptor_from_dict(flagged)
                == schema.descriptor_from_dict(plain))


# One perturbed declaration per expectation kind that resolve or sweep
# checks: (kind, builtin, field, wrong value, argv).
MISMATCHES = [
    ("genus", "cg_pretzel_m5", "base", 5, ["resolve", "--n", "6"]),
    ("connected", "cg_pretzel_m5", "value", False, ["resolve", "--n", "6"]),
    ("residue_classes", "solid_torus_reduced", "value", 4,
     ["sweep", "--from", "1", "--to", "10"]),
]


class TestExitCodes:
    def test_success_is_zero(self):
        code, _ = run_cli("resolve", "--scenario", "cg-pretzel-m5",
                          "--n", "6")
        assert code == EXIT_OK

    def test_missing_file_is_input_error(self):
        code, _ = run_cli("resolve", "--scenario", "no-such-file.json",
                          "--n", "2")
        assert code == EXIT_INPUT

    def test_corrupted_file_is_input_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = run_cli("resolve", "--scenario", str(path), "--n", "2")
        assert code == EXIT_INPUT

    def test_file_holding_an_array_is_input_error(self, tmp_path):
        path = write_scenario(tmp_path, [{"version": 1}])
        assert _run_captured(["resolve", "--scenario", path, "--n", "2"]) == (
            EXIT_INPUT, "", "error: scenario file must hold a JSON object\n")

    @pytest.mark.parametrize("name,content", [
        ("long-integer", b'{"version": 1, "name": ' + b"9" * 5000 + b"}"),
        ("not-utf-8", b'{"version": 1, "name": "caf\xe9"}'),
        ("deep-nesting", b"[" * 100000 + b"]" * 100000),
    ], ids=["long-integer", "not-utf-8", "deep-nesting"])
    def test_undecodable_file_is_input_error(self, tmp_path, capsys, name,
                                             content):
        if (name == "long-integer"
                and not hasattr(sys, "get_int_max_str_digits")):
            pytest.skip("this Python has no limit on integer digits")
        path = tmp_path / (name + ".json")
        path.write_bytes(content)
        code, out = run_cli("resolve", "--scenario", str(path), "--n", "2")
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: corrupted scenario file {}: ".format(
            path))

    def test_missing_section_is_input_error(self, tmp_path):
        path = write_scenario(tmp_path, {"version": 1, "name": "empty"})
        code, _ = run_cli("resolve", "--scenario", path, "--n", "2")
        assert code == EXIT_INPUT

    def test_unbalanced_word_is_input_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "version": 1, "name": "unbalanced",
            "disk_pattern": {"word": "++-", "copies": 3},
        })
        code, _ = run_cli("trace", "--scenario", path)
        assert code == EXIT_INPUT
        assert "Traceback" not in capsys.readouterr().err

    def test_usage_error_is_input_error(self):
        code, _ = run_cli("resolve", "--scenario", "cg-pretzel-m5")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("argv", [
        ["shifts", "--scenario", "doubled-handlebody", "--n", "99"],
        ["reduce", "--scenario", "trivial-removal-demo", "--n", "3"],
        ["sweep", "--scenario", "doubled-handlebody", "--from", "0",
         "--to", "2", "--n", "3"],
        ["trace", "--scenario", "doubled-handlebody", "--strict"],
        ["shifts", "--scenario", "doubled-handlebody", "--strict"],
        ["certify", "--scenario", "doubled-handlebody", "--n", "10",
         "--level", "5", "--strict"],
    ], ids=["shifts--n", "reduce--n", "sweep--n", "trace--strict",
            "shifts--strict", "certify--strict"])
    def test_flag_the_subcommand_ignores_is_usage_error(self, capsys, argv):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "kind,builtin,field,bad,argv", MISMATCHES,
        ids=[kind for kind, *_ in MISMATCHES])
    def test_expectation_mismatch_is_two(self, tmp_path, kind, builtin,
                                         field, bad, argv):
        raw = builtin_data(builtin)
        raw["expectations"][kind][field] = bad
        path = write_scenario(tmp_path, raw)
        code, out = run_cli(argv[0], "--scenario", path, *argv[1:],
                            "--format", "json")
        assert code == EXIT_MISMATCH
        report = json.loads(out)
        assert not report["passed"]
        assert [c["passed"] for c in report["checks"]
                if c["name"] == kind] == [False]

    def test_every_expectation_kind_can_fail(self):
        # copy_parity qualifies the other kinds and is no check itself.
        assert ({kind for kind, *_ in MISMATCHES}
                == set(schema.KNOWN_EXPECTATIONS) - {"copy_parity"})

    @pytest.mark.parametrize("kind", ["euler_constant", "surprise"])
    def test_unknown_expectation_rejected(self, tmp_path, capsys, kind):
        raw = builtin_data("solid_torus_reduced")
        raw["expectations"][kind] = {"value": -4, "source": "derived"}
        path = write_scenario(tmp_path, raw)
        code, out = run_cli("sweep", "--scenario", path,
                            "--from", "1", "--to", "10")
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: unknown expectation {!r}\n".format(kind)

    def test_strict_stops_at_first_mismatch(self, tmp_path):
        raw = builtin_data("cg_pretzel_m5")
        raw["expectations"]["connected"]["value"] = False
        path = write_scenario(tmp_path, raw)
        code, _ = run_cli("resolve", "--scenario", path, "--n", "6",
                          "--strict")
        assert code == EXIT_MISMATCH

    def test_strict_sweep_writes_no_report(self, capsys):
        code = main(["sweep", "--scenario",
                     str(GOLDEN / "genus_mismatch.json"),
                     "--from", "0", "--to", "6", "--strict"])
        out, err = capsys.readouterr()
        assert code == EXIT_MISMATCH
        assert out == ""
        assert err == "expectation failed: genus\n"


CERTIFY = ["certify", "--n", "10", "--level", "5"]
# (builtin, path to the field, the context its message names, argv).
NUMERIC_FIELDS = [
    ("doubled_handlebody", ("patch_complex", "f_patches", 0, "euler"),
     "patch_complex", ["resolve", "--n", "2"]),
    ("doubled_handlebody", ("patch_complex", "f_descriptor", "euler"),
     "patch_complex.f_descriptor", ["resolve", "--n", "2"]),
    ("doubled_handlebody",
     ("patch_complex", "f_descriptor", "boundary_components"),
     "patch_complex.f_descriptor", ["resolve", "--n", "2"]),
    ("doubled_handlebody", ("disk_pattern", "copies"), "disk_pattern",
     ["trace"]),
    ("doubled_handlebody", ("disk_pattern", "inner_closed"), "disk_pattern",
     ["trace"]),
    ("doubled_handlebody", ("disk_pattern", "crossing_components"),
     "disk_pattern", ["trace"]),
    ("trivial_removal_demo", ("inventory", "copies"), "inventory",
     ["reduce"]),
    ("doubled_handlebody", ("sides", "euler", "splitting"), "sides.euler",
     CERTIFY),
    ("doubled_handlebody", ("sides", "euler", "summand"), "sides.euler",
     CERTIFY),
    ("doubled_handlebody", ("sides", "euler", "prime_side"), "sides.euler",
     CERTIFY),
    ("doubled_handlebody", ("sides", "euler", "dblprime_side"),
     "sides.euler", CERTIFY),
    ("doubled_handlebody", ("sides", "boundary_count"), "sides",
     ["shifts"]),
]


def _run_fault(tmp_path, builtin, path, bad, argv):
    """(exit code, stdout, stderr) of ``argv`` on a builtin whose field at
    ``path`` is set to ``bad``, or deleted if ``bad`` is ``MISSING``."""
    raw = builtin_data(builtin)
    target = raw
    for key in path[:-1]:
        target = target[key]
    if bad is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = bad
    scenario = write_scenario(tmp_path, raw)
    return _run_captured([argv[0], "--scenario", scenario, *argv[1:]])


class TestNumericFields:
    @pytest.mark.parametrize("bad", ["x", True, 2.5])
    @pytest.mark.parametrize(
        "builtin,path,context,argv", NUMERIC_FIELDS,
        ids=[".".join(map(str, path)) for _, path, _, _ in NUMERIC_FIELDS])
    def test_non_integer_is_input_error(self, tmp_path, builtin, path,
                                        context, argv, bad):
        assert _run_fault(tmp_path, builtin, path, bad, argv) == (
            EXIT_INPUT, "", "error: {}: field {!r} must be an integer, got "
            "{!r}\n".format(context, path[-1], bad))


class _Missing:
    """Marks a type fault that deletes the field instead of setting it."""

    def __repr__(self):
        return "<missing>"


MISSING = _Missing()
RESOLVE = ["resolve", "--n", "2"]
SWEEP = ["sweep", "--from", "1", "--to", "4"]
PARITY = "error: parity must be '+', '-' or None\n"
# (builtin, path to the field, its wrong value, argv, the whole stderr).
TYPE_FAULTS = [
    ("doubled_handlebody", ("patch_complex",), 5, RESOLVE,
     "error: patch_complex must be an object, got 5\n"),
    ("doubled_handlebody", ("patch_complex", "f_patches"), [5], RESOLVE,
     "error: patch_complex: every entry of 'f_patches' must be an object, "
     "got 5\n"),
    ("doubled_handlebody", ("patch_complex", "seams"), [5], RESOLVE,
     "error: patch_complex: every entry of 'seams' must be an object, "
     "got 5\n"),
    ("doubled_handlebody", ("patch_complex", "g_patches", 0, "id"), 3,
     RESOLVE, "error: patch_complex: field 'id' must be a string, got 3\n"),
    ("doubled_handlebody", ("patch_complex", "f_patches", 0, "seams"), 5,
     RESOLVE, "error: patch_complex: field 'seams' must be a list, got 5\n"),
    ("doubled_handlebody", ("patch_complex", "f_patches", 1, "seams", 1), 5,
     RESOLVE, "error: patch_complex: every entry of 'seams' must be a seam "
     "id, got 5\n"),
    ("doubled_handlebody", ("patch_complex", "f_patches", 0, "oriented"),
     "yes", RESOLVE, "error: patch_complex: field 'oriented' must be a "
     "boolean or null, got 'yes'\n"),
    ("doubled_handlebody", ("patch_complex", "seams", 0, "id"), 3, RESOLVE,
     "error: patch_complex.seam: field 'id' must be a string, got 3\n"),
    ("doubled_handlebody", ("patch_complex", "seams", 0, "quadrants"), 5,
     RESOLVE, "error: patch_complex: field 'quadrants' must be a list, "
     "got 5\n"),
    ("doubled_handlebody", ("patch_complex", "seams", 0, "quadrants", 2), 5,
     RESOLVE, "error: patch_complex: every entry of 'quadrants' must be a "
     "patch id, got 5\n"),
    ("doubled_handlebody", ("patch_complex", "seams", 0, "level_shift"),
     True, RESOLVE, "error: patch_complex: field 'level_shift' must be an "
     "integer, got True\n"),
    ("doubled_handlebody", ("patch_complex", "seams", 0, "level_shift"),
     1.0, RESOLVE, "error: patch_complex: field 'level_shift' must be an "
     "integer, got 1.0\n"),
    ("doubled_handlebody", ("disk_pattern", "word"), 7, ["trace"],
     "error: disk_pattern: field 'word' must be a string, got 7\n"),
    ("doubled_handlebody", ("sides", "prime", "betas"), [5], ["shifts"],
     "error: sides.prime: every entry of 'betas' must be an object, "
     "got 5\n"),
    ("doubled_handlebody", ("sides", "prime", "betas", 0, "crossings"), 5,
     ["shifts"], "error: sides.prime: field 'crossings' must be a list, "
     "got 5\n"),
    *[("doubled_handlebody", ("sides", "prime", "betas", 0, "crossings", 1),
       bad, ["shifts"], "error: sides.prime: every entry of 'crossings' "
       "must be +1 or -1, got {!r}\n".format(bad))
      for bad in (True, 1.0, [1])],
    ("doubled_handlebody", ("sides", "prime", "betas", 0, "crossings", 1), 2,
     ["shifts"], "error: crossing entries must be +1 or -1, got 2\n"),
    ("trivial_removal_demo", ("inventory", "curves"), [5], ["reduce"],
     "error: inventory: every entry of 'curves' must be an object, got 5\n"),
    ("trivial_removal_demo", ("inventory", "curves", 0, "id"), 5,
     ["reduce"], "error: inventory: field 'id' must be a string, got 5\n"),
    ("trivial_removal_demo",
     ("inventory", "curves", 1, "essential_on_k"), "false", ["reduce"],
     "error: inventory: field 'essential_on_k' must be a boolean, got "
     "'false'\n"),
    *[("solid_torus_reduced", ("inventory", "curves", 1, "parity"), bad,
       ["reduce"], PARITY) for bad in ("x", ["+"], {"a": 1}, 1)],
    ("solid_torus_reduced", ("inventory", "curves", 1, "parity"), None,
     ["reduce"], "error: parity must be present on every curve or on "
     "none\n"),
    ("doubled_handlebody",
     ("patch_complex", "f_descriptor", "orientable"), "no", RESOLVE,
     "error: patch_complex.f_descriptor: field 'orientable' must be a "
     "boolean, got 'no'\n"),
    ("doubled_handlebody",
     ("patch_complex", "g_descriptor", "orientable"), None, RESOLVE,
     "error: patch_complex.g_descriptor: field 'orientable' must be a "
     "boolean, got None\n"),
    ("solid_torus_reduced", ("name",), 5, SWEEP,
     "error: scenario: field 'name' must be a string, got 5\n"),
    ("solid_torus_reduced", ("expectations", "residue_classes", "value"),
     3.0, SWEEP, "error: expectations.residue_classes: field 'value' must "
     "be an integer, got 3.0\n"),
    ("doubled_handlebody", ("expectations", "genus", "per_copy"), "2",
     RESOLVE, "error: expectations.genus: field 'per_copy' must be an "
     "integer, got '2'\n"),
    ("doubled_handlebody", ("expectations", "genus", "base"), MISSING,
     RESOLVE, "error: expectations.genus: missing field 'base'\n"),
    ("doubled_handlebody", ("expectations", "connected", "value"), 1,
     RESOLVE, "error: expectations.connected: field 'value' must be a "
     "boolean, got 1\n"),
    ("doubled_handlebody", ("expectations", "copy_parity", "value"),
     ["even"], RESOLVE, "error: expectations.copy_parity: field 'value' "
     "must be a string, got ['even']\n"),
    ("doubled_handlebody", ("expectations", "copy_parity", "value"),
     "evn", ["resolve", "--n", "5"], "error: expectation 'copy_parity' "
     "takes only 'even', got 'evn'\n"),
    ("doubled_handlebody", ("gluing_graph", "pieces", 0, "kind"), "blah",
     ["trace"], "error: unknown piece kind 'blah'\n"),
    ("doubled_handlebody", ("gluing_graph", "pieces", 1, "base_euler"),
     "x", RESOLVE, "error: gluing_graph.piece: field 'base_euler' must be "
     "an integer, got 'x'\n"),
    ("doubled_handlebody", ("gluing_graph", "gluings", 0, "pieces", 1), 5,
     ["trace"], "error: gluing_graph.gluing: every entry of 'pieces' must "
     "be a piece id, got 5\n"),
    ("doubled_handlebody", ("gluing_graph", "gluings", 1, "primitive_in"),
     5, ["trace"], "error: gluing_graph.gluing: field 'primitive_in' must "
     "be a string or null, got 5\n"),
    # Well-typed values that the library's own checks refuse, one for each
    # refusal the loader or a subcommand reaches.
    ("doubled_handlebody", ("sides", "euler"), MISSING, CERTIFY,
     "error: the sides section carries no euler data, so no certificate "
     "can be checked\n"),
    ("doubled_handlebody", ("disk_pattern", "copies"), -1, ["trace"],
     "error: copies must be nonnegative\n"),
    ("doubled_handlebody", ("disk_pattern", "inner_closed"), -1, ["trace"],
     "error: inner_closed must be nonnegative\n"),
    ("doubled_handlebody", ("gluing_graph", "pieces", 0, "genus"), MISSING,
     ["trace"], "error: piece inner_handlebody: a handlebody needs a "
     "nonnegative genus\n"),
    ("doubled_handlebody", ("gluing_graph", "gluings", 1, "primitive_in"),
     "inner_handlebody", ["trace"], "error: annulus lower_annulus: "
     "primitive_in must name one of its two pieces\n"),
    ("doubled_handlebody", ("gluing_graph", "pieces", 2, "id"),
     "inner_handlebody", ["trace"], "error: duplicate piece id\n"),
    ("doubled_handlebody", ("gluing_graph", "gluings", 0, "pieces", 1),
     "nowhere", ["trace"], "error: annulus upper_annulus references "
     "missing piece 'nowhere'\n"),
    ("solid_torus_reduced", ("inventory",),
     {"copies": 1, "curves": [{"id": "c1", "parity": "+"},
                              {"id": "c2", "parity": "-"},
                              {"id": "c3", "parity": "+"}]}, ["reduce"],
     "error: cancelling 1 pairs needs more than 1 copies\n"),
    ("doubled_handlebody", ("expectations", "genus"), 5, RESOLVE,
     "error: expectation 'genus' must be an object\n"),
    ("doubled_handlebody", ("sides", "prime", "betas"), [], ["shifts"],
     "error: a side system needs at least one arc\n"),
    ("doubled_handlebody", ("sides", "boundary_count"), -1, ["shifts"],
     "error: boundary_count must be nonnegative\n"),
    ("doubled_handlebody",
     ("patch_complex", "f_descriptor", "boundary_components"), -1, RESOLVE,
     "error: boundary_components must be nonnegative\n"),
    ("doubled_handlebody", ("patch_complex", "seams", 0, "level_shift"), 2,
     RESOLVE, "error: seam alpha: level_shift must be -1, 0 or +1\n"),
    ("doubled_handlebody", ("patch_complex", "f_patches", 1, "id"),
     "twist_annulus", RESOLVE, "error: duplicate patch id\n"),
    ("doubled_handlebody", ("patch_complex", "g_patches", 0, "id"),
     "twist_annulus", RESOLVE, "error: patch ids must not be shared between "
     "the two sides\n"),
    ("doubled_handlebody", ("patch_complex", "seams", 1, "id"), "alpha",
     RESOLVE, "error: duplicate seam id\n"),
    ("doubled_handlebody", ("patch_complex", "g_descriptor", "euler"), -2,
     RESOLVE, "error: G patches sum to euler -4 but the descriptor says "
     "-2\n"),
]


class TestTypeFaults:
    @pytest.mark.parametrize(
        "builtin,path,bad,argv,message", TYPE_FAULTS,
        ids=["{}={!r}".format(".".join(map(str, path)), bad)
             for _, path, bad, _, _ in TYPE_FAULTS])
    def test_wrong_type_is_input_error(self, tmp_path, builtin, path, bad,
                                       argv, message):
        assert _run_fault(tmp_path, builtin, path, bad, argv) == (
            EXIT_INPUT, "", message)


@pytest.mark.parametrize("bad", [False, 0, "", [], {}])
@pytest.mark.parametrize("key", ["f_descriptor", "g_descriptor"])
def test_a_descriptor_that_is_not_an_object_is_input_error(
        tmp_path, capsys, key, bad):
    # Only an absent or null descriptor means "no descriptor"; a falsy
    # value is parsed, so the Euler cross-check is never skipped silently.
    raw = builtin_data("doubled_handlebody")
    raw["patch_complex"][key] = bad
    code, out = run_cli("resolve", "--scenario", write_scenario(tmp_path, raw),
                        "--n", "2")
    err = capsys.readouterr().err
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: patch_complex.{}".format(key))
    raw["patch_complex"][key] = None
    code, _ = run_cli("resolve", "--scenario", write_scenario(tmp_path, raw),
                      "--n", "2")
    assert code == EXIT_OK


# One fault per curve field: (fault, inventory, the message it raises).
CURVE_FAULTS = [
    ("id missing", {"copies": 2, "curves": [{"parity": "+"}]},
     "inventory: missing field 'id'"),
    ("id null", {"copies": 2, "curves": [{"id": None}]},
     "inventory: field 'id' must be a string, got None"),
    ("id 5", {"copies": 2, "curves": [{"id": "a"}, {"id": 5}]},
     "inventory: field 'id' must be a string, got 5"),
    ("essential_on_k null",
     {"copies": 2, "curves": [{"id": "a", "essential_on_k": None}]},
     "inventory: field 'essential_on_k' must be a boolean, got None"),
    ("essential_on_k 'false'",
     {"copies": 2, "curves": [{"id": "a", "essential_on_k": "false"}]},
     "inventory: field 'essential_on_k' must be a boolean, got 'false'"),
    ("essential_on_k 0",
     {"copies": 2, "curves": [{"id": "a", "essential_on_k": 0}]},
     "inventory: field 'essential_on_k' must be a boolean, got 0"),
    ("entry not an object", {"copies": 2, "curves": [{"id": "a"}, "b"]},
     "inventory: every entry of 'curves' must be an object, got 'b'"),
    ("copies missing", {"curves": [{"id": "a"}]},
     "inventory: missing field 'copies'"),
    ("copies 2.5", {"copies": 2.5, "curves": [{"id": "a"}]},
     "inventory: field 'copies' must be an integer, got 2.5"),
    # The fault at a later curve, and two faults: the earlier curve's
    # message wins, and within one curve 'id' comes before
    # 'essential_on_k'; every curve is read before 'copies', and an entry
    # that is no object before any curve's fields.
    ("essential_on_k 1 at the fourth curve",
     {"copies": 2, "curves": [{"id": "a"}, {"id": "b"}, {"id": "c"},
                              {"id": "d", "essential_on_k": 1},
                              {"id": "e"}]},
     "inventory: field 'essential_on_k' must be a boolean, got 1"),
    ("id missing at the third curve",
     {"copies": 2, "curves": [{"id": "a"}, {"id": "b"},
                              {"essential_on_k": True}]},
     "inventory: missing field 'id'"),
    ("essential_on_k then id, in two curves",
     {"copies": 2, "curves": [{"id": "a", "essential_on_k": "no"},
                              {"id": 7}]},
     "inventory: field 'essential_on_k' must be a boolean, got 'no'"),
    ("id then essential_on_k, in two curves",
     {"copies": 2, "curves": [{"id": 7},
                              {"id": "b", "essential_on_k": "no"}]},
     "inventory: field 'id' must be a string, got 7"),
    ("id and essential_on_k in one curve",
     {"copies": 2, "curves": [{"id": "a"},
                              {"id": None, "essential_on_k": "no"}]},
     "inventory: field 'id' must be a string, got None"),
    ("id and copies", {"copies": "x", "curves": [{"id": 5}]},
     "inventory: field 'id' must be a string, got 5"),
    ("copies and a bad parity",
     {"copies": 2.5, "curves": [{"id": "a", "parity": "x"}]},
     "inventory: field 'copies' must be an integer, got 2.5"),
    ("a bad parity and a later id",
     {"copies": 2, "curves": [{"id": "a", "parity": "x"},
                              {"id": 5, "parity": "+"}]},
     "inventory: field 'id' must be a string, got 5"),
    ("id and a later entry not an object",
     {"copies": 2, "curves": [{"id": 5}, {"id": "b"}, 3]},
     "inventory: every entry of 'curves' must be an object, got 3"),
]

# The inventory's own checks, reached through the loader in their order:
# bad parity, duplicate id, mixed parity, negative copies.
INVENTORY_CHECK_FAULTS = [
    ("bad parity and a duplicate id",
     {"copies": 2, "curves": [{"id": "a", "parity": "+"},
                              {"id": "a", "parity": ["+"]}]},
     "parity must be '+', '-' or None"),
    ("duplicate id and mixed parity",
     {"copies": 2, "curves": [{"id": "a", "parity": "+"}, {"id": "a"}]},
     "duplicate curve id"),
    ("mixed parity and negative copies",
     {"copies": -1, "curves": [{"id": "a"}, {"id": "b", "parity": "-"}]},
     "parity must be present on every curve or on none"),
    ("negative copies", {"copies": -1, "curves": [{"id": "a"}]},
     "copies must be nonnegative"),
]


class _Label(str):
    """A str subclass, which a string field accepts as it is."""


class _Entry(dict):
    """A dict subclass, which an object entry accepts as it is."""


def _random_inventory(rng):
    """(the inventory's JSON form, the inventory it describes)."""
    k = rng.randint(0, 12)
    signs = rng.choice([None, "+-"])
    entries, ids, essentials, parities = [], [], [], []
    for i in range(k):
        cid = _Label("c{}".format(i)) if i == 0 else "c{}".format(i)
        entry = {"id": cid}
        essential = rng.random() < 0.8
        if not essential or rng.random() < 0.5:
            entry["essential_on_k"] = essential
        parity = rng.choice(signs) if signs else None
        if parity is not None:
            entry["parity"] = parity
        entries.append(entry)
        ids.append(cid)
        essentials.append(essential)
        parities.append(parity)
    copies = rng.randint(0, 9)
    return {"copies": copies, "curves": entries}, generators.inventory(
        essentials, copies, parities=parities, ids=ids)


def _tracked_reachable(root):
    """How many objects reachable from ``root`` the collector tracks,
    not counting classes and what only they reach."""
    seen, stack, tracked = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked


class TestInventoryParser:
    @pytest.mark.parametrize("inventory,message",
                             [case[1:] for case in CURVE_FAULTS],
                             ids=[case[0] for case in CURVE_FAULTS])
    def test_curve_fault_message(self, inventory, message):
        with pytest.raises(ScenarioError) as info:
            schema.scenario_from_dict({"version": 1,
                                       "inventory": inventory})
        assert str(info.value) == message

    @pytest.mark.parametrize("inventory,message",
                             [case[1:] for case in INVENTORY_CHECK_FAULTS],
                             ids=[case[0] for case in INVENTORY_CHECK_FAULTS])
    def test_inventory_check_message(self, inventory, message):
        with pytest.raises(DomainError) as info:
            schema.scenario_from_dict({"version": 1,
                                       "inventory": inventory})
        assert str(info.value) == message

    def test_a_loaded_inventory_holds_a_constant_number_of_gc_objects(
            self, tmp_path):
        # Every object the collector tracks is walked again by each full
        # collection, so an inventory must not hold one per curve.
        raw = {"version": 1, "inventory": {"copies": 1001, "curves": [
            {"id": "c{}".format(i), "essential_on_k": True,
             "parity": "-" if i % 5 < 2 else "+"} for i in range(1000)]}}
        inv = schema.load_scenario(write_scenario(tmp_path, raw)).inventory
        gc.collect()
        assert _tracked_reachable(inv) <= 8

    def test_subclassed_id_and_entry_accepted(self):
        parsed = schema.inventory_from_dict(
            {"copies": 3, "curves": [{"id": "a"},
                                     _Entry(id=_Label("b"), parity=None),
                                     {"id": _Label("c"),
                                      "essential_on_k": False}]})
        assert [type(cid) for cid in parsed.ids] == [str, _Label, _Label]
        assert parsed.ids == ("a", "b", "c")
        assert parsed.essential == (True, True, False)
        assert parsed.parities == (None, None, None)
        assert parsed.copies == 3

    def test_parses_to_the_inventory_it_describes(self, seed):
        rng = random.Random(16000 + seed)
        for _ in range(300):
            raw, described = _random_inventory(rng)
            parsed = schema.scenario_from_dict(
                {"version": 1, "inventory": raw}).inventory
            assert parsed == described
            for column in (parsed.ids, parsed.essential, parsed.parities):
                assert type(column) is tuple
            assert ([type(cid) for cid in parsed.ids]
                    == [type(cid) for cid in described.ids])


class TestReports:
    def test_byte_identical_reports(self):
        args = ("resolve", "--scenario", "cg-pretzel-m5", "--n", "8",
                "--format", "json")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second
        args = ("sweep", "--scenario", "doubled-handlebody",
                "--from", "0", "--to", "8")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_resolve_reports_genus(self):
        code, out = run_cli("resolve", "--scenario", "cg-pretzel-m5",
                            "--n", "6", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["components"][0]["genus"] == 10
        assert report["total_euler"] == -18

    def test_trace_empty_word_keeps_all_copies(self, tmp_path):
        path = write_scenario(tmp_path, {
            "version": 1, "name": "empty-word",
            "disk_pattern": {"word": "", "copies": 5},
        })
        code, out = run_cli("trace", "--scenario", path,
                            "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["gamma_count"] == 5
        assert report["arc_count"] == 0

    def test_trace_copy_override_keeps_declared_components(self, tmp_path):
        path = write_scenario(tmp_path, {
            "version": 1, "name": "declared-components",
            "disk_pattern": {"word": "+-+-", "copies": 12,
                             "inner_closed": 1, "crossing_components": 5},
        })
        _, plain = run_cli("trace", "--scenario", path)
        code, overridden = run_cli("trace", "--scenario", path, "--n", "12")
        assert code == EXIT_OK
        assert "extra_closed_bound: 5" in plain
        assert overridden == plain

    def test_trace_copy_override(self):
        code, out = run_cli("trace", "--scenario", "doubled-handlebody",
                            "--n", "7", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["copies"] == 7

    def test_shifts_report(self):
        code, out = run_cli("shifts", "--scenario", "doubled-handlebody",
                            "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["shifts_prime"] == [0, 0, 0]
        assert report["shift_lcm"] == 0
        assert report["margin"] == 2

    @pytest.mark.parametrize("disk, boundary", [(True, 2), (False, 0)])
    def test_shifts_boundary_count_falls_back_to_the_disk_word(
            self, tmp_path, disk, boundary):
        # With no sides.boundary_count the disk word's boundary count is
        # used: 2 for the word '+-', and 0 with no disk_pattern at all.
        raw = builtin_data("doubled_handlebody")
        del raw["sides"]["boundary_count"]
        if not disk:
            del raw["disk_pattern"]
        code, out = run_cli("shifts", "--scenario",
                            write_scenario(tmp_path, raw), "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert (report["boundary_count"], report["margin"]) == (boundary, 2)

    def test_certify_zero_side(self):
        code, out = run_cli("certify", "--scenario", "doubled-handlebody",
                            "--n", "10", "--level", "5",
                            "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["kind"] == "zero-side"
        assert report["validated"] is True

    def test_certify_dual_curve_validates_under_oracle(self, tmp_path):
        path = write_scenario(tmp_path, {
            "version": 1, "name": "dual-demo",
            "sides": {
                "boundary_count": 0,
                "prime": {"alpha_count": 1,
                          "betas": [{"index": 1, "crossings": [1, 1]}]},
                "dblprime": {"alpha_count": 1,
                             "betas": [{"index": 1,
                                        "crossings": [1, 1, 1]}]},
                "euler": {"splitting": -4, "summand": -4,
                          "prime_side": -2, "dblprime_side": -2},
            },
        })
        code, out = run_cli("certify", "--scenario", path, "--n", "30",
                            "--level", "10", "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["kind"] == "dual-curve"
        cert = DualCurveCertificate(
            level=report["level"], copies=report["copies"],
            prime_index=report["prime_arc"],
            prime_shift=report["prime_shift"],
            prime_crossings=(1, 1),
            dblprime_index=report["dblprime_arc"],
            dblprime_shift=report["dblprime_shift"],
            dblprime_crossings=(1, 1, 1),
            period=report["period"],
            prime_levels=tuple(report["prime_levels"]),
            dblprime_levels=tuple(report["dblprime_levels"]))
        assert walk_dual_curve(cert)

    def test_certify_out_of_range_is_input_error(self):
        code, _ = run_cli("certify", "--scenario", "doubled-handlebody",
                          "--n", "10", "--level", "1")
        assert code == EXIT_INPUT

    def test_certify_negative_copy_count_says_so(self, capsys):
        code, out = run_cli("certify", "--scenario", "doubled-handlebody",
                            "--n", "-1", "--level", "1")
        assert code == EXIT_INPUT and out == ""
        assert (capsys.readouterr().err
                == "error: copies must be nonnegative\n")

    def test_trace_past_sys_maxsize(self):
        n = 10 ** 20
        code, out = run_cli("trace", "--scenario", "doubled-handlebody",
                            "--n", str(n), "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        high, low = report["excursion"]
        assert report["gamma_count"] == n - high + low
        assert report["gamma_levels"] == [1 - low, n - high]
        assert report["annulus_count"] == n - high + low - 1

    def test_reduce_demo(self):
        code, out = run_cli("reduce", "--scenario", "trivial-removal-demo",
                            "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["inessential_removed"] == 1
        assert report["copies_after"] == 5

    def test_reduce_curve_naming_no_seam_is_input_error(self, tmp_path,
                                                          capsys):
        raw = builtin_data("trivial_removal_demo")
        for curve in raw["inventory"]["curves"]:
            if curve["id"] == "puncture":
                curve["id"] = "punctur"
        path = write_scenario(tmp_path, raw)
        code, out = run_cli("reduce", "--scenario", path)
        assert code == EXIT_INPUT
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'punctur'" in err
        assert "Traceback" not in err

    def test_sweep_torus_classes(self):
        code, out = run_cli("sweep", "--scenario", "solid-torus-reduced",
                            "--from", "1", "--to", "10",
                            "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["residue_period"] == 3
        assert report["residue_classes"] == [[1, 4, 7, 10], [2, 5, 8],
                                             [3, 6, 9]]

    def test_torus_sweep_from_a_negative_count_is_input_error(self,
                                                              capsys):
        code, out = run_cli("sweep", "--scenario", "solid-torus-reduced",
                            "--from", "-3", "--to", "2")
        assert code == EXIT_INPUT and out == ""
        assert (capsys.readouterr().err
                == "error: copies must be nonnegative\n")

    def test_sweep_progression(self):
        code, out = run_cli("sweep", "--scenario", "cg-pretzel-m5",
                            "--from", "0", "--to", "6",
                            "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        genus_by_copies = {row["copies"]: row["genus"]
                           for row in report["progression"]}
        assert genus_by_copies[0] == 4
        assert genus_by_copies[6] == 10
        # odd copy counts disconnect the curated complex by design
        assert genus_by_copies[3] is None

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("builtin, genus, euler_f, euler_g", [
        ("cg-pretzel-m5", lambda n: n + 4, -6, -2),
        ("doubled-handlebody", lambda n: 2 * n + 3, -4, -4)])
    def test_huge_copy_count_resolves_in_closed_form(self, fmt, builtin,
                                                     genus, euler_f, euler_g):
        # The declared genus expectation of each builtin, at a copy count
        # no per-copy table could hold.
        n = 10 ** 12
        code, out = run_cli("resolve", "--scenario", builtin, "--n", str(n),
                            "--format", fmt)
        assert code == EXIT_OK
        if fmt == "json":
            report = json.loads(out)
        else:
            report = {key: json.loads(value) for key, value in (
                line.split(": ", 1) for line in out.splitlines()
                if line.startswith(("components:", "total_euler:")))}
        assert [c["genus"] for c in report["components"]] == [genus(n)]
        assert report["total_euler"] == euler_f + n * euler_g

    @pytest.mark.parametrize("n", [0, 1, 16, 17])
    def test_no_g_patches_resolve_to_f(self, tmp_path, n):
        path = write_scenario(tmp_path, {
            "version": 1, "name": "no-g",
            "patch_complex": {
                "f_patches": [{"id": "f0", "euler": 2},
                              {"id": "f1", "euler": -2, "oriented": None},
                              {"id": "f2", "euler": 1, "oriented": False}],
                "g_patches": [], "seams": []}})
        code, out = run_cli("resolve", "--scenario", path, "--n", str(n),
                            "--format", "json")
        assert code == EXIT_OK
        expected = resolve_by_union_find(
            schema.load_scenario(path).patch_complex, n)
        assert json.loads(out)["components"] == [
            {"closed": c.closed, "euler": c.euler, "genus": c.genus,
             "orientable": c.orientable, "pieces": c.piece_count}
            for c, count in expected.runs for _ in range(count)]

    @pytest.mark.parametrize("scenario", ["doubled-handlebody",
                                          "solid-torus-reduced"])
    def test_sweep_lists_at_most_max_listed_rows(self, monkeypatch, capsys,
                                                 scenario):
        monkeypatch.setattr(cli, "MAX_LISTED", 5)
        code, _ = run_cli("sweep", "--scenario", scenario,
                          "--from", "0", "--to", "4")
        assert code == EXIT_OK
        code, out = run_cli("sweep", "--scenario", scenario,
                            "--from", "0", "--to", "5")
        assert code == EXIT_INPUT and out == ""
        assert capsys.readouterr().err == (
            "error: the sweep covers 6 copy counts, more than the 5 a "
            "report may list\n")

    def test_resolve_lists_at_most_max_listed_components(self, monkeypatch,
                                                         capsys):
        # This complex resolves to n + 2 components at n copies.
        monkeypatch.setattr(cli, "MAX_LISTED", 5)
        path = str(GOLDEN / "seeded_6538.json")
        code, out = run_cli("resolve", "--scenario", path, "--n", "3",
                            "--format", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["components"]) == 5
        code, out = run_cli("resolve", "--scenario", path, "--n", "4")
        assert code == EXIT_INPUT and out == ""
        assert capsys.readouterr().err == (
            "error: the sum has 6 components, more than the 5 a report "
            "may list\n")

    def test_reduce_lists_at_most_max_listed_components(self, monkeypatch,
                                                        capsys):
        # The demo's profile check lists the 6 components of its sum.
        monkeypatch.setattr(cli, "MAX_LISTED", 6)
        code, _ = run_cli("reduce", "--scenario", "trivial-removal-demo")
        assert code == EXIT_OK
        monkeypatch.setattr(cli, "MAX_LISTED", 5)
        code, out = run_cli("reduce", "--scenario", "trivial-removal-demo")
        assert code == EXIT_INPUT and out == ""
        assert capsys.readouterr().err == (
            "error: the sum has 6 components, more than the 5 a report "
            "may list\n")

    def test_sweep_without_sections_is_input_error(self, tmp_path):
        path = write_scenario(tmp_path, {"version": 1, "name": "hollow"})
        code, _ = run_cli("sweep", "--scenario", path,
                          "--from", "1", "--to", "3")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("sections", ["none", "plain-inventory"])
    @pytest.mark.parametrize("bounds, message", [
        (("4", "3"), "--from must not exceed --to"),
        (("0", str(cli.MAX_LISTED)),
         "the sweep covers {} copy counts, more than the {} a report may "
         "list".format(cli.MAX_LISTED + 1, cli.MAX_LISTED)),
        (("1", "3"), "scenario 'hollow' has neither a patch complex nor a "
                     "torus inventory to sweep"),
    ], ids=["range", "cap", "nothing"])
    def test_sweep_with_nothing_to_sweep_refuses_in_order(
            self, tmp_path, capsys, sections, bounds, message):
        # The range and the cap are judged before the sections, and an
        # inventory without parities is no torus inventory.
        payload = {"version": 1, "name": "hollow"}
        if sections == "plain-inventory":
            payload["inventory"] = builtin_data(
                "trivial_removal_demo")["inventory"]
        path = write_scenario(tmp_path, payload)
        code, out = run_cli("sweep", "--scenario", path,
                            "--from", bounds[0], "--to", bounds[1])
        assert (code, out) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == "error: {}\n".format(message)


def _json_values():
    """Nested JSON-like values.  A list is drawn as runs: each item repeated
    as one object, the way a report lists a run of equal components, or as
    equal but distinct copies."""
    escaped = st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600a')
    leaves = (st.none() | st.booleans() | st.integers()
              | st.integers(-10 ** 40, 10 ** 40) | st.floats() | st.text()
              | escaped)

    def runs(items):
        return [x for item, count, shared in items
                for x in ([item] * count if shared
                          else [copy.deepcopy(item) for _ in range(count)])]

    def extend(children):
        items = st.tuples(children, st.integers(1, 3), st.booleans())
        return (st.lists(items, max_size=4).map(runs)
                | st.dictionaries(st.text(), children, max_size=4))
    return st.recursive(leaves, extend, max_leaves=30)


class TestJsonRenderer:
    @given(_json_values())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_indented_encoder(self, value):
        assert cli._json(value) == json.dumps(value, sort_keys=True,
                                              indent=2)

    def test_empty_containers_and_runs(self):
        d = {"b": [], "a": {}}
        value = [d, d, dict(d), [d] * 3, "\u00e9\"\\\x01", -5, True, None]
        assert cli._json(value) == json.dumps(value, sort_keys=True,
                                              indent=2)

    def test_integer_past_the_digit_limit_raises(self):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no limit on integer digits")
        with pytest.raises(ValueError):
            cli._json({"copies": [10 ** 4300]})


SCENARIOS = (sorted(schema.BUILTIN_SCENARIOS)
             + [str(GOLDEN / name) for name in ("genus_mismatch.json",
                                                 "seeded_6538.json")]
             + ["no-such-file.json"])
COUNTS = st.one_of(
    st.integers(-1, 60).map(str),
    st.sampled_from((str(10 ** 12), str(10 ** 18), "-1", "9" * 4300,
                     "1" + "0" * 4300)))
FLAGS = sorted({flag for _, _, flags in cli.SUBCOMMANDS.values()
                for flag, _ in flags})


def _flag_words(draw, flag):
    return [flag] if flag == "--strict" else [flag, draw(COUNTS)]


@st.composite
def cli_argv(draw):
    """Mostly a subcommand with the flags it reads, its required ones
    always; sometimes one foreign flag, an unknown subcommand, a -h or an
    empty argv.  A count is small, 10**12, 10**18, -1, or has 4,300 digits
    (the most the interpreter's default limit parses) or 4,301."""
    shape = draw(st.sampled_from(("call",) * 6
                                 + ("foreign", "unknown", "help", "empty")))
    if shape == "empty":
        return []
    name = draw(st.sampled_from(sorted(cli.SUBCOMMANDS)))
    flags = cli.SUBCOMMANDS[name][2]
    groups = [["--scenario", draw(st.sampled_from(SCENARIOS))]]
    for flag, options in flags:
        if options.get("required") or draw(st.booleans()):
            groups.append(_flag_words(draw, flag))
    if draw(st.booleans()):
        groups.append(["--format",
                       draw(st.sampled_from(("text", "json", "xml")))])
    if shape == "foreign":
        own = {flag for flag, _ in flags}
        groups.append(_flag_words(draw, draw(st.sampled_from(
            [flag for flag in FLAGS if flag not in own]))))
    argv = ["glue" if shape == "unknown" else name]
    for group in draw(st.permutations(groups)):
        argv += group
    if shape == "help":
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("-h", "--help"))))
    return argv


class TestExitContract:
    @given(cli_argv())
    @settings(max_examples=150, deadline=None)
    def test_any_argv_ends_in_a_contract_code(self, argv):
        code, _, err = _run_captured(argv)
        assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_INPUT)
        assert "Traceback" not in err


def _parse_outcome(parse, argv):
    """What one parse of ``argv`` gives: its Namespace, its usage message,
    or its SystemExit code with what it wrote to stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            return ("args", parse(list(argv)))
        except HakenSumError as exc:
            return ("error", str(exc))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue())


class TestDispatchedParse:
    """``main`` parses a named subcommand's words with that subcommand's
    parser alone; the outcome is the full parser's for every argv."""

    @given(cli_argv())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_parser(self, argv):
        assert (_parse_outcome(cli._parse, argv)
                == _parse_outcome(cli.build_parser().parse_args, argv))

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["glue"], ["resolve"], ["resolve", "--"],
        ["resolve", "--scenario", "x", "--n", "2", "--", "--strict"],
        ["resolve", "--sc", "x", "--n=2"], ["resolve", "--he"],
        ["--", "resolve"], ["resolve", "--scenario", "x", "--n", "2", "a b"],
    ])
    def test_edge_argv(self, argv):
        assert (_parse_outcome(cli._parse, argv)
                == _parse_outcome(cli.build_parser().parse_args, argv))


def _run_captured(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


FUZZ_SOURCES = {
    **{name: builtin_data(stem[:-len(".json")])
       for name, stem in schema.BUILTIN_SCENARIOS.items()},
    **{path.name: json.loads(path.read_text(encoding="utf-8"))
       for path in sorted(GOLDEN.glob("*.json")) if path.name != "cases.json"},
}
# Type swaps: bools and floats for ints, and unhashable values.
FUZZ_VALUES = (None, True, False, 0, -1, 7, 1.0, 2.5, "", "x", "+", [], [1],
               [[1]], [{}], {}, {"a": [1]})
FUZZ_CALLS = (["resolve", "--n", "2"], ["trace"], ["shifts"],
              ["certify", "--n", "10", "--level", "5"], ["reduce"],
              ["sweep", "--from", "0", "--to", "4"])


def _paths(value, path=()):
    """The path to every value inside a JSON document, the root first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_scenario(draw):
    """A builtin or golden scenario with one to three of its values, at any
    depth, deleted or swapped for a value of another type."""
    raw = copy.deepcopy(FUZZ_SOURCES[draw(st.sampled_from(
        sorted(FUZZ_SOURCES)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(raw))[1:]))
        target = raw
        for key in path[:-1]:
            target = target[key]
        if draw(st.booleans()):
            del target[path[-1]]
        else:
            target[path[-1]] = copy.deepcopy(draw(st.sampled_from(
                FUZZ_VALUES)))
    return raw


# Text that no JSON decoder accepts, put in place of one value: an
# integer literal one digit past the interpreter's limit, bytes that are
# no UTF-8, and arrays nested past any recursion limit.
UNDECODABLE = {
    "digits": b"1" + b"0" * 4300,
    "utf-8": b'"\xff\xfe"',
    "nesting": b"[" * 100000 + b"]" * 100000,
}


class TestLoaderFuzz:
    @given(mutated_scenario(), st.sampled_from(FUZZ_CALLS))
    @settings(max_examples=300, deadline=None)
    def test_a_mutated_file_ends_in_a_contract_code(self, tmp_path_factory,
                                                    raw, call):
        path = write_scenario(tmp_path_factory.mktemp("fuzz"), raw)
        code, _, err = _run_captured([call[0], "--scenario", path,
                                      *call[1:]])
        assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_INPUT)
        assert "Traceback" not in err

    # A seeded sample of the same files, each in a child process: a
    # signal (a negative code), a timeout or a traceback fails the case.
    @given(mutated_scenario(), st.sampled_from(FUZZ_CALLS))
    @settings(max_examples=20, derandomize=True, database=None,
              deadline=None)
    def test_a_mutated_file_in_a_capped_process_ends_in_a_contract_code(
            self, tmp_path_factory, raw, call):
        path = write_scenario(tmp_path_factory.mktemp("fuzz"), raw)
        run = run_capped(call[0], "--scenario", path, *call[1:], timeout=10)
        assert run.returncode in (EXIT_OK, EXIT_MISMATCH, EXIT_INPUT)
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("kind", sorted(UNDECODABLE))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_an_undecodable_file_is_one_error_line(self, tmp_path_factory,
                                                   kind, data):
        if kind == "digits" and not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no limit on integer digits")
        raw = copy.deepcopy(FUZZ_SOURCES[data.draw(st.sampled_from(
            sorted(FUZZ_SOURCES)))])
        path = data.draw(st.sampled_from(list(_paths(raw))[1:]))
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "MUTATION"
        text = json.dumps(raw).encode("utf-8").replace(
            b'"MUTATION"', UNDECODABLE[kind])
        file = tmp_path_factory.mktemp("fuzz") / "undecodable.json"
        file.write_bytes(text)
        call = data.draw(st.sampled_from(FUZZ_CALLS))
        code, out, err = _run_captured([call[0], "--scenario", str(file),
                                        *call[1:]])
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: corrupted scenario file {}: ".format(
            file))
        assert err.count("\n") == 1 and err.endswith("\n")


README_TEXT = ["resolve", "--scenario", "cg-pretzel-m5", "--n", "6"]
README_JSON = README_TEXT + ["--format", "json"]
# A README call in both formats, an unknown flag, an unknown subcommand,
# --help and a --strict mismatch, then the first two again.
STATE_SEQUENCE = [
    README_TEXT,
    README_JSON,
    README_TEXT + ["--bogus"],
    ["bogus", "--scenario", "cg-pretzel-m5"],
    ["resolve", "--help"],
    ["resolve", "--scenario", str(GOLDEN / "genus_mismatch.json"),
     "--n", "6", "--strict"],
    README_TEXT,
    README_JSON,
]


class TestSharedParser:
    """``build_parser`` builds one parser per process, and sharing it
    across ``main`` calls changes no byte and no exit code."""

    def test_no_parser_built_after_the_first_call(self, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        mixed = [
            README_TEXT,
            README_JSON,
            ["sweep", "--scenario", "doubled-handlebody", "--from", "0",
             "--to", "5"],
            ["trace", "--scenario", "doubled-handlebody", "--n", "12"],
            ["shifts", "--scenario", "doubled-handlebody"],
            ["certify", "--scenario", "doubled-handlebody", "--n", "10",
             "--level", "5", "--format", "json"],
            ["reduce", "--scenario", "trivial-removal-demo"],
            ["shifts", "--scenario", "doubled-handlebody", "--n", "3"],
            ["bogus"],
            ["resolve", "--scenario", "no-such-file.json", "--n", "2"],
        ]
        codes = [_run_captured(mixed[0])[0]]
        after_first = len(built)
        codes += [_run_captured(mixed[i % len(mixed)])[0]
                  for i in range(1, 50)]
        assert set(codes) == {EXIT_OK, EXIT_INPUT}
        assert len(built) == after_first
        # The counter does see construction.
        cli._Parser(prog="probe")
        assert len(built) == after_first + 1

    def test_shared_parser_matches_a_fresh_process(self, monkeypatch):
        # Help text wraps to the terminal width; pin it on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        in_process = [_run_captured(argv) for argv in STATE_SEQUENCE]
        fresh = {}
        for argv in STATE_SEQUENCE:
            key = tuple(argv)
            if key not in fresh:
                run = subprocess.run(
                    [sys.executable, "-m", "hakensum.cli", *argv],
                    cwd=ROOT, env=dict(os.environ, COLUMNS="80",
                                       PYTHONPATH=str(ROOT / "src")),
                    capture_output=True, encoding="utf-8", timeout=60)
                fresh[key] = (run.returncode, run.stdout, run.stderr)
        assert len(fresh) == 6
        assert [code for code, _, _ in in_process] == [
            EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_INPUT, 0, EXIT_MISMATCH,
            EXIT_OK, EXIT_OK]
        assert "usage: hakensum resolve" in in_process[4][1]
        for argv, result in zip(STATE_SEQUENCE, in_process):
            assert result == fresh[tuple(argv)], argv
