"""Faults that still reproduce, pinned as strict expected failures.

Each test states the behaviour the fault breaks.  When a fix lands, its
test passes, strict xfail turns that into a failure, and the marker must
be removed with the fix; the test stays as the fault's regression test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

from hakensum import (AnnulusGluing, BetaArc, GluedPiece, GluingGraph,
                      HakenSumError, SideSystem, SumEulers,
                      compute_thresholds, essential_certificate,
                      handlebody_certificate, lift_beta)

ROOT = Path(__file__).resolve().parent.parent
# The caller's environment, so PYTHONDONTWRITEBYTECODE reaches the child.
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the validator checks only each lift's "
                   "endpoints, so a lift may leave [1, n] between them")
def test_certified_lifts_stay_in_the_band():
    # Shifts 1 and 5, margin 5: level 14 of 20 is in the certified band,
    # yet the prime lift from 18 walks 18, 19, 20, 21, 20, 19.
    prime = SideSystem("prime", (BetaArc("prime", 1, (1, 1, 1, -1, -1)),))
    dbl = SideSystem("dblprime", (BetaArc("dblprime", 1, (1,) * 5),))
    eulers = SumEulers(splitting=-4, summand=-2, prime_side=-2,
                       dblprime_side=-2)
    profile = compute_thresholds(2, prime, dbl)
    try:
        cert = essential_certificate(14, 20, profile, prime, dbl, eulers)
    except HakenSumError:
        return
    for side, levels, crossings in (
            ("prime", cert.prime_levels, cert.prime_crossings),
            ("dblprime", cert.dblprime_levels, cert.dblprime_crossings)):
        arc = BetaArc(side, 1, crossings)
        for start in levels:
            assert not lift_beta(arc, start, cert.copies).escaped


def _cap_address_space():
    limit = 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_capped(*argv, timeout=120):
    """One ``hakensum.cli`` call in a child process under a 1 GiB address
    space and a timeout in seconds, past which ``subprocess.TimeoutExpired``
    is raised; skips where ``resource`` is missing."""
    if resource is None:
        pytest.skip("this platform has no resource module")
    return subprocess.run(
        [sys.executable, "-m", "hakensum.cli", *argv], cwd=ROOT, env=ENV,
        preexec_fn=_cap_address_space, capture_output=True, encoding="utf-8",
        timeout=timeout)


def test_huge_copy_count_keeps_the_exit_contract():
    # The resolve printer lists one component per copy on this complex,
    # so past cli.MAX_LISTED components the call is refused up front.
    run = run_capped(
        "resolve", "--scenario",
        str(ROOT / "tests" / "golden" / "seeded_6538.json"),
        "--n", "1000000000000")
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr == (
        "error: the sum has 1000000000002 components, more than the "
        "100000 a report may list\n")


def test_huge_sweep_on_a_growing_complex_keeps_the_exit_contract():
    # The sum keeps its runs, so a row costs the same at any n: only a
    # resolve report lists the components.
    run = run_capped(
        "sweep", "--scenario",
        str(ROOT / "tests" / "golden" / "seeded_6538.json"),
        "--from", "999999999998", "--to", "1000000000000",
        "--format", "json")
    assert run.returncode == 0
    assert "Traceback" not in run.stderr
    rows = json.loads(run.stdout)["progression"]
    assert [(r["copies"], r["components"]) for r in rows] == [
        (n, n + 2) for n in range(999999999998, 1000000000001)]


def test_huge_reduce_keeps_the_exit_contract(tmp_path):
    # remove_trivial resolves both sums in O(runs) and cmd_reduce compares
    # them, so only the report's listing of the profiles meets
    # cli.MAX_LISTED.
    raw = json.loads((ROOT / "src" / "hakensum" / "data"
                      / "trivial_removal_demo.json").read_text(
                          encoding="utf-8"))
    raw["inventory"]["copies"] = 10 ** 12
    path = tmp_path / "huge-inventory.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    run = run_capped("reduce", "--scenario", str(path))
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr == (
        "error: the sum has 1000000000000 components, more than the "
        "100000 a report may list\n")


def test_huge_report_value_keeps_the_exit_contract(tmp_path):
    # The summand's euler is -2000, so at n = 10**4299 total_euler has
    # more than 4,300 digits, though --n itself parses.
    raw = json.loads((ROOT / "src" / "hakensum" / "data"
                      / "cg_pretzel_m5.json").read_text(encoding="utf-8"))
    pc = raw["patch_complex"]
    pc["g_descriptor"]["euler"] = -2000
    for patch in pc["g_patches"]:
        if patch["id"] == "summand_main":
            patch["euler"] = -2000
    path = tmp_path / "huge-euler.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    run = run_capped("resolve", "--scenario", str(path),
                     "--n", str(10 ** 4299))
    assert run.returncode in (0, 2, 3)
    assert "Traceback" not in run.stderr
    if hasattr(sys, "get_int_max_str_digits"):
        # The report is rendered whole first, so none of it is written.
        assert run.returncode == 3 and run.stdout == ""
        assert run.stderr.startswith("error: cannot print the report: ")


@pytest.mark.parametrize("argv", [
    ["resolve", "--scenario",
     str(ROOT / "tests" / "golden" / "seeded_6538.json"),
     "--n", "9" * 4300],
    ["sweep", "--scenario", "doubled-handlebody",
     "--from", "0", "--to", "9" * 4300],
], ids=["resolve-cap-message", "sweep-cap-message"])
def test_count_past_the_digit_limit_in_a_message_keeps_the_exit_contract(
        argv):
    # --n and --to parse at 4,300 digits, but the count that the cap
    # message states has one digit more, so formatting it raises
    # ValueError inside the subcommand, not while the report renders.
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer digits")
    run = run_capped(*argv)
    assert "Traceback" not in run.stderr
    assert run.returncode == 3 and run.stdout == ""
    assert run.stderr.startswith("error: cannot print the report: ")
    assert run.stderr.count("\n") == 1


def _assert_no_proof_of_negative_genus(pieces):
    graph = GluingGraph(
        pieces=pieces,
        gluings=(AnnulusGluing(id="e", pieces=("a", "b"),
                               primitive_in="a"),))
    try:
        proof = handlebody_certificate(graph)
    except HakenSumError:
        return
    assert not proof.succeeded or proof.genus >= 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an annulus primitive in a genus-0 handlebody "
                   "is accepted, and the genus drops below 0")
def test_no_handlebody_proof_of_negative_genus():
    _assert_no_proof_of_negative_genus(
        (GluedPiece(id="a", kind="handlebody", genus=0),
         GluedPiece(id="b", kind="handlebody", genus=0)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an annulus primitive in a product over a disk "
                   "is accepted, and the genus drops below 0")
@pytest.mark.parametrize("other", [
    GluedPiece(id="b", kind="product", base_euler=1),
    GluedPiece(id="b", kind="handlebody", genus=0),
], ids=["product", "handlebody"])
def test_no_handlebody_proof_of_negative_genus_through_a_product(other):
    # The same fault with a product over a disk (euler 1) as the piece
    # the annulus is primitive in: genus 1 - (1 + 1) = -1.
    _assert_no_proof_of_negative_genus(
        (GluedPiece(id="a", kind="product", base_euler=1), other))
