"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``;
always evaluated) and pins the stated tolerance: every numeric assertion
is integer-exact and the timed criteria assert their wall-clock budget.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout

from hakensum import (CanState, DiskPattern, SumEulers,
                      applicable_moves, compute_thresholds,
                      doubled_handlebody_scenario, essential_certificate,
                      euler_of_sum, handlebody_certificate, lift_beta,
                      reduce_parities, remove_trivial, shift,
                      torus_periodicity, trace, tuna_can_step)
from hakensum.cli import main

from generators import (all_balanced_words, random_beta,
                        random_complex_with_trivial_seams,
                        random_parity_inventory, random_provable_graph,
                        random_side_system)
from oracles import (check_zero_side, euler_rank_genus, moves_by_listing,
                     residue_classes, splice_components, walk_dual_curve)

BASE_SEED = 20240229


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print("[FAIL] {}".format(name))
        raise
    print("[PASS] {}".format(name))


def run_cli_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--format", "json"])
    return code, json.loads(buf.getvalue())


def test_casson_gordon_genus_law(seed):
    with criterion("casson-gordon genus law: genus 2n + 4 for n in 0..20"):
        started = time.perf_counter()
        for n in range(0, 21):
            code, report = run_cli_json(
                "resolve", "--scenario", "cg-pretzel-m5",
                "--n", str(2 * n))
            assert code == 0
            assert len(report["components"]) == 1
            assert report["components"][0]["genus"] == 2 * n + 4
            assert report["total_euler"] == euler_of_sum(-6, -2, 2 * n)
        assert time.perf_counter() - started < 1.0


def test_new_example_genus_law(seed):
    with criterion("new-example genus law: genus 2n + 3 for even n in "
                   "0..20"):
        started = time.perf_counter()
        for n in range(0, 21, 2):
            _, report = doubled_handlebody_scenario(n)
            assert report.passed
            by_name = {c.name: c for c in report.checks}
            assert by_name["connected"].actual is True
            assert by_name["genus"].actual == 2 * n + 3
        assert time.perf_counter() - started < 1.0


def test_arcs_and_curves_census(seed):
    with criterion("arcs-and-curves census: exhaustive h <= 8, n <= 20, "
                   "against the splice oracle"):
        started = time.perf_counter()
        for pairs in range(0, 5):
            for word in all_balanced_words(pairs):
                h = len(word)
                for copies in range(0, 21):
                    pattern = DiskPattern(word=word, copies=copies)
                    report = trace(pattern)
                    assert report.arc_count == h // 2
                    assert (report.extra_closed_bound
                            <= pattern.crossing_components)
                    levels = list(report.gamma_levels)
                    assert levels == list(range(
                        report.gamma_levels.start,
                        report.gamma_levels.stop))
                    if copies > h:
                        assert report.gamma_count >= copies - h
                    gammas, arcs, extra = splice_components(word, copies)
                    assert set(levels) == gammas
                    assert arcs == h // 2
                    assert extra <= report.extra_closed_bound
        assert time.perf_counter() - started < 30.0


def test_shift_invariance_and_lift_range(seed):
    with criterion("shift invariance and in-band lifts: 1000 seeded "
                   "systems, zero violations"):
        started = time.perf_counter()
        rng = random.Random(BASE_SEED + seed + 1)
        for _ in range(1000):
            betas = [random_beta(rng, "prime", i + 1, max_crossings=8)
                     for i in range(rng.randint(1, 4))]
            bound = max(len(b.crossings) for b in betas)
            copies = 2 * bound + rng.randint(2, 12)
            for b in betas:
                expected = shift(b)
                for start in range(bound + 1, copies - bound):
                    walk = lift_beta(b, start, copies)
                    assert walk.terminal - walk.start == expected
                    assert not walk.escaped
        assert time.perf_counter() - started < 10.0


def test_certificate_soundness(seed):
    with criterion("certificate soundness: 500 seeded certificates, all "
                   "validated by the independent walker"):
        started = time.perf_counter()
        rng = random.Random(BASE_SEED + seed + 2)
        zero_side_seen = 0
        dual_seen = 0
        for trial in range(500):
            force_zero = trial % 3 == 0
            prime = random_side_system(rng, "prime", max_crossings=6,
                                       force_zero_shifts=force_zero)
            dbl = random_side_system(rng, "dblprime", max_crossings=6)
            boundary = 2 * rng.randint(0, 3)
            profile = compute_thresholds(boundary, prime, dbl)
            margin = profile.margin
            copies = 2 * margin + rng.randint(3, 12)
            level = rng.randint(margin + 1, copies - margin - 1)
            eulers = SumEulers(splitting=-2 * rng.randint(1, 3),
                               summand=-rng.randint(1, 4),
                               prime_side=-rng.randint(1, 4),
                               dblprime_side=-rng.randint(1, 4))
            cert = essential_certificate(level, copies, profile, prime,
                                         dbl, eulers)
            if cert.kind == "zero-side":
                zero_side_seen += 1
                assert check_zero_side(cert)
            else:
                dual_seen += 1
                assert walk_dual_curve(cert)
        assert zero_side_seen > 0 and dual_seen > 0
        assert time.perf_counter() - started < 10.0


def test_reduction_laws(seed):
    with criterion("reduction laws: 1000 seeded complexes keep their "
                   "resolution profile; parity counts exact"):
        started = time.perf_counter()
        rng = random.Random(BASE_SEED + seed + 3)
        for _ in range(1000):
            trivial_count = rng.randint(1, 2)
            pc, inv = random_complex_with_trivial_seams(rng, trivial_count)
            outcome = remove_trivial(inv, pc)
            assert outcome.removed == trivial_count
            assert outcome.before.profile == outcome.after.profile
            assert outcome.inventory.copies == inv.copies - trivial_count
        for _ in range(1000):
            inv = random_parity_inventory(rng)
            plus = sum(1 for parity in inv.parities if parity == "+")
            minus = len(inv.ids) - plus
            out = reduce_parities(inv)
            assert out.net == plus - minus
            assert out.cancelled_pairs == (len(inv.ids) - out.net) // 2
            assert len(out.inventory.ids) == out.net
            assert all(parity == "+" for parity in out.inventory.parities)
        assert time.perf_counter() - started < 10.0


def test_torus_conservation_and_periodicity(seed):
    with criterion("torus conservation and periodicity: euler constant, "
                   "exactly one class per residue"):
        rng = random.Random(BASE_SEED + seed + 4)
        for _ in range(200):
            euler_splitting = -2 * rng.randint(0, 5)
            for copies in range(0, 40):
                assert (euler_of_sum(euler_splitting, 0, copies)
                        == euler_splitting)
        for period in range(1, 7):
            for start in (0, 1, 5):
                sweep = range(start, start + period * 3 + 2)
                classes = torus_periodicity(period, sweep)
                assert len(classes) == period
                assert [list(c) for c in classes] == residue_classes(
                    period, sweep)


def _set_partitions(items):
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield (part[:i] + (part[i] | frozenset({first}),)
                   + part[i + 1:])
        yield part + (frozenset({first}),)


def test_tuna_can_termination(seed):
    with criterion("packing/slicing termination: exhaustive move tree, "
                   "measure strictly decreasing"):
        started = time.perf_counter()
        memo = {}

        def longest_run(cans_key, outside):
            key = (cans_key, outside)
            if key in memo:
                return memo[key]
            state = CanState(cans=tuple(sorted(cans_key, key=sorted)),
                             outside_components=outside)
            best = 0
            before = state.measure()
            moves = applicable_moves(state)
            listed = moves_by_listing(state)
            assert list(moves) == listed
            assert [moves[i] for i in range(-len(moves), 0)] == listed
            assert moves[1:3] == listed[1:3]
            if listed:
                assert moves[-1] == listed[-1]
            for move in moves:
                nxt = tuna_can_step(state, move)
                assert nxt.measure() < before
                best = max(best, 1 + longest_run(
                    frozenset(nxt.cans), nxt.outside_components))
            memo[key] = best
            return best

        for curve_count in range(1, 7):
            for partition in _set_partitions(
                    list(range(1, curve_count + 1))):
                blocks = frozenset(partition)
                for outside in range(0, 4):
                    longest = longest_run(blocks, outside)
                    slice_bound = curve_count - len(blocks)
                    assert longest <= slice_bound + outside
        assert time.perf_counter() - started < 60.0


def test_handlebody_certificate(seed):
    with criterion("handlebody certificate: genus equals 1 - euler sum on "
                   "the shipped graph and 500 seeded provable graphs"):
        rng = random.Random(BASE_SEED + seed + 5)
        code, report = run_cli_json("resolve", "--scenario",
                                    "doubled-handlebody", "--n", "2")
        assert code == 0
        from hakensum.schema import load_builtin
        graph = load_builtin("doubled-handlebody").gluing_graph
        proof = handlebody_certificate(graph)
        assert proof.succeeded
        assert proof.genus == euler_rank_genus(graph.pieces)
        assert proof.genus == report["components"][0]["genus"]
        for _ in range(500):
            graph = random_provable_graph(rng)
            proof = handlebody_certificate(graph)
            assert proof.succeeded
            assert proof.genus == euler_rank_genus(graph.pieces)
