import itertools
import random
import re
from dataclasses import replace

import pytest

from hakensum import (CanState, DisconnectionError, DomainError,
                      GuardViolationError, InsufficientCopiesError,
                      IntersectionInventory, MalformedComplexError, Pack,
                      Patch, PatchComplex, SeamCurve, Slice,
                      UndefinedPeriodError, absorb_trivial_seam,
                      applicable_moves, reduce_parities, remove_trivial,
                      resolve, torus_periodicity, tuna_can_run,
                      tuna_can_step)
from hakensum.schema import load_builtin

from generators import (inventory, random_can_state,
                        random_complex_with_trivial_seams,
                        random_parity_inventory)
from oracles import (cancel_parities_by_rescan, moves_by_listing,
                     residue_classes)


class TestRemoveTrivial:
    def test_two_of_five(self):
        inv = inventory([True, False, True, False, True], 10)
        out = remove_trivial(inv)
        assert out.removed == 2
        assert out.inventory.ids == ("c0", "c2", "c4")
        assert out.inventory.copies == 8
        assert out.inventory.essential == (True, True, True)

    def test_nothing_to_remove_is_identity(self):
        inv = inventory([True, True], 4)
        out = remove_trivial(inv)
        assert out.removed == 0
        assert out.inventory == inv

    def test_not_enough_copies(self):
        with pytest.raises(InsufficientCopiesError):
            remove_trivial(inventory([False, False], 2))

    def test_idempotent(self):
        inv = inventory([True, False, True], 6)
        once = remove_trivial(inv).inventory
        again = remove_trivial(once)
        assert again.removed == 0
        assert again.inventory == once

    def test_demo_complex_profile_preserved(self):
        loaded = load_builtin("trivial-removal-demo")
        out = remove_trivial(loaded.inventory, loaded.patch_complex)
        assert out.removed == 1
        assert out.before.profile == out.after.profile
        assert out.complex is not None
        # the summand keeps its euler; the other side absorbs one copy
        assert out.complex.euler_g == loaded.patch_complex.euler_g
        assert out.complex.euler_f == (loaded.patch_complex.euler_f
                                       + loaded.patch_complex.euler_g)

    def test_profile_is_read_from_the_runs(self):
        # The demo gains one euler -2 component per copy; its profile
        # holds the count, so a trillion copies list nothing.
        loaded = load_builtin("trivial-removal-demo")
        inv = replace(loaded.inventory, copies=10 ** 12)
        out = remove_trivial(inv, loaded.patch_complex)
        assert out.before.profile == ((-5, 1), (-2, 10 ** 12 - 2), (-1, 1))
        assert out.after.profile == out.before.profile
        assert out.after.copies == 10 ** 12 - 1

    def test_random_complexes_profile_preserved(self, seed):
        rng = random.Random(seed + 41)
        for _ in range(150):
            trivial_count = rng.randint(1, 2)
            pc, inv = random_complex_with_trivial_seams(rng, trivial_count)
            out = remove_trivial(inv, pc)
            assert out.removed == trivial_count
            assert out.before.profile == out.after.profile

    def test_equivalence_holds_for_every_valid_copy_count(self, seed):
        # Below max(2, span + 1) copies absorption is not faithful, and
        # absorb_trivial_seam refuses those counts; every count it accepts
        # must keep the resolution profile.
        rng = random.Random(seed + 42)
        for _ in range(40):
            pc, inv = random_complex_with_trivial_seams(rng, 1)
            sid = inv.ids[inv.essential.index(False)]
            accepted = []
            for n in range(2, max(7, inv.copies + 1)):
                try:
                    cleaned = absorb_trivial_seam(pc, sid, copies=n)
                except InsufficientCopiesError:
                    continue
                accepted.append(n)
                a = resolve(pc, n)
                b = resolve(cleaned, n - 1)
                assert a.profile == b.profile
            assert inv.copies in accepted

    def test_missing_disk_side_rejected(self):
        loaded = load_builtin("trivial-removal-demo")
        with pytest.raises(MalformedComplexError):
            absorb_trivial_seam(loaded.patch_complex, "waist", 6)

    def test_unknown_seam_id_is_malformed(self):
        loaded = load_builtin("trivial-removal-demo")
        with pytest.raises(MalformedComplexError, match="'nope'"):
            absorb_trivial_seam(loaded.patch_complex, "nope", 6)
        inv = inventory([True, False], 6, ids=["waist", "nope"])
        with pytest.raises(MalformedComplexError, match="'nope'"):
            remove_trivial(inv, loaded.patch_complex)

    def test_band_must_hold_the_absorbed_copy(self):
        # Two interleaving seams chain three summand patches across
        # three levels, so the absorbed copy spans three levels and two
        # copies are not enough even though only one curve is removed.
        pc = PatchComplex(
            [Patch(id="f0", euler=-2)],
            [Patch(id="g0", euler=-2), Patch(id="g1", euler=-2),
             Patch(id="g2", euler=-1), Patch(id="d", euler=1)],
            [SeamCurve(id="sA", quadrants=("f0", "g0", "f0", "g1"),
                       epsilon="+", level_shift=1),
             SeamCurve(id="sB", quadrants=("f0", "g1", "f0", "g2"),
                       epsilon="+", level_shift=1),
             SeamCurve(id="triv", quadrants=("f0", "d", "f0", "g0"),
                       epsilon="+", level_shift=1)])
        with pytest.raises(InsufficientCopiesError):
            absorb_trivial_seam(pc, "triv", copies=2)
        cleaned = absorb_trivial_seam(pc, "triv", copies=3)
        for n in range(3, 7):
            a = resolve(pc, n)
            b = resolve(cleaned, n - 1)
            assert a.profile == b.profile


def _complex(g_patches, seams):
    """One F-patch ``f0`` on every F-side; ``g_patches`` maps id to euler,
    and each seam is (id, its two G-sides, level shift)."""
    return PatchComplex(
        [Patch(id="f0", euler=-2)],
        [Patch(id=pid, euler=euler) for pid, euler in g_patches.items()],
        [SeamCurve(id=sid, quadrants=("f0", ga, "f0", gb), epsilon="+",
                   level_shift=shift) for sid, ga, gb, shift in seams])


class TestAbsorbRefusals:
    """Each way a seam can fail to model an innermost trivial curve, with
    its type and message; a complex failing several reports the first."""

    def _refuses(self, pc, copies, error, message):
        with pytest.raises(error, match="^{}$".format(re.escape(message))):
            absorb_trivial_seam(pc, "triv", copies)

    def test_shift_zero(self):
        pc = _complex({"g0": -2, "d": 1}, [("triv", "d", "g0", 0)])
        self._refuses(pc, 3, MalformedComplexError,
                      "seam triv: a trivial seam must interleave the "
                      "copies (level_shift +1 or -1)")

    @pytest.mark.parametrize("g_patches, extra", [
        ({"g0": -2, "d": -1}, []),
        ({"g0": 1, "d": 1}, []),
        ({"g0": -2, "d": 1}, [("sA", "d", "g0", 1)])])
    def test_no_unique_innermost_disk(self, g_patches, extra):
        # No disk, two disks, or a disk that meets a second seam.
        pc = _complex(g_patches, [("triv", "d", "g0", 1)] + extra)
        self._refuses(pc, 3, MalformedComplexError,
                      "seam triv does not carry a unique innermost disk "
                      "patch")

    def test_drift_around_a_cycle(self):
        pc = _complex({"g0": -2, "d": 1},
                      [("sA", "g0", "g0", 1), ("triv", "d", "g0", 1)])
        self._refuses(pc, 3, MalformedComplexError,
                      "seam triv: the copy graph drifts around a cycle, so "
                      "no single copy can be absorbed")

    def test_neighbour_off_the_extreme_level(self):
        # The F side attaches to the neighbour g0 at the bottom, yet g1
        # sits one level below it.
        pc = _complex({"g0": -2, "g1": -2, "d": 1},
                      [("sA", "g1", "g0", 1), ("triv", "d", "g0", 1)])
        self._refuses(pc, 3, MalformedComplexError,
                      "seam triv: the disk's neighbour patch is not at the "
                      "extreme level of the absorbed copy")

    def test_band_too_narrow(self):
        pc = _complex({"g0": -2, "g1": -2, "g2": -1, "d": 1},
                      [("sA", "g0", "g1", 1), ("sB", "g1", "g2", 1),
                       ("triv", "d", "g0", 1)])
        self._refuses(pc, 2, InsufficientCopiesError,
                      "absorbing at seam triv needs at least 3 copies (the "
                      "absorbed copy spans 3 levels), only 2 present")
        absorb_trivial_seam(pc, "triv", 3)

    def test_first_failing_check_is_reported(self):
        pc = _complex({"g0": -2, "d": -1}, [("triv", "d", "g0", 0)])
        self._refuses(pc, 1, MalformedComplexError,
                      "seam triv: a trivial seam must interleave the "
                      "copies (level_shift +1 or -1)")
        pc = _complex({"g0": -2, "g1": -2, "d": 1},
                      [("sA", "g1", "g0", 1), ("triv", "d", "g0", 1)])
        self._refuses(pc, 1, MalformedComplexError,
                      "seam triv: the disk's neighbour patch is not at the "
                      "extreme level of the absorbed copy")


class TestAbsorbOrder:
    def test_merged_patches_in_first_member_order(self):
        # The interleaving seam sA joins g1 and g2 into a patch of G
        # copies only; it follows the patch holding f0, the first node.
        pc = _complex({"g0": -2, "g1": -2, "g2": -2, "d": 1},
                      [("sA", "g1", "g2", 1), ("triv", "d", "g0", 1)])
        absorbed = absorb_trivial_seam(pc, "triv", 2)
        assert [p.id for p in absorbed.f_patches] == [
            "C.d+C.g0+F.f0", "C.g1+C.g2"]
        for n in range(2, 7):
            assert (resolve(pc, n).profile
                    == resolve(absorbed, n - 1).profile)

    def test_random_complexes_absorb_in_first_member_order(self, seed):
        rng = random.Random(seed + 43)
        for _ in range(100):
            pc, inv = random_complex_with_trivial_seams(rng, 1)
            order = ([("F", p.id) for p in pc.f_patches]
                     + [("C", p.id) for p in pc.g_patches])
            absorbed = absorb_trivial_seam(
                pc, inv.ids[inv.essential.index(False)], inv.copies)
            firsts = [min(order.index(tuple(label.split(".", 1)))
                          for label in p.id.split("+"))
                      for p in absorbed.f_patches]
            # F-nodes come first, so patches holding one lead.
            assert firsts == sorted(firsts)


class TestInventoryChecks:
    """The inventory checks its columns."""

    @pytest.mark.parametrize("parity", ["x", "", ["+"], {"a": 1}, 1, True])
    def test_any_other_parity_is_a_domain_error(self, parity):
        with pytest.raises(DomainError,
                           match=r"^parity must be '\+', '-' or None$"):
            inventory([True] * 2, 1, parities=["+", parity])

    def test_parity_on_every_curve_or_on_none(self):
        with pytest.raises(DomainError, match="on every curve or on none"):
            inventory([True] * 3, 4, parities=["+", None, "-"])

    def test_duplicate_id_is_a_domain_error(self):
        with pytest.raises(DomainError, match="duplicate curve id"):
            inventory([True] * 3, 1, ids=["a", "b", "a"])

    @pytest.mark.parametrize("essential,parities", [
        ((True,), (None, None)), ((True, True), (None,)),
        ((True, True, True), (None, None))])
    def test_columns_of_unequal_length_are_a_domain_error(self, essential,
                                                          parities):
        with pytest.raises(DomainError, match="one entry per curve"):
            IntersectionInventory(ids=("a", "b"), essential=essential,
                                  parities=parities, copies=1)

    def test_rows_read_the_columns(self):
        inv = inventory([True, False], 3, parities="+-", ids=["a", "b"])
        assert inv.curves == (("a", True, "+"), ("b", False, "-"))

    def test_bad_parity_is_reported_before_a_duplicate_id(self):
        with pytest.raises(DomainError, match="or None"):
            inventory([True] * 2, 1, parities=["x", "+"], ids=["a", "a"])


class TestReduceParities:
    def test_quoted_example(self):
        inv = inventory([True] * 4, 10, parities="++-+")
        out = reduce_parities(inv)
        assert out.net == 2
        assert out.cancelled_pairs == 1
        assert out.inventory.ids == ("c0", "c3")
        assert out.inventory.parities == ("+", "+")
        assert out.inventory.copies == 9

    def test_all_positive_is_identity(self):
        inv = inventory([True] * 3, 5, parities="+++")
        out = reduce_parities(inv)
        assert out.cancelled_pairs == 0
        assert out.inventory == inv

    def test_equal_counts_disconnect(self):
        with pytest.raises(DisconnectionError):
            reduce_parities(inventory([True] * 2, 5, parities="+-"))

    def test_majority_convention_enforced(self):
        with pytest.raises(DomainError):
            reduce_parities(inventory([True] * 3, 5, parities="+--"))

    def test_needs_torus_mode(self):
        with pytest.raises(DomainError):
            reduce_parities(inventory([True], 5))

    def test_needs_essential_curves(self):
        with pytest.raises(DomainError):
            reduce_parities(inventory([True, False], 5, parities="++"))

    def test_counting_laws_random(self, seed):
        rng = random.Random(seed + 43)
        for _ in range(300):
            inv = random_parity_inventory(rng)
            plus = sum(1 for parity in inv.parities if parity == "+")
            minus = len(inv.ids) - plus
            out = reduce_parities(inv)
            assert out.net == plus - minus
            assert out.cancelled_pairs == (len(inv.ids) - out.net) // 2
            assert len(out.inventory.ids) == out.net
            assert all(parity == "+" for parity in out.inventory.parities)
            assert out.net % 2 == len(inv.ids) % 2
            assert out.net >= 1
            again = reduce_parities(out.inventory)
            assert again.cancelled_pairs == 0

    @staticmethod
    def assert_matches_rescan(parities):
        inv = inventory([True] * len(parities), len(parities) + 1,
                        parities=parities)
        out = reduce_parities(inv)
        assert (list(zip(out.inventory.ids, out.inventory.parities))
                == cancel_parities_by_rescan(zip(inv.ids, inv.parities)))

    def test_matches_rescan_oracle_exhaustive(self):
        for length in range(1, 13):
            for parities in itertools.product("+-", repeat=length):
                if parities.count("+") > parities.count("-"):
                    self.assert_matches_rescan(parities)

    def test_matches_rescan_oracle_large(self, seed):
        rng = random.Random(seed + 44)
        for _ in range(5):
            minus = rng.randint(0, 999)
            parities = ["+"] * (2000 - minus) + ["-"] * minus
            rng.shuffle(parities)
            self.assert_matches_rescan(parities)


class TestTorusPeriodicity:
    def test_three_classes(self):
        classes = torus_periodicity(3, range(1, 11))
        assert all(isinstance(c, range) for c in classes)
        assert [list(c) for c in classes] == [[1, 4, 7, 10], [2, 5, 8],
                                              [3, 6, 9]]

    def test_single_class(self):
        assert torus_periodicity(1, range(1, 8)) == (range(1, 8),)

    def test_zero_curves_rejected(self):
        with pytest.raises(UndefinedPeriodError):
            torus_periodicity(0, range(1, 5))

    def test_negative_copy_counts_rejected(self):
        with pytest.raises(DomainError, match="copies must be nonnegative"):
            torus_periodicity(3, range(-3, 3))
        assert len(torus_periodicity(3, range(0, 3))) == 3

    def test_range_past_maxsize(self):
        # The classes are ranges, so no count of the range is listed and
        # len() is never asked of it.
        ns = range(0, 10 ** 20)
        assert torus_periodicity(3, ns) == tuple(ns[r::3] for r in range(3))

    def test_matches_residue_oracle(self, seed):
        rng = random.Random(seed + 44)
        for _ in range(100):
            period = rng.randint(1, 6)
            start = rng.randint(0, 5)
            stop = start + rng.randint(1, 25)
            ns = range(start, stop)
            classes = torus_periodicity(period, ns)
            assert [list(c) for c in classes] == residue_classes(period, ns)
            assert len(classes) <= period


def run_by(state, pick):
    """A maximal run that takes ``pick(state, applicable_moves(state))``
    at each step, driven by tuna_can_step: the moves and the final state.
    """
    taken = []
    while True:
        moves = applicable_moves(state)
        if not moves:
            return tuple(taken), state
        move = pick(state, moves)
        state = tuna_can_step(state, move)
        taken.append(move)


class TestTunaCan:
    def test_slice_a_two_curve_can(self):
        state = CanState(cans=(frozenset({1, 2}),), outside_components=0)
        after = tuna_can_step(state, Slice(can=0, partition=frozenset({1})))
        assert sorted(map(sorted, after.cans)) == [[1], [2]]

    def test_pack_without_outside_rejected(self):
        state = CanState(cans=(frozenset({1}),), outside_components=0)
        with pytest.raises(GuardViolationError):
            tuna_can_step(state, Pack())

    @pytest.mark.parametrize("cans, outside, message", [
        ((frozenset({1}), frozenset()), 0,
         r"^every can must hold at least one curve$"),
        ((frozenset({1, 2}), frozenset({2, 3})), 0,
         r"^curve ids must be globally unique$"),
        ((frozenset({1}),), -1, r"^outside_components must be nonnegative$"),
    ], ids=["empty can", "shared curve", "negative outside"])
    def test_malformed_state_rejected(self, cans, outside, message):
        with pytest.raises(DomainError, match=message):
            CanState(cans=cans, outside_components=outside)

    @pytest.mark.parametrize("move, message", [
        (Slice(can=1, partition=frozenset({1})),
         r"^slice names a missing can$"),
        ("pack", r"^unknown move 'pack'$"),
    ], ids=["slice of a missing can", "not a move"])
    def test_bad_move_rejected(self, move, message):
        state = CanState(cans=(frozenset({1, 2}),), outside_components=1)
        with pytest.raises(GuardViolationError, match=message):
            tuna_can_step(state, move)

    def test_bad_partition_rejected(self):
        state = CanState(cans=(frozenset({1, 2}),), outside_components=0)
        with pytest.raises(GuardViolationError):
            tuna_can_step(state, Slice(can=0, partition=frozenset({1, 2})))
        with pytest.raises(GuardViolationError):
            tuna_can_step(state, Slice(can=0, partition=frozenset()))

    def test_five_curve_run(self):
        state = CanState(cans=(frozenset(range(5)),), outside_components=3)
        run = tuna_can_run(state)
        assert (run.slice_count, run.pack_count) == (4, 3)

    def test_trivial_state_halts_immediately(self):
        state = CanState(cans=(frozenset({1}),), outside_components=0)
        run = tuna_can_run(state)
        assert run.moves == ()

    def test_moves_replay_to_final_state(self, seed):
        # The run's move list is its only record of the path taken, and
        # a random path's moves replay the same way.
        rng = random.Random(seed + 46)
        for _ in range(100):
            state = random_can_state(rng)
            run = tuna_can_run(state)
            assert len(run.moves) == run.slice_count + run.pack_count
            assert run.initial == state
            moves, final = run_by(state, lambda st, m: rng.choice(m))
            for path, end in ((run.moves, run.final), (moves, final)):
                replayed = state
                for move in path:
                    replayed = tuna_can_step(replayed, move)
                assert replayed == end

    def test_measure_strictly_decreases(self):
        state = CanState(cans=(frozenset({1, 2, 3}),), outside_components=2)
        measures = [state.measure()]
        while True:
            moves = applicable_moves(state)
            if not moves:
                break
            state = tuna_can_step(state, moves[-1])
            measures.append(state.measure())
        assert all(b < a for a, b in zip(measures, measures[1:]))

    def test_random_runs_terminate_within_bound(self, seed):
        # Every maximal run, whatever its path, makes curves - cans
        # slices and one pack per outside component.
        rng = random.Random(seed + 45)
        for _ in range(300):
            state = random_can_state(rng)
            counts = (state.total_curves - len(state.cans),
                      state.outside_components)
            run = tuna_can_run(state)
            assert (run.slice_count, run.pack_count) == counts
            moves, final = run_by(state, lambda st, m: rng.choice(m))
            slices = sum(isinstance(m, Slice) for m in moves)
            assert (slices, len(moves) - slices) == counts
            for end in (run.final, final):
                assert end.outside_components == 0
                assert all(len(c) == 1 for c in end.cans)
                assert set().union(*end.cans) == set().union(*state.cans)

    def test_default_and_random_runs_match_the_listing(self, seed):
        # rng.choice draws the same index from the lazy sequence as from
        # the list, so both runs take the same path.
        for trial in range(200):
            state = random_can_state(random.Random(seed * 1000 + trial))
            run = tuna_can_run(state)
            assert ((run.moves, run.final)
                    == run_by(state, lambda st, m: moves_by_listing(st)[0]))
            lazy, listed = random.Random(trial), random.Random(trial)
            assert (run_by(state, lambda st, m: lazy.choice(m))
                    == run_by(state, lambda st, m: listed.choice(
                        moves_by_listing(st))))

    def test_move_index_out_of_range(self):
        moves = applicable_moves(
            CanState(cans=(frozenset({1, 2, 3}),), outside_components=1))
        assert len(moves) == 4
        assert moves[-4] == moves[0] == Pack()
        assert moves[4:] == []
        for i in (4, -5):
            with pytest.raises(IndexError):
                moves[i]

    def test_forty_curve_can(self):
        state = CanState(cans=(frozenset(range(40)),), outside_components=3)
        moves = applicable_moves(state)
        assert len(moves) == 1 + 2 ** 39 - 1
        # The last slice keeps every curve but the second smallest.
        assert moves[-1] == Slice(can=0,
                                  partition=frozenset(range(40)) - {1})
        run = tuna_can_run(state)
        assert (run.slice_count, run.pack_count) == (39, 3)
        assert all(len(c) == 1 for c in run.final.cans)

    def test_run_beyond_the_length_limit(self):
        # Past sys.maxsize moves len() overflows, but truth and indexing
        # do not, so the default run still completes.
        state = CanState(cans=(frozenset(range(100)),), outside_components=0)
        with pytest.raises(OverflowError):
            len(applicable_moves(state))
        assert tuna_can_run(state).slice_count == 99
