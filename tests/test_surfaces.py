import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hakensum import (DomainError, MalformedComplexError, Patch,
                      PatchComplex, SeamCurve, SurfaceDescriptor,
                      absorb_trivial_seam, conjectured_period,
                      euler_of_sum, genus_from_euler, resolve)
from hakensum import surfaces
from hakensum.schema import load_builtin, load_scenario
from hakensum.surfaces import UnionFind, resolve_range

from generators import random_patch_complex, with_random_orientations
from oracles import (brute_force_component_records, brute_force_components,
                     record_order, resolve_by_union_find)

GOLDEN = Path(__file__).parent / "golden"


class TestDescriptor:
    def test_sphere_genus(self):
        assert genus_from_euler(2) == 0

    def test_genus_four(self):
        assert genus_from_euler(-6) == 4

    def test_genus_ten(self):
        assert genus_from_euler(-18) == 10

    def test_closed_orientable_needs_even_euler(self):
        with pytest.raises(DomainError):
            SurfaceDescriptor(euler=1)
        with pytest.raises(DomainError):
            SurfaceDescriptor(euler=4)

    def test_odd_euler_fine_with_boundary(self):
        d = SurfaceDescriptor(euler=-3, boundary_components=1)
        assert not d.closed


class TestEulerOfSum:
    def test_pretzel_values(self):
        assert euler_of_sum(-6, -2, 6) == -18

    def test_doubled_values(self):
        assert euler_of_sum(-4, -4, 4) == -20
        assert genus_from_euler(-20) == 11

    @given(st.integers(-50, 2), st.integers(-50, 2))
    def test_zero_copies_is_identity(self, f, g):
        assert euler_of_sum(f, g, 0) == f

    def test_negative_copies_rejected(self):
        with pytest.raises(DomainError):
            euler_of_sum(0, 0, -1)


def _two_torus_complex():
    # Two tori crossing in a single circle; one patch per side.
    f = [Patch(id="f", euler=0)]
    g = [Patch(id="g", euler=0)]
    seams = [SeamCurve(id="s", quadrants=("f", "g", "f", "g"),
                       epsilon="+", level_shift=1)]
    return PatchComplex(f, g, seams)


class TestResolve:
    def test_zero_copies_returns_first_surface(self, seed):
        rng = random.Random(seed + 11)
        for _ in range(50):
            pc = random_patch_complex(rng)
            resolved = resolve(pc, 0)
            assert resolved.total_euler == pc.euler_f

    def test_tori_sum_is_torus(self):
        pc = _two_torus_complex()
        for n in range(1, 6):
            resolved = resolve(pc, n)
            assert resolved.component_count == 1
            assert resolved.runs[0][0].genus == 1

    def test_missing_patch_rejected(self):
        with pytest.raises(MalformedComplexError):
            PatchComplex(
                [Patch(id="f", euler=0)], [Patch(id="g", euler=0)],
                [SeamCurve(id="s", quadrants=("f", "g", "f", "nope"),
                           epsilon="+")])

    def test_declared_incidences_checked(self):
        with pytest.raises(MalformedComplexError):
            PatchComplex(
                [Patch(id="f", euler=0, seams=())],
                [Patch(id="g", euler=0)],
                [SeamCurve(id="s", quadrants=("f", "g", "f", "g"),
                           epsilon="+")])

    def test_descriptor_euler_checked(self):
        with pytest.raises(MalformedComplexError):
            PatchComplex(
                [Patch(id="f", euler=0)], [Patch(id="g", euler=0)],
                [SeamCurve(id="s", quadrants=("f", "g", "f", "g"),
                           epsilon="+")],
                f_descriptor=SurfaceDescriptor(euler=-2))

    def test_oracle_agreement_small_complexes(self, seed):
        rng = random.Random(seed + 12)
        for _ in range(300):
            pc = random_patch_complex(rng, max_f=3, max_g=3, max_seams=4)
            for n in range(0, 6):
                resolved = resolve(pc, n)
                count, eulers = brute_force_components(pc, n)
                assert resolved.component_count == count
                assert resolved.profile == tuple(Counter(eulers).items())

    def test_records_match_oracle_with_mixed_orientations(self, seed):
        rng = random.Random(seed + 15)
        for _ in range(20):
            pc = with_random_orientations(rng, random_patch_complex(
                rng, max_f=4, max_g=4, max_seams=6))
            for n in list(range(0, 41)) + [97, 256]:
                components = [c for c, k in resolve(pc, n).runs
                              for _ in range(k)]
                records = [(c.euler, c.piece_count, c.orientable)
                           for c in components]
                assert (sorted(records, key=record_order)
                        == brute_force_component_records(pc, n))
                for c in components:
                    assert c.genus == ((2 - c.euler) // 2 if c.orientable
                                       else None)

    def test_euler_additivity_exact(self, seed):
        rng = random.Random(seed + 13)
        for _ in range(200):
            pc = random_patch_complex(rng)
            for n in range(0, 7):
                assert (resolve(pc, n).total_euler
                        == euler_of_sum(pc.euler_f, pc.euler_g, n))

    def test_component_count_eventually_periodic(self, seed):
        rng = random.Random(seed + 14)
        tested = 0
        attempts = 0
        while tested < 60 and attempts < 2000:
            attempts += 1
            pc = random_patch_complex(rng)
            period = conjectured_period(pc)
            if period is None:
                continue
            tested += 1
            counts = {n: resolve(pc, n).component_count
                      for n in range(1, 5 * period + 9)}
            for n in range(period + 2, 4 * period + 8):
                assert counts[n + period] == counts[n]
        assert tested == 60

    def test_windows_match_union_find_exactly(self, seed):
        # Whole ResolvedSurface equality: component order included, so the
        # first-member tie order must survive the window composition.
        # Many complexes at small n catch order faults, through both the
        # powered windows of resolve and the one-level steps of
        # resolve_range; a few go on to 64 and to powers of two and their
        # neighbours up to 1025, which exercise every powering path.
        rng = random.Random(seed + 16)
        small = list(range(0, 17))
        large = list(range(17, 65)) + sorted(
            {2 ** k + d for k in range(6, 11) for d in (-1, 0, 1)})
        for i in range(240):
            pc = random_patch_complex(rng, max_f=5, max_g=6, max_seams=10)
            if i % 3:
                pc = with_random_orientations(rng, pc)
            ns = small + large if i < 12 else small
            expected = [resolve_by_union_find(pc, n) for n in ns]
            resolved = [resolve(pc, n) for n in ns]
            assert resolved == expected
            # Runs are maximal, so equal sums have equal runs.
            assert all(k >= 1 and (i == 0 or s.runs[i - 1][0] != c)
                       for s in resolved for i, (c, k) in enumerate(s.runs))
            assert (list(resolve_range(pc, 0, len(small)))
                    == expected[:len(small)])

    def test_range_rows_equal_fresh_resolves(self, seed):
        rng = random.Random(seed + 17)
        for i in range(12):
            pc = with_random_orientations(rng, random_patch_complex(
                rng, max_f=4, max_g=5, max_seams=8))
            assert (list(resolve_range(pc, 0, 81))
                    == [resolve(pc, n) for n in range(81)])
            start = rng.randint(1, 40)
            assert (list(resolve_range(pc, start, start + 5))
                    == [resolve(pc, n) for n in range(start, start + 5)])

    def test_no_g_patches_leave_f_at_every_n(self):
        # No G-patch means no seam and windows with no G-ports: every
        # copy count gives F's own components.
        pc = PatchComplex(
            [Patch(id="f0", euler=2), Patch(id="f1", euler=-2, oriented=None),
             Patch(id="f2", euler=1, oriented=False)], [], [])
        ns = [0, 1, 16, 17]
        expected = [resolve_by_union_find(pc, n) for n in ns]
        assert [resolve(pc, n) for n in ns] == expected
        assert list(resolve_range(pc, 0, 18)) == [
            resolve_by_union_find(pc, n) for n in range(18)]
        assert expected[-1].profile == ((-2, 1), (1, 1), (2, 1))

    def test_runs_stay_few_while_the_count_grows(self):
        # seeded_6538 gains one component per copy: n + 2 in all.  The
        # runs hold the counts, so n = 10**12 costs what n = 40 does.
        pc = load_scenario(GOLDEN / "seeded_6538.json").patch_complex
        for n in range(41):
            assert resolve_by_union_find(pc, n).component_count == n + 2
        huge = resolve(pc, 10 ** 12)
        assert huge.component_count == 10 ** 12 + 2
        assert len(huge.runs) == len(resolve(pc, 40).runs)

    def test_pretzel_complex_matches_published_genus(self):
        pc = load_builtin("cg-pretzel-m5").patch_complex
        resolved = resolve(pc, 6)
        assert resolved.component_count == 1
        only = resolved.runs[0][0]
        assert only.euler == -18
        assert only.closed and only.orientable
        assert only.genus == 10

    def test_orientability_unknown_when_flags_missing(self):
        pc = PatchComplex(
            [Patch(id="f", euler=0, oriented=None)],
            [Patch(id="g", euler=0)],
            [SeamCurve(id="s", quadrants=("f", "g", "f", "g"),
                       epsilon="+")])
        resolved = resolve(pc, 2)
        assert all(c.orientable is None for c, _ in resolved.runs)
        assert all(c.genus is None for c, _ in resolved.runs)


def _count_plans(monkeypatch):
    """Count the union-finds ``resolve`` runs: ``surfaces._plan`` is its
    one entry to them."""
    calls = []
    plan = surfaces._plan
    monkeypatch.setattr(surfaces, "_plan",
                        lambda *args: calls.append(args) or plan(*args))
    return calls


def _ring(k):
    """k annular G-patches joined in a ring by k seams of shift +1, with F
    cut into k annuli: F + nG has gcd(n - 1, k) components, and the window
    shape repeats with period k."""
    def seam(i):
        j = (i + 1) % k
        return SeamCurve(id="s%d" % i, epsilon="+", level_shift=1,
                         quadrants=("f%d" % i, "g%d" % i, "f%d" % j,
                                    "g%d" % j))
    return PatchComplex([Patch(id="f%d" % i, euler=0) for i in range(k)],
                        [Patch(id="g%d" % i, euler=0) for i in range(k)],
                        [seam(i) for i in range(k)])


class TestPlans:
    """Which classes a composition merges depends only on the two windows'
    port shapes, so a call runs one union-find per distinct shape."""

    @pytest.mark.parametrize("source", sorted(
        ["cg-pretzel-m5", "doubled-handlebody", "trivial-removal-demo"]
        + [p.name for p in GOLDEN.glob("seeded_*.json")]))
    def test_a_longer_range_runs_no_more_union_finds(self, monkeypatch,
                                                     source):
        scenario = (load_scenario(GOLDEN / source) if source.endswith(".json")
                    else load_builtin(source))
        calls = _count_plans(monkeypatch)
        counts = []
        for stop in (201, 2001):
            calls.clear()
            for _ in resolve_range(scenario.patch_complex, 0, stop):
                pass
            counts.append(len(calls))
        assert counts[1] <= counts[0]

    def test_ring_rows_match_union_find(self, monkeypatch):
        k = 5
        pc = _ring(k)
        calls = _count_plans(monkeypatch)
        rows = list(resolve_range(pc, 0, 4 * k + 8))
        assert rows == [resolve_by_union_find(pc, n)
                        for n in range(4 * k + 8)]
        assert [r.component_count for r in rows] == [
            math.gcd(n - 1, k) for n in range(4 * k + 8)]
        # The unit, F alone, and k shapes each for a one-level step and
        # for the last step.
        assert len(calls) == 2 * k + 2


class TestUnionFind:
    def test_first_argument_root_survives(self):
        uf = UnionFind(5)
        uf.union(1, 0)
        assert uf.find(0) == 1
        uf.union(3, 2)
        uf.union(2, 0)
        assert [uf.find(x) for x in range(5)] == [3, 3, 3, 3, 4]
        uf.union(4, 1)
        assert [uf.find(x) for x in range(5)] == [4] * 5

    def test_long_chain_needs_no_recursion(self):
        size = 200_000
        uf = UnionFind(size)
        for x in range(size - 1):
            # Each union hangs the whole chain so far under x + 1.
            uf.union(x + 1, x)
        assert uf.find(0) == size - 1
        assert all(uf.find(x) == size - 1 for x in range(size))

    def test_absorb_keeps_merged_patch_names(self):
        pc = load_builtin("trivial-removal-demo").patch_complex
        absorbed = absorb_trivial_seam(pc, "puncture", 6)
        assert [(p.id, p.euler) for p in absorbed.f_patches] == [
            ("C.g_lower+C.g_upper+F.f_outer", -4),
            ("C.g_disk+F.f_inner", 0)]
        assert absorbed.seams[0].quadrants == (
            "C.g_lower+C.g_upper+F.f_outer", "g_upper",
            "C.g_disk+F.f_inner", "g_lower")
