import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hakensum import (BetaArc, CertificateError, DomainError, RangeError,
                      SideSystem, SumEulers, ZeroSideCertificate,
                      annulus_shift_contradiction,
                      compute_thresholds, essential_certificate, lift_beta,
                      shift, validate_certificate)

from generators import random_beta, random_side_system
from oracles import check_zero_side, walk_dual_curve

crossing_words = st.lists(st.sampled_from((-1, 1)), max_size=10).map(tuple)


def beta(crossings, side="prime", index=1):
    return BetaArc(side=side, index=index, crossings=tuple(crossings))


class TestShift:
    def test_signed_sum(self):
        assert shift(beta((1, 1, -1))) == 1

    def test_empty(self):
        assert shift(beta(())) == 0

    @given(crossing_words, st.integers(1, 10))
    @settings(max_examples=200)
    def test_shift_equals_lift_displacement(self, crossings, start):
        copies = start + len(crossings) + 5
        walk = lift_beta(beta(crossings), start, copies)
        assert walk.terminal - walk.start == shift(beta(crossings))

    def test_bad_crossing_rejected(self):
        with pytest.raises(DomainError):
            beta((1, 2))

    def test_bad_side_rejected(self):
        with pytest.raises(DomainError, match=(
                r"^side must be 'prime' or 'dblprime'$")):
            BetaArc("middle", 1, (1,))

    def test_reversal_negates_shift(self):
        b = beta((1, 1, -1))
        assert shift(b.reversed()) == -1
        assert b.reversed().reversed() == b


class TestLift:
    def test_walk_example(self):
        walk = lift_beta(beta((1, 1, -1)), 5, 20)
        assert walk.levels == (5, 6, 7, 6)
        assert walk.terminal == 6
        assert not walk.escaped

    def test_constant_walk(self):
        walk = lift_beta(beta(()), 4, 9)
        assert walk.levels == (4,)

    def test_escape_reported_not_raised(self):
        walk = lift_beta(beta((1, 1)), 9, 10)
        assert walk.escaped

    def test_start_outside_band_rejected(self):
        with pytest.raises(DomainError):
            lift_beta(beta(()), 0, 5)

    def test_no_escape_inside_margin(self, seed):
        rng = random.Random(seed + 31)
        for _ in range(500):
            b = random_beta(rng, "prime", 1)
            bound = len(b.crossings)
            copies = 2 * bound + rng.randint(2, 10)
            for start in range(bound + 1, copies - bound):
                assert not lift_beta(b, start, copies).escaped

    def test_shift_invariance_across_levels(self, seed):
        rng = random.Random(seed + 32)
        for _ in range(100):
            b = random_beta(rng, "prime", 1)
            bound = len(b.crossings)
            copies = 2 * bound + 6
            displacements = {
                lift_beta(b, i, copies).terminal - i
                for i in range(bound + 1, copies - bound)}
            assert displacements == {shift(b)}


class TestThresholds:
    def test_simple_lcm(self):
        profile = compute_thresholds(
            0,
            SideSystem("prime", (beta((1, 1)),)),
            SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),)))
        assert profile.shift_lcm == 6

    def test_zero_side_gives_zero(self):
        profile = compute_thresholds(
            0,
            SideSystem("prime", (beta((1, -1)), beta((), index=2))),
            SideSystem("dblprime",
                       (beta((1,) * 5, side="dblprime"),)))
        assert profile.shift_lcm == 0

    def test_margin_is_the_maximum(self):
        # crossing bound 7, minimal lcm 6 from the shift-2/shift-3 pair,
        # boundary count 4: the margin is the largest of the three.
        profile = compute_thresholds(
            4,
            SideSystem("prime", (beta((1, 1)),)),
            SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),
                                    beta((1,) * 7, side="dblprime",
                                         index=2))))
        assert profile.max_crossing_count == 7
        assert profile.shift_lcm == 6
        assert profile.margin == 7

    def test_mixed_zero_pairs_skipped(self):
        profile = compute_thresholds(
            0,
            SideSystem("prime", (beta(()), beta((1, 1), index=2))),
            SideSystem("dblprime",
                       (beta((), side="dblprime"),
                        beta((1, 1, 1), side="dblprime", index=2))))
        assert profile.shift_lcm == 6

    def test_adding_an_arc_is_monotone(self, seed):
        rng = random.Random(seed + 33)
        for _ in range(100):
            prime = random_side_system(rng, "prime")
            dbl = random_side_system(rng, "dblprime")
            before = compute_thresholds(3, prime, dbl)
            extra = random_beta(rng, "prime", 99)
            grown = SideSystem("prime", prime.betas + (extra,))
            after = compute_thresholds(3, grown, dbl)
            assert after.max_crossing_count >= before.max_crossing_count

            def finite_lcms(p):
                return {math.lcm(abs(a), abs(b))
                        for a in p.shifts_prime if a
                        for b in p.shifts_dblprime if b}
            assert finite_lcms(before) <= finite_lcms(after)

    def test_mismatched_side_label_rejected(self):
        with pytest.raises(DomainError):
            SideSystem("prime", (beta((), side="dblprime"),))


EULERS = SumEulers(splitting=-4, summand=-4, prime_side=-2,
                   dblprime_side=-2)


class TestCertificates:
    def test_dual_curve_example(self):
        prime = SideSystem("prime", (beta((1, 1)),))
        dbl = SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),))
        profile = compute_thresholds(0, prime, dbl)
        cert = essential_certificate(10, 30, profile, prime, dbl, EULERS)
        assert cert.kind == "dual-curve"
        assert cert.period == 6
        assert cert.prime_levels == (10, 12, 14)
        assert cert.dblprime_levels == (10, 13)
        assert walk_dual_curve(cert)

    def test_zero_side_branch(self):
        prime = SideSystem("prime", (beta((1, -1)),))
        dbl = SideSystem("dblprime", (beta((1, 1), side="dblprime"),))
        profile = compute_thresholds(2, prime, dbl)
        for copies in (6, 12, 30):
            cert = essential_certificate(
                copies // 2, copies, profile, prime, dbl, EULERS)
            assert cert.kind == "zero-side"
            assert cert.side == "prime"
            assert check_zero_side(cert)

    def test_negative_shifts_are_flipped(self):
        prime = SideSystem("prime", (beta((-1, -1)),))
        dbl = SideSystem("dblprime", (beta((-1, -1, -1), side="dblprime"),))
        profile = compute_thresholds(0, prime, dbl)
        cert = essential_certificate(12, 30, profile, prime, dbl, EULERS)
        assert cert.prime_shift == 2
        assert cert.dblprime_shift == 3
        assert walk_dual_curve(cert)

    def test_out_of_range_level_rejected(self):
        prime = SideSystem("prime", (beta((1, 1)),))
        dbl = SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),))
        profile = compute_thresholds(0, prime, dbl)
        with pytest.raises(RangeError):
            essential_certificate(6, 30, profile, prime, dbl, EULERS)
        with pytest.raises(RangeError):
            essential_certificate(24, 30, profile, prime, dbl, EULERS)

    @pytest.mark.parametrize("crossings", [(1, -1), (1, 1)])
    def test_negative_copy_count_is_a_domain_error(self, crossings):
        # Checked before the band, which is empty for any copies < 0.
        prime = SideSystem("prime", (beta(crossings),))
        dbl = SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),))
        profile = compute_thresholds(2, prime, dbl)
        for level in (-5, 0, 1, 14):
            with pytest.raises(DomainError,
                               match="^copies must be nonnegative$"):
                essential_certificate(level, -1, profile, prime, dbl,
                                      EULERS)

    def test_summand_euler_must_be_negative(self):
        with pytest.raises(DomainError):
            SumEulers(splitting=-4, summand=0, prime_side=-2,
                      dblprime_side=-2)

    def test_validator_catches_corruption(self):
        prime = SideSystem("prime", (beta((1, 1)),))
        dbl = SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),))
        profile = compute_thresholds(0, prime, dbl)
        cert = essential_certificate(10, 30, profile, prime, dbl, EULERS)
        from dataclasses import replace
        broken = replace(cert, prime_levels=(10, 13, 14))
        with pytest.raises(CertificateError):
            validate_certificate(broken)
        assert not walk_dual_curve(broken)

    def test_lex_least_pair_chosen(self):
        prime = SideSystem("prime", (beta((1, 1)), beta((1, 1), index=2)))
        dbl = SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),
                                      beta((1, 1, 1), side="dblprime",
                                           index=2)))
        profile = compute_thresholds(0, prime, dbl)
        cert = essential_certificate(10, 30, profile, prime, dbl, EULERS)
        assert (cert.prime_index, cert.dblprime_index) == (1, 1)


def _example_certificate():
    # Shifts 2 and 3 at level 10 of 30: prime lifts at 10, 12, 14 and
    # double-prime lifts at 10, 13, both paths ending at 16.
    prime = SideSystem("prime", (beta((1, 1)),))
    dbl = SideSystem("dblprime", (beta((1, 1, 1), side="dblprime"),))
    profile = compute_thresholds(0, prime, dbl)
    return essential_certificate(10, 30, profile, prime, dbl, EULERS)


# One corruption per law of a dual-curve certificate, and the message of
# the law it breaks.
CORRUPTIONS = {
    "start level outside the band": (dict(
        level=-2, prime_levels=(-2, 0, 2), dblprime_levels=(-2, 1)),
        r"^lift level -2 outside \[1, 30\]$"),
    "broken chain": (dict(prime_levels=(10, 13, 14)),
                     r"^lift at level 13 does not chain onto level 12$"),
    "crossing word misses the shift": (
        dict(prime_crossings=(1, -1)),
        r"^crossing word does not realise the claimed shift$"),
    "first lift not at the base": (
        dict(prime_levels=(12, 14)),
        r"^lift at level 12 does not chain onto level 10$"),
    "wrong period": (dict(period=8),
                     r"^paths end at 16 and 16, expected 18$"),
    "terminal outside the band": (dict(copies=15),
                                  r"^terminal level outside the band$"),
    # Two zero-shift lifts from the base level close up at once, so the
    # closed curve passes the base level twice.
    "base level revisited": (dict(
        prime_crossings=(1, -1), prime_shift=0, prime_levels=(10,),
        dblprime_crossings=(1, -1), dblprime_shift=0, dblprime_levels=(10,),
        period=0), r"^dual curve revisits the base level$"),
}


class TestValidatorLaws:
    def test_example_is_valid(self):
        cert = _example_certificate()
        assert validate_certificate(cert)
        assert walk_dual_curve(cert)

    @pytest.mark.parametrize("law", sorted(CORRUPTIONS))
    def test_dual_curve_corruption_rejected(self, law):
        fields, message = CORRUPTIONS[law]
        broken = replace(_example_certificate(), **fields)
        with pytest.raises(CertificateError, match=message):
            validate_certificate(broken)
        assert not walk_dual_curve(broken)

    def test_zero_side_inequality_failure_rejected(self):
        cert = ZeroSideCertificate(side="prime", level=5, copies=10,
                                   side_euler=-2, sum_euler=-1)
        with pytest.raises(CertificateError):
            validate_certificate(cert)
        assert not check_zero_side(cert)

    def test_path_without_lifts_rejected(self):
        # A zero period with no lifts is no closed curve at all.
        broken = replace(_example_certificate(), period=0, prime_levels=(),
                         dblprime_levels=())
        with pytest.raises(CertificateError):
            validate_certificate(broken)
        assert not walk_dual_curve(broken)

    def test_crossing_entry_other_than_unit_rejected(self):
        broken = replace(_example_certificate(), prime_crossings=(2,))
        with pytest.raises(CertificateError):
            validate_certificate(broken)
        assert not walk_dual_curve(broken)


class TestAnnulusContradiction:
    def test_witness_found(self):
        assert annulus_shift_contradiction((0, 1, 0), (0, -1, 0)) == 2

    def test_all_zero_is_consistent(self):
        assert annulus_shift_contradiction((0, 0), (0, 0)) is None

    def test_upper_level_outside_pattern(self):
        assert annulus_shift_contradiction((1,), (1,)) is None

    def test_lower_level_outside_pattern(self):
        assert annulus_shift_contradiction((2, 0), (0, -1)) is None
