import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hakensum import DiskPattern, DomainError, trace
from hakensum.disk import prefix_sums

from generators import all_balanced_words, random_balanced_word
from oracles import splice_components

balanced_words = st.integers(0, 6).flatmap(
    lambda pairs: st.permutations("+" * pairs + "-" * pairs)).map("".join)


class TestDiskPattern:
    def test_unbalanced_rejected(self):
        with pytest.raises(DomainError):
            DiskPattern(word="++-", copies=3)

    def test_bad_characters_rejected(self):
        with pytest.raises(DomainError):
            DiskPattern(word="+x-", copies=3)

    def test_crossing_component_default(self):
        dp = DiskPattern(word="++--", copies=5, inner_closed=3)
        assert dp.crossing_components == 2 + 3

    def test_inner_closed_bounded(self):
        with pytest.raises(DomainError):
            DiskPattern(word="", copies=1, inner_closed=2,
                        crossing_components=1)

    def test_components_cover_arcs(self):
        with pytest.raises(DomainError):
            DiskPattern(word="++--", copies=1, crossing_components=1)


class TestTrace:
    def test_two_stack_pairs(self):
        report = trace(DiskPattern(word="++--", copies=10))
        assert report.arc_count == 2
        assert report.excursion == (2, 0)
        assert list(report.gamma_levels) == list(range(1, 9))
        assert report.gamma_count >= 10 - 4

    def test_empty_word_keeps_every_level(self):
        report = trace(DiskPattern(word="", copies=5))
        assert report.arc_count == 0
        assert set(report.gamma_levels) == {1, 2, 3, 4, 5}

    def test_interval_can_be_empty(self):
        report = trace(DiskPattern(word="+-", copies=1))
        assert report.gamma_count == 0
        assert report.arc_count == 1

    @given(balanced_words, st.integers(0, 25))
    @settings(max_examples=300)
    def test_census_laws(self, word, copies):
        report = trace(DiskPattern(word=word, copies=copies))
        h = len(word)
        assert report.arc_count == h // 2
        levels = list(report.gamma_levels)
        assert levels == sorted(levels)
        if copies > h:
            assert report.gamma_count >= copies - h
        high, low = report.excursion
        if report.gamma_count:
            assert report.gamma_count == copies - (high - low)
        assert high - low <= h
        assert report.extra_closed_bound == h // 2

    @given(balanced_words, st.integers(0, 20), st.integers(0, 11))
    @settings(max_examples=300)
    def test_rotation_shifts_the_interval(self, word, copies, k):
        if not word:
            return
        k %= len(word)
        rotated = word[k:] + word[:k]
        base = trace(DiskPattern(word=word, copies=copies))
        rot = trace(DiskPattern(word=rotated, copies=copies))
        offset = prefix_sums(word)[k]
        assert rot.arc_count == base.arc_count
        assert rot.excursion == (base.excursion[0] - offset,
                                 base.excursion[1] - offset)
        assert (set(rot.gamma_levels)
                == {i + offset for i in base.gamma_levels})

    def test_oracle_agreement_exhaustive_small(self):
        for pairs in range(0, 4):
            for word in all_balanced_words(pairs):
                for copies in range(0, 13):
                    report = trace(DiskPattern(word=word, copies=copies))
                    gammas, arcs, extra = splice_components(word, copies)
                    assert set(report.gamma_levels) == gammas
                    assert report.arc_count == arcs
                    assert extra <= report.extra_closed_bound

    def test_oracle_agreement_random(self, seed):
        rng = random.Random(seed + 21)
        for _ in range(1000):
            word = random_balanced_word(rng, max_pairs=6)
            copies = rng.randint(0, 60)
            report = trace(DiskPattern(word=word, copies=copies))
            gammas, arcs, extra = splice_components(word, copies)
            assert set(report.gamma_levels) == gammas
            assert report.arc_count == arcs


class TestAnnuli:
    def test_interval_of_eight(self):
        report = trace(DiskPattern(word="++--", copies=10))
        assert report.annulus_count == 7

    def test_singleton_has_none(self):
        report = trace(DiskPattern(word="+-", copies=2))
        assert report.gamma_count == 1
        assert report.annulus_count == 0

    def test_empty_has_none(self):
        report = trace(DiskPattern(word="+-", copies=1))
        assert report.annulus_count == 0
