"""Cross-section calculus on a compressing disk.

A compressing disk D meets the n parallel copies of the summand surface in
n concentric circles (level 1 innermost) and meets the splitting surface
in arcs and closed curves.  Near each point where an arc hits the disk
boundary, the arc crosses all n circles in a *stack*; after the
cut-and-paste sum, a strand travelling clockwise through a positive stack
climbs one level and through a negative stack drops one level.  The whole
intersection picture is therefore governed by the cyclic word of stack
parities, and this module traces it by prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


def _check_balanced(word):
    plus = word.count("+")
    minus = word.count("-")
    if plus + minus != len(word):
        raise DomainError(
            "parity word may contain only '+' and '-', got {!r}".format(word))
    if plus != minus:
        raise DomainError(
            "unbalanced parity word {!r}: every arc of the intersection "
            "contributes one ascending and one descending stack, so the "
            "number of '+' stacks must equal the number of '-' "
            "stacks".format(word))


@dataclass(frozen=True)
class DiskPattern:
    """The combinatorial intersection data on the disk.

    ``word`` is the cyclic sequence of stack parities read clockwise
    around the disk boundary; ``copies`` is the number of parallel copies
    of the summand.  ``inner_closed`` counts closed-curve components of
    the splitting surface's intersection with the disk, and
    ``crossing_components`` the total number of components of that
    intersection (arcs plus closed curves); the latter bounds the closed
    curves of the sum that are neither arcs nor traced level curves.
    """

    word: str
    copies: int
    inner_closed: int = 0
    crossing_components: int | None = None

    def __post_init__(self):
        _check_balanced(self.word)
        if self.copies < 0:
            raise DomainError("copies must be nonnegative")
        if self.inner_closed < 0:
            raise DomainError("inner_closed must be nonnegative")
        if self.crossing_components is None:
            object.__setattr__(self, "crossing_components",
                               len(self.word) // 2 + self.inner_closed)
        if self.crossing_components < len(self.word) // 2 + self.inner_closed:
            raise DomainError(
                "the intersection has at least one component per boundary "
                "arc plus the closed curves")

    @property
    def boundary_count(self):
        """Number of intersections with the disk boundary (always even)."""
        return len(self.word)


@dataclass(frozen=True)
class TraceReport:
    """What the sum looks like on the disk.

    ``gamma_levels`` is the contiguous interval of levels whose traced
    curve closes up without meeting any vertical arc; ``excursion`` is the
    pair (max prefix sum, min prefix sum) of the parity word.
    """

    arc_count: int
    gamma_levels: range
    excursion: tuple
    extra_closed_bound: int
    copies: int

    @property
    def gamma_count(self):
        # Not len(): that overflows past sys.maxsize levels.
        return self.gamma_levels.stop - self.gamma_levels.start

    @property
    def annulus_count(self):
        """Adjacent traced curves that cobound an annulus."""
        return max(self.gamma_count - 1, 0)


def prefix_sums(word):
    """Signed prefix sums of a parity word, starting from 0."""
    sums = [0]
    for ch in word:
        sums.append(sums[-1] + (1 if ch == "+" else -1))
    return sums


def trace(dp):
    """Trace every level's strand once around the disk.

    Starting on the level-i circle and walking clockwise, the strand sits
    at level i + p after the stacks with prefix sum p.  It closes up after
    one loop (the word is balanced) and is a simple closed curve exactly
    when every intermediate level stays inside [1, copies]; climbing past
    the top level exits through the disk boundary and dropping below
    level 1 enters the innermost region, either of which hands the strand
    to a vertical arc.  The surviving levels form the interval
    [1 - min_prefix, copies - max_prefix], so at least copies - h survive
    (the excursion of a balanced word of length h is at most h).
    """
    sums = prefix_sums(dp.word)
    high = max(sums)
    low = min(sums)
    lo_level = 1 - low
    hi_level = dp.copies - high
    gamma_levels = range(lo_level, max(hi_level + 1, lo_level))
    return TraceReport(
        arc_count=len(dp.word) // 2,
        gamma_levels=gamma_levels,
        excursion=(high, low),
        extra_closed_bound=dp.crossing_components,
        copies=dp.copies,
    )
