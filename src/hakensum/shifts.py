"""Lifts of triangulation arcs and essentiality certificates.

The disk boundary separates the summand surface K into two sides.  On
each side, a system of oriented arcs based at a marked boundary point
forms a one-vertex triangulation; inside the iterated sum each such arc
lifts to a path that climbs or drops one level at every crossing with the
dual arc system.  The net displacement of a lift (its *shift*) does not
depend on the starting level, and the interplay of shifts on the two
sides certifies that the traced level curves are essential: either one
side has all shifts zero (an Euler characteristic count rules out a disk
on the other side), or suitable lifts concatenate into a closed dual
curve crossing the level curve exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .errors import CertificateError, DomainError, RangeError
from .surfaces import euler_of_sum


@dataclass(frozen=True)
class BetaArc:
    """A triangulation arc with its signed crossing word.

    Each entry of ``crossings`` is +1 or -1: the level change at one
    transverse crossing with the dual arc system, in the order the
    crossings are met along the arc.
    """

    side: str
    index: int
    crossings: tuple

    def __post_init__(self):
        if self.side not in ("prime", "dblprime"):
            raise DomainError("side must be 'prime' or 'dblprime'")
        # Counting compares by equality and never hashes, so an entry of
        # any type is judged, not raised on.
        crossings = self.crossings
        if crossings.count(1) + crossings.count(-1) != len(crossings):
            bad = next(c for c in crossings if c not in (-1, 1))
            raise DomainError(
                "crossing entries must be +1 or -1, got {!r}".format(bad))

    def reversed(self):
        """The same arc with the opposite orientation.

        Reversing traverses the crossings backwards and negates each
        level change, so the shift changes sign.
        """
        return BetaArc(self.side, self.index,
                       tuple(-c for c in reversed(self.crossings)))


def shift(beta):
    """Net level displacement of the arc's lift: the signed crossing sum."""
    return sum(beta.crossings)


@dataclass(frozen=True)
class SideSystem:
    """All triangulation arcs on one side of the disk boundary."""

    side: str
    betas: tuple

    def __post_init__(self):
        if not self.betas:
            raise DomainError("a side system needs at least one arc")
        for beta in self.betas:
            if beta.side != self.side:
                raise DomainError(
                    "arc {} is labelled {!r} but belongs to a {!r} "
                    "system".format(beta.index, beta.side, self.side))

    def shifts(self):
        return tuple(shift(b) for b in self.betas)


@dataclass(frozen=True)
class LiftWalk:
    """The level sequence of one lifted arc."""

    levels: tuple
    copies: int

    @property
    def start(self):
        return self.levels[0]

    @property
    def terminal(self):
        return self.levels[-1]

    @property
    def escaped(self):
        """True when some level of the walk left the band [1, copies]."""
        return any(not 1 <= lv <= self.copies for lv in self.levels)


def lift_beta(beta, start_level, copies):
    """Walk the lift of an arc starting at the given level.

    The walk starts at ``start_level`` and applies each crossing in turn;
    it ends at start_level + shift.  Whenever the start level is more than
    the crossing count away from both ends of the band, the walk cannot
    escape [1, copies].  Escape is reported, never raised.
    """
    if not 1 <= start_level <= copies:
        raise DomainError(
            "start level {} outside [1, {}]".format(start_level, copies))
    return LiftWalk(
        levels=tuple(accumulate(beta.crossings, initial=start_level)),
        copies=copies)


@dataclass(frozen=True)
class ShiftProfile:
    """Shift data of both sides with the derived thresholds.

    ``max_crossing_count`` bounds how far any single lift can stray from
    its start level.  ``least_pair`` is (lcm, j, k) for the arcs j on the
    prime side and k on the double-prime side, both of nonzero shift,
    whose shift magnitudes have the least lcm (lexicographically least
    on ties); it is None when one side has all shifts zero.
    ``shift_lcm`` is that lcm, or 0 when there is no such pair.
    ``margin`` is the largest of the boundary count, the crossing bound
    and the lcm threshold: level curves strictly inside the margin are
    certified essential.
    """

    shifts_prime: tuple
    shifts_dblprime: tuple
    max_crossing_count: int
    least_pair: tuple | None
    boundary_count: int

    @property
    def shift_lcm(self):
        return self.least_pair[0] if self.least_pair else 0

    @property
    def margin(self):
        return max(self.boundary_count, self.max_crossing_count,
                   self.shift_lcm)


def compute_thresholds(boundary_count, side_prime, side_dblprime):
    """Aggregate both side systems into a ShiftProfile."""
    if boundary_count < 0:
        raise DomainError("boundary_count must be nonnegative")
    shifts_prime = side_prime.shifts()
    shifts_dblprime = side_dblprime.shifts()
    return ShiftProfile(
        shifts_prime=shifts_prime,
        shifts_dblprime=shifts_dblprime,
        max_crossing_count=max(len(b.crossings) for b in
                               side_prime.betas + side_dblprime.betas),
        least_pair=min(((math.lcm(abs(a), abs(b)), j, k)
                        for j, a in enumerate(shifts_prime) if a != 0
                        for k, b in enumerate(shifts_dblprime) if b != 0),
                       default=None),
        boundary_count=boundary_count,
    )


@dataclass(frozen=True)
class SumEulers:
    """Euler characteristics of the surfaces entering the sum."""

    splitting: int
    summand: int
    prime_side: int
    dblprime_side: int

    def __post_init__(self):
        if self.summand >= 0:
            raise DomainError(
                "the summand surface must have negative euler "
                "characteristic, got {}".format(self.summand))

    def side(self, name):
        return self.prime_side if name == "prime" else self.dblprime_side


@dataclass(frozen=True)
class ZeroSideCertificate:
    """All shifts vanish on one side.

    Cutting the sum along the level curve then leaves a copy of that side
    on one half; were the other half a disk, the sum's Euler
    characteristic would equal side + 1, contradicting the strict
    inequality recorded here (the summand has negative euler, so the sum
    drops without bound as copies grow).
    """

    side: str
    level: int
    copies: int
    side_euler: int
    sum_euler: int

    @property
    def kind(self):
        return "zero-side"

    @property
    def inequality_holds(self):
        return self.side_euler + 1 > self.sum_euler


@dataclass(frozen=True)
class DualCurveCertificate:
    """A closed dual curve meeting the level curve exactly once.

    Lifts of one arc from each side, taken at levels spaced by the
    respective shifts, concatenate into two paths from the base level up
    to base + period; their union closes up and passes through the base
    level at a single point.
    """

    level: int
    copies: int
    prime_index: int
    prime_shift: int
    prime_crossings: tuple
    dblprime_index: int
    dblprime_shift: int
    dblprime_crossings: tuple
    period: int
    prime_levels: tuple
    dblprime_levels: tuple

    @property
    def kind(self):
        return "dual-curve"


def validate_certificate(cert):
    """Check a certificate arc by arc against its defining laws.

    For a dual-curve certificate: every recorded start level and both
    terminals lie in [1, copies]; each lift ends one shift higher, the
    shift being its crossing word's sum, taken once per path; the lifts
    chain from the base level, and the two paths both end at base +
    period, closing up; and the base level occurs exactly once as a
    vertex of the closed curve.  For a zero-side certificate: the Euler
    inequality is strict.  Raises CertificateError on any violation,
    returns True otherwise.
    """
    if isinstance(cert, ZeroSideCertificate):
        if not cert.inequality_holds:
            raise CertificateError(
                "euler inequality violated: {} + 1 <= {}".format(
                    cert.side_euler, cert.sum_euler))
        return True

    def walk_path(side, index, crossings, levels, step):
        try:
            beta = BetaArc(side, index, crossings)
        except DomainError as exc:
            raise CertificateError(str(exc)) from None
        if not levels:
            raise CertificateError("a path needs at least one lift")
        realised = shift(beta)
        seen = []
        at = cert.level
        for start in levels:
            if not 1 <= start <= cert.copies:
                raise CertificateError(
                    "lift level {} outside [1, {}]".format(
                        start, cert.copies))
            if start != at:
                raise CertificateError(
                    "lift at level {} does not chain onto level {}".format(
                        start, at))
            at = start + realised
            if at != start + step:
                raise CertificateError("crossing word does not realise "
                                       "the claimed shift")
            seen.append(start)
        seen.append(at)
        return seen

    prime_vertices = walk_path("prime", cert.prime_index,
                               cert.prime_crossings, cert.prime_levels,
                               cert.prime_shift)
    dbl_vertices = walk_path("dblprime", cert.dblprime_index,
                             cert.dblprime_crossings, cert.dblprime_levels,
                             cert.dblprime_shift)
    top = cert.level + cert.period
    if prime_vertices[-1] != top or dbl_vertices[-1] != top:
        raise CertificateError(
            "paths end at {} and {}, expected {}".format(
                prime_vertices[-1], dbl_vertices[-1], top))
    if not 1 <= top <= cert.copies:
        raise CertificateError("terminal level outside the band")
    # Single passage: the closed curve visits the base level only at the
    # common starting point.
    crossings_of_base = (prime_vertices[1:].count(cert.level)
                         + dbl_vertices[1:].count(cert.level))
    if crossings_of_base != 0:
        raise CertificateError("dual curve revisits the base level")
    return True


def essential_certificate(level, copies, profile, side_prime,
                          side_dblprime, eulers):
    """Certify that the level curve at ``level`` is essential in the sum.

    Requires margin < level < copies - margin.  If one side has all
    shifts zero the certificate is the Euler characteristic inequality;
    the prime side is preferred when both qualify.  Otherwise the
    profile's least pair of arcs, with nonzero shifts r, s realising the
    minimal lcm, is taken (orientations flipped to make both shifts
    positive) and the dual closed curve is assembled from lcm(r, s)/r
    lifts on one side and lcm(r, s)/s on the other.
    """
    if copies < 0:
        raise DomainError("copies must be nonnegative")
    margin = profile.margin
    if not margin < level < copies - margin:
        raise RangeError(
            "level {} outside the certified band ({}, {})".format(
                level, margin, copies - margin))

    if profile.least_pair is None:
        side_name = "dblprime" if any(profile.shifts_prime) else "prime"
        cert = ZeroSideCertificate(
            side=side_name,
            level=level,
            copies=copies,
            side_euler=eulers.side(side_name),
            sum_euler=euler_of_sum(eulers.splitting, eulers.summand,
                                   copies),
        )
        validate_certificate(cert)
        return cert

    period, j, k = profile.least_pair
    beta_prime = side_prime.betas[j]
    if shift(beta_prime) < 0:
        beta_prime = beta_prime.reversed()
    beta_dbl = side_dblprime.betas[k]
    if shift(beta_dbl) < 0:
        beta_dbl = beta_dbl.reversed()
    r = shift(beta_prime)
    s = shift(beta_dbl)

    cert = DualCurveCertificate(
        level=level,
        copies=copies,
        prime_index=beta_prime.index,
        prime_shift=r,
        prime_crossings=beta_prime.crossings,
        dblprime_index=beta_dbl.index,
        dblprime_shift=s,
        dblprime_crossings=beta_dbl.crossings,
        period=period,
        prime_levels=tuple(level + r * l for l in range(period // r)),
        dblprime_levels=tuple(level + s * l for l in range(period // s)),
    )
    validate_certificate(cert)
    return cert


def annulus_shift_contradiction(shifts_at_level, shifts_at_next):
    """Detect the shift pattern that forbids a boundary-parallel annulus.

    If an annulus between consecutive level curves were parallel into the
    sum, every arc lift at the lower level would have shift 0 or 1 and
    every lift at the upper level shift 0 or -1.  Since shifts do not
    depend on the level, any arc of shift exactly 1 at the lower level is
    a witness against such an annulus.  Returns the 1-based index of the
    first witness, or None when the pattern is absent.
    """
    if not set(shifts_at_level) <= {0, 1}:
        return None
    if not set(shifts_at_next) <= {0, -1}:
        return None
    for j, s in enumerate(shifts_at_level, start=1):
        if s == 1:
            return j
    return None
