"""Rewrites that simplify an iterated sum before analysing it.

Three cleanups are implemented: removing intersection curves that are
inessential on the summand (each removal absorbs one parallel copy into
the other surface), cancelling opposite-parity curves in the torus case,
and the packing/slicing procedure that isotopes a sum out of a ball a
bounded number of steps at a time.  Each rewrite preserves the invariants
that the resolution engine can observe, and the torus case exposes the
residue periodicity that caps the number of isotopy classes.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import compress

from .errors import (DisconnectionError, DomainError, GuardViolationError,
                     InsufficientCopiesError, MalformedComplexError,
                     UndefinedPeriodError)
from .surfaces import (Patch, PatchComplex, ResolvedSurface, UnionFind,
                       level_components, merged_orientation, resolve)


@dataclass(frozen=True)
class IntersectionInventory:
    """The intersection curves of the splitting surface with the summand,
    as three columns of one entry per curve, and the copy count.

    Curve i is named ``ids[i]``; ``essential[i]`` says whether it is
    essential on the summand, and ``parities[i]`` is '+', '-' or None,
    present on every curve (torus mode) or on none.  Each column is a
    tuple, so an inventory of any size holds a constant number of objects
    that the garbage collector tracks.
    """

    ids: tuple
    essential: tuple
    parities: tuple
    copies: int

    def __post_init__(self):
        k = len(self.ids)
        if not len(self.essential) == len(self.parities) == k:
            raise DomainError("the inventory's columns must have one entry "
                              "per curve")
        # Counting compares by equality and never hashes, so a parity of
        # any type is judged, not raised on.
        parities = self.parities
        signed = parities.count("+") + parities.count("-")
        if signed != k and signed + parities.count(None) != k:
            raise DomainError("parity must be '+', '-' or None")
        if len(set(self.ids)) != k:
            raise DomainError("duplicate curve id")
        if 0 < signed < k:
            raise DomainError(
                "parity must be present on every curve or on none")
        if self.copies < 0:
            raise DomainError("copies must be nonnegative")

    @property
    def torus_mode(self):
        return bool(self.parities) and self.parities[0] is not None

    @property
    def curves(self):
        """One (id, essential, parity) row per curve, built on each read;
        the library reads the columns."""
        return tuple(zip(self.ids, self.essential, self.parities))


def absorb_trivial_seam(pc, seam_id, copies):
    """Remove one trivial seam, absorbing one copy of G into the F side.

    The named seam must interleave the copies and carry an innermost
    disk: one of its chosen G-sides is a disk patch (euler 1) meeting no
    other seam.  The removal isotopy pushes the stack of disks to one
    extreme level and the remaining material of the lowest (or highest)
    copy to the other; combinatorially the seam disappears, the disk
    patch merges into its neighbour, and one copy of every G patch joins
    the F side, the new F-patches in the order of their first members.
    Raises when the copy graph over the other interleaving seams drifts
    around a cycle, when the neighbour is off the extreme level its
    attachment uses, or when copies < max(2, span + 1), where span + 1 is
    the number of levels the absorbed copy occupies.
    """
    seam0 = pc.seam(seam_id)
    if seam0.level_shift == 0:
        raise MalformedComplexError(
            "seam {}: a trivial seam must interleave the copies "
            "(level_shift +1 or -1)".format(seam_id))
    (fa0, ga0), (fb0, gb0) = seam0.chosen_pairs()
    g_by_id = {p.id: p for p in pc.g_patches}

    def is_innermost_disk(pid):
        return (g_by_id[pid].euler == 1
                and pc.incidences[pid] == [seam_id])

    if is_innermost_disk(ga0) and not is_innermost_disk(gb0):
        disk, neighbour = ga0, gb0
    elif is_innermost_disk(gb0) and not is_innermost_disk(ga0):
        disk, neighbour = gb0, ga0
    else:
        raise MalformedComplexError(
            "seam {} does not carry a unique innermost disk patch".format(
                seam_id))

    # The F side attaches to the first chosen G-side at the top level and
    # to the second at the bottom (reversed for shift -1); the absorbed
    # neighbour copy must sit at whichever extreme its attachment uses.
    neighbour_at_top = (neighbour == ga0) == (seam0.level_shift == 1)

    # Level potential of the absorbed copy over the interleaving seams.
    others = [s for s in pc.seams if s.id != seam_id]
    span = 0
    for potential, drift in level_components(
            pc, [s for s in others if s.level_shift != 0]):
        if drift:
            raise MalformedComplexError(
                "seam {}: the copy graph drifts around a cycle, "
                "so no single copy can be absorbed".format(seam_id))
        low, high = min(potential.values()), max(potential.values())
        span = max(span, high - low)
        extreme = high if neighbour_at_top else low
        if neighbour in potential and potential[neighbour] != extreme:
            raise MalformedComplexError(
                "seam {}: the disk's neighbour patch is not at the "
                "extreme level of the absorbed copy".format(seam_id))
    if copies < max(2, span + 1):
        raise InsufficientCopiesError(
            "absorbing at seam {} needs at least {} copies (the absorbed "
            "copy spans {} levels), only {} present".format(
                seam_id, max(2, span + 1), span + 1, copies))

    patches = pc.f_patches + pc.g_patches
    nodes = ([("F", p.id) for p in pc.f_patches]
             + [("C", p.id) for p in pc.g_patches])
    index = {node: i for i, node in enumerate(nodes)}
    uf = UnionFind(len(nodes))
    uf.union(index["F", fa0], index["C", ga0])
    uf.union(index["F", fb0], index["C", gb0])
    for s in others:
        (fa, ga), (fb, gb) = s.chosen_pairs()
        if s.level_shift == 0:
            # Copies at a non-interleaving seam attach straight to F.
            uf.union(index["F", fa], index["C", ga])
            uf.union(index["F", fb], index["C", gb])
        else:
            uf.union(index["C", ga], index["C", gb])

    # Over ascending i the groups enter in first-member order, the order
    # resolve gives its components; a name lists its members by label.
    groups = {}
    for i in range(len(nodes)):
        groups.setdefault(uf.find(i), []).append(i)
    rep_name = {}
    new_f = []
    for members in groups.values():
        members.sort(key=nodes.__getitem__)
        name = "+".join("{}.{}".format(*nodes[m]) for m in members)
        new_f.append(Patch(
            id=name, euler=sum(patches[m].euler for m in members),
            oriented=merged_orientation(patches[m].oriented
                                        for m in members)))
        for m in members:
            rep_name[nodes[m]] = name

    new_g = []
    for p in pc.g_patches:
        if p.id == disk:
            continue
        if p.id == neighbour:
            new_g.append(replace(p, euler=p.euler + 1, seams=None))
        else:
            new_g.append(replace(p, seams=None))

    new_seams = []
    for s in others:
        f1, g1, f2, g2 = s.quadrants
        new_seams.append(replace(s, quadrants=(
            rep_name["F", f1], neighbour if g1 == disk else g1,
            rep_name["F", f2], neighbour if g2 == disk else g2)))
    return PatchComplex(new_f, new_g, new_seams)


@dataclass(frozen=True)
class RemovalOutcome:
    """Result of removing the inessential curves."""

    inventory: IntersectionInventory
    removed: int
    complex: PatchComplex | None
    before: ResolvedSurface | None
    after: ResolvedSurface | None


def remove_trivial(inv, pc=None):
    """Drop the curves inessential on the summand, absorbing m copies.

    With m inessential curves and n copies, the sum with n copies is
    carried to the cleaned sum with n - m copies, so n > m is required.
    When a patch complex is attached, each inessential curve id must name
    a trivial seam of the complex; the seams are absorbed one by one
    (each absorption also needs the band of remaining copies to hold the
    absorbed copy's level span) and the resolution profile of the sum,
    ``before``, is checked to survive in the cleaned sum, ``after``.
    """
    if all(inv.essential):
        return RemovalOutcome(inventory=inv, removed=0, complex=pc,
                              before=None, after=None)
    trivial = tuple(compress(inv.ids, map(operator.not_, inv.essential)))
    m = len(trivial)
    if inv.copies <= m:
        raise InsufficientCopiesError(
            "cannot absorb {} copies out of {}".format(m, inv.copies))
    cleaned = IntersectionInventory(
        ids=tuple(compress(inv.ids, inv.essential)),
        essential=(True,) * (len(inv.ids) - m),
        parities=tuple(compress(inv.parities, inv.essential)),
        copies=inv.copies - m)

    new_pc = None
    before = after = None
    if pc is not None:
        new_pc = pc
        for step, seam_id in enumerate(trivial):
            new_pc = absorb_trivial_seam(new_pc, seam_id,
                                         copies=inv.copies - step)
        before = resolve(pc, inv.copies)
        after = resolve(new_pc, cleaned.copies)
        if before.profile != after.profile:
            raise MalformedComplexError(
                "absorbing {} trivial seams changed the resolution "
                "profile: {} != {}".format(m, before.profile, after.profile))
    return RemovalOutcome(inventory=cleaned, removed=m, complex=new_pc,
                          before=before, after=after)


@dataclass(frozen=True)
class ParityOutcome:
    """Result of cancelling opposite-parity curve pairs."""

    inventory: IntersectionInventory
    net: int
    cancelled_pairs: int


def reduce_parities(inv):
    """Cancel negative curves against positives in the torus case.

    Adjacent opposite-parity curves cancel in pairs (each cancellation
    absorbs one copy), leaving net = (#positive - #negative) curves, all
    positive, after (total - net)/2 cancellations.  Equal counts are
    rejected: the sum would disconnect for large copy counts.  The
    convention that positives outnumber negatives is required, matching
    the reduction's standing assumption.
    """
    if not inv.torus_mode:
        raise DomainError("parity reduction applies only in torus mode")
    if not all(inv.essential):
        raise DomainError("remove inessential curves before reducing "
                          "parities")
    positive = inv.parities.count("+")
    negative = len(inv.parities) - positive
    if positive == negative:
        raise DisconnectionError(
            "equal numbers of positive and negative curves: the sum "
            "disconnects for large copy counts")
    if positive < negative:
        raise DomainError(
            "expected more positive than negative curves; relabel the "
            "parities to meet the convention")
    net = positive - negative
    cancelled = negative
    if cancelled and inv.copies <= cancelled:
        raise InsufficientCopiesError(
            "cancelling {} pairs needs more than {} copies".format(
                cancelled, inv.copies))

    # One stack pass: an incoming curve of the opposite parity to the top
    # of the stack cancels against it, and neither survives.  So the
    # stack only ever holds ids of curves of one parity, ``top``.
    ids, top = [], None
    for cid, parity in zip(inv.ids, inv.parities):
        if parity != top and ids:
            ids.pop()
        else:
            ids.append(cid)
            top = parity
    if len(ids) != net or top != "+":
        raise AssertionError("parity cancellation lost count")
    return ParityOutcome(
        inventory=IntersectionInventory(
            ids=tuple(ids), essential=(True,) * net, parities=("+",) * net,
            copies=inv.copies - cancelled),
        net=net,
        cancelled_pairs=cancelled)


def torus_periodicity(period, copy_range):
    """Partition copy counts by residue: adding ``period`` copies of the
    torus gives an isotopic surface, so a sweep meets at most ``period``
    isotopy classes.  ``copy_range`` is a ``range`` of consecutive counts,
    so each class is a range too, ``copy_range[r::period]``.
    """
    if period <= 0:
        raise UndefinedPeriodError(
            "periodicity needs a positive number of intersection curves")
    if copy_range.start < 0:
        raise DomainError("copies must be nonnegative")
    # Slicing first never asks the length of a range too long for len().
    return tuple(copy_range[r::period]
                 for r in range(len(copy_range[:period])))


@dataclass(frozen=True)
class Pack:
    """Move one outside component into a can.

    The abstract state only counts outside components, so a pack has no
    parameters.
    """


@dataclass(frozen=True)
class Slice:
    """Split one can in two along a level disk.

    ``partition`` is the set of curve ids kept on the first half; it must
    be a proper nonempty subset of the can's curves.
    """

    can: int
    partition: frozenset


@dataclass(frozen=True)
class CanState:
    """A stack of cans, each holding at least one boundary curve."""

    cans: tuple
    outside_components: int

    def __post_init__(self):
        seen = set()
        for can in self.cans:
            if not can:
                raise DomainError("every can must hold at least one curve")
            if can & seen:
                raise DomainError("curve ids must be globally unique")
            seen |= can
        if self.outside_components < 0:
            raise DomainError("outside_components must be nonnegative")

    @property
    def total_curves(self):
        return sum(len(c) for c in self.cans)

    def measure(self):
        """Lexicographic termination measure (outside, curves - cans)."""
        return (self.outside_components, self.total_curves - len(self.cans))


def tuna_can_step(state, move):
    """Apply one packing or slicing move, checking its guard.

    Packing needs an outside component to push in; slicing needs a can
    with at least two curves.  The lexicographic measure strictly drops
    on every applied move.
    """
    if isinstance(move, Pack):
        if state.outside_components <= 0:
            raise GuardViolationError("no outside component left to pack")
        new = CanState(cans=state.cans,
                       outside_components=state.outside_components - 1)
    elif isinstance(move, Slice):
        if not 0 <= move.can < len(state.cans):
            raise GuardViolationError("slice names a missing can")
        can = state.cans[move.can]
        part = frozenset(move.partition)
        if not part or not part < can:
            raise GuardViolationError(
                "slice partition must be a proper nonempty subset of the "
                "can's curves")
        rest = can - part
        cans = (state.cans[:move.can] + (part, rest)
                + state.cans[move.can + 1:])
        new = CanState(cans=cans,
                       outside_components=state.outside_components)
    else:
        raise GuardViolationError("unknown move {!r}".format(move))
    if not new.measure() < state.measure():
        raise AssertionError("termination measure failed to decrease")
    return new


class _Moves(Sequence):
    """The applicable moves of one state, each built when it is indexed.

    Laid out as the full list would be: the pack first (when there is
    material outside), then for each can of two or more curves, in can
    order, its 2^(size - 1) - 1 slices.  Slice ``bits`` of a can keeps
    its smallest curve on the first half, joined by sorted member k + 1
    wherever bit k of ``bits`` is set.
    """

    def __init__(self, state):
        self._pack = state.outside_components > 0
        self._cans = []
        self._starts = []
        total = int(self._pack)
        for idx, can in enumerate(state.cans):
            if len(can) >= 2:
                self._cans.append((idx, can))
                self._starts.append(total)
                total += 2 ** (len(can) - 1) - 1
        self._len = total

    def __len__(self):
        return self._len

    def __bool__(self):
        # Also answers beyond sys.maxsize moves, where len() overflows.
        return self._len > 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._len))]
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("move index out of range")
        if self._pack and i == 0:
            return Pack()
        block = bisect_right(self._starts, i) - 1
        idx, can = self._cans[block]
        bits = i - self._starts[block]
        members = sorted(can)
        return Slice(can=idx, partition=frozenset(
            [members[0]] + [c for k, c in enumerate(members[1:])
                            if bits >> k & 1]))


def applicable_moves(state):
    """All applicable moves, deterministically ordered, as a lazy sequence.

    Packing is reported once (its parameters do not change the abstract
    state); slices enumerate every proper split of every can, keeping the
    can's smallest curve id on the first half to avoid mirror duplicates.
    The result supports ``len``, truth, iteration and indexing (negative
    indices and slices too, a slice giving a list).  Building it costs
    O(number of cans), and only a move that is indexed or iterated over
    is built, at O(k log k) for a can of k curves: taking one move costs
    that, not the O(2^k) of listing them all.
    ``len`` is subject to Python's sys.maxsize limit (cans of more than
    63 curves); truth and indexing are not.
    """
    return _Moves(state)


@dataclass(frozen=True)
class RunTrace:
    """A maximal run of the packing/slicing procedure."""

    initial: CanState
    final: CanState
    moves: tuple
    slice_count: int
    pack_count: int


def tuna_can_run(state):
    """Run the procedure to exhaustion, taking the first applicable move.

    Every run halts: slices are bounded by curves minus the initial can
    count and packs by the initial outside components, and a maximal run
    meets both bounds exactly.  A run over k curves builds one move per
    step, O(k^2 log k) in all.
    """
    step_bound = (state.total_curves - len(state.cans)
                  + state.outside_components)
    initial = state
    moves_taken = []
    while True:
        moves = applicable_moves(state)
        if not moves:
            break
        move = moves[0]
        state = tuna_can_step(state, move)
        moves_taken.append(move)
        if len(moves_taken) > step_bound:
            raise AssertionError("run exceeded its termination bound")
    slices = sum(1 for m in moves_taken if isinstance(m, Slice))
    packs = len(moves_taken) - slices
    if state.outside_components != 0 or any(
            len(c) != 1 for c in state.cans):
        raise AssertionError("maximal run left an applicable move")
    return RunTrace(initial=initial, final=state, moves=tuple(moves_taken),
                    slice_count=slices, pack_count=packs)
