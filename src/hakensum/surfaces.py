"""Patch complexes and the iterated cut-and-paste sum of a surface pair.

A transverse pair of closed surfaces F and G meets in a collection of
circles.  Cutting both surfaces along those circles leaves *patches*; each
intersection circle becomes a *seam* remembering which four patch sides
approach it.  Resolving the pair (choosing one opposite pair of gluing
annuli at every seam) and replacing G by n parallel copies yields the sum
F + nG.  This module computes the components of that sum, together with
Euler characteristic, closedness, orientability and genus data, purely
from the combinatorics of the seams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

from .errors import DomainError, MalformedComplexError

EPSILON_VALUES = ("+", "-")
LEVEL_SHIFTS = (-1, 0, 1)


@dataclass(frozen=True)
class SurfaceDescriptor:
    """Coarse invariants of a single surface."""

    euler: int
    orientable: bool = True
    boundary_components: int = 0

    def __post_init__(self):
        if self.boundary_components < 0:
            raise DomainError("boundary_components must be nonnegative")
        if self.closed and self.orientable:
            genus_from_euler(self.euler)

    @property
    def closed(self):
        return self.boundary_components == 0


@dataclass(frozen=True)
class Patch:
    """One complementary piece of a surface cut along the seam circles.

    ``seams`` lists the ids of the seams met by this patch's boundary
    circles, with multiplicity.  ``None`` means "derive from the seam
    quadrants"; when given explicitly it is checked against them.
    ``oriented`` is True when the patch carries an orientation compatible
    with its neighbours, None when unknown.
    """

    id: str
    euler: int
    seams: tuple | None = None
    oriented: bool | None = True


def merged_orientation(flags):
    """The ``oriented`` flag of patches merged into one piece: False if
    any is False, True if all are True, else None (unknown)."""
    flags = set(flags)
    if False in flags:
        return False
    return True if flags == {True} else None


@dataclass(frozen=True)
class SeamCurve:
    """A single intersection circle together with its resolution data.

    ``quadrants`` holds the four patch sides around the circle in cyclic
    order, alternating F-side, G-side, F-side, G-side.  The two gluing
    annuli selected by ``epsilon`` each join a quadrant to its cyclic
    successor, so

    * ``epsilon == '+'`` glues quadrant 1 to 2 and quadrant 3 to 4,
    * ``epsilon == '-'`` glues quadrant 2 to 3 and quadrant 4 to 1.

    ``level_shift`` records how a strand of the sum moves between the
    parallel copies of G when it runs through this seam: +1 ascends one
    copy, -1 descends, and 0 leaves every copy at its own level (a
    degenerate convention; the geometric picture of nested parallel
    copies always interleaves by one).
    """

    id: str
    quadrants: tuple
    epsilon: str
    level_shift: int = 1

    def __post_init__(self):
        if len(self.quadrants) != 4:
            raise MalformedComplexError(
                "seam {} must list exactly 4 quadrants".format(self.id))
        if self.epsilon not in EPSILON_VALUES:
            raise MalformedComplexError(
                "seam {}: epsilon must be '+' or '-'".format(self.id))
        if self.level_shift not in LEVEL_SHIFTS:
            raise MalformedComplexError(
                "seam {}: level_shift must be -1, 0 or +1".format(self.id))

    def chosen_pairs(self):
        """The two (F-side, G-side) gluings selected by epsilon."""
        f1, g1, f2, g2 = self.quadrants
        if self.epsilon == "+":
            return ((f1, g1), (f2, g2))
        return ((f2, g1), (f1, g2))


class PatchComplex:
    """Two patch lists plus the seams that glue them.

    The F-side quadrants of every seam must name F-patches and the G-side
    quadrants G-patches; declared seam incidences, when present, must
    agree with the quadrants.  Optional surface descriptors pin the total
    Euler characteristic of each side.  ``f_position`` and ``g_position``
    map each patch id to its index in its side's list, and ``incidences``
    maps it to the ids of the seams whose quadrants name it, with
    multiplicity.
    """

    def __init__(self, f_patches, g_patches, seams,
                 f_descriptor=None, g_descriptor=None):
        self.f_patches = tuple(f_patches)
        self.g_patches = tuple(g_patches)
        self.seams = tuple(seams)
        self.f_descriptor = f_descriptor
        self.g_descriptor = g_descriptor
        self._validate()

    def _validate(self):
        self.f_position = {p.id: i for i, p in enumerate(self.f_patches)}
        self.g_position = {p.id: j for j, p in enumerate(self.g_patches)}
        f_at, g_at = self.f_position, self.g_position
        if (len(f_at) != len(self.f_patches)
                or len(g_at) != len(self.g_patches)):
            raise MalformedComplexError("duplicate patch id")
        if f_at.keys() & g_at.keys():
            raise MalformedComplexError(
                "patch ids must not be shared between the two sides")
        self.seams_by_id = {s.id: s for s in self.seams}
        if len(self.seams_by_id) != len(self.seams):
            raise MalformedComplexError("duplicate seam id")

        incidences = self.incidences = {pid: [] for pid in [*f_at, *g_at]}
        for seam in self.seams:
            f1, g1, f2, g2 = seam.quadrants
            for pid in (f1, f2):
                if pid not in f_at:
                    raise MalformedComplexError(
                        "seam {} references missing F-patch {!r}".format(
                            seam.id, pid))
            for pid in (g1, g2):
                if pid not in g_at:
                    raise MalformedComplexError(
                        "seam {} references missing G-patch {!r}".format(
                            seam.id, pid))
            for pid in seam.quadrants:
                incidences[pid].append(seam.id)
        for patch in self.f_patches + self.g_patches:
            if patch.seams is not None:
                if sorted(patch.seams) != sorted(incidences[patch.id]):
                    raise MalformedComplexError(
                        "patch {}: declared seam incidences {} do not match "
                        "the seam quadrants {}".format(
                            patch.id, sorted(patch.seams),
                            sorted(incidences[patch.id])))

        if self.f_descriptor is not None:
            if self.euler_f != self.f_descriptor.euler:
                raise MalformedComplexError(
                    "F patches sum to euler {} but the descriptor says "
                    "{}".format(self.euler_f, self.f_descriptor.euler))
        if self.g_descriptor is not None:
            if self.euler_g != self.g_descriptor.euler:
                raise MalformedComplexError(
                    "G patches sum to euler {} but the descriptor says "
                    "{}".format(self.euler_g, self.g_descriptor.euler))

    @property
    def euler_f(self):
        # Cutting along circles does not change Euler characteristic, so
        # the patch eulers sum to the euler of the side.
        return sum(p.euler for p in self.f_patches)

    @property
    def euler_g(self):
        return sum(p.euler for p in self.g_patches)

    def seam(self, sid):
        if sid not in self.seams_by_id:
            raise MalformedComplexError(
                "{!r} names no seam of the patch complex".format(sid))
        return self.seams_by_id[sid]


@dataclass(frozen=True)
class ResolvedComponent:
    """One connected component of a resolved sum."""

    euler: int
    closed: bool
    orientable: bool | None
    genus: int | None
    piece_count: int


@dataclass(frozen=True)
class ResolvedSurface:
    """The components of F + nG as runs: one (component, count) pair per
    maximal run of equal components, in the order ``resolve`` gives."""

    runs: tuple
    copies: int

    @property
    def component_count(self):
        return sum(k for _, k in self.runs)

    @property
    def total_euler(self):
        return sum(c.euler * k for c, k in self.runs)

    @property
    def genus(self):
        """The genus of a connected sum; None for any other."""
        return self.runs[0][0].genus if self.component_count == 1 else None

    @property
    def profile(self):
        """((euler, count), ...): how many components have each euler.
        Components come in euler order, so equal eulers are adjacent."""
        by_euler = groupby(self.runs, key=lambda run: run[0].euler)
        return tuple((e, sum(k for _, k in group)) for e, group in by_euler)


class UnionFind:
    """Disjoint sets over the nodes 0..size-1: a list-backed forest with
    path halving.  A union keeps the root of its first argument, which
    handlebody_certificate relies on to key its cluster genera."""

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


class _Window(NamedTuple):
    """What ``levels`` consecutive copies of G, tied to the hubs, show at
    their ends.

    A hub is an F-patch that a shift-0 seam ties to every level.  Ports
    are numbered: G-patch j at the window's bottom level is port j, at
    its top level port |G| + j, and hub h is port 2|G| + h.  ``ports``
    gives each port's class.  ``classes`` holds [euler, pieces, flags,
    first] per class over its G-nodes only: the euler sum, the piece
    count, the set of ``oriented`` flags and the least G-patch index
    among its members.  ``closed`` counts the components that reach no
    port by their (euler, pieces, flags, first).
    """

    levels: int
    ports: tuple
    classes: tuple
    closed: dict


def _plan(size, joins, ports=()):
    """The union-find step of a composition: union the classes 0..size-1
    joined by the index pairs ``joins``.  Returns the merged class of each
    port, the merged class of each class, how many merged classes carry a
    port, and how many there are.  Those that carry a port are numbered
    first, in the order the ports meet them; the rest follow in the order
    the classes meet them."""
    uf = UnionFind(size)
    for x, y in joins:
        uf.union(x, y)
    roots = list(map(uf.find, range(size)))
    index = {}
    ports = tuple(index.setdefault(roots[c], len(index)) for c in ports)
    opened = len(index)
    slots = tuple(index.setdefault(r, len(index)) for r in roots)
    return ports, slots, opened, len(index)


def _merge(classes, plan):
    """The summed [euler, pieces, flags, first] of each merged class of
    the plan, in its numbering."""
    _, slots, _, count = plan
    merged = [None] * count
    for slot, stats in zip(slots, classes):
        acc = merged[slot]
        if acc is None:
            merged[slot] = list(stats)
        else:
            euler, pieces, flags, first = stats
            acc[0] += euler
            acc[1] += pieces
            acc[2] |= flags
            acc[3] = min(acc[3], first)
    return merged


def _regroup(levels, classes, plan, closed):
    """The window whose ports are the plan's port classes; a merged class
    that keeps no port is counted in ``closed``."""
    ports, _, opened, _ = plan
    merged = _merge(classes, plan)
    for stats in merged[opened:]:
        key = tuple(stats)
        closed[key] = closed.get(key, 0) + 1
    return _Window(levels, ports, tuple(merged[:opened]), closed)


def _component(euler, pieces, flags):
    orientable = merged_orientation(flags)
    # Closed surfaces only: every patch boundary circle lies on a seam
    # and every seam quadrant is re-glued, so components are closed.
    genus = None
    if orientable:
        try:
            genus = genus_from_euler(euler)
        except DomainError:
            # No closed orientable surface has this euler: the declared
            # orientation flags cannot have been compatible.
            orientable = None
    return ResolvedComponent(euler=euler, closed=True, orientable=orientable,
                             genus=genus, piece_count=pieces)


class _Levels:
    """The levels of F + nG for one patch complex, as a window algebra.

    F + nG is the derived graph of a Z-voltage graph cut to the levels
    [1, n] (Gross & Tucker, *Topological Graph Theory*, 1987): the
    vertices are the G-patches, each seam of shift +1 or -1 is an edge
    whose voltage is its shift, and the hubs join every level.  Cutting
    that periodic graph into windows of consecutive levels is
    associative, so the window of n levels is a product of O(log n)
    windows, each product costing O(|F| + |G| + |seams|).

    A window's classes are exactly its port-carrying classes, numbered
    by first port, so ``ports`` alone fixes which classes a composition
    or the last step merges.  Each call keeps the union-find plan of every
    port shape it meets in ``plans``, keyed (a.ports, b.ports) for a
    composition and (ports,) for the last step, and reruns only the sums.

    Ties in (euler, pieces) go by first member, and no level is needed
    to break them.  A seam of shift +1 or -1 that joins G-patch j at a
    level to k one level up also ties an F-patch to j at level n and
    another to k at level 1.  So a component that the cut to [1, n]
    breaks always meets F, and a component without F is a whole finite
    lift of one hub-free quotient component: its lifts are translates of
    one another, alike in euler, pieces and flags, and its least
    G-patch index names it.  Components with F come first, by least
    F-patch index; the rest follow by least G-patch index, and ties
    among those are alike.
    """

    def __init__(self, pc):
        nf = len(pc.f_patches)
        f_at, g_at = pc.f_position, pc.g_position
        ng = self.ng = len(pc.g_patches)
        self.plans = {}
        self.euler_f, self.euler_g = pc.euler_f, pc.euler_g
        ties = {}  # hub -> the G-patches its shift-0 seams tie to it
        self.links = []  # (j, k): j at a level meets k one level up
        self.ends = []  # (F-patch, port) met at level 1 or level n
        self.rejoin = []  # the F-to-F joins of F + 0G
        for seam in pc.seams:
            (fa, ga), (fb, gb) = seam.chosen_pairs()
            fa, fb = f_at[fa], f_at[fb]
            ga, gb = g_at[ga], g_at[gb]
            self.rejoin.append((fa, fb))
            if seam.level_shift == 0:
                ties.setdefault(fa, []).append(ga)
                ties.setdefault(fb, []).append(gb)
            elif seam.level_shift == 1:
                self.links.append((ga, gb))
                self.ends += [(fa, ng + ga), (fb, gb)]
            else:
                self.links.append((gb, ga))
                self.ends += [(fa, ga), (fb, ng + gb)]
        self.ties = ties
        # F-patch i is first member i - |F|, before every G-patch index.
        self.f_classes = tuple(
            (p.euler, 1, frozenset((p.oriented,)), i - nf)
            for i, p in enumerate(pc.f_patches))
        self.g_classes = tuple(
            (p.euler, 1, frozenset((p.oriented,)), j)
            for j, p in enumerate(pc.g_patches))

    @cached_property
    def unit(self):
        """The window of one level: its bottom and top ports are the same
        nodes, and the G-patches tied to one hub are joined through it."""
        ties = self.ties.values()
        return _regroup(1, self.g_classes, _plan(
            self.ng, [(tied[0], j) for tied in ties for j in tied[1:]],
            list(range(self.ng)) * 2 + [tied[0] for tied in ties]), {})

    def compose(self, a, b):
        """The window of ``a``'s levels with ``b``'s stacked on top: the
        links join a's top level to b's bottom level, and the hubs are
        shared.  None is the empty window."""
        if a is None:
            return b
        shape = (a.ports, b.ports)
        plan = self.plans.get(shape)
        if plan is None:
            ng, k = self.ng, len(a.classes)
            joins = [(a.ports[ng + j], k + b.ports[up])
                     for j, up in self.links]
            joins += [(a.ports[x], k + b.ports[x])
                      for x in range(2 * ng, len(a.ports))]
            ports = (a.ports[:ng] + tuple(k + c for c in b.ports[ng:2 * ng])
                     + a.ports[2 * ng:])
            plan = self.plans[shape] = _plan(
                k + len(b.classes), joins, ports)
        closed = dict(a.closed)
        for key, count in b.closed.items():
            closed[key] = closed.get(key, 0) + count
        return _regroup(a.levels + b.levels, a.classes + b.classes, plan,
                        closed)

    def window(self, n):
        """The window of levels 1..n by binary powering (None at n = 0)."""
        result, base = None, self.unit
        while n:
            if n & 1:
                result = self.compose(result, base)
            n >>= 1
            if n:
                base = self.compose(base, base)
        return result

    def resolved(self, window):
        """F + nG from the window of its n levels: the F-patches join the
        hubs and the ports at levels 1 and n.  With no levels (None) the
        F-patches re-join one another, recovering F."""
        if window is None:
            return self._surface(self.f_classes, _plan(
                len(self.f_classes), self.rejoin), {}, 0)
        shape = (window.ports,)
        plan = self.plans.get(shape)
        if plan is None:
            k, ports, hub_port = len(window.classes), window.ports, 2 * self.ng
            joins = [(k + h, ports[hub_port + x])
                     for x, h in enumerate(self.ties)]
            joins += [(k + f, ports[port]) for f, port in self.ends]
            plan = self.plans[shape] = _plan(
                k + len(self.f_classes), joins)
        return self._surface(window.classes + self.f_classes, plan,
                             window.closed, window.levels)

    def _surface(self, classes, plan, closed, copies):
        """The ResolvedSurface of the classes merged by the plan, with the
        components counted in ``closed`` added."""
        groups = [(euler, pieces, first, flags, 1)
                  for euler, pieces, flags, first in _merge(classes, plan)]
        groups += [(euler, pieces, first, flags, count)
                   for (euler, pieces, flags, first), count in closed.items()]
        groups.sort(key=lambda g: g[:3])
        runs = groupby(groups, key=lambda g: _component(g[0], g[1], g[3]))
        surface = ResolvedSurface(
            tuple((c, sum(g[4] for g in run)) for c, run in runs), copies)
        expected = euler_of_sum(self.euler_f, self.euler_g, copies)
        if surface.total_euler != expected:
            raise AssertionError("euler bookkeeping violated: {} != {}".format(
                surface.total_euler, expected))
        return surface


def resolve(pc, copies):
    """Compute the components of the sum of F with ``copies`` copies of G.

    G-patch j at level L (levels 1..n, level 1 innermost) is a node, and
    so is each F-patch.  Each seam contributes its edges:

    * with no copies at all the two F-sides simply re-join, recovering F;
    * otherwise the selected annuli replicate at every level.  For shift
      +1 the first F-side attaches to its paired G-side at level n, the
      second F-side to its G-side at level 1, and a strand leaving the
      first G-side at level L re-enters the second at level L + 1;
      shift -1 mirrors this (levels 1 and n, L to L - 1);
    * shift 0 attaches every copy directly to both F-sides, with no
      interleaving.

    The levels are summarised as windows (``_Levels``): O(log n)
    compositions of O(|F| + |G| + |seams|) each.  Equal components in a
    row form one run, so only the run counts grow with n.  Each
    component's Euler characteristic is the sum of its member patch
    eulers (the gluing annuli contribute nothing), so the total always
    equals ``euler_of_sum(euler_f, euler_g, copies)``.
    Components are ordered by (euler, pieces), ties by their first
    member, where F-patches come first in their order, then G-patch j at
    level L by (j, L).
    """
    return next(resolve_range(pc, copies, copies + 1))


def resolve_range(pc, start, stop):
    """``resolve(pc, n)`` for n in range(start, stop), in order: the window
    grows by one level per row, so a row costs one composition."""
    if start < 0:
        raise DomainError("copies must be nonnegative")
    levels = _Levels(pc)
    window = levels.window(start)
    for n in range(start, stop):
        if n > start:
            window = levels.compose(window, levels.unit)
        yield levels.resolved(window)


def euler_of_sum(euler_f, euler_g, copies):
    """Euler characteristic of F + nG: additivity gives chi(F) + n*chi(G)."""
    if copies < 0:
        raise DomainError("copies must be nonnegative")
    return euler_f + copies * euler_g


def genus_from_euler(euler):
    """Genus of the closed orientable surface with the given euler."""
    if euler % 2 != 0 or euler > 2:
        raise DomainError(
            "no closed orientable surface has euler {}".format(euler))
    return (2 - euler) // 2


def level_components(pc, seams):
    """Walk the copy graph of ``pc`` over ``seams``, one component at a time.

    The copy graph joins G-patches by seam chains: each seam contributes
    one edge from its first chosen G-side to its second, weighted by the
    seam's level shift, and traversing the edge backwards negates the
    weight.  Yields (potential, drift) per component, where ``potential``
    maps each member patch to its level relative to the component's first
    patch and ``drift`` is the gcd of the net shifts around its cycles
    (0 when every cycle closes up at its starting level).
    """
    adj = {p.id: [] for p in pc.g_patches}
    for seam in seams:
        (_, ga), (_, gb) = seam.chosen_pairs()
        adj[ga].append((gb, seam.level_shift))
        adj[gb].append((ga, -seam.level_shift))
    seen = set()
    for start in adj:
        if start in seen:
            continue
        potential = {start: 0}
        stack = [start]
        drift = 0
        while stack:
            v = stack.pop()
            for w, shift in adj[v]:
                if w not in potential:
                    potential[w] = potential[v] + shift
                    stack.append(w)
                else:
                    drift = math.gcd(
                        drift, abs(potential[v] + shift - potential[w]))
        seen.update(potential)
        yield potential, drift


def conjectured_period(pc):
    """Conjectured period of the component count as a function of n.

    Within one connected component of the copy graph, the levels reachable
    from a fixed start differ by the net shifts of closed loops; their gcd
    d splits the levels into d residue classes that rotate as n grows.
    The count is then expected to repeat with period lcm(d) over the
    components.  When some component has no loop of nonzero shift, no
    period is conjectured and None is returned.  None does not mean the
    count grows with n: levels are also joined through F-patches and
    shift-0 seams, which this walk ignores, and on some such complexes
    the count is periodic (often constant) all the same.
    """
    period = 1
    for _, drift in level_components(pc, pc.seams):
        if drift == 0:
            return None
        period = math.lcm(period, drift)
    return period
