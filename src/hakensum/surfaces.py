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
from collections import Counter
from dataclasses import dataclass

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
            if self.euler % 2 != 0 or self.euler > 2:
                raise DomainError(
                    "a closed orientable surface has even euler "
                    "characteristic at most 2, got {}".format(self.euler))

    @property
    def closed(self):
        return self.boundary_components == 0

    @property
    def genus(self):
        return genus_of(self)


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
    Euler characteristic of each side.
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
        f_ids = [p.id for p in self.f_patches]
        g_ids = [p.id for p in self.g_patches]
        if len(set(f_ids)) != len(f_ids) or len(set(g_ids)) != len(g_ids):
            raise MalformedComplexError("duplicate patch id")
        if set(f_ids) & set(g_ids):
            raise MalformedComplexError(
                "patch ids must not be shared between the two sides")
        self.seams_by_id = {s.id: s for s in self.seams}
        if len(self.seams_by_id) != len(self.seams):
            raise MalformedComplexError("duplicate seam id")

        f_set, g_set = set(f_ids), set(g_ids)
        derived = {pid: [] for pid in f_ids + g_ids}
        for seam in self.seams:
            f1, g1, f2, g2 = seam.quadrants
            for pid in (f1, f2):
                if pid not in f_set:
                    raise MalformedComplexError(
                        "seam {} references missing F-patch {!r}".format(
                            seam.id, pid))
            for pid in (g1, g2):
                if pid not in g_set:
                    raise MalformedComplexError(
                        "seam {} references missing G-patch {!r}".format(
                            seam.id, pid))
            for pid in seam.quadrants:
                derived[pid].append(seam.id)
        for patch in self.f_patches + self.g_patches:
            if patch.seams is not None:
                if sorted(patch.seams) != sorted(derived[patch.id]):
                    raise MalformedComplexError(
                        "patch {}: declared seam incidences {} do not match "
                        "the seam quadrants {}".format(
                            patch.id, sorted(patch.seams),
                            sorted(derived[patch.id])))

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
        return self.seams_by_id[sid]


@dataclass(frozen=True)
class ResolvedComponent:
    """One connected component of a resolved sum."""

    euler: int
    closed: bool
    orientable: bool | None
    genus: int | None
    piece_count: int

    def sort_key(self):
        return (self.euler, self.piece_count)


@dataclass(frozen=True)
class ResolvedSurface:
    """All components of F + nG, sorted deterministically."""

    components: tuple
    copies: int

    @property
    def total_euler(self):
        return sum(c.euler for c in self.components)

    @property
    def component_count(self):
        return len(self.components)

    def euler_multiset(self):
        return tuple(sorted(c.euler for c in self.components))


class UnionFind:
    """Disjoint sets over the nodes 0..size-1: a list-backed forest with
    path halving.  A union keeps the root of its first argument, which
    callers rely on to name and key merged sets."""

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


def resolve(pc, copies):
    """Compute the components of the sum of F with ``copies`` copies of G.

    Components are found by a union-find over integer nodes: F-patch i is
    node i, and G-patch j at level L (levels 1..n, level 1 innermost) is
    node nf + j*n + (L - 1), where nf = len(pc.f_patches) and n = copies.
    Each seam contributes its edges by index arithmetic:

    * with no copies at all the two F-sides simply re-join, recovering F;
    * otherwise the selected annuli replicate at every level.  For shift
      +1 the first F-side attaches to its paired G-side at level n, the
      second F-side to its G-side at level 1, and a strand leaving the
      first G-side at level L re-enters the second at level L + 1;
      shift -1 mirrors this (levels 1 and n, L to L - 1);
    * shift 0 attaches every copy directly to both F-sides, with no
      interleaving.

    Each component's Euler characteristic is the sum of its member patch
    eulers (the gluing annuli contribute nothing), so the total always
    equals ``euler_f + copies * euler_g``.  Components are ordered by
    (euler, pieces), ties by their first member node.
    """
    if copies < 0:
        raise DomainError("copies must be nonnegative")
    n = copies
    nf = len(pc.f_patches)
    f_node = {p.id: i for i, p in enumerate(pc.f_patches)}
    g_base = {p.id: nf + j * n for j, p in enumerate(pc.g_patches)}
    size = nf + len(pc.g_patches) * n
    uf = UnionFind(size)
    union, find = uf.union, uf.find
    for seam in pc.seams:
        (fa, ga), (fb, gb) = seam.chosen_pairs()
        fa, fb = f_node[fa], f_node[fb]
        if n == 0:
            union(fa, fb)
            continue
        a, b = g_base[ga], g_base[gb]
        if seam.level_shift == 1:
            union(fa, a + n - 1)
            union(fb, b)
            for i in range(n - 1):
                union(a + i, b + i + 1)
        elif seam.level_shift == -1:
            union(fa, a)
            union(fb, b + n - 1)
            for i in range(1, n):
                union(a + i, b + i - 1)
        else:
            for i in range(n):
                union(fa, a + i)
                union(fb, b + i)

    # Count each patch's nodes per root; dicts keep the order in which
    # roots first occur, so groups come out in first-member order.
    roots = list(map(find, range(size)))
    groups = {}
    members = [(p, {roots[i]: 1}) for i, p in enumerate(pc.f_patches)]
    members += [(p, Counter(roots[nf + j * n:nf + (j + 1) * n]))
                for j, p in enumerate(pc.g_patches)]
    for patch, counts in members:
        for root, count in counts.items():
            group = groups.get(root)
            if group is None:
                group = groups[root] = [0, 0, set()]
            group[0] += count * patch.euler
            group[1] += count
            group[2].add(patch.oriented)

    components = []
    for euler, pieces, flags in groups.values():
        orientable = merged_orientation(flags)
        # Closed surfaces only: every patch boundary circle lies on a seam
        # and every seam quadrant is re-glued, so components are closed.
        genus = None
        if orientable and euler % 2 == 0 and euler <= 2:
            genus = (2 - euler) // 2
        elif orientable:
            # Odd euler contradicts closed + orientable: the declared
            # orientation flags cannot have been compatible.
            orientable = None
        components.append(ResolvedComponent(
            euler=euler, closed=True, orientable=orientable, genus=genus,
            piece_count=pieces))
    components.sort(key=lambda c: c.sort_key())

    total = sum(c.euler for c in components)
    expected = pc.euler_f + copies * pc.euler_g
    if total != expected:
        raise AssertionError(
            "euler bookkeeping violated: {} != {}".format(total, expected))
    return ResolvedSurface(components=tuple(components), copies=copies)


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


def genus_of(d):
    """Genus of a closed orientable surface descriptor, (2 - euler)/2."""
    if not d.closed:
        raise DomainError("genus is defined only for closed surfaces")
    if not d.orientable:
        raise DomainError("genus is defined only for orientable surfaces")
    return genus_from_euler(d.euler)


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
