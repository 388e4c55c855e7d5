"""Independent oracles used to cross-check the library.

Everything here recomputes results from first principles, by explicit
instantiation and brute-force enumeration, sharing no code with the
library paths it checks.  The rescanning, listing and union-find
oracles keep the library's earlier, slower algorithms; they build the
library's move, proof and surface types so that their results compare
equal to the library's, but carry their own disjoint sets and their own
orientation rule, written differently from the library's, so that a
fault in either cannot hide in both.
"""

from collections import Counter, deque
from itertools import groupby

from hakensum import DomainError, Pack, ScenarioError, Slice
from hakensum.scenarios import HandlebodyProof, ProofFailure, ProofStep
from hakensum.surfaces import ResolvedComponent, ResolvedSurface


class _Sets:
    """Disjoint sets over 0..size-1 kept as explicit member lists: each
    node holds the number of its set, a union moves the smaller list into
    the larger, and every set is named by the root of the first argument
    of its latest union (so a name survives the unions it starts)."""

    def __init__(self, size):
        self.label = list(range(size))
        self.members = [[x] for x in range(size)]
        self.name = list(range(size))

    def find(self, x):
        return self.name[self.label[x]]

    def union(self, x, y):
        keep, gone = self.label[x], self.label[y]
        if keep == gone:
            return
        name = self.name[keep]
        if len(self.members[keep]) < len(self.members[gone]):
            keep, gone = gone, keep
        for z in self.members[gone]:
            self.label[z] = keep
        self.members[keep] += self.members[gone]
        self.members[gone] = []
        self.name[keep] = name


def _oriented(flags):
    """The ``oriented`` flag of merged patches: one unoriented patch makes
    the piece unoriented; it is oriented only if every patch is known to
    be, and unknown otherwise."""
    merged = True
    for flag in flags:
        if flag is False:
            return False
        if flag is None:
            merged = None
    return merged


def _components(nodes, edges):
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for v in adj:
        if v in seen:
            continue
        comp = set()
        queue = deque([v])
        while queue:
            u = queue.popleft()
            if u in comp:
                continue
            comp.add(u)
            queue.extend(w for w in adj[u] if w not in comp)
        seen |= comp
        comps.append(comp)
    return comps


def _sum_graph(pc, copies):
    """Every (patch, level) node and every seam edge of F + nG."""
    nodes = [("F", p.id) for p in pc.f_patches]
    if copies > 0:
        nodes += [("G", p.id, lv) for p in pc.g_patches
                  for lv in range(1, copies + 1)]
    edges = []
    for seam in pc.seams:
        f1, g1, f2, g2 = seam.quadrants
        if seam.epsilon == "+":
            fa, ga, fb, gb = f1, g1, f2, g2
        else:
            fa, ga, fb, gb = f2, g1, f1, g2
        if copies == 0:
            edges.append((("F", fa), ("F", fb)))
            continue
        if seam.level_shift == 0:
            for lv in range(1, copies + 1):
                edges.append((("F", fa), ("G", ga, lv)))
                edges.append((("F", fb), ("G", gb, lv)))
            continue
        if seam.level_shift == 1:
            top_a, bottom_b = copies, 1
            step = 1
        else:
            top_a, bottom_b = 1, copies
            step = -1
        edges.append((("F", fa), ("G", ga, top_a)))
        edges.append((("F", fb), ("G", gb, bottom_b)))
        for lv in range(1, copies + 1):
            if 1 <= lv + step <= copies:
                edges.append((("G", ga, lv), ("G", gb, lv + step)))
    return nodes, edges


def brute_force_components(pc, copies):
    """Instantiate every (patch, level) node and every seam edge.

    Returns (component count, sorted euler multiset).
    """
    euler = {p.id: p.euler for p in pc.f_patches + pc.g_patches}
    comps = _components(*_sum_graph(pc, copies))
    multiset = sorted(sum(euler[m[1]] for m in comp) for comp in comps)
    return len(comps), tuple(multiset)


def resolve_by_union_find(pc, copies):
    """The components of F + nG by one union-find over all |F| + n|G|
    patch copies: the same ResolvedSurface as the library's ``resolve``
    (whose docstring gives the seam edges), component order included, at
    O(n) cost.

    F-patch i is node i, and G-patch j at level L (levels 1..n) is node
    nf + j*n + (L - 1), where nf = len(pc.f_patches) and n = copies.
    Components are ordered by (euler, pieces), ties by their first member
    node, and their eulers must sum to ``euler_f + copies * euler_g``.
    """
    if copies < 0:
        raise DomainError("copies must be nonnegative")
    n = copies
    nf = len(pc.f_patches)
    f_node = {p.id: i for i, p in enumerate(pc.f_patches)}
    g_base = {p.id: nf + j * n for j, p in enumerate(pc.g_patches)}
    size = nf + len(pc.g_patches) * n
    uf = _Sets(size)
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
        orientable = _oriented(flags)
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
    components.sort(key=lambda c: (c.euler, c.piece_count))

    total = sum(c.euler for c in components)
    expected = pc.euler_f + copies * pc.euler_g
    if total != expected:
        raise AssertionError(
            "euler bookkeeping violated: {} != {}".format(total, expected))
    # Equal components in a row make one run.
    return ResolvedSurface(
        runs=tuple((c, len(list(run))) for c, run in groupby(components)),
        copies=copies)


def record_order(record):
    """Total order on (euler, pieces, orientable) records; on ties
    non-orientable comes before unknown before orientable."""
    euler, pieces, orientable = record
    return euler, pieces, {False: 0, None: 1, True: 2}[orientable]


def brute_force_component_records(pc, copies):
    """Sorted (euler, pieces, orientable) records of the components.

    A component is non-orientable as soon as one member patch is declared
    non-orientable.  It is orientable when every member is declared
    oriented and its euler characteristic is one a closed orientable
    surface can have (even, at most 2).  Otherwise it is unknown (None).
    """
    patch = {p.id: p for p in pc.f_patches + pc.g_patches}
    records = []
    for comp in _components(*_sum_graph(pc, copies)):
        euler = sum(patch[m[1]].euler for m in comp)
        declared = [patch[m[1]].oriented for m in comp]
        if False in declared:
            orientable = False
        elif (all(flag is True for flag in declared)
              and euler % 2 == 0 and euler <= 2):
            orientable = True
        else:
            orientable = None
        records.append((euler, len(comp), orientable))
    return sorted(records, key=record_order)


def splice_components(word, copies):
    """Explicitly splice the level circles at every stack.

    Builds the n level circles, cuts each into sectors between
    consecutive stacks, reconnects the loose ends the way the stacks
    prescribe (ascending through '+', descending through '-'), pairs the
    inner vertical pieces through the middle region (each intersection
    arc dives into the middle at one stack and comes back out at
    another; the pairing affects nothing that is reported), and
    enumerates the resulting 1-manifold.

    Returns (gamma_levels set, arc count, extra closed curve count).
    """
    h = len(word)
    n = copies
    if h == 0:
        return set(range(1, n + 1)), 0, 0
    if n == 0:
        return set(), h // 2, 0

    nodes = []
    for i in range(1, n + 1):
        for j in range(1, h + 1):
            nodes.append(("a", i, j))
    for j in range(1, h + 1):
        nodes.append(("ext", j))
        nodes.append(("int", j))

    edges = []
    for j in range(1, h + 1):
        prev = j - 1 if j > 1 else h
        if word[j - 1] == "+":
            for i in range(1, n):
                edges.append((("a", i, prev), ("a", i + 1, j)))
            edges.append((("ext", j), ("a", n, prev)))
            edges.append((("int", j), ("a", 1, j)))
        else:
            for i in range(2, n + 1):
                edges.append((("a", i, prev), ("a", i - 1, j)))
            edges.append((("int", j), ("a", 1, prev)))
            edges.append((("ext", j), ("a", n, j)))
    # middle region: pair the inner pieces in stack order
    for j in range(1, h + 1, 2):
        edges.append((("int", j), ("int", j + 1)))

    comps = _components(nodes, edges)
    gammas = set()
    arcs = 0
    extra_closed = 0
    for comp in comps:
        exts = sum(1 for v in comp if v[0] == "ext")
        ints = sum(1 for v in comp if v[0] == "int")
        if exts:
            assert exts == 2, "an arc has exactly two boundary ends"
            arcs += 1
        elif ints:
            extra_closed += 1
        else:
            for v in comp:
                if v[0] == "a" and v[2] == h:
                    gammas.add(v[1])
    return gammas, arcs, extra_closed


def walk_dual_curve(cert):
    """Step-by-step check of a dual-curve certificate.

    Returns True when the period is positive, every crossing entry is
    +1 or -1, both lift paths have at least one lift and chain correctly
    from the base level to base + period, all recorded levels lie in the
    band, and the closed curve passes through the base level exactly once.
    """
    if cert.period <= 0:
        return False
    base, top = cert.level, cert.level + cert.period
    for levels, crossings, shift_value in (
            (cert.prime_levels, cert.prime_crossings, cert.prime_shift),
            (cert.dblprime_levels, cert.dblprime_crossings,
             cert.dblprime_shift)):
        if not levels or any(c not in (-1, 1) for c in crossings):
            return False
        visited = []
        position = base
        for start in levels:
            if start != position:
                return False
            if not 1 <= start <= cert.copies:
                return False
            for c in crossings:
                position = position + c
            if position != start + shift_value:
                return False
            visited.append(start)
        if position != top or not 1 <= top <= cert.copies:
            return False
        if any(v == base for v in visited[1:]):
            return False
    return True


def cancel_parities_by_rescan(curves):
    """Cancel cyclically adjacent opposite-parity curves, one pair at a
    time, rescanning from the start after every cancellation.

    ``curves`` are (id, parity) pairs; returns the surviving pairs in
    their original order.
    """
    curves = list(curves)
    changed = True
    while changed:
        changed = False
        k = len(curves)
        for i in range(k):
            j = (i + 1) % k
            if k >= 2 and curves[i][1] != curves[j][1]:
                for idx in sorted((i, j), reverse=True):
                    del curves[idx]
                changed = True
                break
    return curves


def moves_by_listing(state):
    """Every applicable move of a can state, listed eagerly: the pack
    first, then every proper split of every can, slice ``bits`` keeping
    the can's smallest curve and each further curve k + 1 whose bit k is
    set."""
    moves = []
    if state.outside_components > 0:
        moves.append(Pack())
    for idx, can in enumerate(state.cans):
        if len(can) < 2:
            continue
        members = sorted(can)
        anchor, rest = members[0], members[1:]
        for bits in range(2 ** len(rest) - 1):
            part = frozenset(
                [anchor] + [c for k, c in enumerate(rest) if bits >> k & 1])
            moves.append(Slice(can=idx, partition=part))
    return moves


def handlebody_by_rescan(graph):
    """The handlebody rewriter that restarts its scan of every gluing
    after each merge and rescans every product to a fixpoint.

    Returns the same HandlebodyProof or ProofFailure as the library's
    forward-chaining ``handlebody_certificate``, step for step.
    """
    if not graph.pieces:
        raise ScenarioError("empty gluing graph")

    index = {p.id: i for i, p in enumerate(graph.pieces)}
    uf = _Sets(len(index))
    # Keyed by cluster root: a merge keeps the root of its first argument.
    genus_of_cluster = [1 - p.euler for p in graph.pieces]

    steps = []
    for p in sorted(graph.pieces, key=lambda p: p.id):
        if p.kind == "product":
            steps.append(ProofStep(
                rule="product-is-handlebody",
                detail="product piece {} over a base of euler {} is a "
                       "handlebody".format(p.id, p.base_euler),
                genus=1 - p.base_euler))
        elif p.kind == "solid_torus":
            steps.append(ProofStep(
                rule="product-is-handlebody",
                detail="solid torus {} is a genus-1 handlebody".format(p.id),
                genus=1))

    # Primitivity facts anchored to pieces: the annulus is primitive in
    # whatever cluster currently contains the anchor.
    prim = {(g.id, g.primitive_in)
            for g in graph.gluings if g.primitive_in is not None}

    def internal(g):
        return uf.find(index[g.pieces[0]]) == uf.find(index[g.pieces[1]])

    def transfer_across_products():
        added = True
        while added:
            added = False
            for p in sorted(graph.pieces, key=lambda p: p.id):
                if p.kind != "product":
                    continue
                incident = [g for g in graph.gluings if p.id in g.pieces]
                if len(incident) != 2:
                    continue
                a, b = incident
                for inside, outside in ((a, b), (b, a)):
                    if internal(inside) and not internal(outside):
                        fact = (outside.id, p.id)
                        if fact not in prim:
                            prim.add(fact)
                            steps.append(ProofStep(
                                rule="primitivity-across-product",
                                detail="annulus {} is primitive in the "
                                       "cluster absorbing product {}".format(
                                           outside.id, p.id)))
                            added = True

    transfer_across_products()
    progress = True
    while progress:
        progress = False
        for g in sorted(graph.gluings, key=lambda g: g.id):
            ra, rb = (uf.find(index[pid]) for pid in g.pieces)
            if ra == rb:
                continue
            anchored = {uf.find(index[anchor]) for (gid, anchor) in prim
                        if gid == g.id}
            if ra not in anchored and rb not in anchored:
                continue
            merged_genus = genus_of_cluster[ra] + genus_of_cluster[rb] - 1
            uf.union(ra, rb)
            genus_of_cluster[ra] = merged_genus
            steps.append(ProofStep(
                rule="merge-primitive-annulus",
                detail="glue along annulus {}".format(g.id),
                genus=merged_genus))
            transfer_across_products()
            progress = True
            break

    roots = {uf.find(i) for i in range(len(index))}
    if len(roots) > 1:
        return ProofFailure(
            reason="no inference applies; {} clusters remain".format(
                len(roots)),
            cluster_count=len(roots))
    final_genus = genus_of_cluster[roots.pop()]
    euler_total = sum(p.euler for p in graph.pieces)
    if final_genus != 1 - euler_total:
        raise AssertionError(
            "genus bookkeeping violated: {} != 1 - {}".format(
                final_genus, euler_total))
    return HandlebodyProof(steps=tuple(steps), genus=final_genus)


def check_zero_side(cert):
    """The Euler count that forbids the complementary disk."""
    return cert.side_euler + 1 > cert.sum_euler


def euler_rank_genus(pieces):
    """Genus of a glued union of pieces: 1 - (sum of piece eulers)."""
    return 1 - sum(p.euler for p in pieces)


def residue_classes(period, ns):
    """Partition a copy-count range by residue."""
    classes = {}
    for n in ns:
        classes.setdefault(n % period, []).append(n)
    return sorted((sorted(v) for v in classes.values()), key=min)
