"""Seeded random generators shared by the module and acceptance tests."""

import random
from dataclasses import replace

from hakensum import (BetaArc, CanState, IntersectionInventory, Patch,
                      PatchComplex, SeamCurve, SideSystem,
                      absorb_trivial_seam)
from hakensum.errors import InsufficientCopiesError, MalformedComplexError
from hakensum.gluing import AnnulusGluing, GluedPiece, GluingGraph


def inventory(flags, copies, parities=None, ids=None):
    """The inventory of one curve per entry of ``flags`` (essential on the
    summand or not), named ``ids`` or c0, c1, ..., with ``parities`` or
    none."""
    k = len(flags)
    return IntersectionInventory(
        ids=tuple(ids) if ids else tuple("c{}".format(i) for i in range(k)),
        essential=tuple(flags),
        parities=tuple(parities) if parities else (None,) * k,
        copies=copies)


def random_patch_complex(rng, max_f=3, max_g=3, max_seams=4,
                         allow_shift_zero=True):
    nf = rng.randint(1, max_f)
    ng = rng.randint(1, max_g)
    f_patches = [Patch(id="f{}".format(i), euler=rng.randint(-3, 1))
                 for i in range(nf)]
    g_patches = [Patch(id="g{}".format(i), euler=rng.randint(-3, 1))
                 for i in range(ng)]
    shifts = [-1, 1, 1]
    if allow_shift_zero:
        shifts.append(0)
    seams = [SeamCurve(
        id="s{}".format(k),
        quadrants=(rng.choice(f_patches).id, rng.choice(g_patches).id,
                   rng.choice(f_patches).id, rng.choice(g_patches).id),
        epsilon=rng.choice("+-"),
        level_shift=rng.choice(shifts))
        for k in range(rng.randint(1, max_seams))]
    return PatchComplex(f_patches, g_patches, seams)


def with_random_orientations(rng, pc):
    """A copy of ``pc`` whose patches carry random orientation flags:
    oriented half the time, otherwise non-orientable or unknown."""
    flags = (True, True, False, None)
    return PatchComplex(
        [replace(p, oriented=rng.choice(flags)) for p in pc.f_patches],
        [replace(p, oriented=rng.choice(flags)) for p in pc.g_patches],
        pc.seams)


def random_balanced_word(rng, max_pairs=6):
    pairs = rng.randint(0, max_pairs)
    letters = ["+"] * pairs + ["-"] * pairs
    rng.shuffle(letters)
    return "".join(letters)


def all_balanced_words(pairs):
    """Every parity word with the given number of '+'/'-' pairs."""
    if pairs == 0:
        return [""]
    words = []
    h = 2 * pairs
    for bits in range(2 ** h):
        word = "".join("+" if bits >> k & 1 else "-" for k in range(h))
        if word.count("+") == pairs:
            words.append(word)
    return words


def random_complex_with_trivial_seams(rng, trivial_count=1,
                                      max_attempts=200):
    """A complex plus an inventory whose inessential curves are
    absorbable trivial seams.  Rejection-samples until the absorption
    rewrite accepts every trivial seam in sequence.
    """
    for _ in range(max_attempts):
        base = random_patch_complex(rng, allow_shift_zero=True)
        f_ids = [p.id for p in base.f_patches]
        g_ids = [p.id for p in base.g_patches]
        g_patches = list(base.g_patches)
        seams = list(base.seams)
        trivial_ids = []
        for t in range(trivial_count):
            disk_id = "gdisk{}".format(t)
            g_patches.append(Patch(id=disk_id, euler=1))
            neighbour = rng.choice(g_ids)
            if rng.random() < 0.5:
                quadrants = (rng.choice(f_ids), disk_id,
                             rng.choice(f_ids), neighbour)
            else:
                quadrants = (rng.choice(f_ids), neighbour,
                             rng.choice(f_ids), disk_id)
            seam_id = "striv{}".format(t)
            seams.append(SeamCurve(id=seam_id, quadrants=quadrants,
                                   epsilon=rng.choice("+-"),
                                   level_shift=rng.choice([-1, 1])))
            trivial_ids.append(seam_id)
        pc = PatchComplex(base.f_patches, g_patches, seams)
        try:
            probe = pc
            needed = len(trivial_ids) + 1
            for step, sid in enumerate(trivial_ids):
                # The least band that holds the absorbed copy.
                least = 2
                while True:
                    try:
                        absorbed = absorb_trivial_seam(probe, sid, least)
                        break
                    except InsufficientCopiesError:
                        least += 1
                needed = max(needed, step + least)
                probe = absorbed
        except MalformedComplexError:
            continue
        copies = needed + rng.randint(0, 3)
        return pc, inventory([s.id not in trivial_ids for s in seams],
                             copies, ids=[s.id for s in seams])
    raise RuntimeError("could not sample an absorbable complex")


def random_beta(rng, side, index, max_crossings=8):
    length = rng.randint(0, max_crossings)
    return BetaArc(side=side, index=index,
                   crossings=tuple(rng.choice((-1, 1))
                                   for _ in range(length)))


def random_side_system(rng, side, max_betas=4, max_crossings=8,
                       force_zero_shifts=False):
    betas = []
    for i in range(rng.randint(1, max_betas)):
        beta = random_beta(rng, side, i + 1, max_crossings)
        if force_zero_shifts and sum(beta.crossings) != 0:
            half = tuple(rng.choice((-1, 1))
                         for _ in range(rng.randint(0, max_crossings // 2)))
            beta = BetaArc(side=side, index=i + 1,
                           crossings=half + tuple(-c for c in half))
        betas.append(beta)
    return SideSystem(side=side, betas=tuple(betas))


def random_parity_inventory(rng, max_extra=4):
    positives = rng.randint(1, max_extra + 1)
    negatives = rng.randint(0, positives - 1)
    parities = ["+"] * positives + ["-"] * negatives
    rng.shuffle(parities)
    copies = negatives + rng.randint(1, 5)
    return inventory([True] * len(parities), copies, parities=parities)


def random_can_state(rng, max_curves=6, max_outside=3):
    total = rng.randint(1, max_curves)
    ids = list(range(1, total + 1))
    rng.shuffle(ids)
    cans = []
    while ids:
        size = rng.randint(1, len(ids))
        cans.append(frozenset(ids[:size]))
        ids = ids[size:]
    return CanState(cans=tuple(cans),
                    outside_components=rng.randint(0, max_outside))


def random_provable_graph(rng, max_pieces=5, min_pieces=1):
    """A tree of pieces where every annulus is primitive in an endpoint.

    Such graphs are always provably handlebodies: any merge order works.
    """
    count = rng.randint(min_pieces, max_pieces)
    pieces = []
    for i in range(count):
        kind = rng.choice(("handlebody", "handlebody", "product",
                           "solid_torus"))
        pid = "p{}".format(i)
        if kind == "handlebody":
            pieces.append(GluedPiece(id=pid, kind=kind,
                                     genus=rng.randint(0, 4)))
        elif kind == "product":
            pieces.append(GluedPiece(id=pid, kind=kind,
                                     base_euler=rng.randint(-4, 1)))
        else:
            pieces.append(GluedPiece(id=pid, kind=kind))
    gluings = []
    for i in range(1, count):
        other = rng.randrange(i)
        ends = ("p{}".format(other), "p{}".format(i))
        gluings.append(AnnulusGluing(
            id="a{}".format(i), pieces=ends,
            primitive_in=rng.choice(ends)))
    return GluingGraph(pieces=tuple(pieces), gluings=tuple(gluings))


def random_gluing_graph(rng, max_pieces=200):
    """A connected gluing graph that may or may not have a proof.

    A random tree in which some edges run through a product piece of
    their own (so that product has exactly two annuli), plus parallel
    and extra annuli.  Each annulus is primitive in a random end, or,
    at a rate drawn per graph (none, few or many), in neither.  Piece
    and annulus ids are drawn out of input order, and the inputs are
    shuffled.
    """
    count = rng.randint(1, max_pieces)
    piece_ids = ["p{:04d}".format(i) for i in rng.sample(range(10000),
                                                         count)]
    annulus_ids = iter("a{:05d}".format(i)
                       for i in rng.sample(range(100000), 4 * count))
    pieces = []
    for pid in piece_ids:
        kind = rng.choice(("handlebody", "product", "solid_torus"))
        pieces.append(GluedPiece(
            id=pid, kind=kind,
            genus=rng.randint(0, 4) if kind == "handlebody" else None,
            base_euler=rng.randint(-4, 1) if kind == "product" else None))
    gluings = []
    unknown = rng.choice((0.0, 0.02, 0.3))

    def glue(a, b):
        primitive = None if rng.random() < unknown else rng.choice((a, b))
        gluings.append(AnnulusGluing(id=next(annulus_ids), pieces=(a, b),
                                     primitive_in=primitive))

    for i in range(1, count):
        glue(piece_ids[rng.randrange(i)], piece_ids[i])
    for _ in range(rng.randint(0, count // 3)):
        a, b = rng.sample(piece_ids, 2)
        if rng.random() < 0.5:
            # A fresh product on a path of its own between a and b.
            mid = "q{:04d}".format(len(pieces))
            pieces.append(GluedPiece(id=mid, kind="product",
                                     base_euler=rng.randint(-4, 1)))
            glue(a, mid)
            glue(mid, b)
        else:
            # A parallel annulus or an extra one.
            glue(*(rng.choice(gluings).pieces if rng.random() < 0.5
                   else (a, b)))
    rng.shuffle(pieces)
    rng.shuffle(gluings)
    return GluingGraph(pieces=tuple(pieces), gluings=tuple(gluings))
