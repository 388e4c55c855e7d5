"""Decompositions along annuli: the ``gluing_graph`` section's pieces and
the annuli that join them, checked to be one connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ScenarioError
from .surfaces import UnionFind


PIECE_KINDS = ("handlebody", "product", "solid_torus")


@dataclass(frozen=True)
class GluedPiece:
    """One block of a decomposition along annuli."""

    id: str
    kind: str
    genus: int | None = None
    base_euler: int | None = None

    def __post_init__(self):
        if self.kind not in PIECE_KINDS:
            raise ScenarioError("unknown piece kind {!r}".format(self.kind))
        if self.kind == "handlebody" and (self.genus is None
                                          or self.genus < 0):
            raise ScenarioError(
                "piece {}: a handlebody needs a nonnegative genus".format(
                    self.id))
        if self.kind == "product" and (self.base_euler is None
                                       or self.base_euler > 1):
            raise ScenarioError(
                "piece {}: a product needs the euler characteristic of "
                "its base, a bounded surface, so at most 1".format(self.id))

    @property
    def euler(self):
        # A genus-g handlebody has euler 1 - g; a product over a bounded
        # surface has the base's euler; a solid torus is the g = 1 case.
        if self.kind == "handlebody":
            return 1 - self.genus
        if self.kind == "product":
            return self.base_euler
        return 0


@dataclass(frozen=True)
class AnnulusGluing:
    """An annulus joining exactly two pieces.

    ``primitive_in`` names the piece in whose boundary the annulus is
    primitive (met by an essential disk in one co-core arc), if any.
    """

    id: str
    pieces: tuple
    primitive_in: str | None = None

    def __post_init__(self):
        if len(self.pieces) != 2 or self.pieces[0] == self.pieces[1]:
            raise ScenarioError(
                "annulus {} must join exactly two distinct pieces".format(
                    self.id))
        if (self.primitive_in is not None
                and self.primitive_in not in self.pieces):
            raise ScenarioError(
                "annulus {}: primitive_in must name one of its two "
                "pieces".format(self.id))


@dataclass(frozen=True)
class GluingGraph:
    """Pieces joined by annuli.  ``ends`` holds, for each gluing in order,
    the positions in ``pieces`` of the two pieces it joins."""

    pieces: tuple
    gluings: tuple
    ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {p.id: i for i, p in enumerate(self.pieces)}
        if len(index) != len(self.pieces):
            raise ScenarioError("duplicate piece id")
        annuli = [g.id for g in self.gluings]
        if len(set(annuli)) != len(annuli):
            # A primitivity fact is keyed by annulus id, so a repeated id
            # would lend one annulus's fact to the other.
            raise ScenarioError("duplicate annulus id")
        for g in self.gluings:
            for pid in g.pieces:
                if pid not in index:
                    raise ScenarioError(
                        "annulus {} references missing piece {!r}".format(
                            g.id, pid))
        ends = tuple((index[g.pieces[0]], index[g.pieces[1]])
                     for g in self.gluings)
        object.__setattr__(self, "ends", ends)
        uf = UnionFind(len(index))
        for a, b in ends:
            uf.union(a, b)
        if len({uf.find(i) for i in range(len(index))}) > 1:
            raise ScenarioError("gluing graph is disconnected")
