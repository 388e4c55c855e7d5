"""Seeded inputs and the fixed operation list of each workload.

Every workload is a list of operations.  An operation is one call of a
public entry point: ``hakensum.cli.main(argv)`` for anything a subcommand
reaches, or a library function for the layers no subcommand reaches
(``tuna_can_run``, ``handlebody_certificate`` and the two worked-example
families).  Inputs come only from the benchmark seed; the program sees
scenario files written here or objects built here, never the CLI's own
``--seed`` flag.

Input sizes are fixed per workload and only the details (wiring, words,
ids, orders) are drawn from the seed, so the cost of a pass depends little
on the seed.  Each operation carries the independent check of its output
(see ``checks.py``).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks

# The seven invocations of the README, on the builtin scenarios.
README = (
    ("resolve", "cg-pretzel-m5", ["--n", "6"]),
    ("sweep", "doubled-handlebody", ["--from", "0", "--to", "20"]),
    ("trace", "doubled-handlebody", ["--n", "12"]),
    ("shifts", "doubled-handlebody", []),
    ("certify", "doubled-handlebody", ["--n", "10", "--level", "5"]),
    ("reduce", "trivial-removal-demo", []),
    ("sweep", "solid-torus-reduced", ["--from", "1", "--to", "10"]),
)


@dataclass
class Op:
    """One operation: ``argv`` for a CLI call, else ``call`` for a library
    call.  ``check`` takes the outcome and returns an error string or None.
    ``trace_input`` is (word, copies) for a ``trace`` call."""

    name: str
    check: Callable
    argv: list | None = None
    call: Callable | None = None
    trace_input: tuple | None = None


# ---------------------------------------------------------------- generators

def random_complex(rng, nf=5, ng=6, ns=10, shifts=(-1, 1, 1, 0)):
    """A patch complex as a scenario dict section, ids f*/g*/s*."""
    f = [{"id": "f{}".format(i), "euler": rng.randint(-3, 1)}
         for i in range(nf)]
    g = [{"id": "g{}".format(i), "euler": rng.randint(-3, 1)}
         for i in range(ng)]
    seams = [{"id": "s{}".format(k),
              "quadrants": [rng.choice(f)["id"], rng.choice(g)["id"],
                            rng.choice(f)["id"], rng.choice(g)["id"]],
              "epsilon": rng.choice("+-"),
              "level_shift": rng.choice(shifts)}
             for k in range(ns)]
    return {"f_patches": f, "g_patches": g, "seams": seams}


def trivial_seam_complex(rng, trivial_count):
    """A complex with absorbable trivial seams and its inventory.

    Absorbable by construction rather than by sampling through the library:
    the interleaving seams form one chain g0 -> g1 -> ... of shift +1, the
    other base seams have shift 0, and each trivial seam joins a fresh disk
    patch (euler 1) to the end of the chain its attachment needs.
    """
    nf, ng = rng.randint(2, 4), rng.randint(2, 4)
    f = [{"id": "f{}".format(i), "euler": rng.randint(-3, 0)}
         for i in range(nf)]
    g = [{"id": "g{}".format(i), "euler": rng.randint(-3, 0)}
         for i in range(ng)]
    fid = lambda: rng.choice(f)["id"]
    chain = rng.randint(1, ng - 1)
    seams = []
    for i in range(chain):
        seams.append({"id": "s{}".format(len(seams)),
                      "quadrants": [fid(), "g{}".format(i), fid(),
                                    "g{}".format(i + 1)],
                      "epsilon": rng.choice("+-"), "level_shift": 1})
    for _ in range(rng.randint(1, 3)):
        seams.append({"id": "s{}".format(len(seams)),
                      "quadrants": [fid(), rng.choice(g)["id"], fid(),
                                    rng.choice(g)["id"]],
                      "epsilon": rng.choice("+-"), "level_shift": 0})
    trivial = []
    for t in range(trivial_count):
        disk = "gdisk{}".format(t)
        g.append({"id": disk, "euler": 1})
        # The neighbour sits at the top of the chain exactly when it is the
        # seam's first G-side under shift +1 (or its second under -1).  A
        # second disk hangs off the other end, beyond the opposite extreme,
        # so it never displaces the first neighbour from its extreme.
        at_top = t % 2 == 0
        disk_first = rng.random() < 0.5
        shift = 1 if (not disk_first) == at_top else -1
        neighbour = "g{}".format(chain if at_top else 0)
        pair = [disk, neighbour] if disk_first else [neighbour, disk]
        sid = "striv{}".format(t)
        seams.append({"id": sid,
                      "quadrants": [fid(), pair[0], fid(), pair[1]],
                      "epsilon": rng.choice("+-"), "level_shift": shift})
        trivial.append(sid)
    # Each absorption needs the remaining band to hold the chain, plus the
    # level the disk still waiting to be absorbed adds to it.
    copies = trivial_count + max(2, chain + 1) + rng.randint(0, 2)
    inventory = {"copies": copies,
                 "curves": [{"id": s["id"],
                             "essential_on_k": s["id"] not in trivial}
                            for s in seams]}
    return {"f_patches": f, "g_patches": g, "seams": seams}, inventory


def balanced_word(rng, length):
    letters = ["+"] * (length // 2) + ["-"] * (length // 2)
    rng.shuffle(letters)
    return "".join(letters)


def crossing_word(rng, length):
    """Crossings with a per-arc drift, so shifts range from 0 to +-length
    rather than clustering near 0."""
    up = rng.random()
    return [1 if rng.random() < up else -1 for _ in range(length)]


def side_systems(rng, max_len, boundary_count):
    """Random prime/dblprime arc systems with euler data.

    Crossing words are drawn freely, so a side whose shifts all vanish (a
    zero-side certificate) occurs whenever the draw gives one.
    """
    def side():
        return {"alpha_count": rng.randint(1, 4),
                "betas": [{"index": i + 1,
                           "crossings": crossing_word(
                               rng, rng.randint(1, max_len))}
                          for i in range(rng.randint(1, 4))]}
    return {"boundary_count": boundary_count,
            "prime": side(), "dblprime": side(),
            "euler": {"splitting": -2 * rng.randint(1, 4),
                      "summand": -2 * rng.randint(1, 3),
                      "prime_side": -rng.randint(1, 4),
                      "dblprime_side": -rng.randint(1, 4)}}


def torus_inventory(rng, k):
    """k parity curves, two fifths negative, in a seeded cyclic order."""
    negative = k * 2 // 5
    parities = ["+"] * (k - negative) + ["-"] * negative
    rng.shuffle(parities)
    return {"copies": negative + rng.randint(1, 5),
            "curves": [{"id": "c{}".format(i), "essential_on_k": True,
                        "parity": p} for i, p in enumerate(parities)]}


def can_state(rng, k, outside=2):
    """One can of k curves, up to two singleton cans and ``outside``
    outside components.  The k-curve can sets the exponential cost, and
    every pack taken before the can is sliced enumerates its slices once
    more, so the outside count is fixed rather than drawn."""
    ids = rng.sample(range(1, 10 * k + 100), k + 2)
    cans = [frozenset(ids[:k])]
    cans += [frozenset([c]) for c in ids[k:k + rng.randint(0, 2)]]
    rng.shuffle(cans)
    return {"cans": cans, "outside": outside}


def provable_graph(rng, count):
    """A tree of pieces whose every annulus is primitive in an endpoint,
    which always has a handlebody proof."""
    pieces = []
    for i in range(count):
        kind = rng.choice(("handlebody", "handlebody", "product",
                           "solid_torus"))
        piece = {"id": "p{}".format(i), "kind": kind}
        if kind == "handlebody":
            piece["genus"] = rng.randint(0, 4)
        elif kind == "product":
            piece["base_euler"] = rng.randint(-4, 1)
        pieces.append(piece)
    gluings = []
    for i in range(1, count):
        ends = ["p{}".format(rng.randrange(i)), "p{}".format(i)]
        gluings.append({"id": "a{}".format(i), "pieces": ends,
                        "primitive_in": rng.choice(ends)})
    return {"pieces": pieces, "gluings": gluings}


# ------------------------------------------------------- operation lists

class OpList:
    """Collects the operations of one workload and writes its files."""

    def __init__(self, hs, workdir):
        self.hs = hs
        self.workdir = workdir
        self.ops = []
        self.files = 0

    def scenario(self, data):
        """Write a scenario dict to a new file and return its path."""
        self.files += 1
        path = os.path.join(self.workdir, "s{}.json".format(self.files))
        with open(path, "w") as handle:
            json.dump(dict(data, version=1), handle)
        return path

    def cli(self, command, scenario, args, data, fmt="json", label=None):
        """Add a CLI operation.  ``scenario`` is a builtin name or a path;
        ``data`` is the scenario dict the output is checked against."""
        argv = [command, "--scenario", scenario, "--format", fmt] + args
        name = "{} {} {} {}".format(command, label or scenario,
                                    " ".join(args), fmt)
        trace_input = None
        if command == "trace":
            disk = data["disk_pattern"]
            trace_input = (disk["word"], checks.flag(argv, "--n",
                                                     disk["copies"]))
        self.ops.append(Op(name=name, argv=argv,
                           check=checks.for_cli(command, argv, data, fmt),
                           trace_input=trace_input))

    def lib(self, name, call, check):
        self.ops.append(Op(name=name, call=call, check=check))

    def readme(self, fmt):
        for command, scenario, args in README:
            self.cli(command, scenario, args, checks.builtin(scenario), fmt)

    def reach(self, rng):
        """Small calls reaching every layer, shared by all workloads: the
        README invocations in text, a torus-inventory reduce and one small
        call of each library entry point."""
        hs = self.hs
        self.readme("text")
        inv = torus_inventory(rng, 7)
        self.cli("reduce", self.scenario({"inventory": inv}), [],
                 {"inventory": inv}, "text", label="torus-k7")
        self.tuna(can_state(rng, 4))
        self.handlebody(provable_graph(rng, 6))
        twists = rng.randint(0, 3)
        self.lib("casson_gordon_scenario 5 {}".format(twists),
                 lambda: hs.scenarios.casson_gordon_scenario(5, twists),
                 checks.family("casson", 5, twists))
        copies = 2 * rng.randint(0, 3)
        self.lib("doubled_handlebody_scenario {}".format(copies),
                 lambda: hs.scenarios.doubled_handlebody_scenario(copies),
                 checks.family("doubled", None, copies))

    def tuna(self, spec):
        hs = self.hs
        k = max(len(c) for c in spec["cans"])
        state = hs.reductions.CanState(cans=tuple(spec["cans"]),
                                       outside_components=spec["outside"])
        self.lib("tuna_can_run k={}".format(k),
                 lambda: hs.reductions.tuna_can_run(state),
                 checks.tuna(spec))

    def handlebody(self, spec):
        hs = self.hs
        graph = hs.scenarios.gluing_graph_from_dict(spec)
        self.lib("handlebody_certificate pieces={}".format(
                     len(spec["pieces"])),
                 lambda: hs.scenarios.handlebody_certificate(graph),
                 checks.handlebody(spec))


def build(workload, seed, hs, workdir):
    """The operation list of one workload for one seed, and how many of its
    first operations are the small ones that reach every layer."""
    rng = random.Random("{}:{}".format(workload, seed))
    b = OpList(hs, workdir)
    b.reach(rng)
    warm = len(b.ops)
    WORKLOADS[workload](b, rng)
    return b.ops, warm


def _resolve_scale(b, rng):
    for name in ("cg-pretzel-m5", "doubled-handlebody"):
        data = checks.builtin(name)
        # The grid stops at n = 3e4.  At n = 1e5 the union-find's tables
        # outgrow the cache, and that call's fastest time moved by a third
        # with the host's load between runs.
        for n in (1000, 10000, 30000):
            b.cli("resolve", name, ["--n", str(n)], data)
        # Mid-size calls of fixed cost: the median operation of the
        # workload falls among them, whatever the seeded complexes cost.
        for n in (500, 750, 1500, 2000):
            b.cli("resolve", name, ["--n", str(n)], data, "text")
        b.cli("sweep", name, ["--from", "0", "--to", "60"], data)
    # The union-find's cost on a random complex varies about twofold with
    # the wiring, so eight complexes share the seeded part of a pass, all
    # at n = 1e3: at 1e4 one would cost as much as the builtins at 3e4 and
    # the seed would pick the tail operation.
    for i in range(8):
        data = {"patch_complex": random_complex(rng)}
        path = b.scenario(data)
        label = "random{}".format(i)
        b.cli("resolve", path, ["--n", "1000"], data, label=label)
        if i < 2:
            b.cli("sweep", path, ["--from", "0", "--to", "40"], data,
                  label=label)


def _disk_certify(b, rng):
    name = "doubled-handlebody"
    data = checks.builtin(name)
    for n in (10000, 100000, 1000000):
        b.cli("trace", name, ["--n", str(n)], data)
    b.cli("shifts", name, [], data)
    big = 1000000
    for level in _band_levels(rng, data["sides"], big, 6):
        b.cli("certify", name, ["--n", str(big), "--level", str(level)],
              data)
    for i in range(4):
        word = balanced_word(rng, 2 * rng.randint(5, 30))
        wdata = {"disk_pattern": {"word": word, "copies": 12}}
        path = b.scenario(wdata)
        grid = (10000, 100000, 1000000) if i == 0 else (10000, 100000)
        for n in grid:
            b.cli("trace", path, ["--n", str(n)], wdata,
                  label="word{}".format(i))
    edata = {"sides": ESCAPE_CASE}
    path = b.scenario(edata)
    b.cli("shifts", path, [], edata, label="escape-case")
    b.cli("certify", path, ["--n", "20", "--level", "14"], edata,
          label="escape-case")
    for level in _band_levels(rng, ESCAPE_CASE, big, 4):
        b.cli("certify", path, ["--n", str(big), "--level", str(level)],
              edata, label="escape-case")
    for i in range(6):
        sdata = {"sides": side_systems(rng, 40, 2 * rng.randint(1, 10))}
        path = b.scenario(sdata)
        b.cli("shifts", path, [], sdata, label="sides{}".format(i))
        for level in _band_levels(rng, sdata["sides"], big, 6):
            b.cli("certify", path, ["--n", str(big), "--level", str(level)],
                  sdata, label="sides{}".format(i))


def _band_levels(rng, sides, copies, count):
    """Levels of the certified band (margin, copies - margin): both ends,
    where lifts run closest to the band's limits, then alternately one
    near an end and one anywhere inside."""
    margin = checks.margin_of(sides)
    lo, hi = margin + 1, copies - margin - 1
    width = min(2 * margin + 1, hi - lo)
    levels = [lo, hi]
    while len(levels) < count:
        if len(levels) % 2:
            levels.append(rng.randint(lo, hi))
        elif rng.random() < 0.5:
            levels.append(rng.randint(lo, lo + width))
        else:
            levels.append(rng.randint(hi - width, hi))
    return levels


# A side system whose certificate at the top of the band has a lift that
# leaves [1, n] between its endpoints (ROADMAP open item 4, reproduced at
# n = 20, level 14).  Its validator accepts the certificate all the same.
ESCAPE_CASE = {
    "boundary_count": 2,
    "prime": {"alpha_count": 1,
              "betas": [{"index": 1, "crossings": [1, 1, 1, -1, -1]}]},
    "dblprime": {"alpha_count": 1,
                 "betas": [{"index": 1, "crossings": [1, 1, 1, 1, 1]}]},
    "euler": {"splitting": -4, "summand": -2, "prime_side": -2,
              "dblprime_side": -2}}


def _cleanup(b, rng):
    b.cli("reduce", "trivial-removal-demo", [],
          checks.builtin("trivial-removal-demo"))
    for i in range(6):
        pc, inv = trivial_seam_complex(rng, 1 + i % 2)
        data = {"patch_complex": pc, "inventory": inv}
        b.cli("reduce", b.scenario(data), [], data,
              label="trivial{}".format(i))
    for k in (500, 1000, 2000, 4000):
        data = {"inventory": torus_inventory(rng, k)}
        b.cli("reduce", b.scenario(data), [], data,
              label="torus-k{}".format(k))
    for k in range(8, 15):
        b.tuna(can_state(rng, k))
    for count in (20, 40, 80, 170):
        b.handlebody(provable_graph(rng, count))
    hs = b.hs
    for boxes in (5, 5, 7, 9):
        twists = rng.randint(0, 50)
        b.lib("casson_gordon_scenario {} {}".format(boxes, twists),
              lambda boxes=boxes, twists=twists:
                  hs.scenarios.casson_gordon_scenario(boxes, twists),
              checks.family("casson", boxes, twists))
    for _ in range(3):
        copies = 2 * rng.randint(0, 50)
        b.lib("doubled_handlebody_scenario {}".format(copies),
              lambda copies=copies:
                  hs.scenarios.doubled_handlebody_scenario(copies),
              checks.family("doubled", None, copies))


def _cli_small(b, rng):
    b.readme("json")
    plain = {"patch_complex": random_complex(rng, 3, 3, 4)}
    # Declared for the resolve at n = 6 only: a sweep checks it at every n.
    pc = dict(plain, expectations={"connected": {
        "value": checks.brute_components(plain["patch_complex"], 6)[0] == 1,
        "source": "derived"}})
    word = {"disk_pattern": {"word": balanced_word(rng,
                                                    2 * rng.randint(1, 4)),
                             "copies": 12}}
    sides = {"sides": side_systems(rng, 4, 2 * rng.randint(1, 2))}
    margin = checks.margin_of(sides["sides"])
    copies = 2 * margin + 2 + rng.randint(0, 4)
    level = rng.randint(margin + 1, copies - margin - 1)
    triv_pc, triv_inv = trivial_seam_complex(rng, 1)
    trivial = {"patch_complex": triv_pc, "inventory": triv_inv}
    torus = {"inventory": torus_inventory(rng, rng.randint(3, 6))}
    curves = len(torus["inventory"]["curves"])
    torus["expectations"] = {
        "residue_classes": {"value": min(curves, 10), "source": "derived"}}
    calls = (
        ("resolve", pc, ["--n", "6"]),
        ("sweep", plain, ["--from", "0", "--to", "20"]),
        ("trace", word, ["--n", "12"]),
        ("shifts", sides, []),
        ("certify", sides, ["--n", str(copies), "--level", str(level)]),
        ("reduce", trivial, []),
        ("sweep", torus, ["--from", "1", "--to", "10"]),
    )
    for i, (command, data, args) in enumerate(calls):
        path = b.scenario(data)
        for fmt in ("text", "json"):
            b.cli(command, path, args, data, fmt, label="seeded{}".format(i))


WORKLOADS = {
    "resolve-scale": _resolve_scale,
    "disk-certify": _disk_certify,
    "cleanup": _cleanup,
    "cli-small": _cli_small,
}
