"""Independent checks of every operation's output.

Nothing here calls hakensum.  Reports are parsed back from the CLI's
stdout (JSON, or the text format line by line) and compared with values
recomputed from the scenario data the benchmark generated: the brute-force
oracles in ``tests/oracles.py`` (``brute_force_components``,
``splice_components``, ``walk_dual_curve``, ``check_zero_side``), the
Euler law, and plain arithmetic from the definitions.  A check returns
None when the output is right and a message saying what is wrong
otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace as NS

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "hakensum" / "data"

# Resolve outputs up to this many copies are compared with the brute-force
# component count; above it only the Euler law is checked.  The brute force
# must stay smaller in memory than the largest resolve it checks, or it
# would set the workload's peak RSS.
BRUTE_MAX = 10000
# Trace outputs up to this many copies are spliced explicitly; above it
# the gamma interval is extrapolated from two spliced copy counts.
SPLICE_MAX = 64


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

_BUILTIN_FILES = {
    "cg-pretzel-m5": "cg_pretzel_m5.json",
    "doubled-handlebody": "doubled_handlebody.json",
    "solid-torus-reduced": "solid_torus_reduced.json",
    "trivial-removal-demo": "trivial_removal_demo.json",
}


def builtin(name):
    """The raw scenario dict of a builtin scenario, read as plain JSON."""
    with open(DATA / _BUILTIN_FILES[name]) as handle:
        return json.load(handle)


# ------------------------------------------------------------------ helpers

def _complex_ns(pc):
    patches = lambda key: [NS(id=p["id"], euler=p["euler"]) for p in pc[key]]
    return NS(f_patches=patches("f_patches"), g_patches=patches("g_patches"),
              seams=[NS(quadrants=tuple(s["quadrants"]),
                        epsilon=s["epsilon"],
                        level_shift=s.get("level_shift", 1))
                     for s in pc["seams"]])


def brute_components(pc, copies):
    """(component count, sorted euler multiset) by the brute-force oracle."""
    return oracles.brute_force_components(_complex_ns(pc), copies)


def _eulers(pc):
    return (sum(p["euler"] for p in pc["f_patches"]),
            sum(p["euler"] for p in pc["g_patches"]))


def _shift_table(sides):
    return {name: [sum(b["crossings"]) for b in sides[name]["betas"]]
            for name in ("prime", "dblprime")}


def _boundary_count(sides, disk=None):
    if sides.get("boundary_count") is not None:
        return sides["boundary_count"]
    return len(disk["word"]) if disk else 0


def _min_lcm(shifts):
    """(lcm, j, k) minimal over nonzero pairs, or None."""
    pairs = [(math.lcm(abs(a), abs(b)), j, k)
             for j, a in enumerate(shifts["prime"]) if a
             for k, b in enumerate(shifts["dblprime"]) if b]
    return min(pairs) if pairs else None


def margin_of(sides, disk=None):
    """Largest of boundary count, longest crossing word and minimal lcm."""
    best = _min_lcm(_shift_table(sides))
    longest = max(len(b["crossings"])
                  for name in ("prime", "dblprime")
                  for b in sides[name]["betas"])
    return max(_boundary_count(sides, disk), longest, best[0] if best else 0)


_CHECK_LINE = re.compile(
    r"^check (\S+): expected (.*) actual (.*) \[(\w+)\] (ok|MISMATCH)$")
_WORDS = {"True": True, "False": False, "None": None}


def _value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return _WORDS.get(text, text)


def parse_text(out):
    """Read a text report back into the dict its JSON form would give."""
    report = {"checks": []}
    for line in out.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            name, expected, actual, source, verdict = match.groups()
            report["checks"].append({
                "name": name, "expected": _value(expected),
                "actual": _value(actual), "source": source,
                "passed": verdict == "ok"})
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError("unreadable report line {!r}".format(line))
        report[key] = _value(value)
    return report


def _expect(pairs):
    """First (label, got, want) triple that disagrees, as a message."""
    for label, got, want in pairs:
        if got != want:
            return "{}: got {!r}, expected {!r}".format(label, got, want)
    return None


def flag(argv, name, default=None):
    return int(argv[argv.index(name) + 1]) if name in argv else default


# --------------------------------------------------------------- CLI checks

def for_cli(command, argv, data, fmt):
    """Check of one CLI call: exit code 0, silent stderr, every declared
    expectation met, and the report right by the command's own check."""
    checker = _COMMANDS[command]

    def check(outcome):
        code, out, err = outcome
        if code != 0 or err:
            return "exit {} stderr {!r}".format(code, err[:200])
        report = json.loads(out) if fmt == "json" else parse_text(out)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return (_expect([("command", report.get("command"), command),
                         ("passed", report.get("passed"), True),
                         ("failed checks", failed, [])])
                or checker(report, data, argv))
    return check


def _check_resolve(r, data, argv):
    n = flag(argv, "--n")
    ef, eg = _eulers(data["patch_complex"])
    comps = r["components"]
    pairs = [("copies", r["copies"], n),
             ("total_euler", r["total_euler"], ef + n * eg),
             ("component euler sum", sum(c["euler"] for c in comps),
              ef + n * eg)]
    if n <= BRUTE_MAX:
        pairs.append(("components", (len(comps),
                                     tuple(sorted(c["euler"]
                                                  for c in comps))),
                      brute_components(data["patch_complex"], n)))
    return _expect(pairs)


def _genus(euler):
    return (2 - euler) // 2 if euler % 2 == 0 and euler <= 2 else None


def _check_sweep(r, data, argv):
    lo, hi = flag(argv, "--from"), flag(argv, "--to")
    pairs = []
    if "patch_complex" in data:
        pc = data["patch_complex"]
        ef, eg = _eulers(pc)
        rows = r["progression"]
        pairs.append(("rows", [row["copies"] for row in rows],
                      list(range(lo, hi + 1))))
        for row in rows:
            n = row["copies"]
            count, multiset = brute_components(pc, n)
            pairs += [("euler at {}".format(n), row["euler"], ef + n * eg),
                      ("components at {}".format(n), row["components"],
                       count),
                      ("genus at {}".format(n), row["genus"],
                       _genus(multiset[0]) if count == 1 else None)]
    inv = data.get("inventory")
    if inv and inv["curves"] and inv["curves"][0].get("parity"):
        period = len(inv["curves"])
        pairs += [("residue_period", r["residue_period"], period),
                  ("residue_classes", r["residue_classes"],
                   oracles.residue_classes(period, range(lo, hi + 1)))]
    return _expect(pairs)


def _check_trace(r, data, argv):
    disk = data["disk_pattern"]
    word, n = disk["word"], flag(argv, "--n", disk["copies"])
    h = len(word)
    sums = [0]
    for ch in word:
        sums.append(sums[-1] + (1 if ch == "+" else -1))
    if n <= SPLICE_MAX:
        gammas, arcs, _ = oracles.splice_components(word, n)
    else:
        # The gamma interval keeps its low end and moves its high end
        # one level per added copy; splice at two copy counts to see both.
        base = h + 2
        g1 = oracles.splice_components(word, base)[0]
        g2 = oracles.splice_components(word, base + 1)[0]
        if min(g1) != min(g2) or max(g2) != max(g1) + 1:
            return "spliced gamma levels do not shift by one per copy"
        gammas = set(range(min(g1), max(g1) + n - base + 1))
        arcs = h // 2
    # Compared as [lowest, highest] level, the form the report uses.
    levels = r["gamma_levels"]
    got = set(range(levels[0], levels[1] + 1)) if levels else set()
    want = [min(gammas), max(gammas)] if gammas else []
    components = disk.get("crossing_components")
    if components is None:
        components = h // 2 + disk.get("inner_closed", 0)
    return _expect([("copies", r["copies"], n),
                    ("arc_count", r["arc_count"], arcs),
                    ("gamma levels", levels, want),
                    ("gamma levels contiguous", len(got), len(gammas)),
                    ("gamma_count", r["gamma_count"], len(gammas)),
                    ("annulus_count", r["annulus_count"],
                     max(len(gammas) - 1, 0)),
                    ("excursion", r["excursion"], [max(sums), min(sums)]),
                    ("extra_closed_bound", r["extra_closed_bound"],
                     components)])


def _check_shifts(r, data, argv):
    sides = data["sides"]
    shifts = _shift_table(sides)
    best = _min_lcm(shifts)
    return _expect([
        ("shifts_prime", r["shifts_prime"], shifts["prime"]),
        ("shifts_dblprime", r["shifts_dblprime"], shifts["dblprime"]),
        ("max_crossing_count", r["max_crossing_count"],
         max(len(b["crossings"]) for name in ("prime", "dblprime")
             for b in sides[name]["betas"])),
        ("shift_lcm", r["shift_lcm"], best[0] if best else 0),
        ("boundary_count", r["boundary_count"],
         _boundary_count(sides, data.get("disk_pattern"))),
        ("margin", r["margin"], margin_of(sides, data.get("disk_pattern")))])


def _oriented(beta):
    """Crossing word of an arc, reversed when its shift is negative."""
    crossings = beta["crossings"]
    if sum(crossings) < 0:
        crossings = [-c for c in reversed(crossings)]
    return tuple(crossings)


def _check_certify(r, data, argv):
    sides = data["sides"]
    n, level = flag(argv, "--n"), flag(argv, "--level")
    shifts = _shift_table(sides)
    zero = [name for name in ("prime", "dblprime")
            if all(s == 0 for s in shifts[name])]
    base = [("copies", r["copies"], n), ("level", r["level"], level),
            ("validated", r["validated"], True)]
    if zero:
        euler = sides["euler"]
        cert = NS(side_euler=euler[zero[0] + "_side"],
                  sum_euler=euler["splitting"] + n * euler["summand"])
        return _expect(base + [
            ("kind", r["kind"], "zero-side"),
            ("zero_side", r["zero_side"], zero[0]),
            ("side_euler", r["side_euler"], cert.side_euler),
            ("sum_euler", r["sum_euler"], cert.sum_euler),
            ("check_zero_side", oracles.check_zero_side(cert), True)])
    period, j, k = _min_lcm(shifts)
    prime = sides["prime"]["betas"][j]
    dbl = sides["dblprime"]["betas"][k]
    cert = NS(level=level, copies=n, period=r["period"],
              prime_levels=tuple(r["prime_levels"]),
              prime_crossings=_oriented(prime),
              prime_shift=r["prime_shift"],
              dblprime_levels=tuple(r["dblprime_levels"]),
              dblprime_crossings=_oriented(dbl),
              dblprime_shift=r["dblprime_shift"])
    return _expect(base + [
        ("kind", r["kind"], "dual-curve"),
        ("period", r["period"], period),
        ("prime_arc", r["prime_arc"], prime["index"]),
        ("dblprime_arc", r["dblprime_arc"], dbl["index"]),
        ("prime_shift", r["prime_shift"], abs(shifts["prime"][j])),
        ("dblprime_shift", r["dblprime_shift"], abs(shifts["dblprime"][k])),
        ("walk_dual_curve", oracles.walk_dual_curve(cert), True)])


def _check_reduce(r, data, argv):
    inv = data["inventory"]
    curves = inv["curves"]
    kept = [c for c in curves if c.get("essential_on_k", True)]
    removed = len(curves) - len(kept)
    pairs = [("copies_before", r["copies_before"], inv["copies"]),
             ("inessential_removed", r["inessential_removed"], removed)]
    pc = data.get("patch_complex")
    if removed and pc:
        profile = brute_components(pc, inv["copies"])
        found = [c for c in r["checks"]
                 if c["name"] == "resolve_profile_preserved"]
        pairs.append(("resolve profile", [c["expected"] for c in found],
                      [[profile[0], list(profile[1])]]))
    if kept and kept[0].get("parity"):
        plus = [c["id"] for c in kept if c["parity"] == "+"]
        minus = len(kept) - len(plus)
        survivors = r["curves_after"]
        pairs += [("net_positive", r["net_positive"], len(plus) - minus),
                  ("cancelled_pairs", r["cancelled_pairs"], minus),
                  ("copies_after", r["copies_after"],
                   inv["copies"] - removed - minus),
                  ("survivor count", len(survivors), len(plus) - minus),
                  ("survivors positive", set(survivors) <= set(plus), True)]
    else:
        pairs += [("copies_after", r["copies_after"],
                   inv["copies"] - removed),
                  ("curves_after", r["curves_after"],
                   [c["id"] for c in kept])]
    return _expect(pairs)


_COMMANDS = {
    "resolve": _check_resolve,
    "sweep": _check_sweep,
    "trace": _check_trace,
    "shifts": _check_shifts,
    "certify": _check_certify,
    "reduce": _check_reduce,
}


# ----------------------------------------------------------- library checks

def tuna(spec):
    """A maximal run ends with singleton cans and nothing outside, after
    exactly (curves - cans) slices and one pack per outside component."""
    curves = set().union(*spec["cans"])

    def check(run):
        final = run.final
        return _expect([
            ("final cans", sorted(len(c) for c in final.cans),
             [1] * len(curves)),
            ("final curves", set().union(*final.cans), curves),
            ("outside left", final.outside_components, 0),
            ("slices", run.slice_count, len(curves) - len(spec["cans"])),
            ("packs", run.pack_count, spec["outside"]),
            ("moves", len(run.moves), len(curves) - len(spec["cans"])
             + spec["outside"])])
    return check


def _piece_euler(piece):
    if piece["kind"] == "handlebody":
        return 1 - piece["genus"]
    return piece.get("base_euler", 0)


def handlebody(spec):
    """A provable graph gets a proof whose genus is 1 - (sum of eulers)."""
    genus = oracles.euler_rank_genus(
        [NS(euler=_piece_euler(p)) for p in spec["pieces"]])

    def check(proof):
        return _expect([("succeeded", proof.succeeded, True),
                        ("genus", proof.genus, genus)])
    return check


def family(kind, boxes, count):
    """Worked examples: genus (boxes - 1) + 2t for the pretzel family after
    t twists, and 2n + 3 for the doubled handlebody after n copies."""
    genus = boxes - 1 + 2 * count if kind == "casson" else 2 * count + 3

    def check(result):
        _, report = result
        stated = [c.actual for c in report.checks if c.name == "genus"]
        return _expect([("passed", report.passed, True),
                        ("genus", stated, [genus])])
    return check
