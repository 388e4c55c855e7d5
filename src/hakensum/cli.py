"""Command-line front end.

Subcommands load a scenario file, run one of the library operations and
emit a report as stable plain text or JSON.  Exit codes form a contract:
0 on success, 2 when a check in the report failed (a declared
expectation, or ``reduce``'s derived profile check), 3 on any input
problem (bad flags, unreadable or malformed scenario files, missing
sections).  Reports for identical inputs are byte-identical: dictionary
keys are sorted and no timestamps or environment data are included.

Every subcommand takes ``--scenario`` and ``--format`` and otherwise only
the flags it reads: ``--n`` on ``resolve``, ``trace`` (where it overrides
the declared copy count) and ``certify``; ``--level`` on ``certify``;
``--from``/``--to`` on ``sweep``; ``--strict`` on ``resolve``, ``reduce``
and ``sweep``, the subcommands that check expectations.  Any other flag
is a usage error.  Under ``--strict`` a failed check writes
``expectation failed: <name>`` to stderr and no report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import schema
from .errors import HakenSumError
from .reductions import reduce_parities, remove_trivial, torus_periodicity
from .scenarios import Report, check_resolved
from .shifts import compute_thresholds, essential_certificate
from .surfaces import conjectured_period, resolve, resolve_range
from .disk import trace

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INPUT = 3

# The most components a resolve report or a reduce profile check, or rows
# a sweep, may list.  A JSON report spends about 115 bytes on a listed
# component and 240 on a sweep row, 11.5 MB and 24 MB at the cap, so past
# this a call is refused, with exit 3, before any list is built.
MAX_LISTED = 10 ** 5


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the exit-code contract
    # reserves 2 for expectation mismatches, so a usage error is an input
    # error like any other.
    def error(self, message):
        raise HakenSumError(message)


def _load(path):
    if path in schema.BUILTIN_SCENARIOS:
        return schema.load_builtin(path)
    return schema.load_scenario(path)


def _render(report, fmt):
    if fmt == "json":
        body = dict(report.values, passed=report.passed,
                    checks=[c.to_dict() for c in report.checks])
        return _json(body) + "\n"
    lines = ["command: {}".format(report.values["command"])]
    lines += ["{}: {}".format(key, _fmt(report.values[key]))
              for key in sorted(report.values) if key != "command"]
    lines += ["check {}: expected {} actual {} [{}] {}".format(
        c.name, _fmt(c.expected), _fmt(c.actual), c.source,
        "ok" if c.passed else "MISMATCH") for c in report.checks]
    lines.append("passed: {}".format(report.passed))
    return "\n".join(lines) + "\n"


def _json(value, indent="\n"):
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``.  A list
    item that is the same object as the item before it reuses that item's
    text, so a run of equal components, which ``_component_dicts`` lists
    as one dict repeated, is rendered once.  ``indent`` is the newline and
    indentation before the value's closing bracket."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(key) + ": " + _json(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items, last, text = [], object(), None
        for item in value:
            if item is not last:
                last, text = item, _json(item, inner)
            items.append(text)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def _fmt(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value


def _component_dicts(resolved):
    """One dict per component, in order: the one listing of a resolved sum,
    refused past ``MAX_LISTED`` components."""
    if resolved.component_count > MAX_LISTED:
        raise HakenSumError(
            "the sum has {} components, more than the {} a report may "
            "list".format(resolved.component_count, MAX_LISTED))
    return list(chain.from_iterable(
        [{"euler": c.euler, "closed": c.closed, "orientable": c.orientable,
          "genus": c.genus, "pieces": c.piece_count}] * count
        for c, count in resolved.runs))


def cmd_resolve(scenario, args, report):
    resolved = resolve(scenario.require("patch_complex"), args.n)
    report.values.update(copies=args.n,
                         components=_component_dicts(resolved),
                         total_euler=resolved.total_euler)
    check_resolved(report, scenario, resolved, args.n)


def cmd_trace(scenario, args, report):
    dp = scenario.require("disk_pattern")
    if args.n is not None:
        dp = replace(dp, copies=args.n)
    traced = trace(dp)
    report.values.update(
        word=dp.word, copies=dp.copies, arc_count=traced.arc_count,
        gamma_levels=([traced.gamma_levels.start,
                       traced.gamma_levels.stop - 1]
                      if traced.gamma_levels else []),
        gamma_count=traced.gamma_count, excursion=list(traced.excursion),
        annulus_count=traced.annulus_count,
        extra_closed_bound=traced.extra_closed_bound)


def _thresholds(scenario):
    sides = scenario.require("sides")
    boundary = sides.boundary_count
    if boundary is None:
        boundary = (scenario.disk_pattern.boundary_count
                    if scenario.disk_pattern is not None else 0)
    return sides, compute_thresholds(boundary, sides.prime, sides.dblprime)


def cmd_shifts(scenario, args, report):
    _, profile = _thresholds(scenario)
    report.values.update(shifts_prime=list(profile.shifts_prime),
                         shifts_dblprime=list(profile.shifts_dblprime),
                         max_crossing_count=profile.max_crossing_count,
                         shift_lcm=profile.shift_lcm, margin=profile.margin,
                         boundary_count=profile.boundary_count)


def cmd_certify(scenario, args, report):
    sides, profile = _thresholds(scenario)
    if sides.eulers is None:
        raise HakenSumError(
            "the sides section carries no euler data, so no certificate "
            "can be checked")
    cert = essential_certificate(args.level, args.n, profile,
                                 sides.prime, sides.dblprime, sides.eulers)
    report.values.update(copies=args.n, level=args.level, kind=cert.kind,
                         validated=True)
    if cert.kind == "zero-side":
        report.values.update(zero_side=cert.side,
                             side_euler=cert.side_euler,
                             sum_euler=cert.sum_euler)
    else:
        report.values.update(
            period=cert.period, prime_arc=cert.prime_index,
            prime_shift=cert.prime_shift,
            prime_levels=list(cert.prime_levels),
            dblprime_arc=cert.dblprime_index,
            dblprime_shift=cert.dblprime_shift,
            dblprime_levels=list(cert.dblprime_levels))


def cmd_reduce(scenario, args, report):
    inv = scenario.require("inventory")
    report.values["copies_before"] = inv.copies
    outcome = remove_trivial(inv, scenario.patch_complex)
    report.values["inessential_removed"] = outcome.removed
    inv = outcome.inventory
    if outcome.before is not None:
        # The one judge of an absorption: a changed profile is the lemma's
        # failed conclusion, exit 2.  Listed as [count, [every euler]].
        before, after = (
            [r.component_count, [d["euler"] for d in _component_dicts(r)]]
            for r in (outcome.before, outcome.after))
        report.check("resolve_profile_preserved", before, after, "derived")
    if inv.torus_mode:
        parity = reduce_parities(inv)
        report.values.update(net_positive=parity.net,
                             cancelled_pairs=parity.cancelled_pairs)
        inv = parity.inventory
    report.values.update(copies_after=inv.copies,
                         curves_after=list(inv.ids))


def cmd_sweep(scenario, args, report):
    if args.n_from > args.n_to:
        raise HakenSumError("--from must not exceed --to")
    count = args.n_to - args.n_from + 1
    if count > MAX_LISTED:
        raise HakenSumError(
            "the sweep covers {} copy counts, more than the {} a report "
            "may list".format(count, MAX_LISTED))
    pc, inv = scenario.patch_complex, scenario.inventory
    torus = inv is not None and inv.torus_mode
    if pc is None and not torus:
        raise HakenSumError(
            "scenario {!r} has neither a patch complex nor a torus "
            "inventory to sweep".format(scenario.name))
    report.values.update({"from": args.n_from, "to": args.n_to})

    if pc is not None:
        rows = []
        for resolved in resolve_range(pc, args.n_from, args.n_to + 1):
            n = resolved.copies
            rows.append({
                "copies": n,
                "components": resolved.component_count,
                "euler": resolved.total_euler,
                "genus": resolved.genus,
            })
            check_resolved(report, scenario, resolved, n)
        report.values.update(progression=rows,
                             conjectured_period=conjectured_period(pc))

    if torus:
        period = len(inv.ids)
        classes = torus_periodicity(period, range(args.n_from, args.n_to + 1))
        report.values.update(residue_period=period,
                             residue_classes=[list(c) for c in classes])
        entry = scenario.expectations.get("residue_classes")
        if entry is not None:
            report.check("residue_classes", entry["value"], len(classes),
                         entry["source"])


_N = ("--n", dict(type=int, required=True, help="number of parallel copies"))
_STRICT = ("--strict", dict(action="store_true",
                            help="write no report if an expectation fails"))
# Each subcommand: its handler, its help line and the flags it reads
# besides --scenario and --format.
SUBCOMMANDS = {
    "resolve": (cmd_resolve, "resolve the patch complex", (_N, _STRICT)),
    "trace": (cmd_trace, "trace the disk pattern", (
        ("--n", dict(type=int, help="override the declared copy count")),)),
    "shifts": (cmd_shifts, "shift thresholds of the side systems", ()),
    "certify": (cmd_certify, "essentiality certificate for one level", (
        _N, ("--level", dict(type=int, required=True,
                             help="the level index to certify")))),
    "reduce": (cmd_reduce, "clean the intersection inventory", (_STRICT,)),
    "sweep": (cmd_sweep, "sweep the copy count over a range", (
        ("--from", dict(dest="n_from", type=int, required=True)),
        ("--to", dict(dest="n_to", type=int, required=True)), _STRICT)),
}


# Built once per process: parse_args keeps no state on the parser between
# calls, so in-process callers of main share one.
@functools.cache
def build_parser():
    parser = _Parser(prog="hakensum",
                     description="resolve, trace and certify iterated "
                                 "surface sums from scenario files")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices
    for name, (_, help_line, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--scenario", required=True,
                       help="path to a scenario file, or a builtin name: "
                            + ", ".join(sorted(schema.BUILTIN_SCENARIOS)))
        p.add_argument("--format", choices=("text", "json"),
                       default="text")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def _parse(argv):
    """The subcommand is always the first word and the top level has no
    option but -h, so a named subcommand's own parser reads the rest; any
    other argv goes to the full parser, for its messages."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None):
    """Run one subcommand and return its exit code; no other function
    maps an outcome to one.  The report is rendered whole before any of it
    is written, so a value that cannot be printed (an integer past the
    interpreter's digit limit, in the report or in a message that states
    a count) writes nothing and exits 3."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        scenario = _load(args.scenario)
        report = Report(command=args.command, scenario=scenario.name)
        SUBCOMMANDS[args.command][0](scenario, args, report)
        failed = [c.name for c in report.checks if not c.passed]
        if failed and getattr(args, "strict", False):
            sys.stderr.write("expectation failed: {}\n".format(failed[0]))
            return EXIT_MISMATCH
        text = _render(report, args.format)
    except HakenSumError as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return EXIT_INPUT
    except ValueError as exc:
        sys.stderr.write("error: cannot print the report: {}\n".format(exc))
        return EXIT_INPUT
    sys.stdout.write(text)
    return EXIT_MISMATCH if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
