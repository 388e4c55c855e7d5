"""Command-line front end.

Subcommands load a scenario file, run one of the library operations and
emit a report as stable plain text or JSON.  Exit codes form a contract:
0 on success, 2 when a declared expectation is not met, 3 on any input
problem (bad flags, unreadable or malformed scenario files, missing
sections).  Reports for identical inputs are byte-identical: dictionary
keys are sorted and no timestamps or environment data are included.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import schema
from .errors import HakenSumError
from .reductions import reduce_parities, remove_trivial, torus_periodicity
from .scenarios import Report
from .shifts import compute_thresholds, essential_certificate
from .surfaces import conjectured_period, resolve
from .disk import trace

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INPUT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the exit-code contract
    # reserves 2 for expectation mismatches, so remap usage errors.
    def error(self, message):
        raise _UsageError(message)


def _load(path):
    if path in schema.BUILTIN_SCENARIOS:
        return schema.load_builtin(path)
    return schema.load_scenario(path)


class Mismatch(Exception):
    """Raised under --strict at the first failed expectation."""


def _check(report, strict, name, expected, actual, source):
    if not report.check(name, expected, actual, source).passed and strict:
        raise Mismatch(name)


def _finish(report, fmt):
    """Write the report to stdout; the exit code says whether it passed."""
    out = sys.stdout
    if fmt == "json":
        body = dict(report.values, passed=report.passed,
                    checks=[c.to_dict() for c in report.checks])
        out.write(json.dumps(body, sort_keys=True, indent=2))
        out.write("\n")
    else:
        out.write("command: {}\n".format(report.values["command"]))
        for key in sorted(report.values):
            if key != "command":
                out.write("{}: {}\n".format(key, _fmt(report.values[key])))
        for c in report.checks:
            out.write("check {}: expected {} actual {} [{}] {}\n".format(
                c.name, _fmt(c.expected), _fmt(c.actual), c.source,
                "ok" if c.passed else "MISMATCH"))
        out.write("passed: {}\n".format(report.passed))
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _fmt(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    return value


def _component_dicts(resolved):
    return [{"euler": c.euler, "closed": c.closed,
             "orientable": c.orientable, "genus": c.genus,
             "pieces": c.piece_count} for c in resolved.components]


def _apply_resolve_expectations(report, strict, scenario, resolved, copies):
    exp = scenario.expectations
    parity = exp.get("copy_parity", {}).get("value")
    if parity == "even" and copies % 2 != 0:
        report.values["expectations_skipped"] = (
            "declared only for even copy counts")
        return
    if "connected" in exp:
        _check(report, strict, "connected", exp["connected"]["value"],
               resolved.component_count == 1, exp["connected"]["source"])
    if "genus" in exp:
        entry = exp["genus"]
        expected = entry["base"] + entry["per_copy"] * copies
        actual = (resolved.components[0].genus
                  if resolved.component_count == 1 else None)
        _check(report, strict, "genus", expected, actual, entry["source"])


def cmd_resolve(args):
    scenario = _load(args.scenario)
    pc = scenario.require("patch_complex")
    resolved = resolve(pc, args.n)
    report = Report(command="resolve", scenario=scenario.name,
                    copies=args.n, components=_component_dicts(resolved),
                    total_euler=resolved.total_euler)
    _apply_resolve_expectations(report, args.strict, scenario, resolved,
                                args.n)
    return _finish(report, args.format)


def cmd_trace(args):
    scenario = _load(args.scenario)
    dp = scenario.require("disk_pattern")
    if args.n is not None:
        dp = replace(dp, copies=args.n)
    traced = trace(dp)
    report = Report(
        command="trace", scenario=scenario.name, word=dp.word,
        copies=dp.copies, arc_count=traced.arc_count,
        gamma_levels=([traced.gamma_levels.start,
                       traced.gamma_levels.stop - 1]
                      if len(traced.gamma_levels) else []),
        gamma_count=traced.gamma_count, excursion=list(traced.excursion),
        annulus_count=traced.annulus_count,
        extra_closed_bound=traced.extra_closed_bound)
    return _finish(report, args.format)


def _thresholds(scenario):
    sides = scenario.require("sides")
    boundary = sides.boundary_count
    if boundary is None:
        boundary = (len(scenario.disk_pattern.word)
                    if scenario.disk_pattern is not None else 0)
    return sides, compute_thresholds(boundary, sides.prime, sides.dblprime)


def cmd_shifts(args):
    scenario = _load(args.scenario)
    sides, profile = _thresholds(scenario)
    report = Report(command="shifts", scenario=scenario.name,
                    shifts_prime=list(profile.shifts_prime),
                    shifts_dblprime=list(profile.shifts_dblprime),
                    max_crossing_count=profile.max_crossing_count,
                    shift_lcm=profile.shift_lcm, margin=profile.margin,
                    boundary_count=profile.boundary_count)
    return _finish(report, args.format)


def cmd_certify(args):
    scenario = _load(args.scenario)
    sides, profile = _thresholds(scenario)
    if sides.eulers is None:
        raise HakenSumError(
            "the sides section carries no euler data, so no certificate "
            "can be checked")
    cert = essential_certificate(args.level, args.n, profile,
                                 sides.prime, sides.dblprime, sides.eulers)
    report = Report(command="certify", scenario=scenario.name,
                    copies=args.n, level=args.level, kind=cert.kind,
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
    return _finish(report, args.format)


def cmd_reduce(args):
    scenario = _load(args.scenario)
    inv = scenario.require("inventory")
    report = Report(command="reduce", scenario=scenario.name,
                    copies_before=inv.copies)
    pc = scenario.patch_complex
    attach = pc is not None and all(
        c.id in pc.seams_by_id for c in inv.inessential())
    outcome = remove_trivial(inv, pc if attach else None)
    report.values["inessential_removed"] = outcome.removed
    inv = outcome.inventory
    if outcome.profile_before is not None:
        _check(report, args.strict, "resolve_profile_preserved",
               outcome.profile_before, outcome.profile_after, "derived")
    if inv.torus_mode:
        parity = reduce_parities(inv)
        report.values.update(net_positive=parity.net,
                             cancelled_pairs=parity.cancelled_pairs)
        inv = parity.inventory
    report.values.update(copies_after=inv.copies,
                         curves_after=[c.id for c in inv.curves])
    return _finish(report, args.format)


def cmd_sweep(args):
    scenario = _load(args.scenario)
    if args.n_from > args.n_to:
        raise HakenSumError("--from must not exceed --to")
    sweep_range = range(args.n_from, args.n_to + 1)
    report = Report(command="sweep", scenario=scenario.name)
    report.values.update({"from": args.n_from, "to": args.n_to})
    did_anything = False

    if scenario.patch_complex is not None:
        did_anything = True
        pc = scenario.patch_complex
        rows = []
        for n in sweep_range:
            resolved = resolve(pc, n)
            rows.append({
                "copies": n,
                "components": resolved.component_count,
                "euler": resolved.total_euler,
                "genus": (resolved.components[0].genus
                          if resolved.component_count == 1 else None),
            })
            _apply_resolve_expectations(report, args.strict, scenario,
                                        resolved, n)
        report.values.update(progression=rows,
                             conjectured_period=conjectured_period(pc))

    if scenario.inventory is not None and scenario.inventory.torus_mode:
        did_anything = True
        inv = scenario.inventory
        exp = scenario.expectations
        period = torus_periodicity(
            len(inv.curves), sweep_range,
            euler_splitting=exp.get("euler_constant", {}).get("value"))
        report.values.update(
            residue_period=period.period,
            residue_classes=[list(c) for c in period.classes])
        if "residue_classes" in exp:
            _check(report, args.strict, "residue_classes",
                   exp["residue_classes"]["value"], period.class_count,
                   exp["residue_classes"]["source"])
        if "euler_constant" in exp:
            _check(report, args.strict, "euler_constant",
                   exp["euler_constant"]["value"], period.euler_constant,
                   exp["euler_constant"]["source"])

    if not did_anything:
        raise HakenSumError(
            "scenario {!r} has neither a patch complex nor a torus "
            "inventory to sweep".format(scenario.name))
    return _finish(report, args.format)


def build_parser():
    parser = _Parser(prog="hakensum",
                     description="resolve, trace and certify iterated "
                                 "surface sums from scenario files")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False, needs_range=False, needs_level=False):
        p.add_argument("--scenario", required=True,
                       help="path to a scenario file, or a builtin name: "
                            + ", ".join(sorted(schema.BUILTIN_SCENARIOS)))
        p.add_argument("--format", choices=("text", "json"),
                       default="text")
        p.add_argument("--strict", action="store_true",
                       help="stop at the first expectation mismatch")
        if needs_n:
            p.add_argument("--n", type=int, required=True,
                           help="number of parallel copies")
        else:
            p.add_argument("--n", type=int, default=None,
                           help="override the copy count, where relevant")
        if needs_range:
            p.add_argument("--from", dest="n_from", type=int, required=True)
            p.add_argument("--to", dest="n_to", type=int, required=True)
        if needs_level:
            p.add_argument("--level", type=int, required=True,
                           help="the level index to certify")

    p = sub.add_parser("resolve", help="resolve the patch complex")
    common(p, needs_n=True)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("trace", help="trace the disk pattern")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("shifts", help="shift thresholds of the side systems")
    common(p)
    p.set_defaults(func=cmd_shifts)

    p = sub.add_parser("certify",
                       help="essentiality certificate for one level")
    common(p, needs_n=True, needs_level=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reduce", help="clean the intersection inventory")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sweep", help="sweep the copy count over a range")
    common(p, needs_range=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return EXIT_INPUT
    try:
        return args.func(args)
    except Mismatch as exc:
        sys.stderr.write("expectation failed: {}\n".format(exc))
        return EXIT_MISMATCH
    except HakenSumError as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
