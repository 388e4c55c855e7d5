"""Spans around the calls into each layer, for the traced run only.

The wrappers are installed on the module attributes that callers look up
at call time (``hakensum.cli.resolve``, ``hakensum.reductions.resolve``,
``hakensum.shifts.validate_certificate`` and so on), so the library itself
is unchanged.  Each span records its name, start, end, parent span and
operation id; spans stay in memory and are summarised when the run ends.
A span's self time is its duration minus the durations of its child spans
(children run one after another, so their intervals never overlap).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter_ns

LAYERS = ("cli", "schema", "surfaces", "disk", "shifts", "reductions",
          "scenarios")


def _resolve_info(args, result):
    pc, copies = args[0], args[1]
    return {"n": copies,
            "nodes": len(pc.f_patches) + copies * len(pc.g_patches),
            "key": tuple(p.id for p in pc.g_patches) + (len(pc.seams),)}


def _trace_info(args, result):
    return {"n": args[0].copies, "key": args[0].word}


def _certificate_info(args, result):
    return {"certificate": result}


def _parity_info(args, result):
    return {"k": len(args[0].curves)}


def _tuna_info(args, result):
    return {"k": max(len(c) for c in args[0].cans),
            "moves": len(result.moves)}


def _moves_info(args, result):
    return {"enumerated": len(result)}


def _proof_info(args, result):
    return {"pieces": len(args[0].pieces),
            "steps": len(getattr(result, "steps", ()))}


def _exit_info(args, result):
    return {"failed": result != 0}


# (module, attribute looked up by callers, span name, info hook)
TARGETS = (
    ("cli", "main", "cli.main", _exit_info),
    ("schema", "load_builtin", "schema.load", None),
    ("schema", "load_scenario", "schema.load", None),
    ("cli", "resolve", "surfaces.resolve", _resolve_info),
    ("reductions", "resolve", "surfaces.resolve", _resolve_info),
    ("scenarios", "resolve", "surfaces.resolve", _resolve_info),
    ("cli", "conjectured_period", "surfaces.conjectured_period", None),
    ("cli", "trace", "disk.trace", _trace_info),
    ("cli", "compute_thresholds", "shifts.compute_thresholds", None),
    ("cli", "essential_certificate", "shifts.essential_certificate",
     _certificate_info),
    ("shifts", "validate_certificate", "shifts.validate_certificate", None),
    ("cli", "remove_trivial", "reductions.remove_trivial", None),
    ("reductions", "absorb_trivial_seam", "reductions.absorb_trivial_seam",
     None),
    ("cli", "reduce_parities", "reductions.reduce_parities", _parity_info),
    ("reductions", "tuna_can_run", "reductions.tuna_can_run", _tuna_info),
    ("reductions", "applicable_moves", "reductions.applicable_moves",
     _moves_info),
    ("scenarios", "handlebody_certificate",
     "scenarios.handlebody_certificate", _proof_info),
    ("scenarios", "casson_gordon_scenario", "scenarios.families", None),
    ("scenarios", "doubled_handlebody_scenario", "scenarios.families", None),
)


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: int
    failed: bool
    info: dict | None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``op`` is the running operation."""

    def __init__(self, hs):
        self.hs = hs
        self.spans = []
        self.stack = []
        self.op = -1
        self._saved = []

    def install(self):
        for module_name, attr, name, hook in TARGETS:
            module = getattr(self.hs, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0, 0, self.stack[-1] if self.stack else None,
                        self.op, True, None)
            self.spans.append(span)
            self.stack.append(index)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                span.end = perf_counter_ns()
                span.info = hook(args, result) if hook else None
                span.failed = bool(span.info and span.info.get("failed"))
                return result
            finally:
                if not span.end:
                    span.end = perf_counter_ns()
                self.stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def take(self):
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Self time of every span, in ns."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _slope(points):
    """Least-squares slope of y over x."""
    if len({x for x, _ in points}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def _growth(passes, name, size, min_size, log_size=True):
    """Median over keys of the slope of log duration over (log) size.

    Durations are inclusive of child spans and taken as the median per
    (key, size) over all traced passes.  Returns None when the workload
    has no grid of at least two sizes for this function.
    """
    by_point = {}
    for spans in passes:
        for span in spans:
            if (span.name == name and span.info
                    and span.info[size] >= min_size):
                key = (span.info.get("key"), span.info[size])
                by_point.setdefault(key, []).append(span.duration)
    by_key = {}
    for (key, n), durations in by_point.items():
        x = math.log(n) if log_size else n
        by_key.setdefault(key, []).append(
            (x, math.log(statistics.median(durations))))
    slopes = [s for s in map(_slope, by_key.values()) if s is not None]
    return statistics.median(slopes) if slopes else None


def _lift_counts(hs, spans):
    """(lift steps, escaped lifts) of the dual-curve certificates issued.

    Each recorded lift is walked again with the public ``lift_beta``; a
    walk that leaves [1, copies] between its endpoints is an escape, which
    the certificate validator does not look for.
    """
    steps = escaped = 0
    for span in spans:
        if span.name != "shifts.essential_certificate" or span.failed:
            continue
        cert = span.info["certificate"]
        if cert.kind != "dual-curve":
            continue
        for side, levels, crossings in (
                ("prime", cert.prime_levels, cert.prime_crossings),
                ("dblprime", cert.dblprime_levels,
                 cert.dblprime_crossings)):
            beta = hs.shifts.BetaArc(side=side, index=1, crossings=crossings)
            for start in levels:
                steps += len(crossings)
                escaped += hs.shifts.lift_beta(beta, start,
                                               cert.copies).escaped
    return steps, escaped


def layer_metrics(hs, passes, pass_totals, report_bytes):
    """Per-layer figures from the traced passes.

    ``passes`` holds each traced pass's spans, ``pass_totals`` its ns and
    ``report_bytes`` its CLI stdout bytes.  Per-pass figures are medians
    over the traced passes.
    """
    per_pass = []
    all_self = {}
    for spans, total in zip(passes, pass_totals):
        sums, calls, extra = {}, {}, {"nodes": 0, "moves": 0,
                                      "enumerated": 0, "steps": 0}
        for span, own in zip(spans, self_times(spans)):
            sums[span.name] = sums.get(span.name, 0) + own
            calls[span.name] = calls.get(span.name, 0) + 1
            all_self.setdefault(span.name, []).append(own)
            for key in extra:
                if span.info and key in span.info:
                    extra[key] += span.info[key]
        extra["lift_steps"], extra["escaped"] = _lift_counts(hs, spans)
        per_pass.append((sums, calls, extra, total))

    def med(fn):
        return statistics.median(fn(*p) for p in per_pass)

    def self_s(name):
        return med(lambda s, c, e, t: s.get(name, 0) / 1e9)

    def calls(name):
        return med(lambda s, c, e, t: c.get(name, 0))

    def self_ms_p50(name):
        values = all_self.get(name)
        return statistics.median(values) / 1e6 if values else 0.0

    def share(name):
        return med(lambda s, c, e, t: s.get(name, 0) / t)

    def ratio(num, den):
        return med(lambda s, c, e, t: e[num] / e[den] if e[den] else 0.0)

    resolve = "surfaces.resolve"
    trace = "disk.trace"
    tuna = "reductions.tuna_can_run"
    proof = "scenarios.handlebody_certificate"
    metrics = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms_p50": self_ms_p50("cli.main"),
        "cli.report_bytes": statistics.median(report_bytes),
        "schema.load.calls": calls("schema.load"),
        "schema.load.self_ms_p50": self_ms_p50("schema.load"),
        resolve + ".calls": calls(resolve),
        resolve + ".self_s": self_s(resolve),
        resolve + ".ns_per_node": med(
            lambda s, c, e, t: s.get(resolve, 0) / e["nodes"]
            if e["nodes"] else 0.0),
        resolve + ".n_slope": _growth(passes, resolve, "n", 1000),
        resolve + ".share": share(resolve),
        "surfaces.conjectured_period.self_s":
            self_s("surfaces.conjectured_period"),
        trace + ".calls": calls(trace),
        trace + ".self_s": self_s(trace),
        trace + ".n_slope": _growth(passes, trace, "n", 10000),
        trace + ".share": share(trace),
        "shifts.compute_thresholds.self_s":
            self_s("shifts.compute_thresholds"),
        "shifts.essential_certificate.calls":
            calls("shifts.essential_certificate"),
        "shifts.essential_certificate.self_s":
            self_s("shifts.essential_certificate"),
        "shifts.validate_certificate.self_s":
            self_s("shifts.validate_certificate"),
        "shifts.certificate.lift_steps":
            med(lambda s, c, e, t: e["lift_steps"]),
        "shifts.certificate.escaped_lifts":
            med(lambda s, c, e, t: e["escaped"]),
        "reductions.remove_trivial.self_s":
            self_s("reductions.remove_trivial"),
        "reductions.absorb_trivial_seam.calls":
            calls("reductions.absorb_trivial_seam"),
        "reductions.absorb_trivial_seam.self_s":
            self_s("reductions.absorb_trivial_seam"),
        "reductions.reduce_parities.self_s":
            self_s("reductions.reduce_parities"),
        "reductions.reduce_parities.k_slope":
            _growth(passes, "reductions.reduce_parities", "k", 100),
        tuna + ".self_s": self_s(tuna),
        tuna + ".moves": med(lambda s, c, e, t: e["moves"]),
        tuna + ".k_growth": _growth(passes, tuna, "k", 8, log_size=False),
        tuna + ".useful_ratio": ratio("moves", "enumerated"),
        "reductions.applicable_moves.enumerated":
            med(lambda s, c, e, t: e["enumerated"]),
        "reductions.applicable_moves.self_s":
            self_s("reductions.applicable_moves"),
        proof + ".calls": calls(proof),
        proof + ".self_s": self_s(proof),
        proof + ".proof_steps": med(lambda s, c, e, t: e["steps"]),
        proof + ".size_slope": _growth(passes, proof, "pieces", 10),
        "scenarios.families.self_s": self_s("scenarios.families"),
    }
    # A growth figure on a workload without a size grid is reported as 0.
    growth = {name: metrics[name] for name in metrics
              if name.endswith(("_slope", ".k_growth"))}
    for name, value in growth.items():
        if value is None:
            metrics[name] = 0.0
        elif name.endswith(".k_growth"):
            metrics[name] = math.exp(value)
    for layer in LAYERS:
        metrics[layer + ".failed"] = sum(
            span.failed for spans in passes for span in spans
            if span.name.startswith(layer + "."))
    return {name: float(value) for name, value in metrics.items()}
