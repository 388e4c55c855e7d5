"""Scenario files: a versioned JSON schema tying the modules together.

A scenario file bundles any of the optional sections ``patch_complex``,
``disk_pattern``, ``sides``, ``inventory``, ``gluing_graph`` and
``expectations`` under a version tag.  Unknown sections are rejected.
Parity words are strings over '+'/'-', crossing words are arrays of
+1/-1, and every expectation entry carries a provenance tag (``source``:
"reference" for an externally stated target value, "derived" for one
computed from first principles) so reports can say where a number came
from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .disk import DiskPattern
from .errors import ScenarioError
from .reductions import CanState, Curve, IntersectionInventory
from .shifts import BetaArc, SideSystem, SumEulers
from .surfaces import Patch, PatchComplex, SeamCurve, SurfaceDescriptor

SCHEMA_VERSION = 1
KNOWN_SECTIONS = {
    "version", "name", "description", "patch_complex", "disk_pattern",
    "sides", "inventory", "gluing_graph", "expectations",
}
KNOWN_EXPECTATIONS = {
    "genus", "connected", "copy_parity", "residue_classes",
    "euler_constant",
}
PROVENANCE_TAGS = ("reference", "derived")


def _require(mapping, key, context):
    if key not in mapping:
        raise ScenarioError("{}: missing field {!r}".format(context, key))
    return mapping[key]


_REQUIRED = object()


def _require_int(mapping, key, context, default=_REQUIRED):
    """An integer field (bools are rejected); an optional field that is
    absent or null gives ``default``."""
    if default is not _REQUIRED and mapping.get(key) is None:
        return default
    value = _require(mapping, key, context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError("{}: field {!r} must be an integer, got "
                            "{!r}".format(context, key, value))
    return value


def descriptor_from_dict(d, context="descriptor"):
    return SurfaceDescriptor(
        euler=_require_int(d, "euler", context),
        orientable=d.get("orientable", True),
        boundary_components=_require_int(d, "boundary_components", context,
                                         0),
        separating=d.get("separating", False))


def descriptor_to_dict(desc):
    return {
        "euler": desc.euler,
        "orientable": desc.orientable,
        "boundary_components": desc.boundary_components,
        "separating": desc.separating,
    }


def _patch_from_dict(d, context):
    seams = d.get("seams")
    return Patch(id=_require(d, "id", context),
                 euler=_require_int(d, "euler", context),
                 seams=tuple(seams) if seams is not None else None,
                 oriented=d.get("oriented", True))


def patch_complex_from_dict(d):
    ctx = "patch_complex"
    seams = [SeamCurve(id=_require(s, "id", ctx + ".seam"),
                       quadrants=tuple(_require(s, "quadrants", ctx)),
                       epsilon=_require(s, "epsilon", ctx),
                       level_shift=s.get("level_shift", 1))
             for s in _require(d, "seams", ctx)]
    f_desc = d.get("f_descriptor")
    g_desc = d.get("g_descriptor")
    return PatchComplex(
        f_patches=[_patch_from_dict(p, ctx) for p in
                   _require(d, "f_patches", ctx)],
        g_patches=[_patch_from_dict(p, ctx) for p in
                   _require(d, "g_patches", ctx)],
        seams=seams,
        f_descriptor=descriptor_from_dict(f_desc) if f_desc else None,
        g_descriptor=descriptor_from_dict(g_desc) if g_desc else None)


def patch_complex_to_dict(pc):
    out = {
        "f_patches": [{"id": p.id, "euler": p.euler,
                       "oriented": p.oriented} for p in pc.f_patches],
        "g_patches": [{"id": p.id, "euler": p.euler,
                       "oriented": p.oriented} for p in pc.g_patches],
        "seams": [{"id": s.id, "quadrants": list(s.quadrants),
                   "epsilon": s.epsilon, "level_shift": s.level_shift}
                  for s in pc.seams],
    }
    if pc.f_descriptor:
        out["f_descriptor"] = descriptor_to_dict(pc.f_descriptor)
    if pc.g_descriptor:
        out["g_descriptor"] = descriptor_to_dict(pc.g_descriptor)
    return out


def disk_pattern_from_dict(d):
    ctx = "disk_pattern"
    return DiskPattern(word=_require(d, "word", ctx),
                       copies=_require_int(d, "copies", ctx),
                       inner_closed=_require_int(d, "inner_closed", ctx, 0),
                       crossing_components=_require_int(
                           d, "crossing_components", ctx, None))


def disk_pattern_to_dict(dp):
    return {"word": dp.word, "copies": dp.copies,
            "inner_closed": dp.inner_closed,
            "crossing_components": dp.crossing_components}


@dataclass(frozen=True)
class SidesSection:
    prime: SideSystem
    dblprime: SideSystem
    eulers: SumEulers | None
    boundary_count: int | None


def _side_from_dict(d, label):
    return SideSystem(
        side=label,
        betas=tuple(BetaArc(side=label,
                            index=_require(b, "index", "sides." + label),
                            crossings=tuple(_require(b, "crossings",
                                                     "sides." + label)))
                    for b in _require(d, "betas", "sides." + label)),
        alpha_count=_require_int(d, "alpha_count", "sides." + label, 0))


def sides_from_dict(d):
    eulers = None
    if "euler" in d:
        e = d["euler"]
        eulers = SumEulers(
            splitting=_require_int(e, "splitting", "sides.euler"),
            summand=_require_int(e, "summand", "sides.euler"),
            prime_side=_require_int(e, "prime_side", "sides.euler"),
            dblprime_side=_require_int(e, "dblprime_side", "sides.euler"))
    return SidesSection(
        prime=_side_from_dict(_require(d, "prime", "sides"), "prime"),
        dblprime=_side_from_dict(_require(d, "dblprime", "sides"),
                                 "dblprime"),
        eulers=eulers,
        boundary_count=_require_int(d, "boundary_count", "sides", None))


def inventory_from_dict(d):
    return IntersectionInventory(
        curves=tuple(Curve(id=_require(c, "id", "inventory"),
                           essential_on_k=c.get("essential_on_k", True),
                           parity=c.get("parity"))
                     for c in _require(d, "curves", "inventory")),
        copies=_require_int(d, "copies", "inventory"))


def inventory_to_dict(inv):
    return {"copies": inv.copies,
            "curves": [{"id": c.id, "essential_on_k": c.essential_on_k,
                        "parity": c.parity} for c in inv.curves]}


def can_state_from_dict(d):
    """Deserialize a packing/slicing state (cans of curve ids plus the
    outside component count).  States travel alongside scenario files but
    are not a file section of their own."""
    return CanState(
        cans=tuple(frozenset(can) for can in _require(d, "cans",
                                                      "can_state")),
        outside_components=_require(d, "outside_components", "can_state"))


def can_state_to_dict(state):
    return {"cans": [sorted(can) for can in state.cans],
            "outside_components": state.outside_components}


def expectations_from_dict(d):
    for key, entry in d.items():
        if key not in KNOWN_EXPECTATIONS:
            raise ScenarioError("unknown expectation {!r}".format(key))
        if not isinstance(entry, dict):
            raise ScenarioError(
                "expectation {!r} must be an object".format(key))
        source = entry.get("source")
        if source not in PROVENANCE_TAGS:
            raise ScenarioError(
                "expectation {!r} needs a provenance tag 'source' in "
                "{}".format(key, PROVENANCE_TAGS))
    return dict(d)


@dataclass(frozen=True)
class ScenarioFile:
    """The parsed contents of one scenario file."""

    name: str
    description: tuple
    patch_complex: PatchComplex | None
    disk_pattern: DiskPattern | None
    sides: SidesSection | None
    inventory: IntersectionInventory | None
    gluing_graph: dict | None
    expectations: dict

    def require(self, section):
        value = getattr(self, section)
        if value is None:
            raise ScenarioError(
                "scenario {!r} has no {} section".format(self.name, section))
        return value


def scenario_from_dict(d):
    unknown = set(d) - KNOWN_SECTIONS
    if unknown:
        raise ScenarioError(
            "unknown sections {}".format(sorted(unknown)))
    version = _require(d, "version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            "unsupported schema version {!r} (expected {})".format(
                version, SCHEMA_VERSION))
    return ScenarioFile(
        name=d.get("name", "unnamed"),
        description=tuple(d.get("description", ())),
        patch_complex=(patch_complex_from_dict(d["patch_complex"])
                       if "patch_complex" in d else None),
        disk_pattern=(disk_pattern_from_dict(d["disk_pattern"])
                      if "disk_pattern" in d else None),
        sides=sides_from_dict(d["sides"]) if "sides" in d else None,
        inventory=(inventory_from_dict(d["inventory"])
                   if "inventory" in d else None),
        gluing_graph=d.get("gluing_graph"),
        expectations=expectations_from_dict(d.get("expectations", {})))


def load_scenario(path):
    """Parse a scenario file from disk."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ScenarioError("cannot read {}: {}".format(path, exc))
    except json.JSONDecodeError as exc:
        raise ScenarioError("corrupted scenario file {}: {}".format(
            path, exc))
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    return scenario_from_dict(raw)


BUILTIN_SCENARIOS = {
    "cg-pretzel-m5": "cg_pretzel_m5.json",
    "doubled-handlebody": "doubled_handlebody.json",
    "solid-torus-reduced": "solid_torus_reduced.json",
    "trivial-removal-demo": "trivial_removal_demo.json",
}


def load_builtin(name):
    """Load one of the scenarios shipped with the package."""
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError("unknown builtin scenario {!r}".format(name))
    text = (resources.files("hakensum") / "data"
            / BUILTIN_SCENARIOS[name]).read_text()
    return scenario_from_dict(json.loads(text))
