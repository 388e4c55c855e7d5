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
from .gluing import AnnulusGluing, GluedPiece, GluingGraph
from .reductions import Curve, IntersectionInventory
from .shifts import BetaArc, SideSystem, SumEulers
from .surfaces import Patch, PatchComplex, SeamCurve, SurfaceDescriptor

SCHEMA_VERSION = 1
KNOWN_SECTIONS = {
    "version", "name", "description", "patch_complex", "disk_pattern",
    "sides", "inventory", "gluing_graph", "expectations",
}
_INT = ((int,), "an integer")
# Each expectation's typed fields, besides its provenance tag.
KNOWN_EXPECTATIONS = {
    "genus": {"base": _INT, "per_copy": _INT},
    "connected": {"value": ((bool,), "a boolean")},
    "copy_parity": {"value": ((str,), "a string")},
    "residue_classes": {"value": _INT},
}
PROVENANCE_TAGS = ("reference", "derived")


def _require(mapping, key, context):
    if key not in mapping:
        raise ScenarioError("{}: missing field {!r}".format(context, key))
    return mapping[key]


_REQUIRED = object()


def _is(value, types):
    """isinstance, except that bools pass only when ``bool`` is listed:
    JSON true is no number."""
    return isinstance(value, types) and (bool in types
                                         or not isinstance(value, bool))


def _require_typed(mapping, key, context, types, label,
                   default=_REQUIRED):
    """A field holding one of ``types``; an optional field that is absent
    or null gives ``default``."""
    if default is not _REQUIRED and mapping.get(key) is None:
        return default
    value = _require(mapping, key, context)
    if not _is(value, types):
        raise ScenarioError("{}: field {!r} must be {}, got {!r}".format(
            context, key, label, value))
    return value


def _require_int(mapping, key, context, default=_REQUIRED):
    return _require_typed(mapping, key, context, (int,), "an integer",
                          default)


def _require_str(mapping, key, context):
    return _require_typed(mapping, key, context, (str,), "a string")


def _require_list(mapping, key, context, entry_types, label,
                  default=_REQUIRED):
    """A list field whose entries are all of ``entry_types``."""
    values = _require_typed(mapping, key, context, (list,), "a list",
                            default)
    for value in values or ():
        if not _is(value, entry_types):
            raise ScenarioError("{}: every entry of {!r} must be {}, got "
                                "{!r}".format(context, key, label, value))
    return values


def _object(value, context):
    if not isinstance(value, dict):
        raise ScenarioError("{} must be an object, got {!r}".format(
            context, value))
    return value


def _objects(mapping, key, context):
    return _require_list(mapping, key, context, (dict,), "an object")


def _flag(mapping, key, context):
    """A boolean flag that is true when absent; null is no boolean."""
    if key not in mapping:
        return True
    return _require_typed(mapping, key, context, (bool,), "a boolean")


def descriptor_from_dict(d, context="descriptor"):
    _object(d, context)
    return SurfaceDescriptor(
        euler=_require_int(d, "euler", context),
        orientable=_flag(d, "orientable", context),
        boundary_components=_require_int(d, "boundary_components", context,
                                         0))


def _patch_from_dict(d, context):
    seams = _require_list(d, "seams", context, (str,), "a seam id", None)
    # An absent flag means oriented; null means unknown.
    oriented = (_require_typed(d, "oriented", context, (bool, type(None)),
                               "a boolean or null")
                if "oriented" in d else True)
    return Patch(id=_require_str(d, "id", context),
                 euler=_require_int(d, "euler", context),
                 seams=tuple(seams) if seams is not None else None,
                 oriented=oriented)


def patch_complex_from_dict(d):
    ctx = "patch_complex"
    seams = [SeamCurve(id=_require_str(s, "id", ctx + ".seam"),
                       quadrants=tuple(_require_list(
                           s, "quadrants", ctx, (str,), "a patch id")),
                       epsilon=_require(s, "epsilon", ctx),
                       level_shift=_require_int(s, "level_shift", ctx, 1))
             for s in _objects(d, "seams", ctx)]
    # Only an absent or null descriptor is no descriptor.
    f_desc, g_desc = (None if d.get(key) is None
                      else descriptor_from_dict(d[key], ctx + "." + key)
                      for key in ("f_descriptor", "g_descriptor"))
    return PatchComplex(
        f_patches=[_patch_from_dict(p, ctx) for p in
                   _objects(d, "f_patches", ctx)],
        g_patches=[_patch_from_dict(p, ctx) for p in
                   _objects(d, "g_patches", ctx)],
        seams=seams,
        f_descriptor=f_desc, g_descriptor=g_desc)


def disk_pattern_from_dict(d):
    ctx = "disk_pattern"
    return DiskPattern(word=_require_str(d, "word", ctx),
                       copies=_require_int(d, "copies", ctx),
                       inner_closed=_require_int(d, "inner_closed", ctx, 0),
                       crossing_components=_require_int(
                           d, "crossing_components", ctx, None))


@dataclass(frozen=True)
class SidesSection:
    prime: SideSystem
    dblprime: SideSystem
    eulers: SumEulers | None
    boundary_count: int | None


def _side_from_dict(d, label):
    ctx = "sides." + label
    _object(d, ctx)
    return SideSystem(
        side=label,
        betas=tuple(BetaArc(side=label,
                            index=_require_int(b, "index", ctx),
                            crossings=tuple(_require_list(
                                b, "crossings", ctx, (int,), "+1 or -1")))
                    for b in _objects(d, "betas", ctx)))


def sides_from_dict(d):
    eulers = None
    if "euler" in d:
        e = _object(d["euler"], "sides.euler")
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
    # Inventories run to thousands of curves, so each field is read once
    # and the checking helpers run only on a value of another type, to
    # raise their error or to accept a subclass.
    entries = _require_typed(d, "curves", "inventory", (list,), "a list")
    if not set(map(type, entries)) <= {dict}:
        _objects(d, "curves", "inventory")
    curves = []
    for c in entries:
        cid = c.get("id")
        if type(cid) is not str:
            cid = _require_str(c, "id", "inventory")
        essential = c.get("essential_on_k", True)
        if type(essential) is not bool:
            essential = _flag(c, "essential_on_k", "inventory")
        curves.append(Curve(cid, essential, c.get("parity")))
    return IntersectionInventory(
        curves=tuple(curves), copies=_require_int(d, "copies", "inventory"))


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
        for field, (types, label) in KNOWN_EXPECTATIONS[key].items():
            _require_typed(entry, field, "expectations." + key, types,
                           label)
        # The one parity that resolve reads; any other would load and
        # silently turn the skip off.
        if key == "copy_parity" and entry["value"] != "even":
            raise ScenarioError(
                "expectation 'copy_parity' takes only 'even', got "
                "{!r}".format(entry["value"]))
    return dict(d)


def _piece_from_dict(d, context):
    return GluedPiece(
        id=_require_str(d, "id", context),
        kind=_require_str(d, "kind", context),
        genus=_require_int(d, "genus", context, None),
        base_euler=_require_int(d, "base_euler", context, None))


def _gluing_from_dict(d, context):
    return AnnulusGluing(
        id=_require_str(d, "id", context),
        pieces=tuple(_require_list(d, "pieces", context, (str,),
                                   "a piece id")),
        primitive_in=_require_typed(
            d, "primitive_in", context, (str,), "a string or null", None))


def gluing_graph_from_dict(d):
    """Build a GluingGraph from its scenario-file form.  A field of the
    wrong type raises ScenarioError: ids, kinds and the two piece ids of
    an annulus are strings, ``genus`` and ``base_euler`` ints and
    ``primitive_in`` a string or null.  Any other key, such as
    ``incompressible``, is ignored."""
    ctx = "gluing_graph"
    _object(d, ctx)
    pieces = _require_list(d, "pieces", ctx, (dict,), "an object", ())
    gluings = _require_list(d, "gluings", ctx, (dict,), "an object", ())
    return GluingGraph(
        pieces=tuple(_piece_from_dict(p, ctx + ".piece") for p in pieces),
        gluings=tuple(_gluing_from_dict(g, ctx + ".gluing")
                      for g in gluings))


@dataclass(frozen=True)
class ScenarioFile:
    """The parsed contents of one scenario file."""

    name: str
    description: tuple
    patch_complex: PatchComplex | None
    disk_pattern: DiskPattern | None
    sides: SidesSection | None
    inventory: IntersectionInventory | None
    gluing_graph: GluingGraph | None
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
    if not _is(version, (int,)) or version != SCHEMA_VERSION:
        raise ScenarioError(
            "unsupported schema version {!r} (expected {})".format(
                version, SCHEMA_VERSION))

    def section(key, parse):
        return parse(_object(d[key], key)) if key in d else None

    return ScenarioFile(
        name=_require_typed(d, "name", "scenario", (str,), "a string",
                            "unnamed"),
        description=tuple(_require_typed(d, "description", "scenario",
                                         (list,), "a list", ())),
        patch_complex=section("patch_complex", patch_complex_from_dict),
        disk_pattern=section("disk_pattern", disk_pattern_from_dict),
        sides=section("sides", sides_from_dict),
        inventory=section("inventory", inventory_from_dict),
        gluing_graph=section("gluing_graph", gluing_graph_from_dict),
        expectations=expectations_from_dict(
            _object(d.get("expectations", {}), "expectations")))


def load_scenario(path):
    """Parse a scenario file from disk.  JSON text is UTF-8 (RFC 8259)."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ScenarioError("cannot read {}: {}".format(path, exc))
    # ValueError covers bad JSON, bad UTF-8 and an integer literal past
    # the interpreter's digit limit; RecursionError, nesting too deep.
    except (ValueError, RecursionError) as exc:
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
            / BUILTIN_SCENARIOS[name]).read_text(encoding="utf-8")
    return scenario_from_dict(json.loads(text))
