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
from .reductions import IntersectionInventory
from .shifts import BetaArc, SideSystem, SumEulers
from .surfaces import Patch, PatchComplex, SeamCurve, SurfaceDescriptor

SCHEMA_VERSION = 1
KNOWN_SECTIONS = {
    "version", "name", "description", "patch_complex", "disk_pattern",
    "sides", "inventory", "gluing_graph", "expectations",
}


class _Required:
    """The default of a field that must be present.  No kind lists this
    type, so an absent required field always reaches the message code."""


_REQUIRED = _Required()
# A field's kind: the exact types its value may take and the label its
# message names, then for a list the exact types and label of its
# entries.  JSON true is no number, so only a kind listing bool takes it.
_INT = ((int,), "an integer", None, None)
_STR = ((str,), "a string", None, None)
_BOOL = ((bool,), "a boolean", None, None)
_LIST = ((list,), "a list", None, None)
_OBJECTS = ((list,), "a list", frozenset({dict}), "an object")
# Any value: a string directly, anything else through isinstance(object).
_ANY = ((str, bool, object), None, None, None)


def _ids(label):
    return ((list,), "a list", frozenset({str}), label)


def _table(*fields):
    """A field table from (key, kind) for a required field and (key, kind,
    default) for an optional one, in the order the fields are checked."""
    return tuple((key, *kind, default[0] if default else _REQUIRED)
                 for key, kind, *default in fields)


# Each expectation's typed fields, besides its provenance tag.
KNOWN_EXPECTATIONS = {
    "genus": _table(("base", _INT), ("per_copy", _INT)),
    "connected": _table(("value", _BOOL)),
    "copy_parity": _table(("value", _STR)),
    "residue_classes": _table(("value", _INT)),
}
PROVENANCE_TAGS = ("reference", "derived")


def _require(mapping, key, context):
    if key not in mapping:
        raise ScenarioError("{}: missing field {!r}".format(context, key))
    return mapping[key]


def _is(value, types):
    """isinstance, except that bools pass only when ``bool`` is listed."""
    return isinstance(value, types) and (bool in types
                                         or not isinstance(value, bool))


def _fields(d, context, table):
    """The fields of the object ``d`` that ``table`` lists, by key, checked
    in the table's order; a list comes back as a tuple.  A value whose
    exact type its kind lists is taken as it is, and so is a list whose
    entries' set of exact types is.  Anything else is judged here: an
    optional field that is absent, or null and not a boolean, gives its
    default, a subclass of a listed type passes, and the rest raises."""
    values = {}
    for key, types, label, entries, entry_label, default in table:
        value = d.get(key, default)
        if type(value) not in types:
            if value is _REQUIRED:
                raise ScenarioError("{}: missing field {!r}".format(
                    context, key))
            if value is default or (value is None and bool not in types
                                    and default is not _REQUIRED):
                value = default
            elif not _is(value, types):
                raise ScenarioError("{}: field {!r} must be {}, got "
                                    "{!r}".format(context, key, label, value))
        if entries and value is not None:
            if not set(map(type, value)) <= entries:
                for entry in value:
                    if not _is(entry, tuple(entries)):
                        raise ScenarioError(
                            "{}: every entry of {!r} must be {}, got "
                            "{!r}".format(context, key, entry_label, entry))
            value = tuple(value)
        values[key] = value
    return values


def _field(mapping, key, context, kind, default=_REQUIRED):
    return _fields(mapping, context, ((key, *kind, default),))[key]


def _object(value, context):
    if not isinstance(value, dict):
        raise ScenarioError("{} must be an object, got {!r}".format(
            context, value))
    return value


def _objects(mapping, key, context):
    return _field(mapping, key, context, _OBJECTS)


_DESCRIPTOR = _table(("euler", _INT), ("orientable", _BOOL, True),
                     ("boundary_components", _INT, 0))
# An absent ``oriented`` means oriented; null means unknown.
_PATCH = _table(("seams", _ids("a seam id"), None),
                ("oriented", ((bool, type(None)), "a boolean or null",
                              None, None), True),
                ("id", _STR), ("euler", _INT))
# A seam's id is read in a context of its own.
_SEAM_ID = _table(("id", _STR))
_SEAM = _table(("quadrants", _ids("a patch id")), ("epsilon", _ANY),
               ("level_shift", _INT, 1))
_DISK_PATTERN = _table(("word", _STR), ("copies", _INT),
                       ("inner_closed", _INT, 0),
                       ("crossing_components", _INT, None))
_EULERS = _table(("splitting", _INT), ("summand", _INT),
                 ("prime_side", _INT), ("dblprime_side", _INT))
_BETA = _table(("index", _INT),
               ("crossings", ((list,), "a list", frozenset({int}),
                               "+1 or -1")))
_GRAPH = _table(("pieces", _OBJECTS, ()), ("gluings", _OBJECTS, ()))
_PIECE = _table(("id", _STR), ("kind", _STR), ("genus", _INT, None),
                ("base_euler", _INT, None))
_GLUING = _table(("id", _STR), ("pieces", _ids("a piece id")),
                 ("primitive_in", ((str,), "a string or null", None, None),
                  None))
_HEADER = _table(("name", _STR, "unnamed"), ("description", _LIST, ()))


def descriptor_from_dict(d, context="descriptor"):
    return SurfaceDescriptor(**_fields(_object(d, context), context,
                                       _DESCRIPTOR))


def patch_complex_from_dict(d):
    ctx = "patch_complex"
    seams = [SeamCurve(**_fields(s, ctx + ".seam", _SEAM_ID),
                       **_fields(s, ctx, _SEAM))
             for s in _objects(d, "seams", ctx)]
    # Only an absent or null descriptor is no descriptor.
    f_desc, g_desc = (None if d.get(key) is None
                      else descriptor_from_dict(d[key], ctx + "." + key)
                      for key in ("f_descriptor", "g_descriptor"))
    return PatchComplex(
        f_patches=[Patch(**_fields(p, ctx, _PATCH))
                   for p in _objects(d, "f_patches", ctx)],
        g_patches=[Patch(**_fields(p, ctx, _PATCH))
                   for p in _objects(d, "g_patches", ctx)],
        seams=seams,
        f_descriptor=f_desc, g_descriptor=g_desc)


def disk_pattern_from_dict(d):
    return DiskPattern(**_fields(d, "disk_pattern", _DISK_PATTERN))


@dataclass(frozen=True)
class SidesSection:
    prime: SideSystem
    dblprime: SideSystem
    eulers: SumEulers | None
    boundary_count: int | None


def _side_from_dict(d, label):
    ctx = "sides." + label
    return SideSystem(side=label, betas=tuple(
        BetaArc(side=label, **_fields(b, ctx, _BETA))
        for b in _objects(_object(d, ctx), "betas", ctx)))


def sides_from_dict(d):
    eulers = None
    if "euler" in d:
        eulers = SumEulers(**_fields(_object(d["euler"], "sides.euler"),
                                     "sides.euler", _EULERS))
    return SidesSection(
        prime=_side_from_dict(_require(d, "prime", "sides"), "prime"),
        dblprime=_side_from_dict(_require(d, "dblprime", "sides"),
                                 "dblprime"),
        eulers=eulers,
        boundary_count=_field(d, "boundary_count", "sides", _INT, None))


def inventory_from_dict(d):
    # Inventories run to thousands of curves, so each field is read as one
    # column and checked as one set of exact types.  Only when a column
    # holds another type are the curves read again one by one, so that the
    # first curve's first fault raises its message, or a subclass passes.
    entries = _objects(d, "curves", "inventory")
    ids = [c.get("id") for c in entries]
    essential = [c.get("essential_on_k", True) for c in entries]
    if not (set(map(type, ids)) <= {str}
            and set(map(type, essential)) <= {bool}):
        ids, essential = [], []
        for c in entries:
            ids.append(_field(c, "id", "inventory", _STR))
            essential.append(_field(c, "essential_on_k", "inventory", _BOOL,
                                    True))
    return IntersectionInventory(
        ids=tuple(ids), essential=tuple(essential),
        parities=tuple([c.get("parity") for c in entries]),
        copies=_field(d, "copies", "inventory", _INT))


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
        _fields(entry, "expectations." + key, KNOWN_EXPECTATIONS[key])
        # The one parity that resolve reads; any other would load and
        # silently turn the skip off.
        if key == "copy_parity" and entry["value"] != "even":
            raise ScenarioError(
                "expectation 'copy_parity' takes only 'even', got "
                "{!r}".format(entry["value"]))
    return dict(d)


def gluing_graph_from_dict(d):
    """Build a GluingGraph from its scenario-file form.  A field of the
    wrong type raises ScenarioError: ids, kinds and the two piece ids of
    an annulus are strings, ``genus`` and ``base_euler`` ints and
    ``primitive_in`` a string or null.  Any other key, such as
    ``incompressible``, is ignored."""
    ctx = "gluing_graph"
    lists = _fields(_object(d, ctx), ctx, _GRAPH)
    return GluingGraph(
        pieces=tuple(GluedPiece(**_fields(p, ctx + ".piece", _PIECE))
                     for p in lists["pieces"]),
        gluings=tuple(AnnulusGluing(**_fields(g, ctx + ".gluing", _GLUING))
                      for g in lists["gluings"]))


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

    header = _fields(d, "scenario", _HEADER)
    return ScenarioFile(
        name=header["name"], description=tuple(header["description"]),
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
_DATA = resources.files("hakensum") / "data"


def load_builtin(name):
    """Load one of the scenarios shipped with the package."""
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError("unknown builtin scenario {!r}".format(name))
    text = (_DATA / BUILTIN_SCENARIOS[name]).read_text(encoding="utf-8")
    return scenario_from_dict(json.loads(text))
