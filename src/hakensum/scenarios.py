"""Executable encodings of the two worked example families.

The first family starts from a pretzel knot with an odd number of odd
twist regions; twisting the knot t times adds 2t copies of a genus-2
summand to a genus (m-1) splitting surface, and the genus grows by one
per copy.  The second family doubles a genus-3 handlebody with a twisted
regluing; here the summand has genus 3 and the genus grows by two per
copy, starting from 3.  Both resolve their builtin file's seam complex
and check its declared expectations as ``hakensum resolve`` does (with
``check_resolved``); larger pretzel knots get Euler arithmetic alone.
The module also checks the symbolic handlebody-gluing certificate (over
``gluing.GluingGraph``) used to see that the second family's sums really
are splittings.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import schema
from .errors import ScenarioError
# perfbench/workloads.py calls the gluing parser as a member of this module.
from .schema import gluing_graph_from_dict  # noqa: F401
from .surfaces import UnionFind, euler_of_sum, genus_from_euler, resolve


@dataclass(frozen=True)
class Check:
    """One verified statement, carrying its provenance tag."""

    name: str
    expected: object
    actual: object
    source: str

    @property
    def passed(self):
        return self.expected == self.actual

    def to_dict(self):
        return {"name": self.name, "expected": self.expected,
                "actual": self.actual, "passed": self.passed,
                "source": self.source}


class Report:
    """The checks of one verification run, with its values.

    The worked families and every CLI subcommand fill one in; ``values``
    holds the other named figures the run reports.
    """

    def __init__(self, **values):
        self.values = values
        self.checks = []

    def check(self, name, expected, actual, source):
        """Record one check and return it."""
        check = Check(name, expected, actual, source)
        self.checks.append(check)
        return check

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def check_resolved(report, scenario, resolved, copies):
    """Check a resolved sum against the scenario's declared expectations.

    ``connected`` and ``genus`` are checked in that order; under
    ``copy_parity`` both are skipped at odd copy counts, and the report
    says so.
    """
    exp = scenario.expectations
    if "copy_parity" in exp and copies % 2 != 0:
        report.values["expectations_skipped"] = (
            "declared only for even copy counts")
        return
    if "connected" in exp:
        report.check("connected", exp["connected"]["value"],
                     resolved.component_count == 1,
                     exp["connected"]["source"])
    if "genus" in exp:
        entry = exp["genus"]
        report.check("genus", entry["base"] + entry["per_copy"] * copies,
                     resolved.genus, entry["source"])


def casson_gordon_scenario(boxes, twists):
    """The pretzel-knot family: genus (boxes - 1) + 2*twists.

    ``boxes`` is the number of twist regions (odd and at least five);
    ``twists`` counts applications of the twisting move, each of which
    contributes two copies of the summand.  For five regions the curated
    seam complex is resolved and checked against its file's expectations;
    for larger odd counts only the Euler arithmetic is available, and the
    returned scenario has no patch complex.
    """
    if boxes % 2 == 0 or boxes < 5:
        raise ScenarioError(
            "the twist-region count must be odd and at least 5, "
            "got {}".format(boxes))
    if twists < 0:
        raise ScenarioError("twists must be nonnegative")

    copies = 2 * twists
    name = "cg-pretzel-m{}".format(boxes)
    report = Report(scenario=name)
    if boxes == 5:
        scenario = schema.load_builtin(name)
        check_resolved(report, scenario,
                       resolve(scenario.patch_complex, copies), copies)
    else:
        # Two copies per twist: genus (boxes - 1) + 1 per copy.
        scenario = schema.scenario_from_dict({
            "version": schema.SCHEMA_VERSION, "name": name,
            "expectations": {"genus": {"base": boxes - 1, "per_copy": 1,
                                       "source": "reference"}}})
        entry = scenario.expectations["genus"]
        # The splitting surface doubles the spanning surface (euler
        # 2 - boxes); the summand has euler -2.
        euler_sum = euler_of_sum(2 * (2 - boxes), -2, copies)
        report.check("genus", entry["base"] + entry["per_copy"] * copies,
                     genus_from_euler(euler_sum), entry["source"])
    return scenario, report


def doubled_handlebody_scenario(copies):
    """The doubled-handlebody family: genus 2n + 3 after n copies.

    ``copies`` may be zero, recovering the genus-3 splitting surface
    itself.  The resolved sum is checked against the builtin file's
    expectations, which its ``copy_parity`` declares for even counts
    only: at an odd count the report holds no check, and its
    ``expectations_skipped`` value says so, as ``hakensum resolve`` does.
    """
    if copies < 0:
        raise ScenarioError("copies must be nonnegative")
    scenario = schema.load_builtin("doubled-handlebody")
    report = Report(scenario=scenario.name)
    check_resolved(report, scenario,
                   resolve(scenario.patch_complex, copies), copies)
    return scenario, report


@dataclass(frozen=True)
class ProofStep:
    rule: str
    detail: str
    genus: int | None = None


@dataclass(frozen=True)
class HandlebodyProof:
    steps: tuple
    genus: int
    succeeded = True


@dataclass(frozen=True)
class ProofFailure:
    reason: str
    cluster_count: int
    succeeded = False


def handlebody_certificate(graph):
    """Prove, by rewriting, that a glued decomposition is a handlebody.

    Three inference rules are applied to a fixpoint, deterministically by
    annulus id:

    * a product over a bounded surface is a handlebody of genus
      1 - euler(base) (and a solid torus one of genus 1);
    * two handlebody clusters glued along an annulus primitive in one of
      them merge into a handlebody, genus adding minus one;
    * once a two-annulus product piece has one annulus inside a cluster,
      its other annulus is primitive in that cluster (primitivity is
      carried across the product).

    The rules are Horn clauses, applied by forward chaining.  Every
    primitivity fact names an end of its annulus, so an annulus with a
    fact stays enabled until it turns internal: a heap of enabled annuli
    keyed by id pops, once internal ones are discarded, the annulus a
    rescan by id would merge next.  A product's first merge is along one
    of its own two annuli, and only then can one be internal while the
    other is not; so a merge re-examines just the products at the ends
    of its annulus.  With p pieces and a annuli the proof costs
    O((p + a) log(p + a)).

    On success the genus always equals 1 - (sum of the piece eulers),
    since every gluing annulus has euler zero.  When no rule applies and
    more than one cluster remains, a failure is returned instead.
    """
    if not graph.pieces:
        raise ScenarioError("empty gluing graph")

    pieces, gluings, ends = graph.pieces, graph.gluings, graph.ends
    incident = [[] for _ in pieces]
    for pos, (a, b) in enumerate(ends):
        incident[a].append(pos)
        incident[b].append(pos)
    uf = UnionFind(len(pieces))
    # Keyed by cluster root: a merge keeps the root of its first argument.
    genus_of_cluster = [1 - p.euler for p in pieces]

    steps = []
    for p in sorted(pieces, key=lambda p: p.id):
        if p.kind == "product":
            detail = ("product piece {} over a base of euler {} is a "
                      "handlebody".format(p.id, p.base_euler))
        elif p.kind == "solid_torus":
            detail = "solid torus {} is a genus-1 handlebody".format(p.id)
        else:
            continue
        steps.append(ProofStep(rule="product-is-handlebody", detail=detail,
                               genus=1 - p.euler))

    # Primitivity facts anchored to pieces: the annulus is primitive in
    # whatever cluster currently contains the anchor, one of its ends.
    prim = {(g.id, g.primitive_in)
            for g in gluings if g.primitive_in is not None}
    enabled = [(g.id, pos) for pos, g in enumerate(gluings)
               if g.primitive_in is not None]
    heapq.heapify(enabled)

    while enabled:
        gid, pos = heapq.heappop(enabled)
        ra, rb = (uf.find(i) for i in ends[pos])
        if ra == rb:
            continue
        merged_genus = genus_of_cluster[ra] + genus_of_cluster[rb] - 1
        uf.union(ra, rb)
        genus_of_cluster[ra] = merged_genus
        steps.append(ProofStep(
            rule="merge-primitive-annulus",
            detail="glue along annulus {}".format(gid),
            genus=merged_genus))
        products = [i for i in ends[pos] if pieces[i].kind == "product"
                    and len(incident[i]) == 2]
        for i in sorted(products, key=lambda i: pieces[i].id):
            a, b = incident[i]
            outside = b if a == pos else a
            if uf.find(ends[outside][0]) == uf.find(ends[outside][1]):
                continue
            fact = (gluings[outside].id, pieces[i].id)
            if fact not in prim:
                prim.add(fact)
                heapq.heappush(enabled, (fact[0], outside))
                steps.append(ProofStep(
                    rule="primitivity-across-product",
                    detail="annulus {} is primitive in the cluster "
                           "absorbing product {}".format(*fact)))

    roots = {uf.find(i) for i in range(len(pieces))}
    if len(roots) > 1:
        return ProofFailure(
            reason="no inference applies; {} clusters remain".format(
                len(roots)),
            cluster_count=len(roots))
    final_genus = genus_of_cluster[roots.pop()]
    euler_total = sum(p.euler for p in pieces)
    if final_genus != 1 - euler_total:
        raise AssertionError(
            "genus bookkeeping violated: {} != 1 - {}".format(
                final_genus, euler_total))
    return HandlebodyProof(steps=tuple(steps), genus=final_genus)
