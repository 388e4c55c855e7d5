import io
import json
import random
from contextlib import redirect_stdout

import pytest

from hakensum import (AnnulusGluing, GluedPiece, GluingGraph, ScenarioError,
                      casson_gordon_scenario, doubled_handlebody_scenario,
                      gluing_graph_from_dict, handlebody_certificate)
from hakensum.cli import main
from hakensum.schema import load_builtin

from generators import random_gluing_graph, random_provable_graph
from oracles import euler_rank_genus, handlebody_by_rescan


def genus_check(report):
    for check in report.checks:
        if check.name == "genus":
            return check
    raise AssertionError("no genus check in report")


class TestCassonGordon:
    def test_five_boxes_three_twists(self):
        _, report = casson_gordon_scenario(5, 3)
        assert report.passed
        assert genus_check(report).actual == 10

    def test_five_boxes_no_twists(self):
        _, report = casson_gordon_scenario(5, 0)
        assert report.passed
        assert genus_check(report).actual == 4

    def test_seven_boxes_two_twists(self):
        scenario, report = casson_gordon_scenario(7, 2)
        assert report.passed
        assert genus_check(report).actual == 10
        assert scenario.patch_complex is None

    def test_genus_law_full_sweep(self):
        for twists in range(0, 21):
            _, report = casson_gordon_scenario(5, twists)
            assert report.passed
            assert genus_check(report).actual == 2 * twists + 4

    def test_even_box_count_rejected(self):
        with pytest.raises(ScenarioError):
            casson_gordon_scenario(6, 1)

    def test_small_box_count_rejected(self):
        with pytest.raises(ScenarioError):
            casson_gordon_scenario(3, 1)

    def test_negative_twists_rejected(self):
        with pytest.raises(ScenarioError,
                           match=r"^twists must be nonnegative$"):
            casson_gordon_scenario(5, -1)


class TestDoubledHandlebody:
    def test_two_copies(self):
        _, report = doubled_handlebody_scenario(2)
        assert report.passed
        assert genus_check(report).actual == 7

    def test_zero_copies_recovers_the_splitting(self):
        _, report = doubled_handlebody_scenario(0)
        assert report.passed
        assert genus_check(report).actual == 3

    def test_four_copies(self):
        _, report = doubled_handlebody_scenario(4)
        assert report.passed
        assert genus_check(report).actual == 11

    def test_odd_copies_skip_the_expectations_as_resolve_does(self):
        # The file's copy_parity is the one judge of an odd count: the
        # family checks nothing there, and says so in resolve's words.
        for copies in (1, 3, 5):
            _, report = doubled_handlebody_scenario(copies)
            assert report.checks == []
            assert report.values["expectations_skipped"] == (
                "declared only for even copy counts")
            assert cli_outcome("doubled-handlebody", copies) == (
                [], report.values["expectations_skipped"])

    def test_negative_copies_rejected(self):
        with pytest.raises(ScenarioError,
                           match=r"^copies must be nonnegative$"):
            doubled_handlebody_scenario(-2)

    def test_even_sweep(self):
        for copies in range(0, 21, 2):
            _, report = doubled_handlebody_scenario(copies)
            assert report.passed
            assert genus_check(report).actual == 2 * copies + 3


def cli_outcome(builtin, copies):
    """The checks of ``hakensum resolve`` on a builtin file, and its
    ``expectations_skipped`` value (None when absent)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["resolve", "--scenario", builtin, "--n", str(copies),
                     "--format", "json"])
    assert code == 0
    values = json.loads(buf.getvalue())
    return ([(c["name"], c["expected"], c["actual"], c["source"])
             for c in values["checks"]], values.get("expectations_skipped"))


def family_outcome(report):
    return ([(c.name, c.expected, c.actual, c.source) for c in report.checks],
            report.values.get("expectations_skipped"))


class TestFamiliesMatchResolve:
    """Each family reports exactly the checks ``hakensum resolve`` makes
    on its builtin file at the same copy count, and skips what it skips."""

    def test_pretzel_family(self):
        for twists in range(0, 11):
            _, report = casson_gordon_scenario(5, twists)
            assert report.passed
            assert family_outcome(report) == cli_outcome("cg-pretzel-m5",
                                                         2 * twists)

    def test_doubled_handlebody_family(self):
        for copies in range(0, 21):
            _, report = doubled_handlebody_scenario(copies)
            assert report.passed
            assert family_outcome(report) == cli_outcome(
                "doubled-handlebody", copies)


def paper_style_graph(copies):
    """The three-piece decomposition of the doubled example's inner half."""
    return GluingGraph(
        pieces=(
            GluedPiece(id="inner", kind="handlebody", genus=2),
            GluedPiece(id="collar", kind="product",
                       base_euler=2 - 2 * copies),
            GluedPiece(id="outer", kind="handlebody", genus=4),
        ),
        gluings=(
            AnnulusGluing(id="upper", pieces=("inner", "collar")),
            AnnulusGluing(id="lower", pieces=("collar", "outer"),
                          primitive_in="outer"),
        ))


class TestHandlebodyCertificate:
    def test_empty_graph_rejected(self):
        with pytest.raises(ScenarioError, match=r"^empty gluing graph$"):
            handlebody_certificate(GluingGraph(pieces=(), gluings=()))

    def test_three_piece_graph(self):
        for copies in (2, 4, 10):
            proof = handlebody_certificate(paper_style_graph(copies))
            assert proof.succeeded
            assert proof.genus == 2 * copies + 3
            rules = [s.rule for s in proof.steps]
            assert "primitivity-across-product" in rules
            assert rules.count("merge-primitive-annulus") == 2

    def test_shipped_graph(self):
        graph = load_builtin("doubled-handlebody").gluing_graph
        proof = handlebody_certificate(graph)
        assert proof.succeeded
        assert proof.genus == 7

    def test_single_piece(self):
        graph = GluingGraph(
            pieces=(GluedPiece(id="v", kind="handlebody", genus=3),),
            gluings=())
        proof = handlebody_certificate(graph)
        assert proof.succeeded and proof.genus == 3

    def test_genus_always_one_minus_euler_sum(self, seed):
        rng = random.Random(seed + 51)
        for _ in range(200):
            graph = random_provable_graph(rng)
            proof = handlebody_certificate(graph)
            assert proof.succeeded
            assert proof.genus == euler_rank_genus(graph.pieces)

    def test_two_piece_random(self, seed):
        rng = random.Random(seed + 52)
        for _ in range(100):
            g1 = rng.randint(0, 5)
            g2 = rng.randint(0, 5)
            pieces = (GluedPiece(id="a", kind="handlebody", genus=g1),
                      GluedPiece(id="b", kind="handlebody", genus=g2))
            graph = GluingGraph(
                pieces=pieces,
                gluings=(AnnulusGluing(id="e", pieces=("a", "b"),
                                       primitive_in=rng.choice(("a", "b"))),))
            proof = handlebody_certificate(graph)
            assert proof.genus == g1 + g2 - 1
            assert proof.genus == euler_rank_genus(pieces)

    def test_no_primitive_annulus_fails(self):
        graph = GluingGraph(
            pieces=(GluedPiece(id="a", kind="handlebody", genus=1),
                    GluedPiece(id="b", kind="handlebody", genus=1)),
            gluings=(AnnulusGluing(id="e", pieces=("a", "b")),))
        outcome = handlebody_certificate(graph)
        assert not outcome.succeeded
        assert outcome.cluster_count == 2

    def test_disconnected_rejected(self):
        with pytest.raises(ScenarioError):
            GluingGraph(
                pieces=(GluedPiece(id="a", kind="handlebody", genus=1),
                        GluedPiece(id="b", kind="handlebody", genus=1)),
                gluings=())

    def test_confluence_on_the_three_piece_graph(self, seed):
        rng = random.Random(seed + 54)
        base = paper_style_graph(4)
        for _ in range(10):
            pieces = list(base.pieces)
            gluings = list(base.gluings)
            rng.shuffle(pieces)
            rng.shuffle(gluings)
            proof = handlebody_certificate(
                GluingGraph(pieces=tuple(pieces), gluings=tuple(gluings)))
            assert proof.succeeded and proof.genus == 11

    def test_confluence_under_input_reordering(self, seed):
        rng = random.Random(seed + 53)
        for _ in range(50):
            graph = random_provable_graph(rng)
            pieces = list(graph.pieces)
            gluings = list(graph.gluings)
            rng.shuffle(pieces)
            rng.shuffle(gluings)
            relabeled = GluingGraph(pieces=tuple(pieces),
                                    gluings=tuple(gluings))
            a = handlebody_certificate(graph)
            b = handlebody_certificate(relabeled)
            assert a.succeeded == b.succeeded
            assert a.genus == b.genus

    def test_product_base_euler_at_most_one(self):
        # A bounded base surface has euler at most 1 (a disk); a larger
        # one would prove a negative genus.
        assert GluedPiece(id="p", kind="product", base_euler=1).euler == 1
        with pytest.raises(ScenarioError, match="at most 1"):
            GluedPiece(id="p", kind="product", base_euler=5)

    def test_annulus_must_join_two_distinct_pieces(self):
        with pytest.raises(ScenarioError):
            AnnulusGluing(id="e", pieces=("a", "a"))

    def test_duplicate_annulus_id_rejected(self):
        # The second "e" would borrow the first one's primitivity fact.
        with pytest.raises(ScenarioError, match="duplicate annulus id"):
            GluingGraph(
                pieces=tuple(GluedPiece(id=pid, kind="handlebody", genus=1)
                             for pid in "abc"),
                gluings=(AnnulusGluing(id="e", pieces=("a", "b"),
                                       primitive_in="a"),
                         AnnulusGluing(id="e", pieces=("b", "c"))))

    @staticmethod
    def assert_matches_rescan(graph):
        outcome = handlebody_certificate(graph)
        assert outcome == handlebody_by_rescan(graph)
        return outcome

    def test_matches_rescan_oracle_small(self, seed):
        rng = random.Random(seed + 55)
        outcomes = [self.assert_matches_rescan(random_gluing_graph(rng, 30))
                    for _ in range(300)]
        # The draw covers proofs that carry primitivity across a product,
        # and failures.
        assert any(not o.succeeded for o in outcomes)
        assert any(s.rule == "primitivity-across-product"
                   for o in outcomes if o.succeeded for s in o.steps)

    def test_matches_rescan_oracle_large(self, seed):
        rng = random.Random(seed + 56)
        for _ in range(4):
            graph = random_gluing_graph(rng, 200)
            self.assert_matches_rescan(graph)
            pieces = list(graph.pieces)
            gluings = list(graph.gluings)
            rng.shuffle(pieces)
            rng.shuffle(gluings)
            self.assert_matches_rescan(
                GluingGraph(pieces=tuple(pieces), gluings=tuple(gluings)))
        for _ in range(3):
            self.assert_matches_rescan(random_provable_graph(rng, 200, 100))

    def test_matches_rescan_oracle_on_fixed_graphs(self):
        self.assert_matches_rescan(paper_style_graph(4))
        self.assert_matches_rescan(
            load_builtin("doubled-handlebody").gluing_graph)

    def test_two_thousand_piece_tree(self, seed):
        graph = random_provable_graph(random.Random(seed + 57), 2000, 2000)
        proof = handlebody_certificate(graph)
        assert proof.succeeded
        assert proof.genus == euler_rank_genus(graph.pieces)


def graph_dict(piece=None, gluing=None):
    """A two-piece gluing graph in scenario-file form, with the given
    fields set on its second piece and on its annulus."""
    return {
        "pieces": [{"id": "a", "kind": "handlebody", "genus": 1},
                   dict({"id": "b", "kind": "product", "base_euler": -1},
                        **(piece or {}))],
        "gluings": [dict({"id": "e", "pieces": ["a", "b"],
                          "primitive_in": "a"}, **(gluing or {}))]}


class TestGluingGraphFromDict:
    def test_plain_graph(self):
        graph = gluing_graph_from_dict(graph_dict())
        assert graph.gluings[0] == AnnulusGluing(
            id="e", pieces=("a", "b"), primitive_in="a")
        assert graph.ends == ((0, 1),)
        assert handlebody_certificate(graph).genus == 2

    def test_null_primitive_in_and_boolean_flag(self):
        # incompressible is accepted and ignored: it states no proof.
        graph = gluing_graph_from_dict(graph_dict(
            gluing={"primitive_in": None, "incompressible": True}))
        assert graph.gluings[0].primitive_in is None
        assert graph == gluing_graph_from_dict(graph_dict(
            gluing={"primitive_in": None}))

    @pytest.mark.parametrize("value", ["no", None, 1])
    def test_incompressible_of_any_type_ignored(self, value):
        # Values once rejected as a non-boolean flag are now read past,
        # like any other unread key.
        graph = gluing_graph_from_dict(graph_dict(
            gluing={"incompressible": value}))
        assert graph == gluing_graph_from_dict(graph_dict())
        assert not hasattr(graph.gluings[0], "incompressible")

    @pytest.mark.parametrize("piece, gluing", [
        ({"base_euler": "x"}, None),
        ({"base_euler": True}, None),
        ({"base_euler": 1.5}, None),
        ({"kind": "handlebody", "genus": False}, None),
        ({"kind": "handlebody", "genus": "2"}, None),
        ({"kind": 3}, None),
        ({"id": 7}, None),
        (None, {"primitive_in": 3}),
        (None, {"primitive_in": ["a"]}),
        (None, {"pieces": ["a"]}),
        (None, {"pieces": ["a", "b", "a"]}),
        (None, {"pieces": ["a", 3]}),
        (None, {"pieces": "ab"}),
        (None, {"id": None}),
    ])
    def test_wrong_field_type_rejected(self, piece, gluing):
        with pytest.raises(ScenarioError):
            gluing_graph_from_dict(graph_dict(piece, gluing))

    @pytest.mark.parametrize("d", [
        [], {"pieces": {"id": "a"}}, {"pieces": ["a"]},
        {"pieces": [{"id": "a", "kind": "solid_torus"}], "gluings": "e"}])
    def test_wrong_container_rejected(self, d):
        with pytest.raises(ScenarioError):
            gluing_graph_from_dict(d)
