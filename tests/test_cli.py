"""Command line interface: subcommands, exit codes, output handling."""

from __future__ import annotations

import contextlib
import io
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import FIXTURES, fixture_text
from conftest import run_cli as run_process
from xqowl import cli
from xqowl.cli import main
from xqowl.owl import OWL_NS, axioms_to_xml, load_ontology
from xqowl.rdf import RDF_NS, parse_rdfxml
from xqowl.reasoner import Reasoner
from xqowl.xmltree import QName, child_elements, get_attribute, parse_xml, serialize_xml

SN = "http://www.semanticweb.org/socialnetwork.owl#"
PAPERS = "http://www.semanticweb.org/ontology_papers.owl#"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_missing_program_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "missing.xq")
        assert code == 2
        assert out == ""
        assert "usage error" in err and "missing.xq" in err

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2
        assert out == ""

    def test_unknown_task_choice_is_a_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "classify",
                               "--ontology", fx("socialnetwork.owl"))
        assert code == 2
        assert out == ""

    def test_program_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xq"
        bad.write_text("for $x in")
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_missing_data_file_inside_program(self, tmp_path, capsys):
        prog = tmp_path / "p.xq"
        prog.write_text('doc("nope.xml")')
        code, out, err = run_cli(capsys, "run", str(prog))
        assert code == 1
        assert "nope.xml" in err

    def test_flag_count_usage_errors(self, capsys):
        code, out, err = run_cli(
            capsys, "reason", "--task", "holds",
            "--ontology", fx("socialnetwork.owl"),
            "--individual", "jesus", "--property", "friend_of")
        assert code == 2
        assert out == ""
        assert "--individual" in err

    def test_values_requires_property(self, capsys):
        code, _, err = run_cli(
            capsys, "reason", "--task", "values",
            "--ontology", fx("socialnetwork.owl"), "--individual", "jesus")
        assert code == 2
        assert "--property" in err

    def test_deeply_nested_document_is_an_error_not_a_traceback(self, tmp_path):
        deep = tmp_path / "deep.xml"
        deep.write_text("<a>" * 3000 + "</a>" * 3000)
        prog = tmp_path / "p.xq"
        prog.write_text(f'<r>{{doc("{deep}")}}</r>')
        proc = run_process(["-m", "xqowl.cli", "run", str(prog)])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_invalid_sw_property_name_is_an_error_not_a_traceback(self, tmp_path,
                                                                  capsys):
        prog = tmp_path / "p.xq"
        prog.write_text('sw:toObjectFiller("x", "a b", "y")')
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'a b'" in err

    def test_one_member_intersection_is_an_error_not_a_traceback(self, tmp_path,
                                                                 capsys):
        owl = tmp_path / "one.owl"
        owl.write_text(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns:owl="http://www.w3.org/2002/07/owl#">'
            '<owl:Class rdf:about="http://ex.org#A"><owl:equivalentClass><owl:Class>'
            '<owl:intersectionOf rdf:parseType="Collection">'
            '<owl:Class rdf:about="http://ex.org#B"/>'
            '</owl:intersectionOf></owl:Class></owl:equivalentClass></owl:Class>'
            '</rdf:RDF>')
        code, out, err = run_cli(capsys, "reason", "--task", "consistent",
                                 "--ontology", str(owl))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "intersectionOf" in err

    @pytest.mark.parametrize("body,message", [
        ('<owl:NamedIndividual rdf:about="#a"><rdf:type>x</rdf:type></owl:NamedIndividual>',
         "rdf:type of individual http://x.org/o#a must name a class"),
        ('<owl:Class rdf:about="#c"><owl:intersectionOf rdf:resource="#l"/></owl:Class>'
         '<rdf:Description rdf:about="#l"><rdf:first rdf:resource="#a"/>'
         '<rdf:rest rdf:resource="#l"/></rdf:Description>'
         '<owl:Class rdf:about="#d"><rdfs:subClassOf rdf:resource="#c"/></owl:Class>',
         "cyclic RDF list through cell http://x.org/o#l"),
        ('<owl:Restriction rdf:about="#x"><owl:onProperty rdf:resource="#r"/>'
         '<owl:someValuesFrom rdf:resource="#x"/></owl:Restriction>'
         '<owl:Class rdf:about="#d"><rdfs:subClassOf rdf:resource="#x"/></owl:Class>',
         "cyclic class expression through http://x.org/o#x"),
    ], ids=["literal-type", "cyclic-list", "cyclic-restriction"])
    def test_malformed_ontology_is_one_named_error(self, tmp_path, body, message):
        """In a child process with a timeout, so that a loop fails the test."""
        owl = tmp_path / "bad.owl"
        owl.write_text(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
            'xmlns:owl="http://www.w3.org/2002/07/owl#" xml:base="http://x.org/o">'
            f'{body}</rdf:RDF>')
        proc = run_process(["-m", "xqowl.cli", "reason", "--task", "consistent",
                            "--ontology", str(owl)], timeout=20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    def test_holds_requires_property(self, capsys):
        code, out, err = run_cli(
            capsys, "reason", "--task", "holds", "--ontology", fx("socialnetwork.owl"),
            "--individual", "jesus", "--individual", "luis")
        assert (code, out, err) == (2, "", "usage error: task 'holds' needs --property\n")

    def test_rendering_an_assertion_over_a_namespace_ending_in_a_digit(
            self, tmp_path, capsys):
        # namespace urn:ex:1 + local p loads as urn:ex:1p, which has no XML
        # name after its last ':'; it is written as urn:ex:1 + p again
        (tmp_path / "odd.owl").write_text(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'xmlns:owl="http://www.w3.org/2002/07/owl#" xmlns:ex="urn:ex:1">'
            '<owl:ObjectProperty rdf:about="urn:ex:1p"/>'
            '<owl:NamedIndividual rdf:about="urn:ex:a"><ex:p rdf:resource="urn:ex:b"/>'
            '</owl:NamedIndividual></rdf:RDF>')
        prog = tmp_path / "p.xq"
        prog.write_text('xqowl:axioms(xqowl:load("odd.owl"))')
        code, out, err = run_cli(capsys, "run", str(prog))
        assert (code, err) == (0, "")
        assert 'xmlns:ns1="urn:ex:1"' in out
        assert '<ns1:p rdf:resource="urn:ex:b"/>' in out

    def test_out_of_memory_is_an_error_not_a_traceback(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setitem(cli._HANDLERS, "run", exhausted)
        code, out, err = run_cli(capsys, "run", fx("consistency.xq"))
        assert code == 1
        assert out == ""
        assert err == "error: out of memory\n"


class TestRun:
    def test_consistency_program(self, capsys):
        code, out, _ = run_cli(capsys, "run", fx("consistency.xq"))
        assert code == 0
        assert out == "true\n"

    def test_example1_prints_five_iris(self, capsys):
        code, out, _ = run_cli(capsys, "run", fx("example1.xq"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert set(lines[:3]) == {SN + "jesus", SN + "vicente", SN + "luis"}
        assert set(lines[3:]) == {SN + "event1", SN + "event2"}

    def test_lowering_output_is_the_target_tree(self, capsys):
        code, out, _ = run_cli(capsys, "run", fx("lowering.xq"))
        assert code == 0
        doc = parse_xml(out)
        persons = child_elements(child_elements(doc)[0])
        assert [p.attributes[0].value for p in persons] == [
            "Alice", "Bob", "Charles"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.xml"
        code, out, _ = run_cli(capsys, "run", fx("instances.xq"),
                               "--output", str(target))
        assert code == 0
        assert out == ""
        body = target.read_text()
        assert body.count("<concept") == 2

    def test_text_format_atomizes_elements(self, capsys):
        code, out, _ = run_cli(capsys, "run", fx("subclasses.xq"),
                               "--format", "text")
        assert code == 0
        assert set(out.splitlines()) == {
            "popular_message", "event", "Nothing", "popular_event", "message"}

    def test_temp_files_mode_matches_direct_mode(self, capsys):
        _, direct, _ = run_cli(capsys, "run", fx("example1.xq"))
        _, via_files, _ = run_cli(capsys, "run", fx("example1.xq"),
                                  "--temp-files")
        assert direct == via_files

    def test_data_file_becomes_the_context_document(self, tmp_path, capsys):
        target = tmp_path / "merged.xml"
        code, _, _ = run_cli(capsys, "run", fx("mapping.xq"),
                             "--data", fx("conference.xml"),
                             "--output", str(target))
        assert code == 0
        ont = load_ontology(parse_rdfxml(target.read_text()))
        assert PAPERS + "1" in ont.individuals
        assert not Reasoner(ont).is_consistent()


class TestQuery:
    QUERY = ("PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
             "SELECT ?name WHERE { ?p foaf:name ?name } ORDER BY ?name")

    def test_select_prints_results_xml(self, capsys):
        code, out, _ = run_cli(capsys, "query", self.QUERY,
                               "--data", fx("relations.rdf"))
        assert code == 0
        doc = parse_xml(out)
        literals = [el for el in _descendants(doc)
                    if el.name.local == "literal"]
        assert [lit.children[0].value for lit in literals] == [
            "Alice", "Bob", "Charles"]

    def test_repeated_data_merges_graphs(self, tmp_path, capsys):
        extra = tmp_path / "extra.rdf"
        extra.write_text(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            ' xmlns:foaf="http://xmlns.com/foaf/0.1/"'
            ' xml:base="http://www.example.org/relations.rdf">'
            '<rdf:Description rdf:about="#p4">'
            "<foaf:name>Dora</foaf:name>"
            "</rdf:Description></rdf:RDF>")
        code, out, _ = run_cli(capsys, "query", self.QUERY,
                               "--data", fx("relations.rdf"),
                               "--data", str(extra))
        assert code == 0
        assert "Dora" in out and "Alice" in out

    def test_bad_query_is_an_evaluation_error(self, capsys):
        code, out, err = run_cli(capsys, "query", "SELECT WHERE",
                                 "--data", fx("relations.rdf"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_output_does_not_depend_on_the_hash_seed(self):
        # two patterns and no ORDER BY: the rows come out of unordered lookups
        query = ("PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
                 "SELECT * WHERE { ?p foaf:knows ?q . ?q foaf:name ?name }")
        runs = [run_process(["-m", "xqowl.cli", "query", query,
                             "--data", fx("relations.rdf")], hashseed=seed)
                for seed in (0, 1, 2)]
        assert [proc.returncode for proc in runs] == [0, 0, 0]
        assert len({proc.stdout for proc in runs}) == 1
        assert runs[0].stdout.count("<result>") == 3


class TestReason:
    def test_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "consistent",
                               "--ontology", fx("socialnetwork.owl"))
        assert code == 0
        assert out == "true\n"

    def test_instances_with_bare_name(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "instances",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", "activity")
        assert code == 0
        assert out.splitlines() == sorted(
            SN + n for n in ("event1", "event2", "message1", "message2"))

    def test_instances_with_full_iri(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "instances",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", SN + "popular")
        assert code == 0
        assert out.splitlines() == [SN + "event1", SN + "message2"]

    def test_subclasses_and_direct(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "subclasses",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", "activity")
        assert code == 0
        assert set(out.splitlines()) == {
            SN + "event", SN + "message", SN + "popular_event",
            SN + "popular_message", "http://www.w3.org/2002/07/owl#Nothing"}
        code, out, _ = run_cli(capsys, "reason", "--task", "subclasses",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", "activity", "--direct")
        assert out.splitlines() == [SN + "event", SN + "message"]

    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "values",
                               "--ontology", fx("socialnetwork.owl"),
                               "--individual", "jesus",
                               "--property", "recommended_friend_of")
        assert code == 0
        assert out.splitlines() == [SN + "jesus", SN + "vicente"]

    def test_instance_of(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "instance-of",
                               "--ontology", fx("socialnetwork.owl"),
                               "--individual", "event1", "--class", "popular")
        assert code == 0
        assert out == "true\n"

    def test_holds(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "holds",
                               "--ontology", fx("socialnetwork.owl"),
                               "--individual", "jesus",
                               "--individual", "luis",
                               "--property", "friend_of")
        assert code == 0
        assert out == "true\n"
        code, out, _ = run_cli(capsys, "reason", "--task", "holds",
                               "--ontology", fx("socialnetwork.owl"),
                               "--individual", "jesus",
                               "--individual", "vicente",
                               "--property", "friend_of")
        assert out == "false\n"

    def test_subsumed(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "subsumed",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", "popular_event", "--class", "event")
        assert code == 0
        assert out == "true\n"
        code, out, _ = run_cli(capsys, "reason", "--task", "subsumed",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", "event", "--class", "popular_event")
        assert out == "false\n"

    def test_owl_thing_holds_every_individual(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "instances",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", OWL_NS + "Thing")
        assert code == 0
        ont = load_ontology(parse_rdfxml(fixture_text("socialnetwork.owl")))
        assert out.splitlines() == sorted(ont.all_individuals())
        assert len(out.splitlines()) == 10

    def test_every_class_is_subsumed_by_owl_thing(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "subsumed",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", "user", "--class", OWL_NS + "Thing")
        assert code == 0
        assert out == "true\n"

    def test_direct_subclasses_of_owl_thing_are_the_top_classes(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "subclasses",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", OWL_NS + "Thing", "--direct")
        assert code == 0
        assert out.splitlines() == [SN + c for c in ("activity", "popular", "user",
                                                     "user_item")]

    def test_profile_selection(self, capsys):
        code, out, _ = run_cli(capsys, "reason", "--task", "consistent",
                               "--ontology", fx("socialnetwork.owl"),
                               "--profile", "pellet")
        assert code == 0
        assert out == "true\n"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "instances.txt"
        code, out, _ = run_cli(capsys, "reason", "--task", "instances",
                               "--ontology", fx("socialnetwork.owl"),
                               "--class", "user", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines() == sorted(
            SN + n for n in ("jesus", "luis", "vicente"))

    def test_unsupported_construct_reported_does_not_depend_on_the_hash_seed(
            self, tmp_path):
        ontology = tmp_path / "mixed.owl"
        ontology.write_text(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
            ' xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"'
            ' xmlns:owl="http://www.w3.org/2002/07/owl#"'
            ' xml:base="http://ex.org/mixed.owl">'
            '<owl:Class rdf:about="#A">'
            "<rdfs:comment>a class</rdfs:comment><rdfs:label>A</rdfs:label>"
            '<owl:unionOf rdf:parseType="Collection">'
            '<owl:Class rdf:about="#B"/><owl:Class rdf:about="#C"/>'
            "</owl:unionOf></owl:Class>"
            '<owl:ObjectProperty rdf:about="#r"><rdf:type rdf:resource='
            '"http://www.w3.org/2002/07/owl#TransitiveProperty"/>'
            "</owl:ObjectProperty></rdf:RDF>")
        errors = {run_process(["-m", "xqowl.cli", "reason", "--task", "consistent",
                               "--ontology", str(ontology)], hashseed=seed).stderr
                  for seed in range(8)}
        # predicates are checked in term order, and rdfs:comment sorts first
        assert errors == {"error: rdfs:comment is not supported\n"}


CLASH_LINES = [
    f"disjoint-classes: {PAPERS}b, {PAPERS}Student, {PAPERS}Reviewer",
    f"disjoint-classes: {PAPERS}d, {PAPERS}Student, {PAPERS}Reviewer",
    f"disjoint-roles: {PAPERS}a, {PAPERS}manuscript, {PAPERS}referee, "
    f"{PAPERS}1",
    f"disjoint-roles: {PAPERS}e, {PAPERS}manuscript, {PAPERS}referee, "
    f"{PAPERS}3",
]


class TestCheck:
    def test_inconsistent_document_reports_every_clash(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "check", fx("mapping.xq"),
                               "--data", fx("conference.xml"))
        assert code == 0
        assert out.splitlines() == ["consistent: false"] + CLASH_LINES
        written = (tmp_path / "ontology_analysis.owl").read_text()
        assert load_ontology(parse_rdfxml(written)).iri == PAPERS.rstrip("#")

    def test_repaired_document_is_consistent(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "check", fx("mapping.xq"),
                               "--data", fx("conference_fixed.xml"))
        assert code == 0
        assert out == "consistent: true\n"

    def test_output_flag_moves_the_merged_file(self, tmp_path, capsys):
        target = tmp_path / "merged.owl"
        code, out, _ = run_cli(capsys, "check", fx("mapping.xq"),
                               "--data", fx("conference.xml"),
                               "--output", str(target))
        assert code == 0
        assert target.is_file()
        assert not (tmp_path / "ontology_analysis.owl").exists()

    def test_written_file_feeds_the_reason_subcommand(self, tmp_path, capsys):
        target = tmp_path / "merged.owl"
        run_cli(capsys, "check", fx("mapping.xq"),
                "--data", fx("conference.xml"), "--output", str(target))
        code, out, _ = run_cli(capsys, "reason", "--task", "consistent",
                               "--ontology", str(target))
        assert code == 0
        assert out == "false\n"

    def test_non_document_result_is_an_error(self, tmp_path, capsys):
        prog = tmp_path / "p.xq"
        prog.write_text("<a/>")
        code, out, err = run_cli(capsys, "check", str(prog),
                                 "--data", fx("conference.xml"))
        assert code == 1
        assert "document" in err

    def test_temp_files_mode(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "check", fx("mapping.xq"),
                               "--data", fx("conference.xml"), "--temp-files")
        assert code == 0
        assert out.splitlines()[0] == "consistent: false"

    def test_written_ontology_keeps_the_source_terminology(self, tmp_path,
                                                           capsys):
        target = tmp_path / "merged.owl"
        run_cli(capsys, "check", fx("mapping.xq"),
                "--data", fx("conference.xml"), "--output", str(target))
        merged = load_ontology(parse_rdfxml(target.read_text()))
        source = load_ontology(parse_rdfxml(fixture_text("ontology_papers.owl")))
        assert source.classes <= merged.classes
        assert source.tbox <= merged.tbox
        assert merged.individuals > source.individuals


# A path into xqowl:axioms output: its steps return nodes in node_id order,
# which must be the order of the rendered document whatever the hash seed.
AXIOM_PATH_PROBE = """
declare namespace rdf = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
declare namespace owl = "http://www.w3.org/2002/07/owl#";
let $d := doc(xqowl:axioms(xqowl:load("socialnetwork.owl")))
return <r>{for $c in $d/rdf:RDF/owl:ObjectProperty/* return <s r="{$c/@rdf:resource}"/>}</r>
"""


class TestRenderedAxiomOrder:
    @pytest.fixture
    def probe(self, tmp_path):
        shutil.copy(FIXTURES / "socialnetwork.owl", tmp_path)
        program = tmp_path / "probe.xq"
        program.write_text(AXIOM_PATH_PROBE)
        return str(program)

    def test_path_into_rendered_axioms_follows_the_document(self, probe, capsys):
        code, out, _ = run_cli(capsys, "run", probe)
        assert code == 0
        got = [get_attribute(s, QName(None, "r"))
               for s in child_elements(child_elements(parse_xml(out))[0])]
        ont = load_ontology(parse_rdfxml(fixture_text("socialnetwork.owl")))
        rendered = child_elements(parse_xml(serialize_xml(axioms_to_xml(ont))))[0]
        expected = [get_attribute(child, QName(RDF_NS, "resource")) or ""
                    for entity in child_elements(rendered)
                    if entity.name == QName(OWL_NS, "ObjectProperty")
                    for child in child_elements(entity)]
        assert len(expected) > 10
        assert got == expected

    def test_path_into_rendered_axioms_does_not_depend_on_the_hash_seed(self, probe):
        runs = [run_process(["-m", "xqowl.cli", "run", probe], hashseed=seed)
                for seed in range(4)]
        assert [proc.returncode for proc in runs] == [0, 0, 0, 0]
        assert len({proc.stdout for proc in runs}) == 1


# -- robustness: mutated inputs end in an exit status, never a traceback ---------------

MUTATION_TOKENS = (
    "(", ")", "{", "}", "<", ">", "</", "/>", "/", "$x", ",", "'", '"', ":=", "=",
    "union", "for $x in", "let", "return", "if", "doc(", "<a>", "</a>", "&", "&amp;",
    "#", ";", "@", "*", "[", "]", "xqowl:", "sw:ID(", "rdf:", " ", "\n", "<!--",
    '<owl:Class rdf:about="#x">', "</owl:Class>", 'rdf:resource="#y"',
    'rdf:parseType="Collection"', "<owl:Restriction>", "<owl:onProperty/>",
)


@st.composite
def mutants(draw, names: tuple[str, ...]) -> str:
    """A fixture file after one to three span deletions, token insertions
    or span duplications."""
    text = fixture_text(draw(st.sampled_from(names)))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 60)))
        kind = draw(st.sampled_from(("delete", "insert", "duplicate")))
        if kind == "delete":
            text = text[:start] + text[end:]
        elif kind == "insert":
            text = text[:start] + draw(st.sampled_from(MUTATION_TOKENS)) + text[start:]
        else:
            text = text[:end] + text[start:end] + text[end:]
    return text


PROGRAMS = tuple(sorted(p.name for p in FIXTURES.glob("*.xq")))
ONTOLOGIES = ("socialnetwork.owl", "ontology_papers.owl")
MUTATION_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A copy of the fixtures, so that mutants find the files they name and
    everything they write stays under a temporary directory."""
    return shutil.copytree(FIXTURES, tmp_path_factory.mktemp("mutants") / "fixtures")


def exit_status(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestMutatedInputs:
    @MUTATION_SETTINGS
    @given(source=mutants(PROGRAMS))
    def test_run(self, workdir, source):
        (workdir / "mutant.xq").write_text(source)
        assert exit_status(["run", str(workdir / "mutant.xq"),
                            "--data", str(workdir / "conference.xml")]) in (0, 1, 2)

    @MUTATION_SETTINGS
    @given(source=mutants(("mapping.xq",)))
    def test_check(self, workdir, source):
        (workdir / "mutant.xq").write_text(source)
        assert exit_status(["check", str(workdir / "mutant.xq"),
                            "--data", str(workdir / "conference.xml"),
                            "--output", str(workdir / "mutant.owl")]) in (0, 1, 2)

    @MUTATION_SETTINGS
    @given(source=mutants(ONTOLOGIES))
    def test_reason(self, workdir, source):
        (workdir / "mutant.owl").write_text(source)
        assert exit_status(["reason", "--task", "consistent",
                            "--ontology", str(workdir / "mutant.owl")]) in (0, 1, 2)


def _descendants(node):
    for child in node.children:
        if child.kind == "element":
            yield child
            yield from _descendants(child)
