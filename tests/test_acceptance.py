"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single `criterion NN ...: PASS` (or FAIL) line, so
running this module with `pytest -v -s tests/test_acceptance.py` gives a
one-line verdict per criterion.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

from conftest import FIXTURES, fixture_text
from corpus import random_ontology
from test_reasoner import (
    check_chain_composition, check_fixpoint, check_monotonicity,
    check_symmetry_and_inverse,
)
from test_sparql import _oracle_rows, _random_instance
from xqowl.cli import main as cli_main
from xqowl.hostlang import parse_program
from xqowl.interpreter import Environment, evaluate
from xqowl.owl import Named, RoleAssertion, axioms_to_xml, load_ontology
from xqowl.rdf import parse_rdfxml
from xqowl.reasoner import Reasoner
from xqowl.sparql import eval_bgp
from xqowl.xmltree import (
    canonical_equal, canonical_key, child_elements, parse_xml, serialize_xml,
    string_value,
)

SN = "http://www.semanticweb.org/socialnetwork.owl#"
PAPERS = "http://www.semanticweb.org/ontology_papers.owl#"


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({title}): FAIL")
                raise
            print(f"criterion {num:2d} ({title}): PASS")
        return wrapper
    return decorate


def run_fixture(name: str, context: str | None = None) -> list:
    ctx = parse_xml(fixture_text(context)) if context else None
    env = Environment(base_dir=FIXTURES, context_document=ctx)
    return evaluate(parse_program(fixture_text(name)), env)


def social_reasoner(**kwargs) -> Reasoner:
    ont = load_ontology(parse_rdfxml(fixture_text("socialnetwork.owl")))
    return Reasoner(ont, **kwargs)


@criterion(1, "class instance query emits the five expected IRIs")
def test_criterion_01_instance_query_output():
    result = run_fixture("example1.xq")
    values = [node.value for node in result]
    assert len(values) == 5
    assert set(values[:3]) == {SN + "vicente", SN + "jesus", SN + "luis"}
    assert set(values[3:]) == {SN + "event2", SN + "event1"}


@criterion(2, "lowering reproduces the relations target document")
def test_criterion_02_lowering_output():
    target = child_elements(parse_xml(
        '<relations>'
        '<person name="Alice"><knows> Bob </knows><knows> Charles </knows>'
        "</person>"
        '<person name="Bob"><knows> Charles </knows></person>'
        '<person name="Charles"/>'
        "</relations>"))[0]
    (relations,) = run_fixture("lowering.xq")
    assert canonical_equal(relations, target)
    persons = child_elements(relations)
    assert [p.attributes[0].value for p in persons] == [
        "Alice", "Bob", "Charles"]
    assert [[string_value(k).strip() for k in child_elements(p)]
            for p in persons] == [["Bob", "Charles"], ["Charles"], []]


@criterion(3, "class axiom rendering for wall and event")
def test_criterion_03_class_axiom_rendering():
    expected_markup = f"""
    <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
             xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
             xmlns:owl="http://www.w3.org/2002/07/owl#">
      <owl:Class rdf:about="{SN}user_item"/>
      <owl:Class rdf:about="{SN}wall">
        <rdfs:subClassOf rdf:resource="{SN}user_item"/>
      </owl:Class>
      <owl:Class rdf:about="{SN}activity"/>
      <owl:Class rdf:about="{SN}event">
        <rdfs:subClassOf rdf:resource="{SN}activity"/>
        <owl:disjointWith rdf:resource="{SN}message"/>
      </owl:Class>
      <owl:Class rdf:about="{SN}message"/>
    </rdf:RDF>"""
    expected = {canonical_key(el) for el in
                child_elements(child_elements(parse_xml(expected_markup))[0])}
    result = run_fixture("class_axioms.xq")
    assert {canonical_key(el) for el in result} == expected
    assert len(result) == len(expected)


@criterion(4, "consistency goldens for the fixture and three mutations")
def test_criterion_04_consistency_goldens():
    reasoner = social_reasoner()
    assert reasoner.is_consistent() is True

    mutations = [
        (("jesus", "friend_of", "jesus"), "irreflexive"),
        (("message1", "sent_by", "luis"), "max-cardinality"),
        (("message1", "replies_to", "message1"), "irreflexive"),
    ]
    for (subject, role, obj), kind in mutations:
        fact = RoleAssertion(SN + subject, SN + role, SN + obj)
        mutated = replace(reasoner.ontology,
                          abox=reasoner.ontology.abox | {fact})
        broken = Reasoner(mutated)
        assert broken.is_consistent() is False
        assert kind in {clash.kind for clash in broken.saturation.clashes}


@criterion(5, "instance retrieval matches the fixture exactly")
def test_criterion_05_instance_retrieval():
    reasoner = social_reasoner()
    assert reasoner.instances(Named(SN + "activity")) == {
        SN + "message1", SN + "message2", SN + "event1", SN + "event2"}
    assert reasoner.instances(Named(SN + "user")) == {
        SN + "jesus", SN + "vicente", SN + "luis"}
    assert reasoner.instances(Named(SN + "popular")) == {
        SN + "event1", SN + "message2"}


@criterion(6, "subclass retrieval below activity")
def test_criterion_06_subclass_retrieval():
    reasoner = social_reasoner()
    assert reasoner.subclasses(Named(SN + "activity"), direct=False) == {
        SN + "popular_message", SN + "event", SN + "popular_event",
        SN + "message", "http://www.w3.org/2002/07/owl#Nothing"}


@criterion(7, "property fillers for three fixture individuals")
def test_criterion_07_property_fillers():
    reasoner = social_reasoner()
    assert reasoner.property_values(
        SN + "jesus", SN + "recommended_friend_of") == {
        SN + "jesus", SN + "vicente"}
    assert reasoner.property_values(
        SN + "event1", SN + "confirmed_by") == {SN + "vicente"}
    assert reasoner.property_values(
        SN + "message1", SN + "created_by") == {SN + "jesus"}


@criterion(8, "mapping-and-check pipeline over both review documents")
def test_criterion_08_check_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli_main(["check", str(FIXTURES / "mapping.xq"),
                     "--data", str(FIXTURES / "conference.xml")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "consistent: false"
    role_clashes = [l for l in lines[1:] if l.startswith("disjoint-roles:")]
    class_clashes = [l for l in lines[1:] if l.startswith("disjoint-classes:")]
    assert {l.split(":", 1)[1].split(",")[0].strip() for l in role_clashes} \
        == {PAPERS + "a", PAPERS + "e"}
    assert {l.split(":", 1)[1].split(",")[0].strip() for l in class_clashes} \
        == {PAPERS + "b", PAPERS + "d"}
    for line in class_clashes:
        assert PAPERS + "Student" in line and PAPERS + "Reviewer" in line

    code = cli_main(["check", str(FIXTURES / "mapping.xq"),
                     "--data", str(FIXTURES / "conference_fixed.xml")])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "consistent: true\n"


@criterion(9, "randomized join and saturation properties")
def test_criterion_09_randomized_properties():
    for seed in range(200):
        graph, patterns = _random_instance(random.Random(seed))
        got = {tuple(sorted(row.items()))
               for row in eval_bgp(graph, patterns).rows}
        assert got == _oracle_rows(graph, patterns), f"bgp seed {seed}"
    for seed in range(100):
        check_fixpoint(random_ontology(random.Random(seed)))
        check_symmetry_and_inverse(random.Random(seed))
        check_chain_composition(random.Random(seed))
        check_monotonicity(random.Random(seed))


@criterion(10, "serialization round-trips")
def test_criterion_10_round_trips():
    for name in ("conference.xml", "conference_fixed.xml", "relations.rdf",
                 "socialnetwork.owl", "ontology_papers.owl"):
        doc = parse_xml(fixture_text(name))
        assert canonical_equal(parse_xml(serialize_xml(doc)), doc), name
        assert canonical_equal(
            parse_xml(serialize_xml(doc, indent=True)), doc), name
    for name in ("socialnetwork.owl", "ontology_papers.owl"):
        ont = load_ontology(parse_rdfxml(fixture_text(name)))
        reloaded = load_ontology(parse_rdfxml(
            serialize_xml(axioms_to_xml(ont))))
        assert reloaded.tbox == ont.tbox, name
        assert reloaded.classes == ont.classes, name
        assert reloaded.object_properties == ont.object_properties, name
        assert reloaded.data_properties == ont.data_properties, name
