"""RDF term model, graph indexes, RDF/XML reading, results writing."""

from __future__ import annotations

import pytest

from conftest import fixture_text, steps_of
from xqowl.errors import RdfParseError, UnsupportedFeatureError
from xqowl.rdf import (
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    SPARQL_RESULTS_NS,
    Iri,
    Literal,
    RdfGraph,
    SolutionTable,
    Triple,
    parse_rdfxml,
    resolve_iri,
    term_key,
    write_sparql_results,
)
from xqowl.xmltree import QName, get_attribute, parse_xml, serialize_xml, string_value
from xqowl.xpaths import eval_steps

FOAF = "http://xmlns.com/foaf/0.1/"
REL = "http://relations.org"


def rel(frag: str) -> Iri:
    return Iri(REL + "#" + frag)


def test_term_ordering_is_total_and_deterministic():
    terms = [Literal("b"), Iri("z"), Literal("a", datatype="dt"), Iri("a"),
             Literal("a"), Literal("a", language="en")]
    ordered = sorted(terms, key=term_key)
    assert ordered == [Iri("a"), Iri("z"), Literal("a"), Literal("a", language="en"),
                       Literal("a", datatype="dt"), Literal("b")]


@pytest.mark.parametrize("base,ref,expected", [
    ("http://relations.org", "#b1", "http://relations.org#b1"),
    ("http://ex.org/doc.owl#frag", "#x", "http://ex.org/doc.owl#x"),
    ("http://ex.org/a/doc.owl", "other.owl", "http://ex.org/a/other.owl"),
    ("http://ex.org/doc.owl", "http://abs.org/x", "http://abs.org/x"),
    ("http://ex.org/doc.owl", "", "http://ex.org/doc.owl"),
])
def test_resolve_iri(base, ref, expected):
    assert resolve_iri(base, ref) == expected


def _relations_graph() -> RdfGraph:
    return parse_rdfxml(fixture_text("relations.rdf"), base="file://relations.rdf")


def test_relations_fixture_has_exactly_nine_triples():
    graph = _relations_graph()
    assert graph.base_iri == REL  # xml:base wins over the caller's base
    assert len(graph) == 9


def test_relations_triples_match_independent_tree_walk():
    # oracle: read the same facts straight off the XML tree, without the
    # RDF/XML reader, and compare as sets
    doc = parse_xml(fixture_text("relations.rdf"))
    expected: set[Triple] = set()
    for person in eval_steps([doc], steps_of(
            "rdf:RDF/foaf:Person",
            rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#", foaf=FOAF)):
        about = get_attribute(person, QName(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#", "about"))
        subject = Iri(REL + about)
        expected.add(Triple(subject, Iri(RDF_TYPE), Iri(FOAF + "Person")))
        for child in person.children:
            if child.kind != "element":
                continue
            if child.name == QName(FOAF, "name"):
                expected.add(Triple(subject, Iri(FOAF + "name"),
                                    Literal(string_value(child))))
            elif child.name == QName(FOAF, "knows"):
                inner = [c for c in child.children if c.kind == "element"][0]
                target = get_attribute(inner, QName(
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#", "about"))
                expected.add(Triple(subject, Iri(FOAF + "knows"), Iri(REL + target)))
                expected.add(Triple(Iri(REL + target), Iri(RDF_TYPE),
                                    Iri(FOAF + "Person")))
    assert set(_relations_graph().triples) == expected


def test_relations_expected_facts():
    graph = _relations_graph()
    knows = Iri(FOAF + "knows")
    assert Triple(rel("b1"), knows, rel("b4")) in graph
    assert Triple(rel("b1"), knows, rel("b6")) in graph
    assert Triple(rel("b4"), knows, rel("b6")) in graph
    assert Triple(rel("b1"), Iri(FOAF + "name"), Literal("Alice")) in graph
    assert graph.match(None, Iri(RDF_TYPE), Iri(FOAF + "Person")) == [
        Triple(rel(f), Iri(RDF_TYPE), Iri(FOAF + "Person")) for f in ("b1", "b4", "b6")]


def test_match_wildcards_and_ordering():
    graph = _relations_graph()
    assert len(graph.match()) == 9
    from_b1 = graph.match(subject=rel("b1"))
    assert len(from_b1) == 4
    assert from_b1 == sorted(from_b1, key=lambda t: (term_key(t.subject),
                                                     term_key(t.predicate),
                                                     term_key(t.object)))
    assert graph.match(rel("b6"), Iri(FOAF + "knows"), None) == []
    assert graph.objects(rel("b4"), Iri(FOAF + "knows")) == [rel("b6")]
    assert graph.subjects(Iri(FOAF + "name"), Literal("Bob")) == [rel("b4")]


def test_typed_literals_and_plain_literals():
    graph = parse_rdfxml(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:ex="http://ex.org/">'
        '<ex:Thing rdf:about="#t">'
        '<ex:size rdf:datatype="http://www.w3.org/2001/XMLSchema#integer">7</ex:size>'
        '<ex:label>plain</ex:label>'
        '<ex:tag xml:lang="en">hello</ex:tag>'
        '<ex:empty></ex:empty>'
        '</ex:Thing></rdf:RDF>',
        base="http://ex.org/doc")
    t = Iri("http://ex.org/doc#t")
    objs = {tr.predicate.value.rsplit("/", 1)[-1]: tr.object
            for tr in graph.match(subject=t) if isinstance(tr.object, Literal)}
    assert objs["size"] == Literal(
        "7", datatype="http://www.w3.org/2001/XMLSchema#integer")
    assert objs["label"] == Literal("plain")
    assert objs["tag"] == Literal("hello", language="en")
    assert objs["empty"] == Literal("")


def test_unqualified_property_elements_resolve_as_fragments():
    graph = parse_rdfxml(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:owl="http://www.w3.org/2002/07/owl#">'
        '<owl:NamedIndividual rdf:about="#1">'
        '<title>A paper</title>'
        '<manuscript rdf:resource="#2"/>'
        '</owl:NamedIndividual></rdf:RDF>',
        base="http://conf.org/papers.owl")
    assert Triple(Iri("http://conf.org/papers.owl#1"),
                  Iri("http://conf.org/papers.owl#title"),
                  Literal("A paper")) in graph
    assert Triple(Iri("http://conf.org/papers.owl#1"),
                  Iri("http://conf.org/papers.owl#manuscript"),
                  Iri("http://conf.org/papers.owl#2")) in graph


def test_nodeid_is_rejected_with_blank_node_message():
    with pytest.raises(UnsupportedFeatureError, match="blank"):
        parse_rdfxml(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">'
            '<rdf:Description rdf:nodeID="x"/></rdf:RDF>', base="http://e/")


def test_anonymous_node_elements_get_deterministic_generated_iris():
    markup = ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
              'xmlns:ex="http://ex.org/">'
              '<ex:A rdf:about="#a"><ex:p><ex:B/></ex:p></ex:A></rdf:RDF>')
    g1 = parse_rdfxml(markup, base="http://ex.org/d")
    g2 = parse_rdfxml(markup, base="http://ex.org/d")
    assert g1.triples == g2.triples
    nested = g1.objects(Iri("http://ex.org/d#a"), Iri("http://ex.org/p"))
    assert nested == [Iri("urn:genid:g1")]
    assert Triple(Iri("urn:genid:g1"), Iri(RDF_TYPE), Iri("http://ex.org/B")) in g1


def test_parse_type_collection_builds_a_first_rest_list():
    graph = parse_rdfxml(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:ex="http://ex.org/">'
        '<ex:A rdf:about="#a">'
        '<ex:members rdf:parseType="Collection">'
        '<ex:B rdf:about="#b"/><ex:C rdf:about="#c"/>'
        '</ex:members></ex:A></rdf:RDF>', base="http://ex.org/d")
    head = graph.objects(Iri("http://ex.org/d#a"), Iri("http://ex.org/members"))[0]
    assert graph.objects(head, Iri(RDF_FIRST)) == [Iri("http://ex.org/d#b")]
    nxt = graph.objects(head, Iri(RDF_REST))[0]
    assert graph.objects(nxt, Iri(RDF_FIRST)) == [Iri("http://ex.org/d#c")]
    assert graph.objects(nxt, Iri(RDF_REST)) == [Iri(RDF_NIL)]


@pytest.mark.parametrize("markup,error", [
    ('<not-rdf/>', RdfParseError),
    ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#">'
     '<rdf:Description rdf:ID="x"/></rdf:RDF>', RdfParseError),
    ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
     'xmlns:ex="http://ex.org/"><ex:A rdf:about="#a" ex:name="v"/></rdf:RDF>',
     UnsupportedFeatureError),
    ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
     'xmlns:ex="http://ex.org/"><ex:A rdf:about="#a">'
     '<ex:p rdf:parseType="Literal"><x/></ex:p></ex:A></rdf:RDF>',
     UnsupportedFeatureError),
    ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
     'xmlns:ex="http://ex.org/"><ex:A rdf:about="#a">'
     '<ex:p rdf:resource="#b">text</ex:p></ex:A></rdf:RDF>', RdfParseError),
    ('<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
     'xmlns:ex="http://ex.org/"><ex:A rdf:about="#a">'
     '<ex:p><ex:B rdf:about="#b"/><ex:C rdf:about="#c"/></ex:p></ex:A></rdf:RDF>',
     RdfParseError),
])
def test_rejected_rdf_markup(markup, error):
    with pytest.raises(error):
        parse_rdfxml(markup, base="http://ex.org/d")


def _results_steps(path: str) -> tuple:
    return steps_of(path, s=SPARQL_RESULTS_NS)


def test_write_sparql_results_shape():
    table = SolutionTable(
        variables=["Person", "Name"],
        rows=[
            {"Person": Iri(REL + "#b1"), "Name": Literal("Alice")},
            {"Name": Literal("7", datatype="http://www.w3.org/2001/XMLSchema#integer")},
        ])
    doc = write_sparql_results(table)
    names = eval_steps([doc], _results_steps("s:sparql/s:head/s:variable/@name"))
    assert [a.value for a in names] == ["Person", "Name"]
    results = eval_steps([doc], _results_steps("s:sparql/s:results/s:result"))
    assert len(results) == 2
    uris = eval_steps([doc], _results_steps(
        's:sparql/s:results/s:result/s:binding[@name="Person"]/s:uri/text()'))
    assert [u.value for u in uris] == [REL + "#b1"]
    # second row: Person unbound, literal carries its datatype
    lits = eval_steps([results[1]], _results_steps("s:binding/s:literal"))
    assert len(lits) == 1
    assert get_attribute(lits[0], QName(None, "datatype")).endswith("integer")
    # the document serializes and reparses cleanly
    reparsed = parse_xml(serialize_xml(doc, indent=True))
    assert len(eval_steps([reparsed], _results_steps("s:sparql/s:results/s:result"))) == 2


def test_write_sparql_results_empty_table():
    doc = write_sparql_results(SolutionTable(variables=["X"], rows=[]))
    assert eval_steps([doc], _results_steps("s:sparql/s:results/s:result")) == []
    assert len(eval_steps([doc], _results_steps("s:sparql/s:head/s:variable"))) == 1
