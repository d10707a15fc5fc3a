"""Ontology loading from RDF graphs and XML rendering of axioms/entities."""

import pytest

from xqowl.errors import RdfParseError, UnsupportedFeatureError
from xqowl.owl import (
    And, ClassAssertion, DataAssertion, DataDomain, DataRange, DisjointClasses,
    DisjointRoles, Domain, EquivalentClasses, Exists, ExistsSelf, Inverse,
    InverseRoles, MaxCard, Named, Nothing, Ontology, Range, Role, RoleAssertion,
    RoleChain, SubClassOf, SubRoleOf, Thing, axioms_to_xml, entities_to_xml,
    functional_axiom, irreflexive_axiom, load_ontology,
    named_classes_in, roles_in, symmetric_axiom,
)
from xqowl.rdf import XSD_NS, Literal, RdfGraph, parse_rdfxml
from xqowl.xmltree import (
    QName, canonical_key, child_elements, element, serialize_xml, string_value,
)

SN = "http://www.semanticweb.org/socialnetwork.owl"
PAPERS = "http://www.semanticweb.org/ontology_papers.owl"
OWL_NS = "http://www.w3.org/2002/07/owl#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"


def sn(local: str) -> str:
    return SN + "#" + local


def named(local: str) -> Named:
    return Named(sn(local))


def role(local: str) -> Role:
    return Role(sn(local))


def string(value: str) -> Literal:
    return Literal(value, datatype=XSD_NS + "string")


@pytest.fixture(scope="module")
def social(fixtures_dir):
    markup = (fixtures_dir / "socialnetwork.owl").read_text()
    return load_ontology(parse_rdfxml(markup))


EXPECTED_TBOX = frozenset({
    # class hierarchy
    SubClassOf(named("event"), named("activity")),
    SubClassOf(named("message"), named("activity")),
    SubClassOf(named("wall"), named("user_item")),
    SubClassOf(named("album"), named("user_item")),
    SubClassOf(named("popular_event"), named("popular")),
    SubClassOf(named("popular_message"), named("popular")),
    SubClassOf(named("activity"), MaxCard(1, role("created_by"), named("user"))),
    DisjointClasses(named("event"), named("message")),
    # popularity definitions
    EquivalentClasses(named("popular_event"),
                      And((named("event"),
                           Exists(role("confirmed_by"), named("user"))))),
    EquivalentClasses(named("popular_message"),
                      And((named("message"),
                           Exists(role("liked_by"), named("user"))))),
    # role hierarchy, characteristics, algebra
    SubRoleOf(role("added_by"), role("created_by")),
    SubRoleOf(role("sent_by"), role("created_by")),
    symmetric_axiom(sn("friend_of")),
    irreflexive_axiom(sn("friend_of")),
    irreflexive_axiom(sn("replies_to")),
    functional_axiom(sn("belongs_to")),
    functional_axiom(sn("written_in")),
    RoleChain(role("friend_of"), role("friend_of"), role("recommended_friend_of")),
    InverseRoles(sn("attends_to"), sn("confirmed_by")),
    InverseRoles(sn("i_like_it"), sn("liked_by")),
    # object property domains and ranges
    Domain(role("created_by"), named("activity")),
    Range(role("created_by"), named("user")),
    Domain(role("added_by"), named("event")),
    Range(role("added_by"), named("user")),
    Domain(role("sent_by"), named("message")),
    Range(role("sent_by"), named("user")),
    Domain(role("belongs_to"), named("user_item")),
    Range(role("belongs_to"), named("user")),
    Domain(role("friend_of"), named("user")),
    Range(role("friend_of"), named("user")),
    Domain(role("invited_to"), named("user")),
    Range(role("invited_to"), named("event")),
    Domain(role("recommended_friend_of"), named("user")),
    Range(role("recommended_friend_of"), named("user")),
    Domain(role("replies_to"), named("message")),
    Range(role("replies_to"), named("message")),
    Domain(role("written_in"), named("message")),
    Range(role("written_in"), named("wall")),
    Domain(role("attends_to"), named("user")),
    Range(role("attends_to"), named("event")),
    Domain(role("i_like_it"), named("user")),
    Range(role("i_like_it"), named("activity")),
    # data property domains and ranges
    DataDomain(sn("content"), named("message")),
    DataRange(sn("content"), XSD_NS + "string"),
    DataDomain(sn("date"), named("event")),
    DataRange(sn("date"), XSD_NS + "dateTime"),
    DataDomain(sn("name"), named("event")),
    DataRange(sn("name"), XSD_NS + "string"),
    DataDomain(sn("nick"), named("user")),
    DataRange(sn("nick"), XSD_NS + "string"),
    DataDomain(sn("password"), named("user")),
    DataRange(sn("password"), XSD_NS + "string"),
})

EXPECTED_ABOX = frozenset({
    ClassAssertion(sn("jesus"), named("user")),
    ClassAssertion(sn("luis"), named("user")),
    ClassAssertion(sn("vicente"), named("user")),
    ClassAssertion(sn("event1"), named("event")),
    ClassAssertion(sn("event2"), named("event")),
    ClassAssertion(sn("message1"), named("message")),
    ClassAssertion(sn("message2"), named("message")),
    ClassAssertion(sn("wall_jesus"), named("wall")),
    ClassAssertion(sn("wall_luis"), named("wall")),
    ClassAssertion(sn("wall_vicente"), named("wall")),
    RoleAssertion(sn("jesus"), sn("friend_of"), sn("luis")),
    RoleAssertion(sn("vicente"), sn("friend_of"), sn("luis")),
    RoleAssertion(sn("vicente"), sn("i_like_it"), sn("message2")),
    RoleAssertion(sn("vicente"), sn("invited_to"), sn("event1")),
    RoleAssertion(sn("vicente"), sn("attends_to"), sn("event1")),
    RoleAssertion(sn("event1"), sn("added_by"), sn("luis")),
    RoleAssertion(sn("message1"), sn("sent_by"), sn("jesus")),
    RoleAssertion(sn("message2"), sn("sent_by"), sn("luis")),
    RoleAssertion(sn("message2"), sn("replies_to"), sn("message1")),
    RoleAssertion(sn("wall_jesus"), sn("belongs_to"), sn("jesus")),
    RoleAssertion(sn("wall_luis"), sn("belongs_to"), sn("luis")),
    RoleAssertion(sn("wall_vicente"), sn("belongs_to"), sn("vicente")),
    DataAssertion(sn("jesus"), sn("nick"), string("jalmen")),
    DataAssertion(sn("jesus"), sn("password"), string("passjesus")),
    DataAssertion(sn("luis"), sn("nick"), string("Iamluis")),
    DataAssertion(sn("luis"), sn("password"), string("luis0000")),
    DataAssertion(sn("vicente"), sn("nick"), string("vicente")),
    DataAssertion(sn("vicente"), sn("password"), string("vicvicvic")),
    DataAssertion(sn("event1"), sn("name"), string("Next conference")),
    DataAssertion(sn("event1"), sn("date"),
                  Literal("2014-10-21T00:00:00", datatype=XSD_NS + "dateTime")),
    DataAssertion(sn("message1"), sn("content"), string("I have sent the paper")),
    DataAssertion(sn("message2"), sn("content"), string("good luck!")),
})


class TestExpressions:
    def test_and_requires_two_parts(self):
        with pytest.raises(ValueError):
            And((Named("urn:c"),))

    def test_expression_walkers(self):
        expr = And((Named("urn:a"),
                    Exists(Inverse("urn:r"), MaxCard(1, Role("urn:s"), Named("urn:b"))),
                    ExistsSelf(Role("urn:t"))))
        assert named_classes_in(expr) == {"urn:a", "urn:b"}
        assert roles_in(expr) == {"urn:r", "urn:s", "urn:t"}
        assert named_classes_in(Thing()) == set()


class TestLoadSocialNetwork:
    def test_tbox_exact(self, social):
        assert social.tbox == EXPECTED_TBOX

    def test_abox_exact(self, social):
        assert social.abox == EXPECTED_ABOX

    def test_class_assertion_counts(self, social):
        by_class: dict[str, int] = {}
        for assertion in social.abox:
            if isinstance(assertion, ClassAssertion):
                assert isinstance(assertion.cls, Named)
                local = assertion.cls.iri.rsplit("#", 1)[1]
                by_class[local] = by_class.get(local, 0) + 1
        assert by_class == {"user": 3, "event": 2, "message": 2, "wall": 3}

    def test_declarations(self, social):
        assert social.iri == SN
        assert social.classes == frozenset(map(sn, [
            "user", "user_item", "wall", "album", "activity", "event", "message",
            "popular", "popular_event", "popular_message"]))
        assert social.object_properties == frozenset(map(sn, [
            "created_by", "added_by", "sent_by", "belongs_to", "friend_of",
            "invited_to", "recommended_friend_of", "replies_to", "written_in",
            "attends_to", "confirmed_by", "i_like_it", "liked_by"]))
        assert social.data_properties == frozenset(map(sn, [
            "content", "date", "name", "nick", "password"]))
        assert social.individuals == frozenset(map(sn, [
            "jesus", "luis", "vicente", "event1", "event2", "message1",
            "message2", "wall_jesus", "wall_luis", "wall_vicente"]))

    def test_signature_helpers(self, social):
        assert social.named_classes() == social.classes
        assert social.all_individuals() == social.individuals

    def test_deterministic(self, social, fixtures_dir):
        markup = (fixtures_dir / "socialnetwork.owl").read_text()
        assert load_ontology(parse_rdfxml(markup)) == social


class TestLoadSmallGraphs:
    def test_empty_graph(self):
        ont = load_ontology(RdfGraph([], base_iri=""))
        assert ont == Ontology(iri="", tbox=frozenset(), abox=frozenset())

    def test_inverse_roles(self):
        ont = load_ontology(parse_rdfxml("""
            <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:owl="http://www.w3.org/2002/07/owl#"
                     xml:base="http://x.org/o">
              <owl:ObjectProperty rdf:about="#r">
                <owl:inverseOf rdf:resource="#s"/>
              </owl:ObjectProperty>
              <owl:ObjectProperty rdf:about="#s"/>
            </rdf:RDF>"""))
        assert ont.tbox == {InverseRoles("http://x.org/o#r", "http://x.org/o#s")}

    def test_undeclared_property_assertion_inferred_by_value(self):
        ont = load_ontology(parse_rdfxml("""
            <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:owl="http://www.w3.org/2002/07/owl#"
                     xml:base="http://x.org/o">
              <owl:NamedIndividual rdf:about="#a">
                <knows rdf:resource="#b"/>
                <age>7</age>
              </owl:NamedIndividual>
            </rdf:RDF>"""))
        base = "http://x.org/o#"
        assert ont.abox == {
            RoleAssertion(base + "a", base + "knows", base + "b"),
            DataAssertion(base + "a", base + "age", Literal("7")),
        }

    @pytest.mark.parametrize("body,match", [
        ("""<owl:Class rdf:about="#c"><rdfs:subClassOf>
              <owl:Restriction>
                <owl:onProperty rdf:resource="#r"/>
                <owl:allValuesFrom rdf:resource="#d"/>
              </owl:Restriction></rdfs:subClassOf></owl:Class>""",
         "allValuesFrom"),
        ("""<owl:Class rdf:about="#c"><owl:unionOf rdf:parseType="Collection">
              <owl:Class rdf:about="#a"/><owl:Class rdf:about="#b"/>
            </owl:unionOf></owl:Class>""",
         "unionOf"),
        ("""<owl:Class rdf:about="#c"><rdfs:label>c</rdfs:label></owl:Class>""",
         "rdfs:label"),
        ("""<owl:ObjectProperty rdf:about="#t">
              <owl:propertyChainAxiom rdf:parseType="Collection">
                <owl:ObjectProperty rdf:about="#r"/>
                <owl:ObjectProperty rdf:about="#s"/>
                <owl:ObjectProperty rdf:about="#r"/>
              </owl:propertyChainAxiom></owl:ObjectProperty>""",
         "chain"),
        ("""<owl:DatatypeProperty rdf:about="#p">
              <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#FunctionalProperty"/>
            </owl:DatatypeProperty>""",
         "FunctionalProperty"),
        ("""<owl:ObjectProperty rdf:about="#r">
              <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#TransitiveProperty"/>
            </owl:ObjectProperty>""",
         "TransitiveProperty"),
    ])
    def test_unsupported_constructs(self, body, match):
        markup = f"""
            <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
                     xmlns:owl="http://www.w3.org/2002/07/owl#"
                     xml:base="http://x.org/o">{body}</rdf:RDF>"""
        with pytest.raises(UnsupportedFeatureError, match=match):
            load_ontology(parse_rdfxml(markup))

    @pytest.mark.parametrize("body,match", [
        ("""<rdf:Description rdf:about="#p"><rdfs:domain rdf:resource="#c"/>
            </rdf:Description>""",
         "undeclared"),
        ("""<owl:Class rdf:about="#c"><rdfs:subClassOf>v</rdfs:subClassOf>
            </owl:Class>""",
         "class position"),
        ("""<owl:Class rdf:about="#c"><rdfs:subClassOf>
              <owl:Restriction><owl:onProperty rdf:resource="#r"/></owl:Restriction>
            </rdfs:subClassOf></owl:Class>""",
         "recognized constraint"),
        ("""<owl:Class rdf:about="#c"><rdfs:subClassOf>
              <owl:Restriction>
                <owl:onProperty rdf:resource="#r"/>
                <owl:maxQualifiedCardinality>1</owl:maxQualifiedCardinality>
              </owl:Restriction></rdfs:subClassOf></owl:Class>""",
         "onClass"),
        ("""<owl:DatatypeProperty rdf:about="#p">
              <rdfs:range>x</rdfs:range></owl:DatatypeProperty>""",
         "range must be an IRI"),
    ])
    def test_malformed_uses(self, body, match):
        markup = f"""
            <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
                     xmlns:owl="http://www.w3.org/2002/07/owl#"
                     xml:base="http://x.org/o">{body}</rdf:RDF>"""
        with pytest.raises(RdfParseError, match=match):
            load_ontology(parse_rdfxml(markup))


def papers(local: str) -> str:
    return PAPERS + "#" + local


class TestLoadConferenceTbox:
    def test_tbox_exact(self, fixtures_dir):
        ont = load_ontology(parse_rdfxml(
            (fixtures_dir / "ontology_papers.owl").read_text()))
        assert ont.iri == PAPERS
        assert ont.tbox == {
            SubClassOf(Named(papers("PaperofStudent")), Named(papers("Paper"))),
            SubClassOf(Named(papers("PaperofSenior")), Named(papers("Paper"))),
            SubClassOf(Named(papers("Student")), Named(papers("Researcher"))),
            SubClassOf(Named(papers("Senior")), Named(papers("Researcher"))),
            DisjointClasses(Named(papers("Student")), Named(papers("Reviewer"))),
            DisjointRoles(papers("manuscript"), papers("referee")),
            Domain(Role(papers("manuscript")), Named(papers("Researcher"))),
            Range(Role(papers("manuscript")), Named(papers("Paper"))),
            Domain(Role(papers("referee")), Named(papers("Reviewer"))),
            Range(Role(papers("referee")), Named(papers("Paper"))),
            DataDomain(papers("title"), Named(papers("Paper"))),
            DataRange(papers("title"), XSD_NS + "string"),
            DataDomain(papers("wordCount"), Named(papers("Paper"))),
            DataRange(papers("wordCount"), XSD_NS + "integer"),
            DataDomain(papers("name"), Named(papers("Researcher"))),
            DataRange(papers("name"), XSD_NS + "string"),
        }
        assert ont.abox == frozenset()


def rdfq(local: str) -> QName:
    return QName(RDF_NS, local, "rdf")


def rdfsq(local: str) -> QName:
    return QName(RDFS_NS, local, "rdfs")


def owlq(local: str) -> QName:
    return QName(OWL_NS, local, "owl")


def el(name, attrs=None, children=None):
    return element(name, attrs, children)


def keys(nodes) -> set:
    return {canonical_key(n) for n in nodes}


class TestAxiomRendering:
    def test_subject_added_by(self, social):
        doc = axioms_to_xml(social, subject=sn("added_by"))
        rendered = child_elements(child_elements(doc)[0])
        expected = [
            el(owlq("Class"), [(rdfq("about"), sn("event"))]),
            el(owlq("Class"), [(rdfq("about"), sn("user"))]),
            el(owlq("ObjectProperty"), [(rdfq("about"), sn("added_by"))], [
                el(rdfsq("subPropertyOf"), [(rdfq("resource"), sn("created_by"))]),
                el(rdfsq("domain"), [(rdfq("resource"), sn("event"))]),
                el(rdfsq("range"), [(rdfq("resource"), sn("user"))]),
            ]),
            el(owlq("ObjectProperty"), [(rdfq("about"), sn("created_by"))]),
        ]
        assert keys(rendered) == keys(expected)

    def test_subject_wall_and_event(self, social):
        rendered = []
        for cls in ("wall", "event"):
            doc = axioms_to_xml(social, subject=sn(cls))
            rendered += child_elements(child_elements(doc)[0])
        expected = [
            el(owlq("Class"), [(rdfq("about"), sn("user_item"))]),
            el(owlq("Class"), [(rdfq("about"), sn("wall"))], [
                el(rdfsq("subClassOf"), [(rdfq("resource"), sn("user_item"))]),
            ]),
            el(owlq("Class"), [(rdfq("about"), sn("activity"))]),
            el(owlq("Class"), [(rdfq("about"), sn("event"))], [
                el(rdfsq("subClassOf"), [(rdfq("resource"), sn("activity"))]),
                el(owlq("disjointWith"), [(rdfq("resource"), sn("message"))]),
            ]),
            el(owlq("Class"), [(rdfq("about"), sn("message"))]),
        ]
        assert keys(rendered) == keys(expected)

    def test_subject_attends_to(self, social):
        doc = axioms_to_xml(social, subject=sn("attends_to"))
        rendered = child_elements(child_elements(doc)[0])
        anchored = [n for n in rendered
                    if any(a.value == sn("attends_to") for a in n.attributes)]
        assert len(anchored) == 1
        assert keys(anchored[0].children) == keys([
            el(owlq("inverseOf"), [(rdfq("resource"), sn("confirmed_by"))]),
            el(rdfsq("domain"), [(rdfq("resource"), sn("user"))]),
            el(rdfsq("range"), [(rdfq("resource"), sn("event"))]),
        ])

    def test_symmetric_irreflexive_markers(self, social):
        doc = axioms_to_xml(social, subject=sn("friend_of"))
        rendered = child_elements(child_elements(doc)[0])
        anchored = [n for n in rendered
                    if any(a.value == sn("friend_of") for a in n.attributes)]
        marker_targets = {a.value
                          for n in anchored[0].children if n.name == rdfq("type")
                          for a in n.attributes}
        assert marker_targets == {OWL_NS + "SymmetricProperty",
                                  OWL_NS + "IrreflexiveProperty"}

    def test_empty_ontology_renders_empty_root(self):
        doc = axioms_to_xml(Ontology(iri="", tbox=frozenset(), abox=frozenset()))
        root = child_elements(doc)[0]
        assert root.name == rdfq("RDF")
        assert child_elements(root) == []

    def test_individual_rendering(self, social):
        doc = axioms_to_xml(social, subject=sn("message2"))
        rendered = child_elements(child_elements(doc)[0])
        anchored = [n for n in rendered if n.name == owlq("NamedIndividual")
                    and any(a.value == sn("message2") for a in n.attributes)]
        assert len(anchored) == 1
        by_name = {c.name.local for c in anchored[0].children}
        assert by_name == {"type", "sent_by", "replies_to", "content"}

    def test_full_round_trip(self, social):
        markup = serialize_xml(axioms_to_xml(social))
        assert load_ontology(parse_rdfxml(markup)) == social

    def test_conference_round_trip(self, fixtures_dir):
        ont = load_ontology(parse_rdfxml(
            (fixtures_dir / "ontology_papers.owl").read_text()))
        markup = serialize_xml(axioms_to_xml(ont))
        assert load_ontology(parse_rdfxml(markup)) == ont


class TestEntityRendering:
    def test_items(self):
        nodes = entities_to_xml([sn("message1"), sn("event1")], QName(None, "instance"))
        assert [serialize_xml(n) for n in nodes] == [
            f"<instance>{sn('message1')}</instance>",
            f"<instance>{sn('event1')}</instance>",
        ]

    def test_empty(self):
        assert entities_to_xml([], QName(None, "instance")) == []

    def test_order_preserved(self):
        iris = [f"urn:i{k}" for k in (3, 1, 2)]
        nodes = entities_to_xml(iris, QName(None, "x"))
        assert [string_value(n) for n in nodes] == iris
