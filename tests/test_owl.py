"""Ontology loading from RDF graphs and XML rendering of axioms/entities."""

import dataclasses
import random
import re
import typing

import pytest

from conftest import FIXTURES, assert_document_order, preorder_ids
from corpus import generated_ontology, mutated_graph, random_ontology, rdfxml_ontology

from xqowl.errors import RdfParseError, UnsupportedFeatureError, XqowlError
from xqowl.owl import (
    And, Axiom, ClassAssertion, ClassExpr, DataAssertion, DataDomain, DataRange, DisjointClasses,
    DisjointRoles, Domain, EquivalentClasses, Exists, ExistsSelf, InverseRoles,
    MaxCard, Named, Ontology, Range, RoleAssertion, RoleChain, SubClassOf,
    SubRoleOf, Thing, axioms_to_xml, entities_to_xml, assertion_subject, axiom_subjects,
    functional_axiom, irreflexive_axiom, load_ontology, named_classes_in, roles_in,
    symmetric_axiom,
)
from xqowl.rdf import XSD_NS, Literal, RdfGraph, parse_rdfxml
from xqowl.xmltree import (
    QName, XmlNode, canonical_key, child_elements, element, get_attribute,
    serialize_xml, string_value,
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


def role(local: str) -> str:
    return sn(local)


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


def dataclass_repr(value) -> str:
    """repr as the dataclasses module writes it, field by field."""
    if dataclasses.is_dataclass(value):
        fields = (f"{f.name}={dataclass_repr(getattr(value, f.name))}"
                  for f in dataclasses.fields(value))
        return f"{type(value).__qualname__}({', '.join(fields)})"
    if isinstance(value, tuple) and not hasattr(value, "_fields"):
        return f"({', '.join(map(dataclass_repr, value))}{',' if len(value) == 1 else ''})"
    return repr(value)


ROLE_AXIOMS = (SubRoleOf, RoleChain, InverseRoles, DisjointRoles)


def roles_held(value) -> list:
    """What fills each object-property position of an axiom, assertion or
    class expression, the class expressions inside it included."""
    if isinstance(value, ROLE_AXIOMS):
        held = list(vars(value).values())
    elif isinstance(value, (Exists, ExistsSelf, MaxCard, Domain, Range, RoleAssertion)):
        held = [value.role]
    else:
        held = []
    for side in vars(value).values():
        for inner in side if isinstance(side, tuple) else (side,):
            if isinstance(inner, ClassExpr):
                held += roles_held(inner)
    return held


class TestExpressions:
    def test_and_requires_two_parts(self):
        with pytest.raises(ValueError):
            And((Named("urn:c"),))

    def test_expression_walkers(self):
        expr = And((Named("urn:a"),
                    Exists("urn:r", MaxCard(1, "urn:s", Named("urn:b"))),
                    ExistsSelf("urn:t")))
        assert named_classes_in(expr) == {"urn:a", "urn:b"}
        assert roles_in(expr) == {"urn:r", "urn:s", "urn:t"}
        assert named_classes_in(Thing()) == set()
        assert named_classes_in(Named("urn:c"), "urn:r", "urn:d", expr) == \
            {"urn:a", "urn:b", "urn:c"}

    def test_every_role_position_holds_an_iri_string(self):
        """In the model as built and as loaded back from its rendering."""
        for seed in range(50):
            for ont in (generated_ontology(random.Random(seed)),
                        random_ontology(random.Random(seed))):
                back = load_ontology(parse_rdfxml(serialize_xml(axioms_to_xml(ont))))
                held = [role for value in (*ont.tbox, *ont.abox, *back.tbox, *back.abox)
                        for role in roles_held(value)]
                assert held and all(type(role) is str for role in held), seed

    def test_named_classes_are_those_of_each_class_position(self):
        for seed in range(50):
            ont = generated_ontology(random.Random(seed))
            expected = set(ont.classes)
            for value in (*ont.tbox, *ont.abox):
                for side in vars(value).values():
                    expected |= named_classes_in(side)
            assert ont.named_classes() == expected

    def test_model_values_repr_as_dataclasses_without_the_cycle_guard(self):
        values = [value for seed in range(50)
                  for ont in (generated_ontology(random.Random(seed)),
                              random_ontology(random.Random(seed)))
                  for value in (*ont.tbox, *ont.abox)]
        assert {type(value) for value in values} >= set(typing.get_args(Axiom))
        for value in values:
            assert repr(value) == dataclass_repr(value)
            assert not hasattr(type(value).__repr__, "__wrapped__")


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


# a datatype property in each object-property position, with the axiom or
# restriction predicate its message names
DATATYPE_AS_ROLE = [
    ("""<owl:DatatypeProperty rdf:about="#p"><owl:inverseOf rdf:resource="#r"/>
        </owl:DatatypeProperty>""", "owl:inverseOf"),
    ("""<owl:DatatypeProperty rdf:about="#p">
          <owl:propertyDisjointWith rdf:resource="#r"/></owl:DatatypeProperty>""",
     "owl:propertyDisjointWith"),
    ("""<owl:ObjectProperty rdf:about="#r"><rdfs:subPropertyOf rdf:resource="#p"/>
        </owl:ObjectProperty>""", "rdfs:subPropertyOf"),
    ("""<owl:ObjectProperty rdf:about="#r"><owl:inverseOf rdf:resource="#p"/>
        </owl:ObjectProperty>""", "owl:inverseOf"),
    ("""<owl:ObjectProperty rdf:about="#t">
          <owl:propertyChainAxiom rdf:parseType="Collection">
            <owl:ObjectProperty rdf:about="#r"/><owl:DatatypeProperty rdf:about="#p"/>
          </owl:propertyChainAxiom></owl:ObjectProperty>""", "owl:propertyChainAxiom"),
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf><owl:Restriction>
          <owl:onProperty rdf:resource="#p"/><owl:someValuesFrom rdf:resource="#d"/>
        </owl:Restriction></rdfs:subClassOf></owl:Class>""", "owl:onProperty"),
]


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
        ("""<owl:DatatypeProperty rdf:about="#p">
              <owl:propertyChainAxiom rdf:parseType="Collection">
                <owl:ObjectProperty rdf:about="#r"/><owl:ObjectProperty rdf:about="#s"/>
              </owl:propertyChainAxiom></owl:DatatypeProperty>""",
         "owl:propertyChainAxiom between datatype properties"),
        *[("""<owl:DatatypeProperty rdf:about="#p"/><owl:ObjectProperty rdf:about="#r"/>"""
           + body, f"^{name} between datatype properties is not supported$")
          for body, name in DATATYPE_AS_ROLE],
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


RDF_NIL = RDF_NS + "nil"
# one input per raise site of the loader, with the whole message it raises
LOADER_ERRORS = [
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf><owl:Restriction>
          <owl:onProperty rdf:resource="#r"/><owl:allValuesFrom rdf:resource="#d"/>
        </owl:Restriction></rdfs:subClassOf></owl:Class>""",
     UnsupportedFeatureError, "owl:allValuesFrom (universal restrictions) is not "
     "supported; express the constraint with rdfs:domain/rdfs:range"),
    ("""<owl:Class rdf:about="#c"><owl:unionOf rdf:parseType="Collection">
          <owl:Class rdf:about="#a"/><owl:Class rdf:about="#b"/>
        </owl:unionOf></owl:Class>""",
     UnsupportedFeatureError, "owl:unionOf is not supported"),
    ("""<owl:Class rdf:about="#c"><rdfs:label>c</rdfs:label></owl:Class>""",
     UnsupportedFeatureError, "rdfs:label is not supported"),
    ("""<rdf:Description rdf:about="#a"><rdf:value>v</rdf:value></rdf:Description>""",
     UnsupportedFeatureError, "rdf:value is not supported"),
    ("""<owl:ObjectProperty rdf:about="#r">
          <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#TransitiveProperty"/>
        </owl:ObjectProperty>""",
     UnsupportedFeatureError, "owl:TransitiveProperty is not supported"),
    ("""<rdf:Description rdf:about="#c">
          <rdf:type rdf:resource="http://www.w3.org/2000/01/rdf-schema#Class"/>
        </rdf:Description>""",
     UnsupportedFeatureError,
     "rdf:type http://www.w3.org/2000/01/rdf-schema#Class is not supported"),
    (f"""<rdf:Description rdf:about="#c"><rdf:type rdf:resource="{RDF_NIL}"/>
        </rdf:Description>""",
     UnsupportedFeatureError, f"rdf:type {RDF_NIL} is not supported"),
    ("""<owl:ObjectProperty rdf:about="#t">
          <owl:propertyChainAxiom>x</owl:propertyChainAxiom></owl:ObjectProperty>""",
     RdfParseError, "malformed RDF list"),
    (f"""<owl:ObjectProperty rdf:about="#t"><owl:propertyChainAxiom rdf:resource="#l"/>
        </owl:ObjectProperty>
        <rdf:Description rdf:about="#l"><rdf:rest rdf:resource="{RDF_NIL}"/>
        </rdf:Description>""",
     RdfParseError, "malformed RDF list cell"),
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf><owl:Restriction>
          <owl:onProperty>r</owl:onProperty><owl:someValuesFrom rdf:resource="#d"/>
        </owl:Restriction></rdfs:subClassOf></owl:Class>""",
     RdfParseError, "owl:onProperty must name a property"),
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf>v</rdfs:subClassOf></owl:Class>""",
     RdfParseError, "a literal cannot appear in class position"),
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf><owl:Class>
          <owl:intersectionOf rdf:parseType="Collection"><owl:Class rdf:about="#a"/>
          </owl:intersectionOf></owl:Class></rdfs:subClassOf></owl:Class>""",
     RdfParseError, "owl:intersectionOf needs at least two members"),
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf><owl:Restriction>
          <owl:onProperty rdf:resource="#r"/>
          <owl:maxQualifiedCardinality>1</owl:maxQualifiedCardinality>
        </owl:Restriction></rdfs:subClassOf></owl:Class>""",
     RdfParseError, "owl:maxQualifiedCardinality needs owl:onClass"),
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf><owl:Restriction>
          <owl:onProperty rdf:resource="#r"/>
        </owl:Restriction></rdfs:subClassOf></owl:Class>""",
     RdfParseError, "restriction without a recognized constraint"),
    ("""<owl:Class rdf:about="#c"><rdfs:subClassOf><owl:Restriction>
          <owl:onProperty rdf:resource="#r"/><owl:maxCardinality>-1</owl:maxCardinality>
        </owl:Restriction></rdfs:subClassOf></owl:Class>""",
     RdfParseError, "cardinality bound must be a non-negative integer"),
    ("""<owl:DatatypeProperty rdf:about="#p">
          <rdfs:subPropertyOf rdf:resource="#q"/></owl:DatatypeProperty>""",
     UnsupportedFeatureError,
     "rdfs:subPropertyOf between datatype properties is not supported"),
    ("""<owl:ObjectProperty rdf:about="#r">
          <rdfs:subPropertyOf>s</rdfs:subPropertyOf></owl:ObjectProperty>""",
     RdfParseError, "rdfs:subPropertyOf must name a property"),
    ("""<rdf:Description rdf:about="#p"><rdfs:domain rdf:resource="#c"/>
        </rdf:Description>""",
     RdfParseError, "rdfs:domain on undeclared property http://x.org/o#p"),
    ("""<owl:DatatypeProperty rdf:about="#p"><rdfs:range>x</rdfs:range>
        </owl:DatatypeProperty>""",
     RdfParseError, "a datatype property range must be an IRI"),
    ("""<rdf:Description rdf:about="#p"><rdfs:range rdf:resource="#c"/>
        </rdf:Description>""",
     RdfParseError, "rdfs:range on undeclared property http://x.org/o#p"),
    ("""<owl:ObjectProperty rdf:about="#r"><owl:inverseOf>s</owl:inverseOf>
        </owl:ObjectProperty>""",
     RdfParseError, "owl:inverseOf must name a property"),
    ("""<owl:ObjectProperty rdf:about="#r">
          <owl:propertyDisjointWith>s</owl:propertyDisjointWith></owl:ObjectProperty>""",
     RdfParseError, "owl:propertyDisjointWith must name a property"),
    ("""<owl:ObjectProperty rdf:about="#t">
          <owl:propertyChainAxiom rdf:parseType="Collection">
            <owl:ObjectProperty rdf:about="#r"/><owl:ObjectProperty rdf:about="#s"/>
            <owl:ObjectProperty rdf:about="#r"/>
          </owl:propertyChainAxiom></owl:ObjectProperty>""",
     UnsupportedFeatureError, "only property chains of exactly two links are supported"),
    (f"""<owl:ObjectProperty rdf:about="#t"><owl:propertyChainAxiom rdf:resource="#l"/>
        </owl:ObjectProperty>
        <rdf:Description rdf:about="#l"><rdf:first>r</rdf:first>
          <rdf:rest rdf:resource="#m"/></rdf:Description>
        <rdf:Description rdf:about="#m"><rdf:first rdf:resource="#s"/>
          <rdf:rest rdf:resource="{RDF_NIL}"/></rdf:Description>""",
     RdfParseError, "a chain link must name a property"),
    *[(f"""<owl:DatatypeProperty rdf:about="#p">
          <rdf:type rdf:resource="http://www.w3.org/2002/07/owl#{kind}"/>
        </owl:DatatypeProperty>""",
       UnsupportedFeatureError, f"owl:{kind} on a datatype property is not supported")
      for kind in ("SymmetricProperty", "IrreflexiveProperty", "FunctionalProperty")],
    ("""<owl:DatatypeProperty rdf:about="#p"/>
        <owl:NamedIndividual rdf:about="#a"><p rdf:resource="#b"/></owl:NamedIndividual>""",
     RdfParseError, "datatype property http://x.org/o#p expects a literal value"),
    ("""<owl:ObjectProperty rdf:about="#p"/>
        <owl:NamedIndividual rdf:about="#a"><p>v</p></owl:NamedIndividual>""",
     RdfParseError, "object property http://x.org/o#p expects an IRI value"),
    ("""<owl:NamedIndividual rdf:about="#a"><rdf:type>x</rdf:type></owl:NamedIndividual>""",
     RdfParseError, "rdf:type of individual http://x.org/o#a must name a class"),
    ("""<owl:Restriction rdf:about="#x"><owl:onProperty rdf:resource="#r"/>
          <owl:someValuesFrom rdf:resource="#x"/></owl:Restriction>
        <owl:Class rdf:about="#c"><rdfs:subClassOf rdf:resource="#x"/></owl:Class>""",
     RdfParseError, "cyclic class expression through http://x.org/o#x"),
]


class TestLoaderMessages:
    @pytest.mark.parametrize("body,error,message", LOADER_ERRORS,
                             ids=[message for _, _, message in LOADER_ERRORS])
    def test_each_error_is_raised_with_its_whole_message(self, body, error, message):
        markup = f"""
            <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"
                     xmlns:owl="http://www.w3.org/2002/07/owl#"
                     xml:base="http://x.org/o">{body}</rdf:RDF>"""
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            load_ontology(parse_rdfxml(markup))
        assert type(raised.value) is error

    def test_mutated_graphs_load_or_raise_a_named_error(self):
        """Triple-level mutants of generated ontologies: dropped, redirected
        and added triples, which can make lists and expressions cyclic."""
        for seed in range(800):
            try:
                load_ontology(mutated_graph(random.Random(seed)))
            except XqowlError:
                pass
            except Exception as exc:  # anything else is a crash
                pytest.fail(f"mutant {seed}: {exc!r}")


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
            Domain(papers("manuscript"), Named(papers("Researcher"))),
            Range(papers("manuscript"), Named(papers("Paper"))),
            Domain(papers("referee"), Named(papers("Reviewer"))),
            Range(papers("referee"), Named(papers("Paper"))),
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


def el(name, attrs=None, children=()):
    node = element(name, attrs)
    for child in children:
        node.append(child)
    return node


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


class TestRenderedDocumentOrder:
    @pytest.mark.parametrize("name", ["socialnetwork.owl", "ontology_papers.owl"])
    def test_fixture_ontologies_whole_and_by_class(self, fixtures_dir, name):
        ont = load_ontology(parse_rdfxml((fixtures_dir / name).read_text()))
        assert_document_order(axioms_to_xml(ont))
        for cls in sorted(ont.named_classes()):
            assert_document_order(axioms_to_xml(ont, subject=cls))

    @pytest.mark.parametrize("seed", range(50))
    def test_random_ontologies(self, seed):
        assert_document_order(axioms_to_xml(random_ontology(random.Random(seed))))

    def test_cardinality_and_self_restrictions(self):
        a, b, p = f"{PAPERS}#A", f"{PAPERS}#B", f"{PAPERS}#p"
        ont = Ontology(iri=PAPERS, abox=frozenset(), tbox=frozenset({
            SubClassOf(Named(a), MaxCard(2, p, Thing())),
            SubClassOf(Named(a), MaxCard(0, p, Named(b))),
            SubClassOf(Named(b), ExistsSelf(p)),
        }))
        doc = axioms_to_xml(ont)
        assert_document_order(doc)
        assert load_ontology(parse_rdfxml(serialize_xml(doc))).tbox == ont.tbox

    def test_entities(self):
        for node in entities_to_xml([sn("message1"), sn("event1")], QName(None, "instance")):
            assert_document_order(node)


# -- the renderer's child order and node economy ------------------------------------

def entities_of(ont: Ontology) -> list[str]:
    return sorted(ont.named_classes() | ont.object_properties | ont.data_properties
                  | ont.all_individuals()
                  | {r for a in ont.tbox for r in axiom_subjects(a)})


def rendering_cases(source: str) -> list[tuple[Ontology, str | None]]:
    """(ontology, subject) pairs: a fixture whole and per entity, or
    random or generated ontologies whole and per a few entities."""
    if source.endswith(".owl"):
        ont = load_ontology(parse_rdfxml((FIXTURES / source).read_text()))
        return [(ont, None)] + [(ont, s) for s in entities_of(ont)]
    cases = []
    for seed in range(50):
        rng = random.Random(seed)
        ont = random_ontology(rng) if source == "random" else generated_ontology(rng)
        subjects = entities_of(ont)
        cases += [(ont, None)] + [(ont, s) for s in rng.sample(subjects, min(3, len(subjects)))]
    return cases


RENDERING_SOURCES = ["socialnetwork.owl", "ontology_papers.owl", "random", "generated"]

# each entity tag's child names in rank order, written out apart from owl's table
CHILD_RANKS = {
    "Class": [(RDFS_NS, "subClassOf"), (OWL_NS, "equivalentClass"), (OWL_NS, "disjointWith")],
    "ObjectProperty": [(RDF_NS, "type"), (RDFS_NS, "subPropertyOf"), (OWL_NS, "inverseOf"),
                       (OWL_NS, "propertyDisjointWith"), (OWL_NS, "propertyChainAxiom"),
                       (RDFS_NS, "domain"), (RDFS_NS, "range")],
    "DatatypeProperty": [(RDFS_NS, "domain"), (RDFS_NS, "range")],
}


def child_rank(entity: XmlNode, child: XmlNode) -> int:
    name = (child.name.namespace, child.name.local)
    if entity.name.local != "NamedIndividual":
        return CHILD_RANKS[entity.name.local].index(name)
    if name == (RDF_NS, "type"):
        return 0
    return 1 if get_attribute(child, rdfq("resource")) is not None else 2


class TestRenderedChildOrder:
    @pytest.mark.parametrize("source", RENDERING_SOURCES)
    def test_children_in_rank_then_canonical_order(self, source):
        for ont, subject in rendering_cases(source):
            root = child_elements(axioms_to_xml(ont, subject=subject))[0]
            for entity in child_elements(root):
                if get_attribute(entity, rdfq("about")) is None \
                        or entity.name == owlq("Ontology"):
                    continue  # the node of a general class inclusion, or the header
                keys = [(child_rank(entity, c), canonical_key(c), string_value(c))
                        for c in entity.children]
                assert keys == sorted(keys), (subject, serialize_xml(entity))

    @pytest.mark.parametrize("source", RENDERING_SOURCES)
    def test_each_node_is_created_once(self, source):
        for ont, subject in rendering_cases(source):
            before = XmlNode("text").node_id
            doc = axioms_to_xml(ont, subject=subject)
            created = XmlNode("text").node_id - before - 1
            assert created == len(preorder_ids(doc)), subject

    def test_language_tags_round_trip(self):
        a, label = "urn:ex#a", "urn:ex#label"
        ont = Ontology(iri="", tbox=frozenset(), abox=frozenset({
            DataAssertion(a, label, Literal("hi", language="en")),
            DataAssertion(a, label, Literal("hi", language="fr"))}),
            data_properties=frozenset({label}), individuals=frozenset({a}))
        markup = serialize_xml(axioms_to_xml(ont))
        assert load_ontology(parse_rdfxml(markup)).abox == ont.abox

    @pytest.mark.parametrize("subject", [None, "urn:ex:a"])
    def test_property_is_split_before_its_xml_name_tail(self, subject):
        """urn:ex:1p, which the loader reads from xmlns:ex="urn:ex:1" and
        ex:p, has no XML name after its last ':'."""
        ont = Ontology(iri="", tbox=frozenset(), abox=frozenset({
            RoleAssertion("urn:ex:a", "urn:ex:1p", "urn:ex:b"),
            DataAssertion("urn:ex:a", "urn:ex:1p", Literal("v"))}),
            individuals=frozenset({"urn:ex:a", "urn:ex:b"}))
        markup = serialize_xml(axioms_to_xml(ont, subject=subject))
        assert 'xmlns:ns1="urn:ex:1"' in markup and "<ns1:p " in markup
        assert load_ontology(parse_rdfxml(markup)).abox == ont.abox

    @pytest.mark.parametrize("subject", [None, "urn:ex:a"])
    @pytest.mark.parametrize("prop", ["http://ex.org/p?x=1", "urn"])
    def test_assertion_over_a_property_with_no_xml_name_is_reported(self, prop, subject):
        """RDF/XML cannot name the property element, so nothing is dropped
        in silence."""
        for assertion in (RoleAssertion("urn:ex:a", prop, "urn:ex:b"),
                          DataAssertion("urn:ex:a", prop, Literal("v"))):
            ont = Ontology(iri="", tbox=frozenset(), abox=frozenset({assertion}),
                           individuals=frozenset({"urn:ex:a", "urn:ex:b"}))
            with pytest.raises(UnsupportedFeatureError, match=re.escape(prop)):
                axioms_to_xml(ont, subject=subject)

    @pytest.mark.parametrize("seed", range(200))
    def test_random_ontology_round_trip(self, seed):
        """Its roles are urn:ex:* IRIs, split at the last ':'."""
        ont = random_ontology(random.Random(seed))
        back = load_ontology(parse_rdfxml(serialize_xml(axioms_to_xml(ont))))
        assert (back.tbox, back.abox) == (ont.tbox, ont.abox)


def reloaded(ont: Ontology, subject: str | None = None) -> Ontology:
    return load_ontology(parse_rdfxml(serialize_xml(axioms_to_xml(ont, subject=subject))))


def check_load_render_load(ont: Ontology) -> None:
    """Whole, and per entity: an entity's render loads back to the axioms
    axiom_subjects anchors on it and the assertions about it."""
    back = reloaded(ont)
    assert (back.tbox, back.abox) == (ont.tbox, ont.abox)
    for entity in entities_of(ont):
        back = reloaded(ont, entity)
        assert back.tbox == {a for a in ont.tbox if entity in axiom_subjects(a)}, entity
        assert back.abox == {a for a in ont.abox
                             if assertion_subject(a) == entity}, entity


class TestLoadRenderLoad:
    @pytest.mark.parametrize("source", ["socialnetwork.owl", "ontology_papers.owl",
                                        *range(200)])
    def test_every_loadable_ontology_round_trips(self, source):
        markup = (FIXTURES / source).read_text() if isinstance(source, str) \
            else rdfxml_ontology(random.Random(source))
        check_load_render_load(load_ontology(parse_rdfxml(markup)))

    @pytest.mark.parametrize("seed", range(200))
    def test_every_generated_ontology_round_trips(self, seed):
        """Built from the model, not read: every value it can hold renders."""
        check_load_render_load(generated_ontology(random.Random(seed)))

    def test_inverse_of_itself_is_the_symmetric_marker(self):
        ont = load_ontology(parse_rdfxml("""
            <rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
                     xmlns:owl="http://www.w3.org/2002/07/owl#">
              <owl:ObjectProperty rdf:about="urn:ex:p">
                <owl:inverseOf rdf:resource="urn:ex:p"/>
              </owl:ObjectProperty>
            </rdf:RDF>"""))
        assert ont.tbox == {symmetric_axiom("urn:ex:p")}
        markup = serialize_xml(axioms_to_xml(ont))
        assert f'<rdf:type rdf:resource="{OWL_NS}SymmetricProperty"/>' in markup
        assert "inverseOf" not in markup
