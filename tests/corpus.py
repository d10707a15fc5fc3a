"""Seeded ontology generators shared by the test modules.

Each builder takes a `random.Random` and draws from it alone, so a seed
names one input for good: tests that pin expected values by seed keep
them as long as a builder draws the same numbers.
"""

from __future__ import annotations

import random

from xqowl.owl import (
    And, ClassAssertion, DataAssertion, DataDomain, DataRange, DisjointClasses,
    DisjointRoles, Domain, EquivalentClasses, Exists, ExistsSelf, InverseRoles,
    MaxCard, Named, Nothing, Ontology, Range, RoleAssertion, RoleChain,
    SubClassOf, SubRoleOf, Thing, functional_axiom, irreflexive_axiom, symmetric_axiom,
)
from xqowl.rdf import XSD_NS, Iri, Literal, RdfGraph, Triple, parse_rdfxml, term_key

OWL_NS = "http://www.w3.org/2002/07/owl#"


def ex(name: str) -> str:
    return "urn:ex:" + name


def ont_of(tbox=(), abox=()) -> Ontology:
    return Ontology(iri="", tbox=frozenset(tbox), abox=frozenset(abox))


INDIVIDUALS = tuple(ex(f"i{k}") for k in range(6))
CLASS_NAMES = tuple(ex(f"C{k}") for k in range(4))


def random_ontology(rng: random.Random) -> Ontology:
    """Small ontology exercising every rule family, sized for brute force."""
    sym, p, q, r, t = (ex(n) for n in ("sym", "p", "q", "r", "t"))
    tbox = {
        SubClassOf(Named(CLASS_NAMES[0]), Named(CLASS_NAMES[1])),
        SubClassOf(Named(CLASS_NAMES[1]), Named(CLASS_NAMES[2])),
        EquivalentClasses(Named(CLASS_NAMES[3]),
                          And((Named(CLASS_NAMES[2]),
                               Exists(p, Named(CLASS_NAMES[1]))))),
        symmetric_axiom(sym),
        InverseRoles(p, q),
        RoleChain(r, r, t),
        SubRoleOf(r, p),
        Domain(p, Named(CLASS_NAMES[0])),
        Range(p, Named(CLASS_NAMES[2])),
    }
    abox = set()
    for _ in range(rng.randint(2, 8)):
        abox.add(RoleAssertion(rng.choice(INDIVIDUALS),
                               rng.choice((sym, p, q, r)),
                               rng.choice(INDIVIDUALS)))
    for _ in range(rng.randint(1, 4)):
        abox.add(ClassAssertion(rng.choice(INDIVIDUALS),
                                Named(rng.choice(CLASS_NAMES))))
    return ont_of(tbox, abox)


FOREIGN = ("http://ex.org/a#", "http://ex.org/b/")
LEXICALS = ("", " ", "  ", "x", " x", "x ", " x ", "\n", "\tq\n", "10", "2", "a b")


def generated_ontology(rng: random.Random) -> Ontology:
    """Nested intersections and restrictions (self, max-cardinality 0-12,
    Thing/Nothing fillers), typed and untyped literals with leading,
    trailing or only whitespace or none at all, over two foreign namespaces.
    It is built from the model directly, not read from RDF/XML."""
    classes = [rng.choice(FOREIGN) + f"C{k}" for k in range(5)]
    roles = [rng.choice(FOREIGN) + f"r{k}" for k in range(4)]
    props = [rng.choice(FOREIGN) + f"d{k}" for k in range(3)]
    individuals = [rng.choice(FOREIGN) + f"i{k}" for k in range(5)]

    def role():
        rng.random()  # still drawn, so that each seed keeps its ontology
        return rng.choice(roles)

    def expr(depth=0):
        k = rng.random()
        if depth > 2 or k < 0.35:
            return rng.choice((Thing(), Nothing(), *map(Named, classes)))
        if k < 0.5:
            return And(tuple(expr(depth + 1) for _ in range(rng.randint(2, 3))))
        if k < 0.65:
            return Exists(role(), expr(depth + 1))
        if k < 0.72:
            return ExistsSelf(role())
        if k < 0.95:
            filler = Thing() if rng.random() < 0.4 else expr(depth + 1)
            return MaxCard(rng.randint(0, 12), role(), filler)
        return Exists(role(), expr(depth + 1))

    def anchor():
        return Named(rng.choice(classes)) if rng.random() < 0.8 else expr()

    makers = (
        lambda: SubClassOf(anchor(), expr()),
        lambda: EquivalentClasses(anchor(), expr()),
        lambda: DisjointClasses(anchor(), expr()),
        lambda: SubRoleOf(role(), role()),
        lambda: RoleChain(role(), role(), role()),
        lambda: InverseRoles(rng.choice(roles), rng.choice(roles)),
        lambda: DisjointRoles(rng.choice(roles), rng.choice(roles)),
        lambda: Domain(role(), expr()),
        lambda: Range(role(), expr()),
        lambda: DataDomain(rng.choice(props), expr()),
        lambda: DataRange(rng.choice(props), XSD_NS + rng.choice(("string", "int"))),
        lambda: symmetric_axiom(rng.choice(roles)),
        lambda: functional_axiom(rng.choice(roles)),
        lambda: irreflexive_axiom(rng.choice(roles)),
        lambda: ClassAssertion(rng.choice(individuals), anchor()),
        lambda: RoleAssertion(rng.choice(individuals), rng.choice(roles),
                              rng.choice(individuals)),
        lambda: DataAssertion(rng.choice(individuals), rng.choice(props), Literal(
            rng.choice(LEXICALS), rng.choice((None, XSD_NS + "string", XSD_NS + "int")))),
    )
    made = [rng.choice(makers)() for _ in range(rng.randint(0, 28))]
    assertions = (ClassAssertion, RoleAssertion, DataAssertion)
    some = lambda iris: frozenset(i for i in iris if rng.random() < 0.3)
    return Ontology(iri=rng.choice(("", "http://ex.org/onto")),
                    tbox=frozenset(a for a in made if not isinstance(a, assertions)),
                    abox=frozenset(a for a in made if isinstance(a, assertions)),
                    classes=some(classes), object_properties=some(roles),
                    data_properties=some(props), individuals=some(individuals))


# the second namespace ends in a digit, so its names end in an XML name
# only after the namespace, not after its last ':'
RDFXML_NAMESPACES = {"http://ex.org/a#": "a", "urn:ex:1": "b"}
RDFXML_LITERALS = (('', "x"), ('', "a b"), ('', "10"), ('', "a&lt;b"),
                   (' xml:lang="en"', "hi"), (' xml:lang="fr"', "hi"),
                   (' rdf:datatype="http://www.w3.org/2001/XMLSchema#string"', "x"),
                   (' rdf:datatype="http://www.w3.org/2001/XMLSchema#int"', "10"))


def rdfxml_ontology(rng: random.Random) -> str:
    """RDF/XML text of an ontology inside the loadable fragment.

    Nested existential, intersection, self and max-cardinality restrictions;
    class axioms whose subject is a class name, owl:Thing or an anonymous
    expression (general class inclusions); sub-, inverse and disjoint
    properties, two-link chains, role markers, object and data domains and
    ranges; class, role and data assertions with plain, language-tagged and
    typed literals; over two namespaces."""
    names = list(RDFXML_NAMESPACES)
    classes = [rng.choice(names) + f"C{k}" for k in range(4)]
    roles = [rng.choice(names) + f"r{k}" for k in range(3)]
    props = [rng.choice(names) + f"d{k}" for k in range(2)]
    individuals = [rng.choice(names) + f"i{k}" for k in range(4)]
    anchors = classes + [OWL_NS + "Thing", OWL_NS + "Nothing"]

    def element(tag: str, attrs: str = "", content: str = "") -> str:
        return f"<{tag}{attrs}>{content}</{tag}>"

    def about(iri: str) -> str:
        return f' rdf:about="{iri}"'

    def resource(iri: str) -> str:
        return f' rdf:resource="{iri}"'

    def complex_node(depth: int) -> tuple[str, str]:
        """(tag, content) of an anonymous class expression node."""
        on_property = element("owl:onProperty", resource(rng.choice(roles)))
        k = rng.random()
        if k < 0.3:
            members = "".join(node(depth + 1) for _ in range(rng.randint(2, 3)))
            return "owl:Class", element("owl:intersectionOf",
                                        ' rdf:parseType="Collection"', members)
        if k < 0.65:
            return "owl:Restriction", on_property + value("owl:someValuesFrom", depth + 1)
        if k < 0.8:
            return "owl:Restriction", on_property + element(
                "owl:hasSelf", ' rdf:datatype="http://www.w3.org/2001/XMLSchema#boolean"',
                "true")
        bound = element("owl:maxQualifiedCardinality",
                        ' rdf:datatype="http://www.w3.org/2001/XMLSchema#nonNegativeInteger"',
                        str(rng.randint(0, 3)))
        if rng.random() < 0.3:
            return "owl:Restriction", on_property + bound.replace("QualifiedC", "C")
        return "owl:Restriction", on_property + bound + value("owl:onClass", depth + 1)

    def node(depth: int = 0) -> str:
        if depth > 2 or rng.random() < 0.45:
            return element("owl:Class", about(rng.choice(anchors)))
        tag, content = complex_node(depth)
        return element(tag, "", content)

    def value(predicate: str, depth: int = 0) -> str:
        """A property element whose object is a class expression."""
        if depth > 2 or rng.random() < 0.45:
            return element(predicate, resource(rng.choice(anchors)))
        return element(predicate, "", node(depth))

    def class_axiom() -> str:
        child = value(rng.choice(("rdfs:subClassOf", "owl:equivalentClass",
                                  "owl:disjointWith")))
        k = rng.random()
        if k < 0.6:
            return element("owl:Class", about(rng.choice(classes)), child)
        if k < 0.7:
            return element("owl:Class", about(OWL_NS + "Thing"), child)
        tag, content = complex_node(0)
        return element(tag, "", content + child)

    def role_axiom() -> str:
        k = rng.random()
        if k < 0.15:
            child = element(rng.choice(("rdfs:subPropertyOf", "owl:inverseOf",
                                        "owl:propertyDisjointWith")),
                            resource(rng.choice(roles)))
        elif k < 0.3:
            links = "".join(element("owl:ObjectProperty", about(rng.choice(roles)))
                            for _ in range(2))
            child = element("owl:propertyChainAxiom", ' rdf:parseType="Collection"', links)
        elif k < 0.5:
            marker = rng.choice(("Symmetric", "Functional", "Irreflexive"))
            child = element("rdf:type", resource(f"{OWL_NS}{marker}Property"))
        else:
            child = value(rng.choice(("rdfs:domain", "rdfs:range")))
        return element("owl:ObjectProperty", about(rng.choice(roles)), child)

    def data_axiom() -> str:
        if rng.random() < 0.5:
            child = value("rdfs:domain")
        else:
            child = element("rdfs:range", resource(
                "http://www.w3.org/2001/XMLSchema#" + rng.choice(("string", "int"))))
        return element("owl:DatatypeProperty", about(rng.choice(props)), child)

    def qualified(iri: str) -> str:
        namespace = next(n for n in names if iri.startswith(n))
        return RDFXML_NAMESPACES[namespace] + ":" + iri[len(namespace):]

    def assertion() -> str:
        k = rng.random()
        if k < 0.35:
            child = value("rdf:type")
        elif k < 0.7:
            child = element(qualified(rng.choice(roles)), resource(rng.choice(individuals)))
        else:
            child = element(qualified(rng.choice(props)), *rng.choice(RDFXML_LITERALS))
        return element("owl:NamedIndividual", about(rng.choice(individuals)), child)

    makers = (class_axiom, class_axiom, role_axiom, data_axiom, assertion, assertion)
    body = [element("owl:ObjectProperty", about(r)) for r in roles]
    body += [element("owl:DatatypeProperty", about(d)) for d in props]
    body += [element("owl:NamedIndividual", about(i)) for i in individuals]
    body += [element("owl:Class", about(c)) for c in classes if rng.random() < 0.5]
    body += [rng.choice(makers)() for _ in range(rng.randint(1, 12))]
    xmlns = "".join(f' xmlns:{prefix}="{namespace}"'
                    for namespace, prefix in RDFXML_NAMESPACES.items())
    return (f'<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            f'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
            f'xmlns:owl="{OWL_NS}"{xmlns}>' + "".join(body) + "</rdf:RDF>")


def mutated_graph(rng: random.Random) -> RdfGraph:
    """The graph of an rdfxml_ontology after one to three triple-level
    mutations: a triple dropped, a triple's object replaced by a literal or
    by another term of the graph, or a triple added over the graph's terms."""
    graph = parse_rdfxml(rdfxml_ontology(rng))
    triples = sorted(graph, key=lambda t: tuple(map(term_key, t)))
    terms = sorted({term for t in triples for term in (t.subject, t.object)}
                   | {Literal("x"), Literal("1")}, key=term_key)
    iris = [term for term in terms if isinstance(term, Iri)]
    predicates = sorted({t.predicate for t in triples}, key=term_key)
    for _ in range(rng.randint(1, 3)):
        k = rng.random()
        if k < 0.35:
            triples.pop(rng.randrange(len(triples)))
        elif k < 0.7:
            subject, predicate, _ = triples.pop(rng.randrange(len(triples)))
            triples.append(Triple(subject, predicate, rng.choice(terms)))
        else:
            triples.append(Triple(rng.choice(iris), rng.choice(predicates), rng.choice(terms)))
    return RdfGraph(triples, base_iri=graph.base_iri)
