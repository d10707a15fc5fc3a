"""Ontology model for the supported description-logic fragment.

Class and role expressions, TBox axioms and ABox assertions are frozen
dataclasses.  :func:`load_ontology` reads them out of an :class:`RdfGraph`
that uses the OWL RDF/XML vocabulary subset; :func:`axioms_to_xml` renders
them back as entity-grouped RDF/XML, and :func:`entities_to_xml` renders
a list of IRIs as one item element per IRI.

Three role characteristics are stored through fixed encodings rather than
dedicated axiom kinds:

* symmetric r        ->  SubRoleOf(Inverse(r), Role(r))
* functional r       ->  SubClassOf(Thing, MaxCard(1, r, Thing))
* irreflexive r      ->  SubClassOf(ExistsSelf(r), Nothing)

The loader produces these encodings from the owl:SymmetricProperty /
owl:FunctionalProperty / owl:IrreflexiveProperty type markers, and the
renderer recognizes them and emits the markers again.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import RdfParseError, UnsupportedFeatureError
from .rdf import RDF_NS, RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL, XSD_NS, \
    Iri, Literal, Term, RdfGraph, term_key
from .xmltree import XML_NS, QName, XmlNode, element, sub_element, text

OWL_NS = "http://www.w3.org/2002/07/owl#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

THING_IRI = OWL_NS + "Thing"
NOTHING_IRI = OWL_NS + "Nothing"


# -- class and role expressions ---------------------------------------------------

@dataclass(frozen=True)
class Thing:
    iri: ClassVar[str] = THING_IRI


@dataclass(frozen=True)
class Nothing:
    iri: ClassVar[str] = NOTHING_IRI


@dataclass(frozen=True)
class Named:
    iri: str


@dataclass(frozen=True)
class And:
    parts: tuple["ClassExpr", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("an intersection needs at least two parts")


@dataclass(frozen=True)
class Exists:
    role: "RoleExpr"
    filler: "ClassExpr"


@dataclass(frozen=True)
class ExistsSelf:
    role: "RoleExpr"


@dataclass(frozen=True)
class Forall:
    role: "RoleExpr"
    filler: "ClassExpr"


@dataclass(frozen=True)
class MaxCard:
    n: int
    role: "RoleExpr"
    filler: "ClassExpr"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality bound must be non-negative")


ClassExpr = Thing | Nothing | Named | And | Exists | ExistsSelf | Forall | MaxCard


@dataclass(frozen=True)
class Role:
    iri: str


@dataclass(frozen=True)
class Inverse:
    iri: str


RoleExpr = Role | Inverse


# -- axioms and assertions --------------------------------------------------------

@dataclass(frozen=True)
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class EquivalentClasses:
    left: ClassExpr
    right: ClassExpr


@dataclass(frozen=True)
class DisjointClasses:
    left: ClassExpr
    right: ClassExpr


@dataclass(frozen=True)
class SubRoleOf:
    sub: RoleExpr
    sup: RoleExpr


@dataclass(frozen=True)
class RoleChain:
    first: RoleExpr
    second: RoleExpr
    implied: RoleExpr


@dataclass(frozen=True)
class InverseRoles:
    left: str
    right: str


@dataclass(frozen=True)
class DisjointRoles:
    left: str
    right: str


@dataclass(frozen=True)
class Domain:
    role: RoleExpr
    cls: ClassExpr


@dataclass(frozen=True)
class Range:
    role: RoleExpr
    cls: ClassExpr


@dataclass(frozen=True)
class DataDomain:
    prop: str
    cls: ClassExpr


@dataclass(frozen=True)
class DataRange:
    prop: str
    datatype: str


Axiom = SubClassOf | EquivalentClasses | DisjointClasses | SubRoleOf | RoleChain \
    | InverseRoles | DisjointRoles | Domain | Range | DataDomain | DataRange


@dataclass(frozen=True)
class ClassAssertion:
    individual: str
    cls: ClassExpr


@dataclass(frozen=True)
class RoleAssertion:
    subject: str
    role: str
    object: str


@dataclass(frozen=True)
class DataAssertion:
    subject: str
    prop: str
    value: Literal


Assertion = ClassAssertion | RoleAssertion | DataAssertion


def symmetric_axiom(role_iri: str) -> SubRoleOf:
    return SubRoleOf(Inverse(role_iri), Role(role_iri))


def functional_axiom(role_iri: str) -> SubClassOf:
    return SubClassOf(Thing(), MaxCard(1, Role(role_iri), Thing()))


def irreflexive_axiom(role_iri: str) -> SubClassOf:
    return SubClassOf(ExistsSelf(Role(role_iri)), Nothing())


# owl type marker of a role characteristic -> the axiom that encodes it
_ROLE_MARKERS = (("SymmetricProperty", symmetric_axiom),
                 ("IrreflexiveProperty", irreflexive_axiom),
                 ("FunctionalProperty", functional_axiom))


def named_classes_in(expr: ClassExpr) -> set[str]:
    """All class IRIs mentioned inside an expression (Thing/Nothing excluded)."""
    if isinstance(expr, Named):
        return {expr.iri}
    if isinstance(expr, And):
        out: set[str] = set()
        for part in expr.parts:
            out |= named_classes_in(part)
        return out
    if isinstance(expr, (Exists, Forall, MaxCard)):
        return named_classes_in(expr.filler)
    return set()


def roles_in(expr: ClassExpr) -> set[str]:
    """All role IRIs mentioned inside an expression."""
    if isinstance(expr, And):
        out: set[str] = set()
        for part in expr.parts:
            out |= roles_in(part)
        return out
    if isinstance(expr, (Exists, Forall, MaxCard)):
        return {expr.role.iri} | roles_in(expr.filler)
    if isinstance(expr, ExistsSelf):
        return {expr.role.iri}
    return set()


@dataclass(frozen=True)
class Ontology:
    iri: str
    tbox: frozenset[Axiom]
    abox: frozenset[Assertion]
    classes: frozenset[str] = field(default_factory=frozenset)
    object_properties: frozenset[str] = field(default_factory=frozenset)
    data_properties: frozenset[str] = field(default_factory=frozenset)
    individuals: frozenset[str] = field(default_factory=frozenset)

    def named_classes(self) -> frozenset[str]:
        """Declared classes plus every class IRI used in an axiom or assertion."""
        out = set(self.classes)
        for axiom in self.tbox:
            for expr in _class_exprs_of(axiom):
                out |= named_classes_in(expr)
        for assertion in self.abox:
            if isinstance(assertion, ClassAssertion):
                out |= named_classes_in(assertion.cls)
        return frozenset(out)

    def all_individuals(self) -> frozenset[str]:
        out = set(self.individuals)
        for assertion in self.abox:
            if isinstance(assertion, ClassAssertion):
                out.add(assertion.individual)
            elif isinstance(assertion, RoleAssertion):
                out.add(assertion.subject)
                out.add(assertion.object)
            else:
                out.add(assertion.subject)
        return frozenset(out)


def _class_exprs_of(axiom: Axiom) -> tuple[ClassExpr, ...]:
    if isinstance(axiom, SubClassOf):
        return (axiom.sub, axiom.sup)
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return (axiom.left, axiom.right)
    if isinstance(axiom, (Domain, Range, DataDomain)):
        return (axiom.cls,)
    return ()


# -- loading from an RDF graph ----------------------------------------------------

_CLASS_KINDS = {"Class", "Restriction", "Thing", "Nothing"}
_MARKER_KINDS = {kind for kind, _ in _ROLE_MARKERS}
_DECL_KINDS = {"ObjectProperty", "DatatypeProperty", "NamedIndividual", "Ontology"}
_OWL_PREDICATES = {
    "equivalentClass", "disjointWith", "inverseOf", "propertyChainAxiom",
    "propertyDisjointWith", "intersectionOf", "someValuesFrom", "hasSelf",
    "onProperty", "onClass", "maxQualifiedCardinality", "maxCardinality",
}
_RDFS_PREDICATES = {"subClassOf", "subPropertyOf", "domain", "range"}


class _OntologyLoader:
    def __init__(self, graph: RdfGraph):
        self.graph = graph
        typed = lambda kind: {t.subject.value for t in graph.match(
            None, Iri(RDF_TYPE), Iri(OWL_NS + kind))}
        self.object_properties = typed("ObjectProperty")
        self.data_properties = typed("DatatypeProperty")
        self.individuals = typed("NamedIndividual")
        # anonymous scaffolding (intersection wrappers) is not a declared class
        structural = {t.subject.value
                      for t in graph.match(None, Iri(OWL_NS + "intersectionOf"))}
        self.classes = typed("Class") - structural
        # one load reads a fixed graph, so each term's expression is read once
        self._class_exprs: dict[Term, ClassExpr] = {}

    def check_vocabulary(self) -> None:
        # in term order, so the construct reported does not depend on hashing
        for predicate in sorted({t.predicate.value for t in self.graph}):
            self._check_predicate(predicate)
        for kind in sorted({t.object.value for t in self.graph
                            if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri)}):
            self._check_type_object(kind)

    def _check_predicate(self, iri: str) -> None:
        if iri.startswith(OWL_NS):
            local = iri[len(OWL_NS):]
            if local == "allValuesFrom":
                raise UnsupportedFeatureError(
                    "owl:allValuesFrom (universal restrictions) is not supported; "
                    "express the constraint with rdfs:domain/rdfs:range")
            if local not in _OWL_PREDICATES:
                raise UnsupportedFeatureError(f"owl:{local} is not supported")
        elif iri.startswith(RDFS_NS):
            local = iri[len(RDFS_NS):]
            if local not in _RDFS_PREDICATES:
                raise UnsupportedFeatureError(f"rdfs:{local} is not supported")
        elif iri.startswith(RDF_NS):
            local = iri[len(RDF_NS):]
            if local not in {"type", "first", "rest"}:
                raise UnsupportedFeatureError(f"rdf:{local} is not supported")

    def _check_type_object(self, iri: str) -> None:
        if iri.startswith(OWL_NS):
            local = iri[len(OWL_NS):]
            if local not in _CLASS_KINDS | _MARKER_KINDS | _DECL_KINDS:
                raise UnsupportedFeatureError(f"owl:{local} is not supported")
        elif iri.startswith(RDFS_NS) or iri == RDF_NIL:
            raise UnsupportedFeatureError(f"rdf:type {iri} is not supported")

    def objects(self, subject: str, predicate: str) -> list[Term]:
        return self.graph.objects(Iri(subject), Iri(predicate))

    def pairs(self, predicate: str) -> list[tuple[Iri, Term]]:
        # sorted: the first error raised depends on the reading order
        return sorted(((t.subject, t.object)
                       for t in self.graph.match(None, Iri(predicate), None)),
                      key=lambda pair: (term_key(pair[0]), term_key(pair[1])))

    def read_list(self, head: Term) -> list[Term]:
        members: list[Term] = []
        while not (isinstance(head, Iri) and head.value == RDF_NIL):
            if not isinstance(head, Iri):
                raise RdfParseError("malformed RDF list")
            firsts = self.objects(head.value, RDF_FIRST)
            rests = self.objects(head.value, RDF_REST)
            if len(firsts) != 1 or len(rests) != 1:
                raise RdfParseError("malformed RDF list cell")
            members.append(firsts[0])
            head = rests[0]
        return members

    def role(self, term: Term, where: str) -> Role:
        if not isinstance(term, Iri):
            raise RdfParseError(f"{where} must name a property")
        return Role(term.value)

    def class_expr(self, term: Term) -> ClassExpr:
        expr = self._class_exprs.get(term)
        if expr is None:
            expr = self._class_exprs[term] = self._read_class_expr(term)
        return expr

    def _read_class_expr(self, term: Term) -> ClassExpr:
        if not isinstance(term, Iri):
            raise RdfParseError("a literal cannot appear in class position")
        iri = term.value
        if iri == THING_IRI:
            return Thing()
        if iri == NOTHING_IRI:
            return Nothing()
        members = self.objects(iri, OWL_NS + "intersectionOf")
        if members:
            parts = tuple(self.class_expr(m) for m in self.read_list(members[0]))
            if len(parts) < 2:
                raise RdfParseError("owl:intersectionOf needs at least two members")
            return And(parts)
        on_property = self.objects(iri, OWL_NS + "onProperty")
        if on_property:
            role = self.role(on_property[0], "owl:onProperty")
            some = self.objects(iri, OWL_NS + "someValuesFrom")
            if some:
                return Exists(role, self.class_expr(some[0]))
            has_self = self.objects(iri, OWL_NS + "hasSelf")
            if has_self:
                return ExistsSelf(role)
            qualified = self.objects(iri, OWL_NS + "maxQualifiedCardinality")
            if qualified:
                on_class = self.objects(iri, OWL_NS + "onClass")
                if not on_class:
                    raise RdfParseError("owl:maxQualifiedCardinality needs owl:onClass")
                return MaxCard(self._bound(qualified[0]), role,
                               self.class_expr(on_class[0]))
            plain = self.objects(iri, OWL_NS + "maxCardinality")
            if plain:
                return MaxCard(self._bound(plain[0]), role, Thing())
            raise RdfParseError("restriction without a recognized constraint")
        return Named(iri)

    def _bound(self, term: Term) -> int:
        if not isinstance(term, Literal) or not term.lexical.isdigit():
            raise RdfParseError("cardinality bound must be a non-negative integer")
        return int(term.lexical)

    def load_tbox(self) -> list[Axiom]:
        axioms: list[Axiom] = []
        for s, o in self.pairs(RDFS_NS + "subClassOf"):
            axioms.append(SubClassOf(self.class_expr(s), self.class_expr(o)))
        for s, o in self.pairs(OWL_NS + "equivalentClass"):
            axioms.append(EquivalentClasses(self.class_expr(s), self.class_expr(o)))
        for s, o in self.pairs(OWL_NS + "disjointWith"):
            axioms.append(DisjointClasses(self.class_expr(s), self.class_expr(o)))
        for s, o in self.pairs(RDFS_NS + "subPropertyOf"):
            if s.value in self.data_properties:
                raise UnsupportedFeatureError(
                    "rdfs:subPropertyOf between datatype properties is not supported")
            axioms.append(SubRoleOf(Role(s.value), self.role(o, "rdfs:subPropertyOf")))
        for s, o in self.pairs(RDFS_NS + "domain"):
            if s.value in self.data_properties:
                axioms.append(DataDomain(s.value, self.class_expr(o)))
            elif s.value in self.object_properties:
                axioms.append(Domain(Role(s.value), self.class_expr(o)))
            else:
                raise RdfParseError(f"rdfs:domain on undeclared property {s.value}")
        for s, o in self.pairs(RDFS_NS + "range"):
            if s.value in self.data_properties:
                if not isinstance(o, Iri):
                    raise RdfParseError("a datatype property range must be an IRI")
                axioms.append(DataRange(s.value, o.value))
            elif s.value in self.object_properties:
                axioms.append(Range(Role(s.value), self.class_expr(o)))
            else:
                raise RdfParseError(f"rdfs:range on undeclared property {s.value}")
        for s, o in self.pairs(OWL_NS + "inverseOf"):
            axioms.append(InverseRoles(s.value, self.role(o, "owl:inverseOf").iri))
        for s, o in self.pairs(OWL_NS + "propertyDisjointWith"):
            axioms.append(DisjointRoles(s.value,
                                        self.role(o, "owl:propertyDisjointWith").iri))
        for s, o in self.pairs(OWL_NS + "propertyChainAxiom"):
            links = self.read_list(o)
            if len(links) != 2:
                raise UnsupportedFeatureError(
                    "only property chains of exactly two links are supported")
            axioms.append(RoleChain(self.role(links[0], "a chain link"),
                                    self.role(links[1], "a chain link"),
                                    Role(s.value)))
        for kind, encode in _ROLE_MARKERS:
            for subject in self.graph.subjects(Iri(RDF_TYPE), Iri(OWL_NS + kind)):
                if subject.value in self.data_properties:
                    raise UnsupportedFeatureError(
                        f"owl:{kind} on a datatype property is not supported")
                axioms.append(encode(subject.value))
        return axioms

    def load_abox(self) -> list[Assertion]:
        assertions: list[Assertion] = []
        for ind in sorted(self.individuals):
            for triple in sorted(self.graph.match(Iri(ind), None, None),
                                 key=lambda t: (term_key(t.predicate), term_key(t.object))):
                predicate = triple.predicate.value
                obj = triple.object
                if predicate == RDF_TYPE:
                    assert isinstance(obj, Iri)
                    if obj.value == OWL_NS + "NamedIndividual":
                        continue
                    assertions.append(ClassAssertion(ind, self.class_expr(obj)))
                elif predicate in self.data_properties:
                    if not isinstance(obj, Literal):
                        raise RdfParseError(
                            f"datatype property {predicate} expects a literal value")
                    assertions.append(DataAssertion(ind, predicate, obj))
                elif predicate in self.object_properties:
                    if not isinstance(obj, Iri):
                        raise RdfParseError(
                            f"object property {predicate} expects an IRI value")
                    assertions.append(RoleAssertion(ind, predicate, obj.value))
                elif isinstance(obj, Iri):
                    assertions.append(RoleAssertion(ind, predicate, obj.value))
                else:
                    assertions.append(DataAssertion(ind, predicate, obj))
        return assertions

    def load(self) -> Ontology:
        self.check_vocabulary()
        marked = self.graph.subjects(Iri(RDF_TYPE), Iri(OWL_NS + "Ontology"))
        iri = marked[0].value if marked else self.graph.base_iri
        return Ontology(iri=iri,
                        tbox=frozenset(self.load_tbox()),
                        abox=frozenset(self.load_abox()),
                        classes=frozenset(self.classes),
                        object_properties=frozenset(self.object_properties),
                        data_properties=frozenset(self.data_properties),
                        individuals=frozenset(self.individuals))


def load_ontology(graph: RdfGraph) -> Ontology:
    """Read the OWL vocabulary subset out of an RDF graph.

    Constructs outside the subset raise UnsupportedFeatureError naming the
    construct; malformed uses of supported vocabulary raise RdfParseError.
    """
    return _OntologyLoader(graph).load()


# -- rendering back to RDF/XML -----------------------------------------------------

class _Unrenderable(Exception):
    """Axiom shape the entity-grouped renderer cannot express."""


_PREFIXES = {RDF_NS: "rdf", RDFS_NS: "rdfs", OWL_NS: "owl", XML_NS: "xml"}
_ABOUT, _RESOURCE, _DATATYPE = (RDF_NS, "about"), (RDF_NS, "resource"), (RDF_NS, "datatype")
_COLLECTION = (((RDF_NS, "parseType"), "Collection"),)


def _describe(name: tuple[str, str], attrs=(), parts: tuple = ()) -> tuple:
    """An element to render as (namespace, local, sorted attributes, parts),
    each attribute ((namespace, local), value) and each part a description or
    a _text; descriptions sort as canonical_key sorts what they describe."""
    return (*name, tuple(sorted(attrs)), parts)


def _text(value: str) -> tuple:
    # equal stripped texts keep the order of their raw values
    return ("text", value.strip(), value)


# axiom type -> (kind of the entity it renders under, rank among its children, name)
_PLACES = {
    SubClassOf: ("class", 0, (RDFS_NS, "subClassOf")),
    EquivalentClasses: ("class", 1, (OWL_NS, "equivalentClass")),
    DisjointClasses: ("class", 2, (OWL_NS, "disjointWith")),
    SubRoleOf: ("object", 1, (RDFS_NS, "subPropertyOf")),
    InverseRoles: ("object", 2, (OWL_NS, "inverseOf")),
    DisjointRoles: ("object", 3, (OWL_NS, "propertyDisjointWith")),
    RoleChain: ("object", 4, (OWL_NS, "propertyChainAxiom")),
    Domain: ("object", 5, (RDFS_NS, "domain")),
    Range: ("object", 6, (RDFS_NS, "range")),
    DataDomain: ("data", 0, (RDFS_NS, "domain")),
    DataRange: ("data", 1, (RDFS_NS, "range")),
}


def _marker_of(axiom: Axiom) -> tuple[str, str] | None:
    """(role IRI, type marker) when the axiom encodes a role characteristic."""
    if isinstance(axiom, SubRoleOf):
        roles = {axiom.sub.iri}
    elif isinstance(axiom, SubClassOf):
        roles = roles_in(axiom.sub) | roles_in(axiom.sup)
    else:
        return None
    for kind, encode in _ROLE_MARKERS:
        for role in roles:
            if encode(role) == axiom:
                return role, kind
    return None


def _named_role(role: RoleExpr) -> str:
    if not isinstance(role, Role):
        raise _Unrenderable
    return role.iri


def _named_class(expr: ClassExpr) -> str:
    if not isinstance(expr, Named):
        raise _Unrenderable
    return expr.iri


class _Renderer:
    def __init__(self):
        # (entity kind, iri) -> list of (rank, description)
        self.children: dict[tuple[str, str], list[tuple]] = defaultdict(list)
        self.mentioned: dict[str, set[str]] = defaultdict(set)  # kind -> iris
        self.foreign_prefixes: dict[str, str] = {}
        # (namespace, local) -> QName, with the prefix hint it is written under
        self.names: dict[tuple[str, str], QName] = {}

    def child(self, kind: str, iri: str, rank: int, description: tuple) -> None:
        self.children[kind, iri].append((rank, description))
        self.mentioned[kind].add(iri)

    def class_ref(self, name: tuple[str, str], expr: ClassExpr) -> tuple:
        """A property child pointing at a class: by reference or nested node."""
        self.mentioned["class"] |= named_classes_in(expr)
        self.mentioned["object"] |= roles_in(expr)
        if isinstance(expr, (Named, Thing, Nothing)):
            return _describe(name, [(_RESOURCE, expr.iri)])
        return _describe(name, parts=(self.class_node(expr),))

    def class_node(self, expr: ClassExpr) -> tuple:
        if isinstance(expr, (Named, Thing, Nothing)):
            return _describe((OWL_NS, "Class"), [(_ABOUT, expr.iri)])
        if isinstance(expr, And):
            members = _describe((OWL_NS, "intersectionOf"), _COLLECTION,
                                tuple(self.class_node(p) for p in expr.parts))
            return _describe((OWL_NS, "Class"), parts=(members,))
        if isinstance(expr, Exists):
            return _describe((OWL_NS, "Restriction"), parts=(
                self.on_property(expr.role),
                self.class_ref((OWL_NS, "someValuesFrom"), expr.filler)))
        if isinstance(expr, ExistsSelf):
            true = _describe((OWL_NS, "hasSelf"), [(_DATATYPE, XSD_NS + "boolean")],
                             (_text("true"),))
            return _describe((OWL_NS, "Restriction"),
                             parts=(self.on_property(expr.role), true))
        if isinstance(expr, MaxCard):
            qualified = not isinstance(expr.filler, Thing)
            constraint = (_describe(
                (OWL_NS, "maxQualifiedCardinality" if qualified else "maxCardinality"),
                [(_DATATYPE, XSD_NS + "nonNegativeInteger")], (_text(str(expr.n)),)),)
            if qualified:
                constraint += (self.class_ref((OWL_NS, "onClass"), expr.filler),)
            return _describe((OWL_NS, "Restriction"),
                             parts=(self.on_property(expr.role),) + constraint)
        raise _Unrenderable  # Forall has no rendering in the subset

    def on_property(self, role: RoleExpr) -> tuple:
        return self.role_ref((OWL_NS, "onProperty"), _named_role(role))

    def role_ref(self, name: tuple[str, str], iri: str) -> tuple:
        self.mentioned["object"].add(iri)
        return _describe(name, [(_RESOURCE, iri)])

    def add_axiom(self, axiom: Axiom) -> None:
        marker = _marker_of(axiom)
        if marker is not None:
            role_iri, kind = marker
            self.child("object", role_iri, 0,
                       _describe((RDF_NS, "type"), [(_RESOURCE, OWL_NS + kind)]))
            return
        kind, rank, name = _PLACES[type(axiom)]
        if isinstance(axiom, SubClassOf):
            anchor, content = _named_class(axiom.sub), self.class_ref(name, axiom.sup)
        elif isinstance(axiom, (EquivalentClasses, DisjointClasses)):
            anchor, content = _named_class(axiom.left), self.class_ref(name, axiom.right)
        elif isinstance(axiom, SubRoleOf):
            anchor = _named_role(axiom.sub)
            content = self.role_ref(name, _named_role(axiom.sup))
        elif isinstance(axiom, (InverseRoles, DisjointRoles)):
            anchor, content = axiom.left, self.role_ref(name, axiom.right)
        elif isinstance(axiom, RoleChain):
            links = [_named_role(axiom.first), _named_role(axiom.second)]
            self.mentioned["object"] |= set(links)
            anchor = _named_role(axiom.implied)
            content = _describe(name, _COLLECTION, tuple(
                _describe((OWL_NS, "ObjectProperty"), [(_ABOUT, link)]) for link in links))
        elif isinstance(axiom, (Domain, Range)):
            anchor, content = _named_role(axiom.role), self.class_ref(name, axiom.cls)
        elif isinstance(axiom, DataDomain):
            anchor, content = axiom.prop, self.class_ref(name, axiom.cls)
        else:
            anchor, content = axiom.prop, _describe(name, [(_RESOURCE, axiom.datatype)])
        self.child(kind, anchor, rank, content)

    def property_name(self, iri: str) -> tuple[str, str]:
        """(namespace, local) split at the IRI's last '#', '/' or ':'."""
        cut = max(iri.rfind("#"), iri.rfind("/"), iri.rfind(":"))
        name = iri[:cut + 1], iri[cut + 1:]
        try:
            if cut < 0:
                raise ValueError
            prefix = self.foreign_prefixes.setdefault(
                name[0], f"ns{len(self.foreign_prefixes) + 1}")
            self.names[name] = QName(*name, prefix)
        except ValueError:
            raise UnsupportedFeatureError(
                f"cannot render property {iri} as an RDF/XML element: it does "
                f"not end in an XML name after a '#', '/' or ':'") from None
        return name

    def add_assertion(self, assertion: Assertion) -> None:
        if isinstance(assertion, ClassAssertion):
            self.mentioned["individual"].add(assertion.individual)
            self.child("individual", assertion.individual, 0,
                       self.class_ref((RDF_NS, "type"), assertion.cls))
        elif isinstance(assertion, RoleAssertion):
            self.mentioned["individual"] |= {assertion.subject, assertion.object}
            self.child("individual", assertion.subject, 1, _describe(
                self.property_name(assertion.role), [(_RESOURCE, assertion.object)]))
        else:
            self.mentioned["individual"].add(assertion.subject)
            value = assertion.value
            attrs = [(_DATATYPE, value.datatype), ((XML_NS, "lang"), value.language)]
            self.child("individual", assertion.subject, 2, _describe(
                self.property_name(assertion.prop), [a for a in attrs if a[1] is not None],
                (_text(value.lexical),)))

    def build(self, parent: XmlNode, description: tuple) -> XmlNode:
        """Create the described element as parent's last child, then its content."""
        namespace, local, attrs, parts = description
        node = sub_element(parent, self.qname(namespace, local),
                           [(self.qname(*attr), value) for attr, value in attrs])
        for part in parts:
            if part[0] == "text":
                node.append(text(part[2]))
            else:
                self.build(node, part)
        return node

    def qname(self, namespace: str, local: str) -> QName:
        if (namespace, local) not in self.names:
            self.names[namespace, local] = QName(namespace, local, _PREFIXES[namespace])
        return self.names[namespace, local]

    def entity_elements(self, root: XmlNode, kind: str, tag: str,
                        declared: frozenset[str]) -> None:
        # every entity with a child is also mentioned
        for iri in sorted(self.mentioned[kind] | declared):
            entity = self.build(root, _describe((OWL_NS, tag), [(_ABOUT, iri)]))
            for _, description in sorted(self.children.get((kind, iri), ())):
                self.build(entity, description)


def axioms_to_xml(ont: Ontology, subject: str | None = None) -> XmlNode:
    """Render axioms as entity-grouped RDF/XML.

    With a subject IRI, only axioms anchored on that entity are rendered,
    plus bare declarations for every entity those axioms reference.  Axiom
    shapes the grouping cannot express (anonymous anchors, Forall) are
    skipped; the output covers exactly the renderable subset. A role or
    data assertion whose property IRI does not end in an XML name raises
    UnsupportedFeatureError, as RDF/XML has no element name for it.

    Entities come by kind, then IRI; an entity's children by their rank in
    _PLACES (for an individual: rdf:type, role, then data assertions), then
    as canonical_key orders them, equal stripped texts by their raw texts.
    """
    renderer = _Renderer()
    for axiom in ont.tbox:
        if subject is not None and subject not in axiom_subjects(axiom):
            continue
        try:
            renderer.add_axiom(axiom)
        except _Unrenderable:
            pass
    for assertion in sorted(ont.abox, key=_assertion_key):
        if subject is not None and subject != assertion_subject(assertion):
            continue
        try:
            renderer.add_assertion(assertion)
        except _Unrenderable:
            pass
    doc = XmlNode("document")
    root = renderer.build(doc, _describe((RDF_NS, "RDF")))
    if subject is None and ont.iri:
        renderer.build(root, _describe((OWL_NS, "Ontology"), [(_ABOUT, ont.iri)]))
    declared = (ont.classes, ont.object_properties, ont.data_properties,
                ont.individuals) if subject is None else (frozenset(),) * 4
    for kind, tag, names in zip(("class", "object", "data", "individual"),
                                ("Class", "ObjectProperty", "DatatypeProperty",
                                 "NamedIndividual"), declared):
        renderer.entity_elements(root, kind, tag, names)
    return doc


def axiom_subjects(axiom: Axiom) -> tuple[str, ...]:
    """Entity IRIs an axiom is attributed to when selecting by subject."""
    marker = _marker_of(axiom)
    if marker is not None:
        return (marker[0],)
    if isinstance(axiom, SubClassOf):
        return (axiom.sub.iri,) if isinstance(axiom.sub, Named) else ()
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return tuple(side.iri for side in (axiom.left, axiom.right)
                     if isinstance(side, Named))
    if isinstance(axiom, SubRoleOf):
        return (axiom.sub.iri,) if isinstance(axiom.sub, Role) else ()
    if isinstance(axiom, RoleChain):
        return (axiom.implied.iri,) if isinstance(axiom.implied, Role) else ()
    if isinstance(axiom, (InverseRoles, DisjointRoles)):
        return (axiom.left, axiom.right)
    if isinstance(axiom, (Domain, Range)):
        return (axiom.role.iri,) if isinstance(axiom.role, Role) else ()
    return (axiom.prop,)


def assertion_subject(assertion: Assertion) -> str:
    if isinstance(assertion, ClassAssertion):
        return assertion.individual
    return assertion.subject


def _assertion_key(assertion: Assertion) -> tuple:
    # deterministic ABox iteration so foreign-namespace prefixes come out stable
    if isinstance(assertion, ClassAssertion):
        return (0, assertion.individual, repr(assertion.cls))
    if isinstance(assertion, RoleAssertion):
        return (1, assertion.subject, assertion.role, assertion.object)
    return (2, assertion.subject, assertion.prop, assertion.value.lexical)


def entities_to_xml(iris: list[str], item: QName) -> list[XmlNode]:
    """One item element per IRI, whose text is the full IRI."""
    items = []
    for iri in iris:
        node = element(item)
        node.append(text(iri))
        items.append(node)
    return items
