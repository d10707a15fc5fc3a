"""Ontology model for the supported description-logic fragment.

Class and role expressions, TBox axioms and ABox assertions are frozen
dataclasses.  :func:`load_ontology` reads them out of an :class:`RdfGraph`
that uses the OWL RDF/XML vocabulary subset, and :func:`axioms_to_xml`
writes them back as entity-grouped RDF/XML, both by one table of the axiom
kinds, _AXIOM_ROWS; :func:`entities_to_xml` renders a list of IRIs as one
item element per IRI.

Three role characteristics are stored through fixed encodings rather than
dedicated axiom kinds:

* symmetric r        ->  InverseRoles(r, r)
* functional r       ->  SubClassOf(Thing, MaxCard(1, r, Thing))
* irreflexive r      ->  SubClassOf(ExistsSelf(r), Nothing)

The loader produces these encodings from the owl:SymmetricProperty /
owl:FunctionalProperty / owl:IrreflexiveProperty type markers, and the
renderer recognizes them and emits the markers again, also for a loaded
p owl:inverseOf p, which is the symmetric encoding.  Every role in the
model is a named Role, so every ontology it can hold renders and loads back.
"""

from __future__ import annotations

import re
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import RdfParseError, UnsupportedFeatureError
from .rdf import RDF_NS, RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL, XSD_NS, \
    Iri, Literal, Term, RdfGraph, term_key
from .xmltree import _NCNAME_RE, XML_NS, QName, XmlNode, element, sub_element, text

OWL_NS = "http://www.w3.org/2002/07/owl#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

_PREFIXES = {RDF_NS: "rdf", RDFS_NS: "rdfs", OWL_NS: "owl", XML_NS: "xml"}

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
class Role:
    iri: str


@dataclass(frozen=True)
class Exists:
    role: Role
    filler: "ClassExpr"


@dataclass(frozen=True)
class ExistsSelf:
    role: Role


@dataclass(frozen=True)
class MaxCard:
    n: int
    role: Role
    filler: "ClassExpr"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality bound must be non-negative")


ClassExpr = Thing | Nothing | Named | And | Exists | ExistsSelf | MaxCard


def class_of_iri(iri: str) -> ClassExpr:
    """The class an IRI names: owl:Thing, owl:Nothing or a named class."""
    return Thing() if iri == THING_IRI else Nothing() if iri == NOTHING_IRI else Named(iri)


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
    sub: Role
    sup: Role


@dataclass(frozen=True)
class RoleChain:
    first: Role
    second: Role
    implied: Role


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
    role: Role
    cls: ClassExpr


@dataclass(frozen=True)
class Range:
    role: Role
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


def symmetric_axiom(role_iri: str) -> InverseRoles:
    return InverseRoles(role_iri, role_iri)


def functional_axiom(role_iri: str) -> SubClassOf:
    return SubClassOf(Thing(), MaxCard(1, Role(role_iri), Thing()))


def irreflexive_axiom(role_iri: str) -> SubClassOf:
    return SubClassOf(ExistsSelf(Role(role_iri)), Nothing())


# owl type marker of a role characteristic -> the axiom that encodes it
_ROLE_MARKERS = (("SymmetricProperty", symmetric_axiom),
                 ("IrreflexiveProperty", irreflexive_axiom),
                 ("FunctionalProperty", functional_axiom))

# One row per axiom kind: its type, its predicate's (namespace, local), the
# entity kind it is written under and its rank there (role markers rank 0),
# how its subject and its object are read and written (a "class" expression,
# a named "role", a plain "iri", a two-link "chain" or a "datatype" IRI), and
# whether both sides are its subjects.  Rows are in loading order; a property
# declared both ways takes the data row of rdfs:domain or rdfs:range.
_Row = namedtuple("_Row", "axiom name entity rank subject object symmetric",
                  defaults=(False,))
_AXIOM_ROWS = (
    _Row(SubClassOf, (RDFS_NS, "subClassOf"), "class", 0, "class", "class"),
    _Row(EquivalentClasses, (OWL_NS, "equivalentClass"), "class", 1, "class", "class", True),
    _Row(DisjointClasses, (OWL_NS, "disjointWith"), "class", 2, "class", "class", True),
    _Row(SubRoleOf, (RDFS_NS, "subPropertyOf"), "object", 1, "role", "role"),
    _Row(DataDomain, (RDFS_NS, "domain"), "data", 0, "iri", "class"),
    _Row(Domain, (RDFS_NS, "domain"), "object", 5, "role", "class"),
    _Row(DataRange, (RDFS_NS, "range"), "data", 1, "iri", "datatype"),
    _Row(Range, (RDFS_NS, "range"), "object", 6, "role", "class"),
    _Row(InverseRoles, (OWL_NS, "inverseOf"), "object", 2, "iri", "iri", True),
    _Row(DisjointRoles, (OWL_NS, "propertyDisjointWith"), "object", 3, "iri", "iri", True),
    _Row(RoleChain, (OWL_NS, "propertyChainAxiom"), "object", 4, "role", "chain"),
)
_ROW_OF = {row.axiom: row for row in _AXIOM_ROWS}


def _sides(axiom: Axiom) -> tuple:
    """(subject, object); a chain's subject is its implied role, its object the links."""
    if isinstance(axiom, RoleChain):
        return axiom.implied, (axiom.first, axiom.second)
    return tuple(vars(axiom).values())


def _entity_iri(side) -> str | None:
    """The IRI of an axiom side that names an entity."""
    if isinstance(side, str):
        return side
    return side.iri if isinstance(side, (Named, Role)) else None


def named_classes_in(expr: ClassExpr) -> set[str]:
    """All class IRIs mentioned inside an expression (Thing/Nothing excluded)."""
    if isinstance(expr, Named):
        return {expr.iri}
    if isinstance(expr, And):
        out: set[str] = set()
        for part in expr.parts:
            out |= named_classes_in(part)
        return out
    if isinstance(expr, (Exists, MaxCard)):
        return named_classes_in(expr.filler)
    return set()


def roles_in(expr: ClassExpr) -> set[str]:
    """All role IRIs mentioned inside an expression."""
    if isinstance(expr, And):
        out: set[str] = set()
        for part in expr.parts:
            out |= roles_in(part)
        return out
    if isinstance(expr, (Exists, MaxCard)):
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
            for side in vars(axiom).values():  # role and IRI fields name no class
                out |= named_classes_in(side)
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


# -- loading from an RDF graph ----------------------------------------------------

_TYPES = {OWL_NS + kind for kind in (
    "Class", "Restriction", "Thing", "Nothing", "ObjectProperty", "DatatypeProperty",
    "NamedIndividual", "Ontology", *(kind for kind, _ in _ROLE_MARKERS))}
# each axiom predicate's name, in table order, with its rows
_ROWS_BY_NAME = {name: [row for row in _AXIOM_ROWS if row.name == name]
                 for name in dict.fromkeys(row.name for row in _AXIOM_ROWS)}
_PREDICATES = {RDF_TYPE, RDF_FIRST, RDF_REST, *("".join(name) for name in _ROWS_BY_NAME)} | {
    OWL_NS + local for local in ("intersectionOf", "someValuesFrom", "hasSelf", "onProperty",
                                 "onClass", "maxQualifiedCardinality", "maxCardinality")}
_READING = object()  # the memo entry of a term whose expression is being read


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
        for iri in sorted({t.predicate.value for t in self.graph}):
            if iri == OWL_NS + "allValuesFrom":
                raise UnsupportedFeatureError(
                    "owl:allValuesFrom (universal restrictions) is not supported; "
                    "express the constraint with rdfs:domain/rdfs:range")
            for namespace in (OWL_NS, RDFS_NS, RDF_NS):
                if iri.startswith(namespace) and iri not in _PREDICATES:
                    raise UnsupportedFeatureError(
                        f"{_PREFIXES[namespace]}:{iri[len(namespace):]} is not supported")
        for iri in sorted({t.object.value for t in self.graph
                           if t.predicate.value == RDF_TYPE and isinstance(t.object, Iri)}):
            if iri.startswith(OWL_NS) and iri not in _TYPES:
                raise UnsupportedFeatureError(f"owl:{iri[len(OWL_NS):]} is not supported")
            if iri.startswith(RDFS_NS) or iri == RDF_NIL:
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
        cells: set[Term] = set()
        while not (isinstance(head, Iri) and head.value == RDF_NIL):
            if not isinstance(head, Iri):
                raise RdfParseError("malformed RDF list")
            if head in cells:
                raise RdfParseError(f"cyclic RDF list through cell {head.value}")
            cells.add(head)
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
            self._class_exprs[term] = _READING
            expr = self._class_exprs[term] = self._read_class_expr(term)
        elif expr is _READING:
            raise RdfParseError(f"cyclic class expression through {term.value}")
        return expr

    def _read_class_expr(self, term: Term) -> ClassExpr:
        if not isinstance(term, Iri):
            raise RdfParseError("a literal cannot appear in class position")
        iri = term.value
        if iri in (THING_IRI, NOTHING_IRI):
            return class_of_iri(iri)
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

    def read(self, way: str, term: Term, name: str):
        """One side of an axiom whose predicate is name, read from its term."""
        if way == "class":
            return self.class_expr(term)
        if way == "chain":
            links = self.read_list(term)
            if len(links) != 2:
                raise UnsupportedFeatureError(
                    "only property chains of exactly two links are supported")
            return tuple(self.role(link, "a chain link") for link in links)
        if isinstance(term, Iri):
            return Role(term.value) if way == "role" else term.value
        if way == "datatype":
            raise RdfParseError("a datatype property range must be an IRI")
        raise RdfParseError(f"{name} must name a property")

    def row_for(self, rows: list[_Row], name: str, subject: str) -> _Row:
        """The row of a triple whose predicate is name; rdfs:domain and
        rdfs:range have one per property kind, taken by how subject is declared."""
        for row in rows:
            declared = self.data_properties if row.entity == "data" else self.object_properties
            if len(rows) == 1 or subject in declared:
                if row.subject == "role" and subject in self.data_properties:
                    raise UnsupportedFeatureError(
                        f"{name} between datatype properties is not supported")
                return row
        raise RdfParseError(f"{name} on undeclared property {subject}")

    def load_tbox(self) -> list[Axiom]:
        axioms: list[Axiom] = []
        for (namespace, local), rows in _ROWS_BY_NAME.items():
            name = f"{_PREFIXES[namespace]}:{local}"
            for s, o in self.pairs(namespace + local):
                row = self.row_for(rows, name, s.value)
                subject, obj = self.read(row.subject, s, name), self.read(row.object, o, name)
                axioms.append(RoleChain(*obj, subject) if row.axiom is RoleChain
                              else row.axiom(subject, obj))
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
                    if not isinstance(obj, Iri):
                        raise RdfParseError(f"rdf:type of individual {ind} must name a class")
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

_ABOUT, _RESOURCE, _DATATYPE = (RDF_NS, "about"), (RDF_NS, "resource"), (RDF_NS, "datatype")
_COLLECTION = (((RDF_NS, "parseType"), "Collection"),)
_NAME_TAIL_RE = re.compile(_NCNAME_RE.pattern.removeprefix("^"))  # a trailing XML name


def _describe(name: tuple[str, str], attrs=(), parts: tuple = ()) -> tuple:
    """An element to render as (namespace, local, sorted attributes, parts),
    each attribute ((namespace, local), value) and each part a description or
    a _text; descriptions sort as canonical_key sorts what they describe."""
    return (*name, tuple(sorted(attrs)), parts)


def _text(value: str) -> tuple:
    # equal stripped texts keep the order of their raw values
    return ("text", value.strip(), value)


def _marker_of(axiom: Axiom) -> tuple[str, str] | None:
    """(role IRI, type marker) when the axiom encodes a role characteristic."""
    if isinstance(axiom, InverseRoles):
        roles = {axiom.left}
    elif isinstance(axiom, SubClassOf):
        roles = roles_in(axiom.sub) | roles_in(axiom.sup)
    else:
        return None
    for kind, encode in _ROLE_MARKERS:
        for role in roles:
            if encode(role) == axiom:
                return role, kind
    return None


class _Renderer:
    def __init__(self):
        # (entity kind, iri) -> list of (rank, description)
        self.children: dict[tuple[str, str], list[tuple]] = defaultdict(list)
        self.mentioned: dict[str, set[str]] = defaultdict(set)  # kind -> iris
        self.gcis: list[tuple] = []  # descriptions of class axioms with no named subject
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
        qualified = not isinstance(expr.filler, Thing)  # a MaxCard
        constraint = (_describe(
            (OWL_NS, "maxQualifiedCardinality" if qualified else "maxCardinality"),
            [(_DATATYPE, XSD_NS + "nonNegativeInteger")], (_text(str(expr.n)),)),)
        if qualified:
            constraint += (self.class_ref((OWL_NS, "onClass"), expr.filler),)
        return _describe((OWL_NS, "Restriction"),
                         parts=(self.on_property(expr.role),) + constraint)

    def on_property(self, role: Role) -> tuple:
        return self.role_ref((OWL_NS, "onProperty"), role.iri)

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
        row = _ROW_OF[type(axiom)]
        subject, obj = _sides(axiom)
        anchor = _entity_iri(subject)
        content = self.write(row.object, row.name, obj)
        if anchor is not None:
            self.child(row.entity, anchor, row.rank, content)
        else:  # a general class inclusion: the subject's own node carries it
            self.mentioned["class"] |= named_classes_in(subject)
            namespace, local, attrs, parts = self.class_node(subject)
            self.gcis.append((namespace, local, attrs, parts + (content,)))

    def write(self, way: str, name: tuple[str, str], side) -> tuple:
        """The property child that writes one side of an axiom."""
        if way == "class":
            return self.class_ref(name, side)
        if way == "datatype":
            return _describe(name, [(_RESOURCE, side)])
        if way == "chain":
            links = [link.iri for link in side]
            self.mentioned["object"] |= set(links)
            return _describe(name, _COLLECTION, tuple(
                _describe((OWL_NS, "ObjectProperty"), [(_ABOUT, link)]) for link in links))
        return self.role_ref(name, side.iri if way == "role" else side)

    def property_name(self, iri: str) -> tuple[str, str]:
        """(namespace, local) split before the IRI's longest XML-name tail."""
        tail = _NAME_TAIL_RE.search(iri)
        if tail is None or tail.start() == 0:
            raise UnsupportedFeatureError(
                f"cannot render property {iri} as an RDF/XML element: it does "
                f"not end in an XML name after a non-empty namespace")
        name = iri[:tail.start()], iri[tail.start():]
        prefix = self.foreign_prefixes.setdefault(
            name[0], f"ns{len(self.foreign_prefixes) + 1}")
        self.names[name] = QName(*name, prefix)
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
    """Render axioms as entity-grouped RDF/XML, each by its table row.

    A class axiom whose subject is not a class name (a general class
    inclusion, or owl:Thing) is a child of its subject's own node, after
    the entities.  With a subject IRI, only axioms axiom_subjects gives that
    entity and assertions about it are rendered, plus bare declarations for
    every entity they reference.  Loading the output gives back the axioms
    and assertions rendered.  A role or data assertion whose property IRI
    has no XML-name tail after a namespace raises UnsupportedFeatureError,
    as RDF/XML has no element name for it.

    Entities come by kind, then IRI; children by rank (for an individual:
    rdf:type, role, then data assertions), then as canonical_key orders
    them, equal stripped texts by raw texts; general inclusions likewise.
    """
    renderer = _Renderer()
    for axiom in ont.tbox:
        if subject is None or subject in axiom_subjects(axiom):
            renderer.add_axiom(axiom)
    for assertion in sorted(ont.abox, key=_assertion_key):
        if subject is None or subject == assertion_subject(assertion):
            renderer.add_assertion(assertion)
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
    for description in sorted(renderer.gcis):
        renderer.build(root, description)
    return doc


def axiom_subjects(axiom: Axiom) -> tuple[str, ...]:
    """Entity IRIs an axiom is attributed to when selecting by subject."""
    marker = _marker_of(axiom)
    if marker is not None:
        return (marker[0],)
    sides = _sides(axiom)[:2 if _ROW_OF[type(axiom)].symmetric else 1]
    return tuple(iri for iri in map(_entity_iri, sides) if iri is not None)


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
