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

from dataclasses import dataclass, field

from .errors import RdfParseError, UnsupportedFeatureError
from .rdf import RDF_NS, RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL, XSD_NS, \
    Iri, Literal, Term, RdfGraph
from .xmltree import QName, XmlNode, canonical_key, document, element, text

OWL_NS = "http://www.w3.org/2002/07/owl#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

THING_IRI = OWL_NS + "Thing"
NOTHING_IRI = OWL_NS + "Nothing"


# -- class and role expressions ---------------------------------------------------

@dataclass(frozen=True)
class Thing:
    pass


@dataclass(frozen=True)
class Nothing:
    pass


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
_MARKER_KINDS = {"SymmetricProperty", "IrreflexiveProperty", "FunctionalProperty"}
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
        typed = lambda kind: {s.value for s in graph.subjects(Iri(RDF_TYPE),
                                                              Iri(OWL_NS + kind))}
        self.object_properties = typed("ObjectProperty")
        self.data_properties = typed("DatatypeProperty")
        self.individuals = typed("NamedIndividual")
        # anonymous scaffolding (intersection wrappers) is not a declared class
        structural = {s.value for s in graph.subjects(Iri(OWL_NS + "intersectionOf"))}
        self.classes = typed("Class") - structural

    def check_vocabulary(self) -> None:
        for triple in self.graph:
            self._check_predicate(triple.predicate.value)
            if triple.predicate.value == RDF_TYPE and isinstance(triple.object, Iri):
                self._check_type_object(triple.object.value)

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
        return [(t.subject, t.object)
                for t in self.graph.match(None, Iri(predicate), None)]

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
        for kind, encode in (("SymmetricProperty", symmetric_axiom),
                             ("IrreflexiveProperty", irreflexive_axiom),
                             ("FunctionalProperty", functional_axiom)):
            for subject in self.graph.subjects(Iri(RDF_TYPE), Iri(OWL_NS + kind)):
                if subject.value in self.data_properties:
                    raise UnsupportedFeatureError(
                        f"owl:{kind} on a datatype property is not supported")
                axioms.append(encode(subject.value))
        return axioms

    def load_abox(self) -> list[Assertion]:
        assertions: list[Assertion] = []
        for ind in sorted(self.individuals):
            for triple in self.graph.match(Iri(ind), None, None):
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


def _rdf(local: str) -> QName:
    return QName(RDF_NS, local, "rdf")


def _rdfs(local: str) -> QName:
    return QName(RDFS_NS, local, "rdfs")


def _owl(local: str) -> QName:
    return QName(OWL_NS, local, "owl")


def _symmetric_role(axiom: Axiom) -> str | None:
    if isinstance(axiom, SubRoleOf) and isinstance(axiom.sub, Inverse) \
            and isinstance(axiom.sup, Role) and axiom.sub.iri == axiom.sup.iri:
        return axiom.sup.iri
    return None


def _functional_role(axiom: Axiom) -> str | None:
    if isinstance(axiom, SubClassOf) and isinstance(axiom.sub, Thing) \
            and isinstance(axiom.sup, MaxCard) and axiom.sup.n == 1 \
            and isinstance(axiom.sup.role, Role) and isinstance(axiom.sup.filler, Thing):
        return axiom.sup.role.iri
    return None


def _irreflexive_role(axiom: Axiom) -> str | None:
    if isinstance(axiom, SubClassOf) and isinstance(axiom.sub, ExistsSelf) \
            and isinstance(axiom.sub.role, Role) and isinstance(axiom.sup, Nothing):
        return axiom.sub.role.iri
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
    def __init__(self, ont: Ontology):
        self.ont = ont
        # iri -> list of (rank, tiebreak, element), per entity kind
        self.children: dict[str, dict[str, list[tuple]]] = \
            {"class": {}, "object": {}, "data": {}, "individual": {}}
        self.mentioned: dict[str, set[str]] = \
            {"class": set(), "object": set(), "data": set(), "individual": set()}
        self.foreign_prefixes: dict[str, str] = {}

    def child(self, kind: str, iri: str, rank: int, node: XmlNode) -> None:
        bucket = self.children[kind].setdefault(iri, [])
        bucket.append((rank, canonical_key(node), node))
        self.mentioned[kind].add(iri)

    def mention_expr(self, expr: ClassExpr) -> None:
        self.mentioned["class"] |= named_classes_in(expr)
        self.mentioned["object"] |= roles_in(expr)

    def class_ref(self, name: QName, expr: ClassExpr) -> XmlNode:
        """A property child pointing at a class: by reference or nested node."""
        self.mention_expr(expr)
        if isinstance(expr, Named):
            return element(name, [(_rdf("resource"), expr.iri)])
        if isinstance(expr, Thing):
            return element(name, [(_rdf("resource"), THING_IRI)])
        if isinstance(expr, Nothing):
            return element(name, [(_rdf("resource"), NOTHING_IRI)])
        return element(name, children=[self.class_node(expr)])

    def class_node(self, expr: ClassExpr) -> XmlNode:
        if isinstance(expr, Named):
            return element(_owl("Class"), [(_rdf("about"), expr.iri)])
        if isinstance(expr, Thing):
            return element(_owl("Class"), [(_rdf("about"), THING_IRI)])
        if isinstance(expr, Nothing):
            return element(_owl("Class"), [(_rdf("about"), NOTHING_IRI)])
        if isinstance(expr, And):
            members = element(_owl("intersectionOf"),
                              [(_rdf("parseType"), "Collection")],
                              [self.class_node(p) for p in expr.parts])
            return element(_owl("Class"), children=[members])
        if isinstance(expr, Exists):
            return element(_owl("Restriction"), children=[
                self.on_property(expr.role),
                self.class_ref(_owl("someValuesFrom"), expr.filler)])
        if isinstance(expr, ExistsSelf):
            true = element(_owl("hasSelf"),
                           [(_rdf("datatype"), XSD_NS + "boolean")], [text("true")])
            return element(_owl("Restriction"),
                           children=[self.on_property(expr.role), true])
        if isinstance(expr, MaxCard):
            bound = str(expr.n)
            if isinstance(expr.filler, Thing):
                constraint = [element(_owl("maxCardinality"),
                                      [(_rdf("datatype"),
                                        XSD_NS + "nonNegativeInteger")],
                                      [text(bound)])]
            else:
                constraint = [element(_owl("maxQualifiedCardinality"),
                                      [(_rdf("datatype"),
                                        XSD_NS + "nonNegativeInteger")],
                                      [text(bound)]),
                              self.class_ref(_owl("onClass"), expr.filler)]
            return element(_owl("Restriction"),
                           children=[self.on_property(expr.role)] + constraint)
        raise _Unrenderable  # Forall has no rendering in the subset

    def on_property(self, role: RoleExpr) -> XmlNode:
        iri = _named_role(role)
        self.mentioned["object"].add(iri)
        return element(_owl("onProperty"), [(_rdf("resource"), iri)])

    def role_ref(self, name: QName, iri: str) -> XmlNode:
        self.mentioned["object"].add(iri)
        return element(name, [(_rdf("resource"), iri)])

    def marker(self, role_iri: str, kind: str) -> None:
        self.child("object", role_iri, 0,
                   element(_rdf("type"), [(_rdf("resource"), OWL_NS + kind)]))

    def add_axiom(self, axiom: Axiom) -> None:
        role = _symmetric_role(axiom)
        if role is not None:
            self.marker(role, "SymmetricProperty")
            return
        role = _irreflexive_role(axiom)
        if role is not None:
            self.marker(role, "IrreflexiveProperty")
            return
        role = _functional_role(axiom)
        if role is not None:
            self.marker(role, "FunctionalProperty")
            return
        if isinstance(axiom, SubClassOf):
            anchor = _named_class(axiom.sub)
            self.child("class", anchor, 0,
                       self.class_ref(_rdfs("subClassOf"), axiom.sup))
        elif isinstance(axiom, EquivalentClasses):
            anchor = _named_class(axiom.left)
            self.child("class", anchor, 1,
                       self.class_ref(_owl("equivalentClass"), axiom.right))
        elif isinstance(axiom, DisjointClasses):
            anchor = _named_class(axiom.left)
            self.child("class", anchor, 2,
                       self.class_ref(_owl("disjointWith"), axiom.right))
        elif isinstance(axiom, SubRoleOf):
            anchor = _named_role(axiom.sub)
            self.child("object", anchor, 1,
                       self.role_ref(_rdfs("subPropertyOf"), _named_role(axiom.sup)))
        elif isinstance(axiom, InverseRoles):
            self.mentioned["object"].add(axiom.right)
            self.child("object", axiom.left, 2,
                       self.role_ref(_owl("inverseOf"), axiom.right))
        elif isinstance(axiom, DisjointRoles):
            self.child("object", axiom.left, 3,
                       self.role_ref(_owl("propertyDisjointWith"), axiom.right))
        elif isinstance(axiom, RoleChain):
            links = [_named_role(axiom.first), _named_role(axiom.second)]
            self.mentioned["object"] |= set(links)
            chain = element(_owl("propertyChainAxiom"),
                            [(_rdf("parseType"), "Collection")],
                            [element(_owl("ObjectProperty"), [(_rdf("about"), link)])
                             for link in links])
            self.child("object", _named_role(axiom.implied), 4, chain)
        elif isinstance(axiom, Domain):
            self.child("object", _named_role(axiom.role), 5,
                       self.class_ref(_rdfs("domain"), axiom.cls))
        elif isinstance(axiom, Range):
            self.child("object", _named_role(axiom.role), 6,
                       self.class_ref(_rdfs("range"), axiom.cls))
        elif isinstance(axiom, DataDomain):
            self.child("data", axiom.prop, 0,
                       self.class_ref(_rdfs("domain"), axiom.cls))
        elif isinstance(axiom, DataRange):
            self.child("data", axiom.prop, 1,
                       element(_rdfs("range"), [(_rdf("resource"), axiom.datatype)]))
        else:
            raise _Unrenderable

    def property_qname(self, iri: str) -> QName:
        cut = max(iri.rfind("#"), iri.rfind("/"))
        if cut < 0 or cut == len(iri) - 1:
            raise _Unrenderable
        namespace, local = iri[:cut + 1], iri[cut + 1:]
        try:
            prefix = self.foreign_prefixes.setdefault(
                namespace, f"ns{len(self.foreign_prefixes) + 1}")
            return QName(namespace, local, prefix)
        except ValueError:
            raise _Unrenderable from None

    def add_assertion(self, assertion: Assertion) -> None:
        if isinstance(assertion, ClassAssertion):
            self.mentioned["individual"].add(assertion.individual)
            self.child("individual", assertion.individual, 0,
                       self.class_ref(_rdf("type"), assertion.cls))
        elif isinstance(assertion, RoleAssertion):
            self.mentioned["individual"] |= {assertion.subject, assertion.object}
            node = element(self.property_qname(assertion.role),
                           [(_rdf("resource"), assertion.object)])
            self.child("individual", assertion.subject, 1, node)
        else:
            self.mentioned["individual"].add(assertion.subject)
            attrs = []
            if assertion.value.datatype is not None:
                attrs.append((_rdf("datatype"), assertion.value.datatype))
            node = element(self.property_qname(assertion.prop), attrs,
                           [text(assertion.value.lexical)])
            self.child("individual", assertion.subject, 2, node)

    def entity_elements(self, kind: str, tag: QName, declared: set[str]) -> list[XmlNode]:
        iris = sorted(set(self.children[kind]) | self.mentioned[kind] | declared)
        out = []
        for iri in iris:
            parts = sorted(self.children[kind].get(iri, []),
                           key=lambda item: (item[0], item[1]))
            out.append(element(tag, [(_rdf("about"), iri)],
                               [node for _, _, node in parts]))
        return out


def axioms_to_xml(ont: Ontology, subject: str | None = None) -> XmlNode:
    """Render axioms as entity-grouped RDF/XML.

    With a subject IRI, only axioms anchored on that entity are rendered,
    plus bare declarations for every entity those axioms reference.  Axiom
    shapes the grouping cannot express (anonymous anchors, Forall) are
    skipped; the output covers exactly the renderable subset.
    """
    renderer = _Renderer(ont)
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
    children: list[XmlNode] = []
    if subject is None and ont.iri:
        children.append(element(_owl("Ontology"), [(_rdf("about"), ont.iri)]))
    declared = (set(ont.classes), set(ont.object_properties),
                set(ont.data_properties), set(ont.individuals)) \
        if subject is None else (set(), set(), set(), set())
    children += renderer.entity_elements("class", _owl("Class"), declared[0])
    children += renderer.entity_elements("object", _owl("ObjectProperty"), declared[1])
    children += renderer.entity_elements("data", _owl("DatatypeProperty"), declared[2])
    children += renderer.entity_elements("individual", _owl("NamedIndividual"),
                                         declared[3])
    root = element(QName(RDF_NS, "RDF", "rdf"), children=children)
    return document(root)


def axiom_subjects(axiom: Axiom) -> tuple[str, ...]:
    """Entity IRIs an axiom is attributed to when selecting by subject."""
    for extract in (_symmetric_role, _irreflexive_role, _functional_role):
        role = extract(axiom)
        if role is not None:
            return (role,)
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
    return [element(item, children=[text(iri)]) for iri in iris]
