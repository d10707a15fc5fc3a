"""RDF terms, triples and graphs, plus the RDF/XML reader and the
SPARQL-results XML writer.

The term model has no blank nodes: every subject and predicate is an
IRI. RDF/XML input that would create blank nodes is either rejected
(rdf:nodeID) or given deterministic generated IRIs (anonymous nested
node elements and collection list cells), which keeps graphs queryable
by IRI while accepting the usual OWL markup. Terms and triples are named
tuples, so building, hashing and comparing them runs in C; an Iri never
equals a Literal, since the two have different lengths.

Graph lookups return their matches in no particular order. Callers whose
order reaches the output sort it themselves, once, by `term_key`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple
from urllib.parse import urljoin

from .errors import RdfParseError, UnsupportedFeatureError
from . import xmltree
from .xmltree import QName, XmlNode, child_elements, parse_xml, sub_element

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SPARQL_RESULTS_NS = "http://www.w3.org/2005/sparql-results#"

RDF_TYPE = RDF_NS + "type"
RDF_FIRST = RDF_NS + "first"
RDF_REST = RDF_NS + "rest"
RDF_NIL = RDF_NS + "nil"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")


class Iri(NamedTuple):
    value: str

    def __repr__(self) -> str:
        return f"<{self.value}>"


class Literal(NamedTuple):
    lexical: str
    datatype: str | None = None
    language: str | None = None

    def __repr__(self) -> str:
        suffix = f"^^{self.datatype}" if self.datatype else ""
        if self.language:
            suffix = f"@{self.language}"
        return f"{self.lexical!r}{suffix}"


Term = Iri | Literal


def term_key(term: Term) -> tuple:
    """Total lexicographic order over terms: IRIs first, then literals."""
    if isinstance(term, Iri):
        return (0, term.value)
    return (1, term.lexical, term.datatype or "", term.language or "")


class Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    object: Term


def resolve_iri(base: str, ref: str) -> str:
    """Resolve a possibly-relative IRI reference against a base.

    "#name" references become base + "#name" (any fragment on the base
    is dropped); references with a scheme pass through unchanged.
    """
    if _SCHEME_RE.match(ref):
        return ref
    if ref.startswith("#"):
        return base.split("#", 1)[0] + ref
    if ref == "":
        return base
    return urljoin(base, ref)


class RdfGraph:
    """Immutable set of triples with subject/predicate/object indexes."""

    def __init__(self, triples: object, base_iri: str = ""):
        self.triples: frozenset[Triple] = frozenset(triples)  # type: ignore[arg-type]
        self.base_iri = base_iri
        self._by_s: dict[Iri, set[Triple]] = {}
        self._by_p: dict[Iri, set[Triple]] = {}
        self._by_o: dict[Term, set[Triple]] = {}
        for t in self.triples:
            self._by_s.setdefault(t.subject, set()).add(t)
            self._by_p.setdefault(t.predicate, set()).add(t)
            self._by_o.setdefault(t.object, set()).add(t)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def match(self, subject: Iri | None = None, predicate: Iri | None = None,
              obj: Term | None = None) -> list[Triple]:
        """All triples matching the given terms (None is a wildcard), in no
        particular order."""
        candidates: set[Triple] | frozenset[Triple] | None = None
        for index, key in ((self._by_s, subject), (self._by_p, predicate),
                           (self._by_o, obj)):
            if key is None:
                continue
            bucket = index.get(key, set())
            candidates = bucket if candidates is None else candidates & bucket
        return list(self.triples if candidates is None else candidates)

    def estimate(self, subject: Term | bool | None, predicate: Term | bool | None,
                 obj: Term | bool | None) -> float:
        """Expected size of a `match`, from the index sizes alone: a term
        counts its bucket (0 if it has none), True (a term not known yet)
        the index's mean bucket, and None (a wildcard) adds no limit."""
        size: float = len(self.triples)
        for index, key in ((self._by_s, subject), (self._by_p, predicate),
                           (self._by_o, obj)):
            if key is True:
                size = min(size, len(self.triples) / max(len(index), 1))
            elif key is not None:
                size = min(size, len(index.get(key, ())))
        return size

    def subjects(self, predicate: Iri | None = None, obj: Term | None = None) -> list[Iri]:
        """Distinct subjects of the matching triples, sorted by `term_key`."""
        return sorted({t.subject for t in self.match(None, predicate, obj)}, key=term_key)

    def objects(self, subject: Iri | None = None, predicate: Iri | None = None) -> list[Term]:
        """Distinct objects of the matching triples, sorted by `term_key`."""
        return sorted({t.object for t in self.match(subject, predicate, None)},
                      key=term_key)


# -- RDF/XML reading ------------------------------------------------------------

(_RDF_RDF, _RDF_DESCRIPTION, _RDF_ABOUT, _RDF_NODE_ID, _RDF_RESOURCE, _RDF_DATATYPE,
 _RDF_PARSE_TYPE) = (QName(RDF_NS, local) for local in (
    "RDF", "Description", "about", "nodeID", "resource", "datatype", "parseType"))
_XML_LANG = QName(xmltree.XML_NS, "lang")
_XML_BASE = QName(xmltree.XML_NS, "base")
_NODE_ATTRS_OK = {_RDF_ABOUT, _XML_LANG, _XML_BASE}
_PROP_ATTRS_OK = {_RDF_RESOURCE, _RDF_DATATYPE, _RDF_PARSE_TYPE, _XML_LANG, _XML_BASE}


class _RdfReader:
    def __init__(self, base: str):
        self.base = base
        self.triples: list[Triple] = []
        self._genid = 0

    def fresh_iri(self) -> Iri:
        self._genid += 1
        return Iri(f"urn:genid:g{self._genid}")

    def name_iri(self, name: QName) -> Iri:
        # unqualified names denote fragment IRIs of the document base
        if name.namespace is None:
            return Iri(resolve_iri(self.base, "#" + name.local))
        return Iri(name.namespace + name.local)

    def check_attrs(self, el: XmlNode, allowed: set[QName], where: str) -> None:
        for attr in el.attributes:
            name = attr.name
            assert name is not None  # every attribute is built with its name
            if name in allowed:
                continue
            if name == _RDF_NODE_ID:
                raise UnsupportedFeatureError(
                    "rdf:nodeID is not supported: the term model excludes blank "
                    "nodes; name the node with rdf:about instead")
            if name.namespace == RDF_NS:
                raise RdfParseError(f"unsupported rdf:{name.local} attribute on a "
                                    f"{where} element")
            raise UnsupportedFeatureError(
                f"property attributes are not supported "
                f"(attribute {name.local!r} on a {where} element); "
                f"use a child property element")

    def node_element(self, el: XmlNode) -> Iri:
        assert el.name is not None  # callers pass elements, each built with its name
        self.check_attrs(el, _NODE_ATTRS_OK, "node")
        about = xmltree.get_attribute(el, _RDF_ABOUT)
        subject = Iri(resolve_iri(self.base, about)) if about is not None \
            else self.fresh_iri()
        if el.name != _RDF_DESCRIPTION:
            self.triples.append(Triple(subject, Iri(RDF_TYPE), self.name_iri(el.name)))
        for child in el.children:
            if child.kind == "text":
                if (child.value or "").strip():
                    raise RdfParseError("unexpected text content inside a node element")
                continue
            self.property_element(subject, child)
        return subject

    def property_element(self, subject: Iri, el: XmlNode) -> None:
        assert el.name is not None  # callers pass elements, each built with its name
        self.check_attrs(el, _PROP_ATTRS_OK, "property")
        predicate = self.name_iri(el.name)
        resource = xmltree.get_attribute(el, _RDF_RESOURCE)
        datatype = xmltree.get_attribute(el, _RDF_DATATYPE)
        parse_type = xmltree.get_attribute(el, _RDF_PARSE_TYPE)
        language = xmltree.get_attribute(el, _XML_LANG)
        elements = child_elements(el)

        if parse_type is not None:
            if parse_type != "Collection":
                raise UnsupportedFeatureError(
                    f"rdf:parseType={parse_type!r} is not supported "
                    f"(only Collection)")
            self.triples.append(Triple(subject, predicate, self.collection(elements)))
            return
        # only text written directly inside this element counts as literal
        # content; text nested under a child node element belongs to it
        direct_text = "".join(c.value or "" for c in el.children if c.kind == "text")
        if resource is not None:
            if elements or direct_text.strip():
                raise RdfParseError("a property element with rdf:resource must be empty")
            self.triples.append(Triple(subject, predicate,
                                       Iri(resolve_iri(self.base, resource))))
            return
        if elements:
            if len(elements) > 1:
                raise RdfParseError("a property element may contain only one nested "
                                    "node element")
            if direct_text.strip():
                raise RdfParseError("mixed text and node-element content in a "
                                    "property element")
            self.triples.append(Triple(subject, predicate, self.node_element(elements[0])))
            return
        lexical = direct_text
        if datatype is not None:
            obj: Term = Literal(lexical, datatype=resolve_iri(self.base, datatype))
        else:
            obj = Literal(lexical, language=language)
        self.triples.append(Triple(subject, predicate, obj))

    def collection(self, members: list[XmlNode]) -> Iri:
        if not members:
            return Iri(RDF_NIL)
        cells = [self.fresh_iri() for _ in members]
        for cell, member, rest in zip(cells, members,
                                      cells[1:] + [Iri(RDF_NIL)]):
            self.triples.append(Triple(cell, Iri(RDF_FIRST), self.node_element(member)))
            self.triples.append(Triple(cell, Iri(RDF_REST), rest))
        return cells[0]


def rdf_from_document(doc: XmlNode, base: str) -> RdfGraph:
    """Read the supported RDF/XML subset out of a parsed XML tree."""
    roots = child_elements(doc) if doc.kind == "document" else [doc]
    if len(roots) != 1 or roots[0].name != _RDF_RDF:
        raise RdfParseError("expected an rdf:RDF root element")
    root = roots[0]
    declared_base = xmltree.get_attribute(root, _XML_BASE)
    reader = _RdfReader(declared_base if declared_base is not None else base)
    for child in root.children:
        if child.kind == "text":
            if (child.value or "").strip():
                raise RdfParseError("unexpected text content inside rdf:RDF")
            continue
        reader.node_element(child)
    return RdfGraph(reader.triples, base_iri=reader.base)


def parse_rdfxml(markup: str, base: str = "") -> RdfGraph:
    return rdf_from_document(parse_xml(markup), base)


# -- SPARQL results XML ----------------------------------------------------------

@dataclass
class SolutionTable:
    """Projected query solutions: an ordered variable list and one
    binding map per row (a row may leave a variable unbound)."""

    variables: list[str]
    rows: list[dict[str, Term]] = field(default_factory=list)


(_SPARQL, _HEAD, _VARIABLE, _RESULTS, _RESULT, _BINDING, _URI, _LITERAL) = (
    QName(SPARQL_RESULTS_NS, local) for local in (
        "sparql", "head", "variable", "results", "result", "binding", "uri", "literal"))
_NAME, _DATATYPE = QName(None, "name"), QName(None, "datatype")


def write_sparql_results(table: SolutionTable) -> XmlNode:
    """Render a solution table as a SPARQL-results XML document."""
    doc = XmlNode("document")
    root = sub_element(doc, _SPARQL)
    head = sub_element(root, _HEAD)
    for var in table.variables:
        sub_element(head, _VARIABLE, [(_NAME, var)])
    results = sub_element(root, _RESULTS)
    for row in table.rows:
        result = sub_element(results, _RESULT)
        for var in table.variables:
            if var not in row:
                continue
            term = row[var]
            binding = sub_element(result, _BINDING, [(_NAME, var)])
            if isinstance(term, Iri):
                sub_element(binding, _URI, value=term.value)
                continue
            attrs: list[tuple[QName, str]] = []
            if term.datatype is not None:
                attrs.append((_DATATYPE, term.datatype))
            if term.language is not None:
                attrs.append((_XML_LANG, term.language))
            sub_element(binding, _LITERAL, attrs, term.lexical)
    return doc
