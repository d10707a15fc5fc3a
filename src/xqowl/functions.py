"""Builtin function library for the host language.

Functions are registered by (prefix, local name) under four prefixes:
fn (core helpers, also the default when a call has no prefix), xqowl
(SPARQL bridge, ontology loading and reasoner tasks), sw (RDF/XML
fragment builders used when mapping XML content to ABox assertions)
and functx (string helpers).

Every builtin takes the evaluation environment and the already
evaluated argument sequences, and returns a sequence. Query results
and rendered axioms normally come back as document values; when the
environment runs in temp-file mode they are written to a temporary
file and the file name is returned instead, reproducing an older
calling convention where results travel through the file system.
Programs work unchanged either way because doc() is the identity on
document values.

The sw builders propagate empty sequences: if any argument is empty
the result is empty, so a missing source attribute simply produces no
assertion instead of a malformed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import xmltree
from .errors import EvalError
from .owl import OWL_NS, Ontology, axioms_to_xml, class_of_iri, entities_to_xml
from .rdf import RDF_NS, XSD_NS, rdf_from_document, write_sparql_results
from .reasoner import Reasoner
from .sparql import eval_select, parse_sparql
from .xmltree import QName, XmlNode, string_value


@dataclass(frozen=True)
class OntologyHandle:
    """An ontology opened by xqowl:load, tagged with its source name."""

    ontology: Ontology
    source: str

    def __repr__(self) -> str:
        return f"<ontology {self.source!r}>"


@dataclass(frozen=True)
class ReasonerHandle:
    reasoner: Reasoner

    def __repr__(self) -> str:
        return f"<reasoner {self.reasoner.profile}>"


Item = object  # str | int | float | bool | XmlNode | OntologyHandle | ReasonerHandle


# -- value conventions shared with the interpreter --------------------------------

def atomize_item(item: Item) -> Item:
    """Nodes atomize to their string value; handles have no typed value."""
    if isinstance(item, XmlNode):
        return string_value(item)
    if isinstance(item, (OntologyHandle, ReasonerHandle)):
        raise EvalError(f"cannot atomize {item!r}")
    return item


def atomize(seq: list[Item]) -> list[Item]:
    return [atomize_item(item) for item in seq]


def item_string(item: Item) -> str:
    """Render one atomic item as a string (booleans XML-style)."""
    atom = atomize_item(item)
    if isinstance(atom, bool):
        return "true" if atom else "false"
    if isinstance(atom, float) and atom.is_integer():
        return str(int(atom))
    return str(atom)


def single_item(seq: list[Item], what: str) -> Item:
    if len(seq) != 1:
        raise EvalError(f"{what} expects exactly one item, got {len(seq)}")
    return seq[0]


def string_arg(seq: list[Item], what: str) -> str:
    return item_string(single_item(seq, what))


def optional_string(seq: list[Item], what: str) -> str | None:
    """One item rendered as a string, or None for the empty sequence."""
    if not seq:
        return None
    return string_arg(seq, what)


def node_arg(seq: list[Item], what: str) -> XmlNode:
    item = single_item(seq, what)
    if not isinstance(item, XmlNode):
        raise EvalError(f"{what} expects a node")
    return item


def ontology_arg(seq: list[Item], what: str) -> OntologyHandle:
    item = single_item(seq, what)
    if not isinstance(item, OntologyHandle):
        raise EvalError(f"{what} expects an ontology handle")
    return item


def reasoner_arg(seq: list[Item], what: str) -> Reasoner:
    item = single_item(seq, what)
    if not isinstance(item, ReasonerHandle):
        raise EvalError(f"{what} expects a reasoner handle")
    return item.reasoner


# -- registry ---------------------------------------------------------------------

Builtin = Callable[..., list]
REGISTRY: dict[tuple[str, str], tuple[Builtin, int, int | None]] = {}


def _register(prefix: str, local: str, min_args: int, max_args: int | None):
    def wrap(fn: Builtin) -> Builtin:
        REGISTRY[(prefix, local)] = (fn, min_args, max_args)
        return fn
    return wrap


def call_builtin(env, prefix: str, local: str, args: list[list]) -> list:
    entry = REGISTRY.get((prefix, local))
    if entry is None:
        raise EvalError(f"unknown function {prefix}:{local}")
    fn, lo, hi = entry
    if len(args) < lo or (hi is not None and len(args) > hi):
        expected = str(lo) if hi == lo else f"{lo}+" if hi is None else f"{lo}-{hi}"
        raise EvalError(f"{prefix}:{local} expects {expected} arguments, "
                        f"got {len(args)}")
    try:
        return fn(env, *args)
    except OSError as exc:
        raise EvalError(f"{prefix}:{local}: {exc}") from exc


# -- fn: core helpers -------------------------------------------------------------

@_register("fn", "concat", 1, None)
def _fn_concat(env, *args: list) -> list:
    pieces = []
    for seq in args:
        if len(seq) > 1:
            raise EvalError("concat arguments must be single items")
        pieces.append(item_string(seq[0]) if seq else "")
    return ["".join(pieces)]


@_register("fn", "substring-after", 2, 2)
def _fn_substring_after(env, value: list, sep: list) -> list:
    text = optional_string(value, "substring-after") or ""
    marker = optional_string(sep, "substring-after") or ""
    if not marker:
        return [text]
    return [text.partition(marker)[2]]


@_register("fn", "data", 1, 1)
def _fn_data(env, seq: list) -> list:
    return atomize(seq)


@_register("fn", "doc", 1, 1)
def _fn_doc(env, seq: list) -> list:
    item = single_item(seq, "doc")
    if isinstance(item, XmlNode):
        if item.kind != "document":
            raise EvalError("doc() expects a file name or a document value")
        return [item]
    return [env.load_document(item_string(item))]


@_register("fn", "put", 2, 2)
def _fn_put(env, file: list, node: list) -> list:
    path = env.resolve(string_arg(file, "put file name"))
    target = node_arg(node, "put")
    if target.kind not in ("document", "element"):
        raise EvalError("put expects a document or element node")
    path.write_text(xmltree.serialize_xml(target, indent=True) + "\n",
                    encoding="utf-8")
    return []


@_register("fn", "true", 0, 0)
def _fn_true(env) -> list:
    return [True]


@_register("fn", "false", 0, 0)
def _fn_false(env) -> list:
    return [False]


@_register("functx", "fragment-from-uri", 1, 1)
def _functx_fragment(env, seq: list) -> list:
    uri = optional_string(seq, "fragment-from-uri")
    if uri is None:
        return []
    return [uri.rpartition("#")[2]] if "#" in uri else [""]


# -- xqowl: query and reasoning bridge --------------------------------------------

@_register("xqowl", "new", 0, 0)
def _xq_new(env) -> list:
    return []


@_register("xqowl", "dispose", 0, None)
def _xq_dispose(env, *args: list) -> list:
    return []


@_register("xqowl", "sparql", 2, 2)
def _xq_sparql(env, source: list, query: list) -> list:
    item = single_item(source, "xqowl:sparql source")
    if isinstance(item, XmlNode):
        if item.kind not in ("document", "element"):
            raise EvalError("xqowl:sparql expects a file name or document")
        graph = rdf_from_document(item, "")
    else:
        graph = env.load_graph(item_string(item))
    table = eval_select(graph, parse_sparql(string_arg(query, "xqowl:sparql query")))
    return env.emit_document(write_sparql_results(table))


@_register("xqowl", "load", 1, 1)
def _xq_load(env, file: list) -> list:
    name = string_arg(file, "xqowl:load")
    return [OntologyHandle(env.load_ontology_file(name), name)]


@_register("xqowl", "reasoner", 2, 2)
def _xq_reasoner(env, ont: list, profile: list) -> list:
    handle = ontology_arg(ont, "xqowl:reasoner")
    name = string_arg(profile, "xqowl:reasoner profile")
    try:
        return [ReasonerHandle(Reasoner(handle.ontology, profile=name))]
    except ValueError as exc:
        raise EvalError(str(exc)) from exc


@_register("xqowl", "consistent", 1, 1)
def _xq_consistent(env, reasoner: list) -> list:
    return [reasoner_arg(reasoner, "xqowl:consistent").is_consistent()]


@_register("xqowl", "instances", 2, 2)
def _xq_instances(env, reasoner: list, cls: list) -> list:
    engine = reasoner_arg(reasoner, "xqowl:instances")
    iri = string_arg(cls, "xqowl:instances class")
    found = sorted(engine.instances(class_of_iri(iri)))
    return entities_to_xml(found, QName(None, "instance"))


@_register("xqowl", "subclasses", 2, 2)
def _xq_subclasses(env, reasoner: list, cls: list) -> list:
    engine = reasoner_arg(reasoner, "xqowl:subclasses")
    iri = string_arg(cls, "xqowl:subclasses class")
    found = sorted(engine.subclasses(class_of_iri(iri)))
    return entities_to_xml(found, QName(None, "subclass"))


@_register("xqowl", "property-values", 3, 3)
def _xq_property_values(env, reasoner: list, ind: list, prop: list) -> list:
    engine = reasoner_arg(reasoner, "xqowl:property-values")
    subject = string_arg(ind, "xqowl:property-values individual")
    role = string_arg(prop, "xqowl:property-values property")
    found = sorted(engine.property_values(subject, role))
    return entities_to_xml(found, QName(None, "value"))


@_register("xqowl", "axioms", 1, 1)
def _xq_axioms(env, ont: list) -> list:
    handle = ontology_arg(ont, "xqowl:axioms")
    return env.emit_document(axioms_to_xml(handle.ontology))


@_register("xqowl", "class-axioms", 2, 2)
def _xq_class_axioms(env, ont: list, cls: list) -> list:
    handle = ontology_arg(ont, "xqowl:class-axioms")
    iri = string_arg(cls, "xqowl:class-axioms class")
    return env.emit_document(axioms_to_xml(handle.ontology, subject=iri))


# -- sw: XML-to-ABox fragment builders --------------------------------------------

def _sw_builder(local: str, arity: int):
    """Register an sw: builder that takes its arguments as strings; an
    empty argument makes the result empty."""
    what = f"sw:{local}"

    def wrap(build: Callable[..., list]) -> Callable[..., list]:
        def builtin(env, *args: list) -> list:
            if any(not seq for seq in args):
                return []
            return build(*(string_arg(seq, what) for seq in args))
        _register("sw", local, arity, arity)(builtin)
        return build
    return wrap


@_register("sw", "ID", 1, 1)
def _sw_id(env, value: list) -> list:
    raw = optional_string(value, "sw:ID")
    return [] if raw is None else ["#" + raw]


def _property_name(local: str, what: str) -> QName:
    try:
        return QName(None, local)
    except ValueError as exc:
        raise EvalError(f"{what}: {exc}") from None


_NAMED_INDIVIDUAL = QName(OWL_NS, "NamedIndividual", prefix="owl")
_RDF_ABOUT, _RDF_TYPE, _RDF_RESOURCE, _RDF_DATATYPE = (
    QName(RDF_NS, local, prefix="rdf") for local in ("about", "type", "resource", "datatype"))


def _named_individual(about: str, prop: QName, attr: tuple[QName, str],
                      value: str | None = None) -> list:
    """An owl:NamedIndividual holding one property element."""
    individual = xmltree.element(_NAMED_INDIVIDUAL, [(_RDF_ABOUT, about)])
    xmltree.sub_element(individual, prop, [attr], value)
    return [individual]


@_sw_builder("toClassFiller", 2)
def _sw_class_filler(ind: str, cls: str) -> list:
    return _named_individual(ind, _RDF_TYPE, (_RDF_RESOURCE, cls))


@_sw_builder("toDataFiller", 4)
def _sw_data_filler(ind: str, prop: str, value: str, datatype: str) -> list:
    return _named_individual(ind, _property_name(prop, "sw:toDataFiller"),
                             (_RDF_DATATYPE, XSD_NS + datatype), value.strip())


@_sw_builder("toObjectFiller", 3)
def _sw_object_filler(ind: str, prop: str, target: str) -> list:
    return _named_individual(ind, _property_name(prop, "sw:toObjectFiller"),
                             (_RDF_RESOURCE, target))
