"""Evaluator for host programs.

Values are flat sequences (Python lists) of items: strings, numbers,
booleans, XML nodes, ontology handles and reasoner handles. Evaluation
is eager; for-clauses concatenate the per-item results of their body in
binding order, and element constructors deep-copy any nodes that flow
into their content.

The environment carries everything an evaluation touches outside the
program text: the directory file names resolve against, the optional
context document that absolute paths start from, parse caches for
documents, graphs and ontologies, and the temp-file compatibility mode
(see functions.py). One environment can be shared by many programs;
loaded resources are never mutated.
"""

from __future__ import annotations

import tempfile
from itertools import groupby
from operator import attrgetter
from pathlib import Path

from . import xmltree
from .errors import EvalError
from .functions import atomize, call_builtin, item_string
from .hostlang import (Compare, DocumentCtor, ElementCtor, Expr, FnCall, ForExpr,
                       IfExpr, LetExpr, NumberLit, PathApply, Program, SequenceExpr,
                       StringLit, UnionExpr, VarRef)
from .owl import Ontology, load_ontology
from .rdf import RdfGraph, parse_rdfxml
from .xmltree import XmlNode, clone, parse_xml, serialize_xml
from .xpaths import eval_steps


class Environment:
    """Shared evaluation context for one or more program runs."""

    def __init__(self, base_dir: str | Path = ".",
                 context_document: XmlNode | None = None,
                 temp_files: bool = False):
        self.base_dir = Path(base_dir)
        self.context_document = context_document
        self.temp_files = temp_files
        self._temp_dir: Path | None = None
        self._temp_serial = 0
        self._documents: dict[str, XmlNode] = {}
        self._graphs: dict[str, RdfGraph] = {}
        self._ontologies: dict[str, Ontology] = {}

    def resolve(self, name: str) -> Path:
        path = Path(name)
        return path if path.is_absolute() else self.base_dir / path

    def read_text(self, name: str) -> str:
        try:
            return self.resolve(name).read_text(encoding="utf-8")
        except OSError as exc:
            raise EvalError(f"cannot read {name!r}: {exc}") from exc

    def load_document(self, name: str) -> XmlNode:
        key = str(self.resolve(name))
        if key not in self._documents:
            self._documents[key] = parse_xml(self.read_text(name))
        return self._documents[key]

    def load_graph(self, name: str) -> RdfGraph:
        key = str(self.resolve(name))
        if key not in self._graphs:
            self._graphs[key] = parse_rdfxml(self.read_text(name))
        return self._graphs[key]

    def load_ontology_file(self, name: str) -> Ontology:
        key = str(self.resolve(name))
        if key not in self._ontologies:
            self._ontologies[key] = load_ontology(self.load_graph(name))
        return self._ontologies[key]

    def emit_document(self, doc: XmlNode) -> list:
        """Hand a result document to the program: the value itself, or in
        temp-file mode the name of a temporary file holding it."""
        if not self.temp_files:
            return [doc]
        if self._temp_dir is None:
            self._temp_dir = Path(tempfile.mkdtemp(prefix="xqowl-"))
        self._temp_serial += 1
        path = self._temp_dir / f"result{self._temp_serial}.xml"
        path.write_text(serialize_xml(doc, indent=True) + "\n", encoding="utf-8")
        return [str(path)]


def effective_boolean(seq: list) -> bool:
    if not seq:
        return False
    first = seq[0]
    if isinstance(first, XmlNode):
        return True
    if len(seq) > 1:
        raise EvalError("effective boolean value of a multi-item sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, str):
        return first != ""
    if isinstance(first, (int, float)):
        return first != 0
    raise EvalError(f"no effective boolean value for {first!r}")


class Interpreter:
    def __init__(self, env: Environment):
        self.env = env

    def run(self, program: Program) -> list:
        scope: dict[str, list] = {}
        for name, expr in program.variables:
            scope[name] = self.eval(expr, scope)
        return self.eval(program.body, scope)

    def eval(self, expr: Expr, scope: dict[str, list]) -> list:
        method = _EVAL.get(type(expr))
        if method is None:
            raise EvalError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, scope)

    # -- one method per expression type, dispatched through _EVAL -----------------

    def _literal(self, expr: StringLit | NumberLit, scope: dict[str, list]) -> list:
        return [expr.value]

    def _var(self, expr: VarRef, scope: dict[str, list]) -> list:
        try:
            return scope[expr.name]
        except KeyError:
            raise EvalError(f"unbound variable ${expr.name}") from None

    def _sequence(self, expr: SequenceExpr, scope: dict[str, list]) -> list:
        out: list = []
        for item in expr.items:
            out.extend(self.eval(item, scope))
        return out

    def _let(self, expr: LetExpr, scope: dict[str, list]) -> list:
        bound = self.eval(expr.value, scope)
        return self.eval(expr.body, {**scope, expr.var: bound})

    def _for(self, expr: ForExpr, scope: dict[str, list]) -> list:
        out = []
        for item in self.eval(expr.seq, scope):
            out.extend(self.eval(expr.body, {**scope, expr.var: [item]}))
        return out

    def _if(self, expr: IfExpr, scope: dict[str, list]) -> list:
        if effective_boolean(self.eval(expr.cond, scope)):
            return self.eval(expr.then, scope)
        return self.eval(expr.orelse, scope)

    def _compare(self, expr: Compare, scope: dict[str, list]) -> list:
        left = [item_string(i) for i in atomize(self.eval(expr.left, scope))]
        right = [item_string(i) for i in atomize(self.eval(expr.right, scope))]
        if expr.op == "=":
            return [any(a == b for a in left for b in right)]
        return [any(a != b for a in left for b in right)]

    def _union(self, expr: UnionExpr, scope: dict[str, list]) -> list:
        # nodes of any trees are deduplicated and put in node_id order, as
        # eval_steps does: document order within each tree (see xmltree)
        items = self.eval(expr.left, scope) + self.eval(expr.right, scope)
        if items and all(isinstance(i, XmlNode) for i in items):
            return sorted(set(items), key=attrgetter("node_id"))
        return items

    def _call(self, expr: FnCall, scope: dict[str, list]) -> list:
        args = [self.eval(a, scope) for a in expr.args]
        return call_builtin(self.env, expr.prefix, expr.name, args)

    def _path(self, expr: PathApply, scope: dict[str, list]) -> list:
        if expr.start is None:
            if self.env.context_document is None:
                raise EvalError("no context document for an absolute path")
            contexts = [self.env.context_document]
        else:
            contexts = []
            for value in self.eval(expr.start, scope):
                if not isinstance(value, XmlNode):
                    raise EvalError("a path step can only follow nodes, "
                                    f"not {value!r}")
                contexts.append(value)
        return eval_steps(contexts, expr.steps)

    def _construct_element(self, ctor: ElementCtor, scope: dict[str, list]) -> list:
        attrs = [(name, "".join(
                     part if isinstance(part, str)
                     else " ".join(map(item_string, self.eval(part, scope)))
                     for part in parts))
                 for name, parts in ctor.attrs]
        node = xmltree.element(ctor.name, attrs)
        for part in ctor.content:
            if isinstance(part, str):
                node.append(xmltree.text(part))
                continue
            # each run of adjacent atomic values becomes one text node
            values = self.eval(part, scope)
            for is_node, run in groupby(values, key=lambda v: isinstance(v, XmlNode)):
                if not is_node:
                    node.append(xmltree.text(" ".join(map(item_string, run))))
                    continue
                for value in run:
                    if value.kind == "attribute":
                        raise EvalError("attribute node in element content")
                    for child in value.children if value.kind == "document" else [value]:
                        node.append(clone(child))
        return [node]

    def _construct_document(self, ctor: DocumentCtor, scope: dict[str, list]) -> list:
        doc = XmlNode("document")
        if type(ctor.content) is ElementCtor:
            # a constructed element is fresh and referenced nowhere else: adopt it
            doc.append(self._construct_element(ctor.content, scope)[0])
            return [doc]
        values = self.eval(ctor.content, scope)
        elements = [v for v in values
                    if isinstance(v, XmlNode) and v.kind == "element"]
        if len(elements) != len(values) or len(elements) != 1:
            raise EvalError("a document constructor requires exactly one element")
        doc.append(clone(elements[0]))
        return [doc]


_EVAL = {
    StringLit: Interpreter._literal, NumberLit: Interpreter._literal,
    VarRef: Interpreter._var, SequenceExpr: Interpreter._sequence,
    LetExpr: Interpreter._let, ForExpr: Interpreter._for, IfExpr: Interpreter._if,
    Compare: Interpreter._compare, UnionExpr: Interpreter._union,
    PathApply: Interpreter._path, FnCall: Interpreter._call,
    ElementCtor: Interpreter._construct_element, DocumentCtor: Interpreter._construct_document,
}


def evaluate(program: Program, env: Environment | None = None) -> list:
    return Interpreter(env if env is not None else Environment()).run(program)
