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
        if isinstance(expr, StringLit):
            return [expr.value]
        if isinstance(expr, NumberLit):
            return [expr.value]
        if isinstance(expr, VarRef):
            try:
                return scope[expr.name]
            except KeyError:
                raise EvalError(f"unbound variable ${expr.name}") from None
        if isinstance(expr, SequenceExpr):
            out: list = []
            for item in expr.items:
                out.extend(self.eval(item, scope))
            return out
        if isinstance(expr, LetExpr):
            bound = self.eval(expr.value, scope)
            return self.eval(expr.body, {**scope, expr.var: bound})
        if isinstance(expr, ForExpr):
            out = []
            for item in self.eval(expr.seq, scope):
                out.extend(self.eval(expr.body, {**scope, expr.var: [item]}))
            return out
        if isinstance(expr, IfExpr):
            if effective_boolean(self.eval(expr.cond, scope)):
                return self.eval(expr.then, scope)
            return self.eval(expr.orelse, scope)
        if isinstance(expr, Compare):
            left = [item_string(i) for i in atomize(self.eval(expr.left, scope))]
            right = [item_string(i) for i in atomize(self.eval(expr.right, scope))]
            if expr.op == "=":
                return [any(a == b for a in left for b in right)]
            return [any(a != b for a in left for b in right)]
        if isinstance(expr, UnionExpr):
            return self._union(self.eval(expr.left, scope),
                               self.eval(expr.right, scope))
        if isinstance(expr, PathApply):
            return self._path(expr, scope)
        if isinstance(expr, FnCall):
            args = [self.eval(a, scope) for a in expr.args]
            return call_builtin(self.env, expr.prefix, expr.name, args)
        if isinstance(expr, ElementCtor):
            return [self._construct_element(expr, scope)]
        if isinstance(expr, DocumentCtor):
            return [self._construct_document(expr, scope)]
        raise EvalError(f"cannot evaluate {type(expr).__name__}")

    # -- composite forms ----------------------------------------------------------

    def _union(self, left: list, right: list) -> list:
        items = left + right
        if items and all(isinstance(i, XmlNode) for i in items):
            if len({id(i.root()) for i in items}) == 1:
                unique = {id(i): i for i in items}
                return sorted(unique.values(), key=lambda n: n.node_id)
        return items

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

    def _construct_element(self, ctor: ElementCtor, scope: dict[str, list]) -> XmlNode:
        attrs: list[tuple[xmltree.QName, str]] = []
        for name, parts in ctor.attrs:
            rendered = []
            for part in parts:
                if isinstance(part, str):
                    rendered.append(part)
                else:
                    values = self.eval(part, scope)
                    rendered.append(" ".join(item_string(v) for v in values))
            attrs.append((name, "".join(rendered)))
        children: list[XmlNode] = []
        for part in ctor.content:
            if isinstance(part, str):
                children.append(xmltree.text(part))
                continue
            atoms: list[str] = []

            def flush() -> None:
                if atoms:
                    children.append(xmltree.text(" ".join(atoms)))
                    atoms.clear()

            for value in self.eval(part, scope):
                if isinstance(value, XmlNode):
                    flush()
                    if value.kind == "document":
                        children.extend(clone(c) for c in value.children)
                    elif value.kind == "attribute":
                        raise EvalError("attribute node in element content")
                    else:
                        children.append(clone(value))
                else:
                    atoms.append(item_string(value))
            flush()
        return xmltree.element(ctor.name, attrs, children)

    def _construct_document(self, ctor: DocumentCtor, scope: dict[str, list]) -> XmlNode:
        values = self.eval(ctor.content, scope)
        elements = [v for v in values
                    if isinstance(v, XmlNode) and v.kind == "element"]
        if len(elements) != len(values) or len(elements) != 1:
            raise EvalError("a document constructor requires exactly one element")
        return xmltree.document(clone(elements[0]))


def evaluate(program: Program, env: Environment | None = None) -> list:
    return Interpreter(env if env is not None else Environment()).run(program)
