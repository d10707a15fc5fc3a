"""XML data model: qualified names, node trees, parsing, serialization.

The model is deliberately small: document, element, attribute and text
nodes only. Namespace prefixes are resolved to namespace IRIs at parse
time; the prefix itself is kept on the QName purely as a serialization
hint and never takes part in equality.

Every tree is built parent first (by the parser, clone, or sub_element,
ElementTree's SubElement idiom), so node_id order is document order.
canonical_key is for comparison only: nothing in the package sorts by it.
"""

from __future__ import annotations

import itertools
import re
from xml.parsers import expat

from .errors import NamespaceError, XmlParseError

XML_NS = "http://www.w3.org/XML/1998/namespace"

_NCNAME_RE = re.compile(r"^[^\W\d][\w.\-]*$")

_node_counter = itertools.count(1)


class QName:
    """Expanded name: (namespace IRI, local name) plus a prefix hint.

    Equality and hashing use only (namespace, local); two names parsed
    under different prefixes bound to the same IRI are the same name.
    """

    __slots__ = ("namespace", "local", "prefix")

    def __init__(self, namespace: str | None, local: str, prefix: str | None = None):
        if not _NCNAME_RE.match(local):
            raise ValueError(f"not a valid local name: {local!r}")
        self.namespace = namespace
        self.local = local
        self.prefix = prefix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QName):
            return NotImplemented
        return self.namespace == other.namespace and self.local == other.local

    def __hash__(self) -> int:
        return hash((self.namespace, self.local))

    def __repr__(self) -> str:
        if self.namespace is None:
            return f"QName({self.local})"
        return f"QName({{{self.namespace}}}{self.local})"


class XmlNode:
    """One node of an XML tree.

    kind is one of "document", "element", "attribute", "text". Text and
    attribute nodes are leaves: they all share one empty tuple as their
    children and attributes. Identity (used for document-order dedup) is
    per-node: node_id increases monotonically in creation order, and
    every tree the package builds creates a parent before its content,
    so node_id is document order. Structural comparison is a separate
    operation (canonical_equal).
    """

    __slots__ = ("kind", "name", "value", "attributes", "children", "node_id")

    def __init__(self, kind: str, name: QName | None = None, value: str | None = None):
        self.kind = kind
        self.name = name
        self.value = value
        leaf = kind == "text" or kind == "attribute"
        self.attributes: list[XmlNode] | tuple[()] = () if leaf else []
        self.children: list[XmlNode] | tuple[()] = () if leaf else []
        self.node_id = next(_node_counter)

    # -- construction helpers -------------------------------------------------

    def append(self, child: XmlNode) -> XmlNode:
        self.children.append(child)  # type: ignore[union-attr]
        return child

    def set_attribute(self, attr: XmlNode) -> None:
        self.attributes.append(attr)  # type: ignore[union-attr]

    def __repr__(self) -> str:
        if self.kind == "element":
            return f"<XmlNode element {self.name!r}>"
        if self.kind == "attribute":
            return f"<XmlNode attribute {self.name!r}={self.value!r}>"
        if self.kind == "text":
            return f"<XmlNode text {self.value!r}>"
        return "<XmlNode document>"


def element(name: QName, attrs: list[tuple[QName, str]] | None = None) -> XmlNode:
    node = XmlNode("element", name=name)
    for aname, avalue in attrs or []:
        node.set_attribute(attribute(aname, avalue))
    return node


def attribute(name: QName, value: str) -> XmlNode:
    return XmlNode("attribute", name=name, value=value)


def text(value: str) -> XmlNode:
    return XmlNode("text", value=value)


def sub_element(parent: XmlNode, name: QName, attrs: list[tuple[QName, str]] | None = None,
                value: str | None = None) -> XmlNode:
    """A new last child element of parent, then its text value if any."""
    node = parent.append(element(name, attrs))
    if value is not None:
        node.append(text(value))
    return node


def clone(node: XmlNode) -> XmlNode:
    """Deep copy with fresh node identities, children in document order."""
    copy = XmlNode(node.kind, name=node.name, value=node.value)
    if node.kind == "element" or node.kind == "document":
        copy.attributes.extend(map(clone, node.attributes))  # type: ignore[union-attr]
        copy.children.extend(map(clone, node.children))  # type: ignore[union-attr]
    return copy


def string_value(node: XmlNode) -> str:
    """XPath string value: text content, concatenated in document order."""
    if node.kind in ("text", "attribute"):
        return node.value or ""
    parts: list[str] = []

    def walk(n: XmlNode) -> None:
        for child in n.children:
            if child.kind == "text":
                parts.append(child.value or "")
            else:
                walk(child)

    walk(node)
    return "".join(parts)


def child_elements(node: XmlNode) -> list[XmlNode]:
    return [c for c in node.children if c.kind == "element"]


def get_attribute(node: XmlNode, name: QName) -> str | None:
    for attr in node.attributes:
        if attr.name == name:
            return attr.value
    return None


# -- parsing ------------------------------------------------------------------

def _split_expat_name(name: str) -> QName:
    parts = name.split(" ")
    if len(parts) == 1:
        return QName(None, parts[0])
    if len(parts) == 2:
        return QName(parts[0], parts[1])
    return QName(parts[0], parts[1], prefix=parts[2])


class _TreeBuilder:
    def __init__(self) -> None:
        self.doc = XmlNode("document")
        self.stack: list[XmlNode] = [self.doc]
        self.text_buf: list[str] = []
        self.parser = expat.ParserCreate(namespace_separator=" ")
        self.parser.namespace_prefixes = True
        self.parser.ordered_attributes = True
        self.parser.buffer_text = True
        p = self.parser
        p.StartElementHandler = self.start_element
        p.EndElementHandler = self.end_element
        p.CharacterDataHandler = self.characters
        p.StartDoctypeDeclHandler = self.reject_doctype
        p.StartCdataSectionHandler = self.reject_cdata
        p.ProcessingInstructionHandler = self.reject_pi
        p.CommentHandler = lambda data: None

    def _pos(self) -> tuple[int, int]:
        return self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber + 1

    def reject_doctype(self, *args: object) -> None:
        raise XmlParseError("DOCTYPE declarations are not supported", *self._pos())

    def reject_cdata(self) -> None:
        raise XmlParseError("CDATA sections are not supported", *self._pos())

    def reject_pi(self, target: str, data: str) -> None:
        raise XmlParseError(f"processing instructions are not supported: <?{target}?>",
                            *self._pos())

    def flush_text(self) -> None:
        if self.text_buf:
            self.stack[-1].append(text("".join(self.text_buf)))
            self.text_buf.clear()

    def start_element(self, name: str, attrs: list[str]) -> None:
        self.flush_text()
        node = XmlNode("element", name=_split_expat_name(name))
        for i in range(0, len(attrs), 2):
            node.set_attribute(attribute(_split_expat_name(attrs[i]), attrs[i + 1]))
        self.stack[-1].append(node)
        self.stack.append(node)

    def end_element(self, name: str) -> None:
        self.flush_text()
        self.stack.pop()

    def characters(self, data: str) -> None:
        if len(self.stack) == 1:
            # whitespace outside the root element is allowed but not kept
            if data.strip():
                raise XmlParseError("text content outside the root element", *self._pos())
            return
        self.text_buf.append(data)


def parse_xml(markup: str) -> XmlNode:
    """Parse markup into a document node with exactly one element child.

    Raises XmlParseError with line/column on malformed markup and
    NamespaceError when a prefix has no declaration in scope.
    """
    builder = _TreeBuilder()
    try:
        builder.parser.Parse(markup, True)
    except expat.ExpatError as exc:
        line = getattr(exc, "lineno", None)
        column = getattr(exc, "offset", None)
        column = column + 1 if column is not None else None
        message = expat.errors.messages.get(exc.code, str(exc))
        if exc.code in (
            expat.errors.codes[expat.errors.XML_ERROR_UNBOUND_PREFIX],
            expat.errors.codes[expat.errors.XML_ERROR_UNDECLARING_PREFIX],
        ):
            raise NamespaceError(f"namespace error: {message}", line, column) from exc
        raise XmlParseError(f"malformed XML: {message}", line, column) from exc
    if not child_elements(builder.doc):
        raise XmlParseError("document has no root element", 1, 1)
    return builder.doc


# -- serialization ------------------------------------------------------------

def _escape_text(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(value: str) -> str:
    return _escape_text(value).replace('"', "&quot;")


class _PrefixPlan:
    """Maps every namespace IRI used in a tree to one prefix (or default)."""

    def __init__(self, root: XmlNode):
        self.prefixes: dict[str, str] = {}
        self.default_ns: str | None = None
        self._has_plain_elements = False
        self._attr_namespaces: set[str] = set()
        self._order: list[tuple[str, str | None]] = []
        self._scan(root)
        self._assign()

    def _scan(self, node: XmlNode) -> None:
        if node.kind != "element":
            return
        assert node.name is not None  # every element is built with its name
        if node.name.namespace is None:
            self._has_plain_elements = True
        else:
            self._order.append((node.name.namespace, node.name.prefix))
        for attr in node.attributes:
            assert attr.name is not None  # every attribute is built with its name
            ns = attr.name.namespace
            if ns is not None and ns != XML_NS:
                self._attr_namespaces.add(ns)
                self._order.append((ns, attr.name.prefix))
        for child in node.children:
            self._scan(child)

    def _assign(self) -> None:
        used: set[str] = {"xml", "xmlns"}
        invented = itertools.count(1)
        for ns, hint in self._order:
            if ns in self.prefixes or ns == self.default_ns:
                continue
            if hint is None and not self._has_plain_elements \
                    and self.default_ns is None and ns not in self._attr_namespaces:
                self.default_ns = ns
                continue
            prefix = hint if hint and hint not in used else None
            while prefix is None:
                candidate = f"ns{next(invented)}"
                if candidate not in used:
                    prefix = candidate
            used.add(prefix)
            self.prefixes[ns] = prefix

    def declarations(self) -> list[tuple[str, str]]:
        decls = [(f"xmlns:{p}", ns) for ns, p in self.prefixes.items()]
        if self.default_ns is not None:
            decls.append(("xmlns", self.default_ns))
        return sorted(decls)

    def render_name(self, name: QName, is_attribute: bool = False) -> str:
        if name.namespace is None:
            return name.local
        if name.namespace == XML_NS:
            return f"xml:{name.local}"
        if not is_attribute and name.namespace == self.default_ns:
            return name.local
        return f"{self.prefixes[name.namespace]}:{name.local}"


def serialize_xml(node: XmlNode, indent: bool = False) -> str:
    """Serialize a document, element, or text node back to markup.

    Namespace declarations are computed from the names in the tree and
    emitted on the root element. Attributes are written in lexicographic
    order; childless elements are self-closing. With indent=True,
    whitespace-only text between elements is replaced by an indented
    layout; elements with real text content stay on one line.
    """
    if node.kind == "text":
        return _escape_text(node.value or "")
    root = node
    if node.kind == "document":
        roots = child_elements(node)
        if len(roots) != 1:
            raise ValueError("document must have exactly one element child")
        root = roots[0]
    elif node.kind != "element":
        raise ValueError(f"cannot serialize a {node.kind} node on its own")
    plan = _PrefixPlan(root)
    out: list[str] = []
    _write_element(out, root, plan, 0, indent, is_root=True)
    return "".join(out)


def _significant_children(node: XmlNode, indent: bool) -> list[XmlNode]:
    kept = []
    for child in node.children:
        if child.kind == "text":
            if child.value == "":
                continue
            if indent and (child.value or "").strip() == "":
                continue
        kept.append(child)
    return kept


def _write_element(out: list[str], node: XmlNode, plan: _PrefixPlan,
                   depth: int, indent: bool, is_root: bool = False) -> None:
    assert node.name is not None  # every element is built with its name
    tag = plan.render_name(node.name)
    attrs: list[tuple[str, str]] = []
    if is_root:
        attrs.extend(plan.declarations())
    attrs.extend((plan.render_name(a.name, is_attribute=True), a.value or "")
                 for a in node.attributes)
    attrs.sort(key=lambda item: item[0])
    out.append(f"<{tag}")
    for name, value in attrs:
        out.append(f' {name}="{_escape_attr(value)}"')
    children = _significant_children(node, indent)
    if not children:
        out.append("/>")
        return
    out.append(">")
    block = indent and all(c.kind == "element" for c in children)
    for child in children:
        if block:
            out.append("\n" + "  " * (depth + 1))
        if child.kind == "element":
            _write_element(out, child, plan, depth + 1, indent)
        else:
            out.append(_escape_text(child.value or ""))
    if block:
        out.append("\n" + "  " * depth)
    out.append(f"</{tag}>")


# -- canonical comparison ------------------------------------------------------

def canonical_key(node: XmlNode) -> tuple:
    """Hashable structural digest: attribute order and inter-element
    whitespace are normalized, prefixes ignored."""
    if node.kind == "document":
        roots = child_elements(node)
        return ("document", tuple(canonical_key(r) for r in roots))
    if node.kind == "text":
        return ("text", (node.value or "").strip())
    if node.kind == "attribute":
        assert node.name is not None  # every attribute is built with its name
        return ("attribute", (node.name.namespace, node.name.local), node.value or "")
    assert node.name is not None  # an element: every one is built with its name
    attrs = tuple(sorted(((a.name.namespace, a.name.local), a.value or "")
                         for a in node.attributes))
    parts: list[tuple] = []
    pending_text: list[str] = []
    for child in node.children:
        if child.kind == "text":
            pending_text.append(child.value or "")
        else:
            _flush_canonical_text(parts, pending_text)
            parts.append(canonical_key(child))
    _flush_canonical_text(parts, pending_text)
    return ("element", (node.name.namespace, node.name.local), attrs, tuple(parts))


def _flush_canonical_text(parts: list[tuple], pending: list[str]) -> None:
    if pending:
        merged = "".join(pending).strip()
        if merged:
            parts.append(("text", merged))
        pending.clear()


def canonical_equal(a: XmlNode, b: XmlNode) -> bool:
    return canonical_key(a) == canonical_key(b)
