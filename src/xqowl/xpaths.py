"""Path step evaluation over XML trees.

The steps are built by the host-language parser (hostlang): a child or
attribute axis, a node test (a name, "*" or "text()") and predicates
that test an attribute value or the presence of a child element. Every
name in a step is already resolved to its namespace IRI, so evaluation
compares expanded names only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .xmltree import QName, XmlNode, get_attribute


@dataclass(frozen=True)
class AttrEquals:
    name: QName
    value: str


@dataclass(frozen=True)
class HasChild:
    name: QName


Predicate = AttrEquals | HasChild


@dataclass(frozen=True)
class Step:
    axis: str  # "child" | "attribute"
    test: QName | str  # QName for a name test, "*" or "text()" otherwise
    predicates: tuple[Predicate, ...] = ()


def _matches_predicate(node: XmlNode, pred: Predicate) -> bool:
    if isinstance(pred, AttrEquals):
        return get_attribute(node, pred.name) == pred.value
    return any(c.kind == "element" and c.name == pred.name for c in node.children)


def _eval_step(node: XmlNode, step: Step) -> list[XmlNode]:
    if step.axis == "attribute":
        if node.kind != "element":
            return []
        selected = [a for a in node.attributes if a.name == step.test]
    else:
        selected = list(node.children) if node.kind in ("element", "document") else []
    out = []
    for cand in selected:
        if step.test == "text()":
            if cand.kind != "text":
                continue
        elif step.test == "*":
            if cand.kind != "element":
                continue
        elif step.axis != "attribute":
            if cand.kind != "element" or cand.name != step.test:
                continue
        if all(_matches_predicate(cand, p) for p in step.predicates):
            out.append(cand)
    return out


def eval_steps(contexts: list[XmlNode], steps: tuple[Step, ...]) -> list[XmlNode]:
    """Apply steps to each context in turn, deduplicating by node
    identity and keeping document order (nodes of one tree are created
    in document order, so node_id is the sort key)."""
    current = list(contexts)
    for step in steps:
        seen: set[int] = set()
        next_nodes: list[XmlNode] = []
        for node in current:
            for result in _eval_step(node, step):
                if id(result) not in seen:
                    seen.add(id(result))
                    next_nodes.append(result)
        next_nodes.sort(key=lambda n: n.node_id)
        current = next_nodes
    return current
