"""XML model: parsing, serialization, canonical comparison."""

from __future__ import annotations

import random

import pytest

from conftest import assert_document_order
from xqowl.errors import NamespaceError, XmlParseError
from xqowl.hostlang import parse_program
from xqowl.interpreter import evaluate
from xqowl.xmltree import (
    QName,
    XmlNode,
    attribute,
    canonical_equal,
    canonical_key,
    clone,
    element,
    get_attribute,
    parse_xml,
    serialize_xml,
    string_value,
    sub_element,
    text,
)

FOAF = "http://xmlns.com/foaf/0.1/"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


def test_qname_equality_ignores_prefix():
    assert QName(FOAF, "name", prefix="foaf") == QName(FOAF, "name", prefix="f")
    assert hash(QName(FOAF, "name", prefix="foaf")) == hash(QName(FOAF, "name"))
    assert QName(FOAF, "name") != QName(None, "name")
    assert QName(FOAF, "name") != QName(FOAF, "nick")


def test_qname_rejects_bad_local_names():
    with pytest.raises(ValueError):
        QName(None, "1abc")
    with pytest.raises(ValueError):
        QName(None, "a:b")


def test_parse_simple_document():
    doc = parse_xml('<a z="1"><b>hi</b><b/></a>')
    root = doc.children[0]
    assert doc.kind == "document" and root.kind == "element"
    assert root.name == QName(None, "a")
    assert get_attribute(root, QName(None, "z")) == "1"
    bs = [c for c in root.children if c.kind == "element"]
    assert len(bs) == 2
    assert string_value(bs[0]) == "hi"
    assert bs[1].children == []


def test_parse_resolves_namespaces():
    doc = parse_xml(
        f'<r:RDF xmlns:r="{RDF}" xmlns="{FOAF}">'
        f'<Person r:about="#b1"/></r:RDF>'
    )
    root = doc.children[0]
    assert root.name == QName(RDF, "RDF")
    person = root.children[0]
    assert person.name == QName(FOAF, "Person")
    # attributes never take the default namespace
    assert get_attribute(person, QName(RDF, "about")) == "#b1"


def test_parse_expands_predefined_entities():
    doc = parse_xml("<a>&lt;&amp;&gt;&quot;&apos;</a>")
    assert string_value(doc) == "<&>\"'"


ORDERED_MARKUP = '<a p="1" q="2">x<b r="3"><c/>y</b><d s="4"/>z</a>'


def _sub_element_tree() -> XmlNode:
    root = element(QName(None, "a"), [(QName(None, "p"), "1")])
    b = sub_element(root, QName(None, "b"), [(QName(None, "q"), "2")], "x")
    sub_element(b, QName(None, "c"), value="y")
    sub_element(root, QName(None, "d"))
    return root


def test_parse_keeps_document_order_in_node_ids():
    # parsed, cloned and constructed trees, and trees built with sub_element
    trees = [
        parse_xml("<a><b><c/></b><d/></a>"),
        parse_xml(ORDERED_MARKUP),
        clone(parse_xml(ORDERED_MARKUP)),
        _sub_element_tree(),
        clone(_sub_element_tree()),
        *evaluate(parse_program(
            f'let $d := {ORDERED_MARKUP} return <r k="v">t{{($d, "u")}}<e>{{$d/b}}</e></r>')),
        *evaluate(parse_program(f"document {{ {ORDERED_MARKUP} }}")),
        *evaluate(parse_program(
            f"let $d := document {{ {ORDERED_MARKUP} }} return document {{ $d/a }}")),
    ]
    assert len(trees) == 8
    for tree in trees:
        assert_document_order(tree)


def test_document_order_check_rejects_a_tree_built_bottom_up():
    leaf = element(QName(None, "leaf"))
    root = element(QName(None, "root"))
    root.append(leaf)
    with pytest.raises(AssertionError):
        assert_document_order(root)


def test_sub_element_appends_a_child_with_its_text():
    root = element(QName(None, "a"))
    child = sub_element(root, QName(None, "b"), [(QName(None, "k"), "v")], "t")
    assert root.children == [child]
    assert serialize_xml(root) == '<a><b k="v">t</b></a>'
    assert sub_element(child, QName(None, "c")).children == []


def test_parse_error_carries_position():
    with pytest.raises(XmlParseError) as err:
        parse_xml("<a><b></a>")
    assert err.value.line == 1
    assert err.value.column is not None


def test_undeclared_prefix_is_a_namespace_error():
    with pytest.raises(NamespaceError):
        parse_xml("<foo:a/>")


@pytest.mark.parametrize("markup", [
    "<!DOCTYPE a><a/>",
    "<a><![CDATA[x]]></a>",
    "<a><?pi data?></a>",
    "<a></a><b/>",
    "",
])
def test_rejected_markup(markup):
    with pytest.raises(XmlParseError):
        parse_xml(markup)


def test_comments_are_skipped():
    doc = parse_xml("<a><!-- note --><b/></a>")
    root = doc.children[0]
    assert [c.kind for c in root.children] == ["element"]


def test_xml_declaration_is_accepted():
    doc = parse_xml("<?xml version='1.0' encoding='UTF-8'?>\n<a/>")
    assert doc.children[0].name == QName(None, "a")


def test_serialize_empty_element_is_self_closing():
    assert serialize_xml(element(QName(None, "a"))) == "<a/>"
    only_empty_text = element(QName(None, "a"))
    only_empty_text.append(text(""))
    assert serialize_xml(only_empty_text) == "<a/>"


def test_serialize_sorts_attributes():
    node = element(QName(None, "a"), attrs=[(QName(None, "z"), "1"),
                                            (QName(None, "b"), "2")])
    assert serialize_xml(node) == '<a b="2" z="1"/>'


def test_serialize_escapes():
    node = element(QName(None, "a"), attrs=[(QName(None, "v"), 'x"<&')])
    node.append(text("a<b&c"))
    assert serialize_xml(node) == '<a v="x&quot;&lt;&amp;">a&lt;b&amp;c</a>'


def test_serialize_declares_namespaces_at_root():
    node = element(QName(RDF, "RDF", prefix="rdf"))
    sub_element(node, QName(FOAF, "Person", prefix="foaf"),
                [(QName(RDF, "about", prefix="rdf"), "#b1")])
    out = serialize_xml(node)
    assert f'xmlns:rdf="{RDF}"' in out
    assert f'xmlns:foaf="{FOAF}"' in out
    assert canonical_equal(parse_xml(out).children[0], clone(node))


def test_serialize_uses_default_namespace_for_unprefixed_names():
    ns = "http://www.w3.org/2005/sparql-results#"
    node = element(QName(ns, "sparql"))
    sub_element(node, QName(ns, "head"))
    out = serialize_xml(node)
    assert f'<sparql xmlns="{ns}">' in out
    reparsed = parse_xml(out).children[0]
    assert reparsed.name == QName(ns, "sparql")
    assert reparsed.children[0].name == QName(ns, "head")


def test_serialize_avoids_default_namespace_when_plain_names_exist():
    node = element(QName("http://ex.org/", "outer"))
    sub_element(node, QName(None, "plain"))
    reparsed = parse_xml(serialize_xml(node)).children[0]
    assert reparsed.name == QName("http://ex.org/", "outer")
    assert reparsed.children[0].name == QName(None, "plain")


def test_serialize_indent_layout():
    doc = parse_xml("<a><b><c>t</c></b><d/></a>")
    out = serialize_xml(doc, indent=True)
    assert out == "<a>\n  <b>\n    <c>t</c>\n  </b>\n  <d/>\n</a>"
    assert canonical_equal(parse_xml(out), doc)


def test_mixed_content_is_not_reindented():
    doc = parse_xml("<a>one <b/> two</a>")
    assert serialize_xml(doc, indent=True) == "<a>one <b/> two</a>"


def test_canonical_ignores_attribute_order_and_layout_whitespace():
    a = parse_xml('<r>\n  <p x="1" y="2"> Bob </p>\n</r>')
    b = parse_xml('<r><p y="2" x="1">Bob</p></r>')
    assert canonical_equal(a, b)
    assert canonical_key(a) == canonical_key(b)


def test_canonical_distinguishes_real_differences():
    base = parse_xml("<r><p>Bob</p></r>")
    assert not canonical_equal(base, parse_xml("<r><p>Bobby</p></r>"))
    assert not canonical_equal(base, parse_xml('<r><p a="1">Bob</p></r>'))
    assert not canonical_equal(base, parse_xml("<r><p>Bob</p><p>Bob</p></r>"))
    # child order matters
    two = parse_xml("<r><a/><b/></r>")
    assert not canonical_equal(two, parse_xml("<r><b/><a/></r>"))


def test_attribute_values_are_not_whitespace_normalized():
    a = parse_xml('<r x=" 1 "/>')
    b = parse_xml('<r x="1"/>')
    assert not canonical_equal(a, b)


def test_clone_is_structurally_equal_with_fresh_identity():
    doc = parse_xml('<a x="1"><b>t</b></a>')
    copy = clone(doc)
    assert canonical_equal(doc, copy)
    assert copy.children[0] is not doc.children[0]
    assert copy.children[0].node_id != doc.children[0].node_id
    a = doc.children[0]
    leaves = [a.attributes[0], a.children[0].children[0],
              text("t & u"), attribute(QName(None, "n"), "v & w")]
    for leaf in leaves + [clone(leaf) for leaf in leaves]:
        assert leaf.children == () and leaf.attributes == ()
    assert [(c.kind, c.name, c.value) for c in map(clone, leaves)] == \
        [(n.kind, n.name, n.value) for n in leaves]
    assert [string_value(n) for n in leaves] == ["1", "t", "t & u", "v & w"]
    assert serialize_xml(leaves[2]) == serialize_xml(clone(leaves[2])) == "t &amp; u"


def _random_tree(rng: random.Random, depth: int = 0):
    name = QName(None, rng.choice("abcde"))
    attrs = [(QName(None, n), str(rng.randrange(10)))
             for n in rng.sample("pqrs", rng.randrange(3))]
    node = element(name, attrs=attrs)
    if depth < 3:
        for _ in range(rng.randrange(4)):
            if rng.random() < 0.3:
                node.append(text(rng.choice(["hi", "lo", "  ", "x y"])))
            else:
                node.append(_random_tree(rng, depth + 1))
    return node


@pytest.mark.parametrize("seed", range(40))
def test_parse_serialize_round_trip_is_canonical_identity(seed):
    tree = _random_tree(random.Random(seed))
    for indent in (False, True):
        assert canonical_equal(parse_xml(serialize_xml(tree, indent=indent)).children[0],
                               tree)


def test_string_value_concatenates_descendant_text():
    doc = parse_xml("<a>x<b>y</b>z</a>")
    assert string_value(doc) == "xyz"
    assert string_value(doc.children[0]) == "xyz"
    attr = attribute(QName(None, "n"), "v")
    assert string_value(attr) == "v"
