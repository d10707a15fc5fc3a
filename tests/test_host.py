"""Host language: parser shape, evaluation semantics, fixture programs."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, assert_document_order, fixture_text, steps_of
from xqowl.errors import EvalError, HostSyntaxError, SparqlSyntaxError
from xqowl.functions import OntologyHandle, ReasonerHandle
from xqowl.hostlang import (
    Compare, DocumentCtor, ElementCtor, FnCall, ForExpr, IfExpr, LetExpr,
    NumberLit, PathApply, SequenceExpr, StringLit, VarRef, parse_program,
)
from xqowl.interpreter import Environment, Interpreter, evaluate
from xqowl.owl import (
    ClassAssertion, DataAssertion, Named, RoleAssertion, load_ontology,
)
from xqowl.rdf import Literal, parse_rdfxml, rdf_from_document
from xqowl.xmltree import (
    QName, XmlNode, canonical_equal, canonical_key, child_elements, parse_xml,
    serialize_xml, string_value,
)
from xqowl.xpaths import eval_steps

SN = "http://www.semanticweb.org/socialnetwork.owl#"
PROGRAMS = ("example1.xq", "lowering.xq", "object_properties.xq",
            "class_axioms.xq", "consistency.xq", "instances.xq",
            "subclasses.xq", "recommended_friends.xq", "mapping.xq")


def run_text(source: str, **env_args) -> list:
    return evaluate(parse_program(source), Environment(**env_args))


def run_fixture(name: str, context: str | None = None,
                temp_files: bool = False) -> list:
    ctx = parse_xml(fixture_text(context)) if context else None
    env = Environment(base_dir=FIXTURES, context_document=ctx,
                      temp_files=temp_files)
    return evaluate(parse_program(fixture_text(name)), env)


def texts(items: list) -> list[str]:
    return [string_value(item) for item in items]


# -- parser -----------------------------------------------------------------------


class TestParser:
    def test_let_golden(self):
        prog = parse_program("let $x := 1 return $x")
        assert prog.body == LetExpr("x", NumberLit(1), VarRef("x"))

    def test_incomplete_for_is_rejected(self):
        with pytest.raises(HostSyntaxError):
            parse_program("for $x in")

    def test_multi_binding_let(self):
        prog = parse_program("let $a := 1, $b := 2 return ($a, $b)")
        assert prog.body == LetExpr(
            "a", NumberLit(1),
            LetExpr("b", NumberLit(2),
                    SequenceExpr((VarRef("a"), VarRef("b")))))

    def test_where_folds_into_conditional(self):
        prog = parse_program('for $x in (1, 2) where $x = "1" return $x')
        body = prog.body.body
        assert isinstance(body, IfExpr)
        assert body.cond == Compare("=", VarRef("x"), StringLit("1"))
        assert body.orelse == SequenceExpr(())

    def test_prolog_declarations(self):
        prog = parse_program(
            'declare namespace ex = "urn:example";\n'
            'declare variable $a := "x";\n'
            'declare variable $b := $a;\n'
            "$b")
        assert prog.namespaces["ex"] == "urn:example"
        assert [name for name, _ in prog.variables] == ["a", "b"]
        assert prog.body == VarRef("b")

    def test_example1_shape(self):
        prog = parse_program(fixture_text("example1.xq"))
        outer = prog.body
        assert isinstance(outer, LetExpr) and outer.var == "model"
        loop = outer.body
        assert isinstance(loop, ForExpr)
        assert loop.seq == SequenceExpr((StringLit("sn:user"),
                                         StringLit("sn:event")))
        inner = loop.body
        assert isinstance(inner, LetExpr) and inner.var == "queryStr"
        assert isinstance(inner.value, FnCall)
        assert (inner.value.prefix, inner.value.name) == ("fn", "concat")
        tail = inner.body.body.body  # past the xqo and res bindings
        assert isinstance(tail, PathApply)
        assert isinstance(tail.start, FnCall) and tail.start.name == "doc"
        assert len(tail.steps) == 6
        assert tail.steps[-1].test == "text()"

    def test_path_qnames_resolved_at_parse_time(self):
        prog = parse_program(
            'declare namespace s = "urn:s";\nlet $d := doc("x") return $d/s:a')
        steps = prog.body.body.steps
        assert steps[0].test == QName("urn:s", "a")

    def test_undeclared_path_prefix_rejected(self):
        with pytest.raises(HostSyntaxError) as err:
            parse_program('let $d := doc("x") return $d/nope:a')
        assert "nope" in str(err.value)

    def test_descendant_step_unsupported(self):
        with pytest.raises(HostSyntaxError):
            parse_program('let $d := doc("x") return $d//a')

    @pytest.mark.parametrize("axis", ["parent", "self", "ancestor",
                                      "following-sibling"])
    def test_unsupported_axis_is_named(self, axis):
        with pytest.raises(HostSyntaxError) as err:
            parse_program(f'let $d := doc("x") return $d/{axis}::a')
        assert str(err.value).startswith(f"unsupported axis '{axis}'")
        assert (err.value.line, err.value.column) == (1, 30)

    def test_unknown_function_prefix_rejected(self):
        with pytest.raises(HostSyntaxError) as err:
            parse_program("om:loadOntology()")
        assert "om" in str(err.value)

    def test_comments_are_skipped(self):
        prog = parse_program(
            "(: outer (: nested :) :) let $x := 1 return (: mid :) $x")
        assert prog.body == LetExpr("x", NumberLit(1), VarRef("x"))

    def test_doubled_quote_escape(self):
        prog = parse_program('let $q := "say ""hi""" return $q')
        assert prog.body.value == StringLit('say "hi"')

    def test_strings_may_span_lines(self):
        prog = parse_program('let $q := "a\nb" return $q')
        assert prog.body.value == StringLit("a\nb")

    def test_numbers(self):
        assert parse_program("(1, 2.5)").body == SequenceExpr(
            (NumberLit(1), NumberLit(2.5)))

    def test_constructor_attr_interpolation(self):
        prog = parse_program('<x a="pre{$v}post"/>')
        ((name, parts),) = prog.body.attrs
        assert name == QName(None, "a")
        assert parts == ("pre", VarRef("v"), "post")

    def test_constructor_entity_and_brace_escapes(self):
        prog = parse_program("<x>&lt;&amp;&gt; {{literal}}</x>")
        assert prog.body.content == ("<&> {literal}",)

    def test_boundary_whitespace_dropped(self):
        prog = parse_program("<x>\n  {$v}\n</x>")
        assert prog.body.content == (VarRef("v"),)

    def test_scoped_xmlns_resolves_subtree_names(self):
        prog = parse_program('<p:a xmlns:p="urn:p"><p:b/></p:a>')
        assert prog.body.name == QName("urn:p", "a")
        assert prog.body.content[0].name == QName("urn:p", "b")

    def test_scoped_xmlns_does_not_leak(self):
        with pytest.raises(HostSyntaxError):
            parse_program('(<a xmlns:p="urn:p"><p:b/></a>, <p:c/>)')

    def test_default_xmlns_applies_to_elements_not_attributes(self):
        prog = parse_program('<a xmlns="urn:d" k="v"><b/></a>')
        assert prog.body.name == QName("urn:d", "a")
        assert prog.body.attrs[0][0] == QName(None, "k")
        assert prog.body.content[0].name == QName("urn:d", "b")

    def test_mismatched_closing_tag(self):
        with pytest.raises(HostSyntaxError):
            parse_program("<a><b></a></b>")

    def test_document_constructor(self):
        prog = parse_program("document{ <a/> }")
        assert isinstance(prog.body, DocumentCtor)
        assert isinstance(prog.body.content, ElementCtor)

    def test_trailing_input_rejected(self):
        with pytest.raises(HostSyntaxError):
            parse_program("let $x := 1 return $x $y")

    def test_error_carries_position(self):
        with pytest.raises(HostSyntaxError) as err:
            parse_program("let $x :=\n   ;")
        assert err.value.line == 2

    @pytest.mark.parametrize("source,parts", [
        ('<x a="{{"/>', ("{",)),
        ('<x a="}}"/>', ("}",)),
        ('<x a="&amp;"/>', ("&",)),
        ('<x a="{1}"/>', (NumberLit(1),)),
        ('<x a=" {1} "/>', (" ", NumberLit(1), " ")),
        ('<x a=" {{ {$v} &lt; "/>', (" { ", VarRef("v"), " < ")),
        ("<x a='say \"hi\"'/>", ('say "hi"',)),
    ])
    def test_attribute_value_text(self, source, parts):
        # the same escapes as element content, but whitespace is kept
        ((_, value),) = parse_program(source).body.attrs
        assert value == parts

    def test_quotes_are_literal_in_element_content(self):
        prog = parse_program("<x>say \"hi\", it's {1}</x>")
        assert prog.body.content == ('say "hi", it\'s ', NumberLit(1))

    @pytest.mark.parametrize("source,message,line,column", [
        ('<x a="}"/>', "'}' outside an enclosed expression", 1, 7),
        ("<x>\n  }</x>", "'}' outside an enclosed expression", 2, 3),
        ('<x a="<"/>', "'<' is not allowed in an attribute value", 1, 7),
        ('<x a="abc', "unterminated attribute value", 1, 10),
        ("<x>abc", "unterminated element <x>", 1, 7),
        ("f(1,", "expected an expression", 1, 5),
        ("for $x := 1 return $x", "expected 'in'", 1, 8),
        ("let $x in 1 return $x", "expected ':='", 1, 8),
        ("(\u00b2)", "expected '('", 1, 3),  # a digit to isdigit, a name to the grammar
    ])
    def test_syntax_error_message_and_position(self, source, message, line, column):
        with pytest.raises(HostSyntaxError) as err:
            parse_program(source)
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("source,expr", [
        ("f()", FnCall("fn", "f", ())),
        ("f(1, 2)", FnCall("fn", "f", (NumberLit(1), NumberLit(2)))),
        ("()", SequenceExpr(())),
        ("(1)", NumberLit(1)),
    ])
    def test_expression_lists(self, source, expr):
        assert parse_program(source).body == expr

    def test_multi_binding_for(self):
        prog = parse_program("for $a in 1, $b in 2 return ($a, $b)")
        assert prog.body == ForExpr(
            "a", NumberLit(1),
            ForExpr("b", NumberLit(2),
                    SequenceExpr((VarRef("a"), VarRef("b")))))

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_fixture_programs_parse(self, name):
        parse_program(fixture_text(name))


# -- evaluation semantics ----------------------------------------------------------


class TestEvaluation:
    def test_sequences_flatten(self):
        assert run_text("((1, 2), 3)") == [1, 2, 3]

    def test_for_concatenates_in_order(self):
        result = run_text("for $c in ('a', 'b') return <x>{$c}</x>")
        assert [string_value(el) for el in result] == ["a", "b"]
        assert all(el.name == QName(None, "x") for el in result)

    def test_let_binds_whole_sequence(self):
        assert run_text("let $s := (1, 2) return ($s, $s)") == [1, 2, 1, 2]

    def test_nested_scopes_shadow(self):
        assert run_text(
            "let $x := 'outer' return (for $x in ('a', 'b') return $x, $x)"
        ) == ["a", "b", "outer"]

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            run_text("$nope")

    def test_if_branches_on_effective_boolean(self):
        assert run_text("if (()) then 1 else 2") == [2]
        assert run_text("if ('x') then 1 else 2") == [1]
        assert run_text("if ('') then 1 else 2") == [2]
        assert run_text("if (<a/>) then 1 else 2") == [1]

    def test_effective_boolean_of_two_atomics_fails(self):
        with pytest.raises(EvalError):
            run_text("if (('a', 'b')) then 1 else 2")

    def test_general_comparison_is_existential(self):
        assert run_text("('a', 'b') = 'b'") == [True]
        assert run_text("('a', 'b') = 'c'") == [False]
        assert run_text("'a' != 'a'") == [False]
        assert run_text("('a', 'b') != 'a'") == [True]
        assert run_text("() = 'a'") == [False]
        assert run_text("() != 'a'") == [False]

    def test_comparison_atomizes_nodes(self):
        assert run_text("<a>true</a> = 'true'") == [True]

    def test_comment_in_a_constructor_is_dropped(self):
        [node] = run_text("<a>x<!-- c -->y</a>")
        assert serialize_xml(node) == "<a>xy</a>"

    def test_path_from_variable(self):
        result = run_text(
            "let $d := <r><a>1</a><a>2</a></r> return $d/a/text()")
        assert [n.value for n in result] == ["1", "2"]

    def test_path_over_atomic_fails(self):
        with pytest.raises(EvalError):
            run_text("let $x := 'a' return $x/b")

    def test_absolute_path_requires_context(self):
        with pytest.raises(EvalError):
            run_text("/conference")
        doc = parse_xml("<conference><papers/></conference>")
        result = run_text("/conference/papers", context_document=doc)
        assert len(result) == 1 and result[0].name == QName(None, "papers")

    def test_union_same_document_dedups_in_order(self):
        doc = parse_xml("<r><a/><b/></r>")
        env = Environment(context_document=doc)
        result = evaluate(parse_program("(/r/a union /r/*) union /r/b"), env)
        root = child_elements(doc)[0]
        assert result == root.children

    @pytest.mark.parametrize("source,kinds", [
        ("let $e := <r><a/></r> return ($e union $e/a)", ["r", "a"]),
        ("let $d := document{<r><a/></r>} return ($d/r union $d)",
         ["document", "r"]),
        ("let $d := document{<a><b/></a>} return ($d/a/b union $d/a union $d)",
         ["document", "a", "b"]),
    ])
    def test_union_of_constructed_tree_is_in_document_order(self, source, kinds):
        # a constructed node is created before its content
        assert [n.name.local if n.name else n.kind for n in run_text(source)] == kinds

    def test_union_of_fresh_nodes_concatenates(self):
        result = run_text("<a/> union <a/>")
        assert len(result) == 2

    def test_union_across_trees_dedups_in_creation_order(self):
        result = run_text("let $a := <a/> let $b := <b/> return ($a union $b union $a)")
        assert [n.name.local for n in result] == ["a", "b"]
        result = run_text("let $a := <a/> let $b := <b/> return ($b union $a)")
        assert [n.name.local for n in result] == ["a", "b"]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_union_orders_nodes_of_several_trees_as_paths_do(self, data):
        trees = [parse_xml("<r><a><b/></a><c/></r>"), parse_xml("<s><d/><e><f/></e></s>"),
                 parse_xml("<t><g/></t>")]
        pool = [n for tree in trees for n in _descendants(tree)]
        left = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        right = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        interpreter = Interpreter(Environment())
        scope = {"x": left, "y": right}
        forward = interpreter.eval(parse_program("$x/* union $y/*").body, scope)
        backward = interpreter.eval(parse_program("$y/* union $x/*").body, scope)
        expected = eval_steps(left + right, steps_of("*"))
        assert forward == backward == expected
        assert len({id(n) for n in forward}) == len(forward)

    def test_unknown_expression_is_an_eval_error(self):
        with pytest.raises(EvalError, match="cannot evaluate Step"):
            Interpreter(Environment()).eval(steps_of("a")[0], {})

    def test_union_of_atomics_concatenates(self):
        assert run_text("(1, 2) union 2") == [1, 2, 2]

    def test_attribute_interpolation_joins_with_spaces(self):
        (el,) = run_text("<x a=\"{('u', 'v')}-{1}\"/>")
        assert el.attributes[0].value == "u v-1"

    def test_adjacent_atomics_in_content(self):
        (el,) = run_text("<x>{(1, 2)}</x>")
        assert string_value(el) == "1 2"
        (el,) = run_text("<x>{1}{2}</x>")
        assert string_value(el) == "12"

    def test_content_nodes_are_deep_copied(self):
        source = parse_xml("<r><b>keep</b></r>")
        env = Environment(context_document=source)
        (wrapped,) = evaluate(parse_program("<y>{/r/b}</y>"), env)
        original = child_elements(child_elements(source)[0])[0]
        copy = child_elements(wrapped)[0]
        assert copy is not original and wrapped.children == [copy]
        assert child_elements(source)[0].children == [original]
        assert canonical_equal(copy, original)
        doc, element = run_text("let $e := <a/> return (document{$e}, $e)")
        assert doc.children[0] is not element
        assert canonical_equal(doc.children[0], element)

    def test_document_content_splices_children(self):
        wrapped, doc = run_text(
            "let $d := document{ <r><a/></r> } return (<w>{$d}</w>, $d)")
        assert [c.name.local for c in child_elements(wrapped)] == ["r"]
        assert wrapped.children[0] is not doc.children[0]
        assert [c.name.local for c in child_elements(doc)] == ["r"]

    def test_attribute_node_in_content_rejected(self):
        with pytest.raises(EvalError):
            run_text("let $d := <r a='v'/> return <x>{$d/@a}</x>")

    def test_document_constructor_requires_one_element(self):
        (doc,) = run_text("document{ <a/> }")
        assert doc.kind == "document"
        (doc,) = run_text("document{ <a><b/></a> }")
        assert canonical_equal(doc, parse_xml("<a><b/></a>"))
        with pytest.raises(EvalError):
            run_text("document{ (<a/>, <b/>) }")
        with pytest.raises(EvalError):
            run_text("document{ 'text' }")

    def test_boolean_renders_as_xml_boolean(self):
        (el,) = run_text("<x>{true()}</x>")
        assert string_value(el) == "true"


class TestEnvironment:
    def test_documents_are_cached(self, fixtures_dir):
        env = Environment(base_dir=fixtures_dir)
        assert env.load_document("conference.xml") is \
            env.load_document("conference.xml")

    def test_missing_file_is_an_eval_error(self):
        env = Environment()
        with pytest.raises(EvalError):
            env.load_document("no-such-file.xml")

    def test_temp_files_emit_paths(self, tmp_path):
        env = Environment(base_dir=tmp_path, temp_files=True)
        (path,) = env.emit_document(parse_xml("<a/>"))
        assert isinstance(path, str)
        assert canonical_equal(env.load_document(path), parse_xml("<a/>"))


# -- builtin library ---------------------------------------------------------------


class TestCoreFunctions:
    def test_concat(self):
        assert run_text("concat('a', 'b', 'c')") == ["abc"]
        assert run_text("concat('a', (), 'c')") == ["ac"]
        assert run_text("concat('n=', 1)") == ["n=1"]
        with pytest.raises(EvalError):
            run_text("concat(('a', 'b'), 'c')")

    def test_substring_after(self):
        assert run_text(
            f"substring-after('{SN}jesus', '#')") == ["jesus"]
        assert run_text("substring-after('abc', 'x')") == [""]
        assert run_text("substring-after('abc', '')") == ["abc"]
        assert run_text("substring-after((), '#')") == [""]

    def test_substring_after_atomizes_nodes(self):
        assert run_text("substring-after(<i>a#b</i>, '#')") == ["b"]

    def test_data(self):
        assert run_text("data(<a>x<b>y</b></a>)") == ["xy"]
        assert run_text("data(('a', 1))") == ["a", 1]
        assert run_text("data(())") == []

    def test_fragment_from_uri(self):
        assert run_text("functx:fragment-from-uri('http://x#b1')") == ["b1"]
        assert run_text("functx:fragment-from-uri('a#b#c')") == ["c"]
        assert run_text("functx:fragment-from-uri('plain')") == [""]
        assert run_text("functx:fragment-from-uri(())") == []

    def test_fn_prefix_is_optional(self):
        assert run_text("fn:concat('a', 'b')") == run_text("concat('a', 'b')")

    def test_true_false(self):
        assert run_text("true()") == [True]
        assert run_text("false()") == [False]

    def test_doc_is_identity_on_documents(self):
        (doc,) = run_text("doc(document{ <a/> })")
        assert doc.kind == "document"
        with pytest.raises(EvalError):
            run_text("doc(<a/>)")

    def test_doc_loads_files(self, fixtures_dir):
        (doc,) = run_text("doc('conference.xml')", base_dir=fixtures_dir)
        assert child_elements(doc)[0].name == QName(None, "conference")

    def test_put_writes_and_overwrites(self, tmp_path):
        env = Environment(base_dir=tmp_path)
        evaluate(parse_program("put('out.xml', <a><b/></a>)"), env)
        evaluate(parse_program("put('out.xml', <c/>)"), env)
        written = parse_xml((tmp_path / "out.xml").read_text())
        assert canonical_equal(written, parse_xml("<c/>"))

    def test_arity_errors(self):
        with pytest.raises(EvalError):
            run_text("substring-after('a')")
        with pytest.raises(EvalError):
            run_text("data()")


class TestSparqlBuiltin:
    def test_accepts_document_values(self):
        result = run_text(
            "let $g := doc('relations.rdf') "
            "return xqowl:sparql($g, 'PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n')",
            base_dir=FIXTURES)
        (doc,) = result
        literals = [n.value or "" for n in _descendant_texts(doc)]
        assert literals == ["Alice", "Bob", "Charles"]

    def test_no_matches_yield_empty_results(self):
        (doc,) = run_text(
            "xqowl:sparql('relations.rdf', 'PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "SELECT ?x WHERE { ?x foaf:age ?y }')",
            base_dir=FIXTURES)
        results = [el for el in _descendants(doc) if el.name.local == "result"]
        assert results == []

    def test_malformed_query_is_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            run_text("xqowl:sparql('relations.rdf', 'SELECT WHERE')",
                     base_dir=FIXTURES)


def _descendants(node: XmlNode):
    for child in node.children:
        if child.kind == "element":
            yield child
            yield from _descendants(child)


def _descendant_texts(node: XmlNode):
    for child in node.children:
        if child.kind == "text":
            yield child
        elif child.kind == "element":
            yield from _descendant_texts(child)


class TestReasonerBuiltins:
    def test_load_returns_handle(self):
        (handle,) = run_text("xqowl:load('socialnetwork.owl')",
                             base_dir=FIXTURES)
        assert isinstance(handle, OntologyHandle)
        assert handle.ontology.iri == SN.rstrip("#")

    def test_load_missing_file(self):
        with pytest.raises(EvalError):
            run_text("xqowl:load('nope.owl')", base_dir=FIXTURES)

    def test_unknown_profile(self):
        with pytest.raises(EvalError) as err:
            run_text("xqowl:reasoner(xqowl:load('socialnetwork.owl'), 'racer')",
                     base_dir=FIXTURES)
        assert "racer" in str(err.value)

    def test_reasoner_handle(self):
        (handle,) = run_text(
            "xqowl:reasoner(xqowl:load('socialnetwork.owl'), 'fact')",
            base_dir=FIXTURES)
        assert isinstance(handle, ReasonerHandle)
        assert handle.reasoner.profile == "fact"

    def test_new_and_dispose_are_noops(self):
        assert run_text("xqowl:new()") == []
        assert run_text(
            "xqowl:dispose(xqowl:load('socialnetwork.owl'))",
            base_dir=FIXTURES) == []

    def test_instances_elements(self):
        result = run_text(
            "xqowl:instances(xqowl:reasoner(xqowl:load('socialnetwork.owl'),"
            " 'hermit'), concat('%s', 'popular'))" % SN,
            base_dir=FIXTURES)
        assert [el.name.local for el in result] == ["instance", "instance"]
        assert texts(result) == [SN + "event1", SN + "message2"]

    def test_owl_thing_is_the_top_class(self):
        reasoner = "xqowl:reasoner(xqowl:load('socialnetwork.owl'), 'hermit')"
        thing = "'http://www.w3.org/2002/07/owl#Thing'"
        instances = run_text(f"xqowl:instances({reasoner}, {thing})", base_dir=FIXTURES)
        assert len(instances) == 10
        subclasses = run_text(f"xqowl:subclasses({reasoner}, {thing})", base_dir=FIXTURES)
        assert {SN + "user", SN + "popular_event"} <= set(texts(subclasses))

    def test_handles_do_not_atomize(self):
        with pytest.raises(EvalError):
            run_text("data(xqowl:load('socialnetwork.owl'))",
                     base_dir=FIXTURES)


class TestSwBuilders:
    BASE = "http://www.semanticweb.org/ontology_papers.owl"

    def reload(self, fillers: list) -> frozenset:
        wrapper = parse_xml(
            '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            f'xml:base="{self.BASE}"/>')
        root = child_elements(wrapper)[0]
        for el in fillers:
            root.append(el)
        return load_ontology(rdf_from_document(wrapper, "")).abox

    def test_id_prefixes_hash(self):
        assert run_text("sw:ID('1')") == ["#1"]
        assert run_text("sw:ID(())") == []
        assert run_text("let $d := <r id='7'/> return sw:ID($d/@id)") == ["#7"]

    def test_class_filler_reloads_to_class_assertion(self):
        fillers = run_text("sw:toClassFiller('#1', '#Paper')")
        assert self.reload(fillers) == frozenset(
            {ClassAssertion(f"{self.BASE}#1", Named(f"{self.BASE}#Paper"))})

    def test_data_filler_reloads_to_data_assertion(self):
        fillers = run_text(
            "sw:toDataFiller('#1', 'wordCount', ' 1200 ', 'integer')")
        (assertion,) = self.reload(fillers)
        assert assertion == DataAssertion(
            f"{self.BASE}#1", f"{self.BASE}#wordCount",
            Literal("1200", "http://www.w3.org/2001/XMLSchema#integer"))

    def test_object_filler_reloads_to_role_assertion(self):
        fillers = run_text("sw:toObjectFiller('#a', 'manuscript', '#1')")
        assert self.reload(fillers) == frozenset(
            {RoleAssertion(f"{self.BASE}#a", f"{self.BASE}#manuscript",
                           f"{self.BASE}#1")})

    def test_empty_argument_propagates(self):
        assert run_text("sw:toClassFiller((), '#Paper')") == []
        assert run_text("sw:toDataFiller('#1', 'name', (), 'string')") == []
        assert run_text("sw:toObjectFiller('#a', 'referee', sw:ID(()))") == []

    @pytest.mark.parametrize("call", [
        "sw:toClassFiller('#1', '#Paper')",
        "sw:toDataFiller('#1', 'wordCount', ' 1200 ', 'integer')",
        "sw:toObjectFiller('#a', 'manuscript', '#1')",
    ])
    def test_fillers_are_numbered_in_document_order(self, call):
        (el,) = run_text(call)
        assert_document_order(el)

    def test_filler_markup_shape(self):
        (el,) = run_text("sw:toClassFiller('#1', '#Paper')")
        assert canonical_equal(el, child_elements(parse_xml(
            '<owl:NamedIndividual '
            'xmlns:owl="http://www.w3.org/2002/07/owl#" '
            'xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
            'rdf:about="#1">'
            '<rdf:type rdf:resource="#Paper"/>'
            "</owl:NamedIndividual>"))[0])


# -- fixture programs --------------------------------------------------------------


USER_IRIS = {SN + "jesus", SN + "vicente", SN + "luis"}
EVENT_IRIS = {SN + "event1", SN + "event2"}

LOWERING_TARGET = """<relations>
<person name="Alice">
<knows> Bob </knows>
<knows> Charles </knows>
</person>
<person name="Bob">
<knows> Charles </knows>
</person>
<person name="Charles" />
</relations>"""


class TestPrograms:
    def test_example1_emits_five_iris_grouped(self):
        result = run_fixture("example1.xq")
        assert len(result) == 5
        assert all(n.kind == "text" for n in result)
        values = [n.value for n in result]
        assert set(values[:3]) == USER_IRIS
        assert set(values[3:]) == EVENT_IRIS

    def test_lowering_matches_target(self):
        (relations,) = run_fixture("lowering.xq")
        target = child_elements(parse_xml(LOWERING_TARGET))[0]
        assert canonical_equal(relations, target)

    def test_lowering_orders_names_and_friends(self):
        (relations,) = run_fixture("lowering.xq")
        persons = child_elements(relations)
        names = [p.attributes[0].value for p in persons]
        assert names == ["Alice", "Bob", "Charles"]
        knows = [[string_value(k) for k in child_elements(p)] for p in persons]
        assert knows == [["Bob", "Charles"], ["Charles"], []]

    def test_object_properties_render(self):
        result = run_fixture("object_properties.xq")
        assert all(el.name.local == "ObjectProperty" for el in result)
        about = {el.attributes[0].value for el in result}
        assert SN + "added_by" in about and SN + "friend_of" in about
        added_by = next(el for el in result
                        if el.attributes[0].value == SN + "added_by")
        children = {(c.name.local, c.attributes[0].value)
                    for c in child_elements(added_by)}
        assert children == {("subPropertyOf", SN + "created_by"),
                            ("domain", SN + "event"),
                            ("range", SN + "user")}

    def test_class_axioms_render(self):
        result = run_fixture("class_axioms.xq")
        about = {el.attributes[0].value for el in result}
        assert about == {SN + "user_item", SN + "wall", SN + "activity",
                         SN + "event", SN + "message"}
        wall = next(el for el in result
                    if el.attributes[0].value == SN + "wall")
        assert [(c.name.local, c.attributes[0].value)
                for c in child_elements(wall)] == [
            ("subClassOf", SN + "user_item")]
        event = next(el for el in result
                     if el.attributes[0].value == SN + "event")
        assert {(c.name.local, c.attributes[0].value)
                for c in child_elements(event)} == {
            ("subClassOf", SN + "activity"),
            ("disjointWith", SN + "message")}

    def test_consistency_program(self):
        assert run_fixture("consistency.xq") == [True]

    def test_instances_program(self):
        result = run_fixture("instances.xq")
        groups = {el.attributes[0].value:
                  {string_value(c) for c in child_elements(el)}
                  for el in result}
        assert groups == {
            "activity": {"message1", "message2", "event1", "event2"},
            "user": {"jesus", "vicente", "luis"},
        }

    def test_subclasses_program(self):
        result = run_fixture("subclasses.xq")
        assert {string_value(el) for el in result} == {
            "popular_message", "event", "Nothing", "popular_event", "message"}

    def test_recommended_friends_program(self):
        result = run_fixture("recommended_friends.xq")
        assert [el.name.local for el in result] == ["recommended_friend"] * 2
        assert [string_value(el) for el in result] == ["jesus", "vicente"]

    def test_mapping_builds_checkable_ontology(self):
        (doc,) = run_fixture("mapping.xq", context="conference.xml")
        assert doc.kind == "document"
        ont = load_ontology(rdf_from_document(doc, ""))
        base = "http://www.semanticweb.org/ontology_papers.owl#"
        class_facts = {(a.individual, a.cls.iri) for a in ont.abox
                       if isinstance(a, ClassAssertion)}
        assert (base + "1", base + "PaperofStudent") in class_facts
        assert (base + "2", base + "PaperofSenior") in class_facts
        assert (base + "b", base + "Student") in class_facts
        role_facts = {(a.subject, a.role, a.object) for a in ont.abox
                      if isinstance(a, RoleAssertion)}
        assert (base + "a", base + "manuscript", base + "1") in role_facts
        assert (base + "a", base + "referee", base + "1") in role_facts

    def test_mapping_on_repaired_document_drops_missing_referees(self):
        (doc,) = run_fixture("mapping.xq", context="conference_fixed.xml")
        ont = load_ontology(rdf_from_document(doc, ""))
        base = "http://www.semanticweb.org/ontology_papers.owl#"
        referees = {a.subject for a in ont.abox
                    if isinstance(a, RoleAssertion)
                    and a.role == base + "referee"}
        assert referees == {base + "a", base + "c", base + "e"}

    @pytest.mark.parametrize("name,context", [
        (name, "conference.xml" if name == "mapping.xq" else None)
        for name in PROGRAMS])
    def test_temp_file_mode_is_equivalent(self, name, context):
        direct = run_fixture(name, context=context)
        via_files = run_fixture(name, context=context, temp_files=True)
        assert _comparable(direct) == _comparable(via_files)

    @pytest.mark.parametrize("name,context", [
        ("example1.xq", None), ("instances.xq", None),
        ("class_axioms.xq", None)])
    def test_for_concatenation_invariant(self, name, context):
        program = parse_program(fixture_text(name))
        loop, rebuild = _first_for(program.body)
        assert isinstance(loop.seq, SequenceExpr)
        whole = run_fixture(name, context=context)
        pieces: list = []
        for item in loop.seq.items:
            single = dataclasses.replace(loop, seq=item)
            env = Environment(base_dir=FIXTURES)
            program_one = dataclasses.replace(program, body=rebuild(single))
            pieces.extend(evaluate(program_one, env))
        assert _comparable(whole) == _comparable(pieces)

    def test_variable_sharing_matches_literal_query(self):
        # the concat-assembled query from the class loop equals its literal form
        literal = ("PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
                   "PREFIX sn: <http://www.semanticweb.org/socialnetwork.owl#>\n"
                   "SELECT ?Ind WHERE { ?Ind rdf:type sn:user }")
        built = run_text(
            "let $class := 'sn:user' return "
            "xqowl:sparql('socialnetwork.owl', concat("
            "'PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "PREFIX sn: <http://www.semanticweb.org/socialnetwork.owl#> "
            "SELECT ?Ind WHERE { ?Ind rdf:type ', $class, ' }'))",
            base_dir=FIXTURES)
        direct = run_text(
            f'xqowl:sparql("socialnetwork.owl", "{literal}")'.replace("\n", " "),
            base_dir=FIXTURES)
        assert canonical_equal(built[0], direct[0])

    @pytest.mark.parametrize("name,context", [
        (name, "conference.xml" if name == "mapping.xq" else None)
        for name in PROGRAMS])
    def test_constructed_output_survives_reserialization(self, name, context):
        for item in run_fixture(name, context=context):
            if not isinstance(item, XmlNode):
                continue
            if item.kind == "element":
                reparsed = child_elements(parse_xml(serialize_xml(item)))[0]
                assert canonical_equal(reparsed, item)
            elif item.kind == "document":
                assert canonical_equal(parse_xml(serialize_xml(item)), item)


def _comparable(items: list) -> list:
    return [canonical_key(i) if isinstance(i, XmlNode) else i for i in items]


def _first_for(expr):
    """Locate the outermost for-loop, returning it and a function that
    splices a replacement back into the surrounding let-chain."""
    if isinstance(expr, ForExpr):
        return expr, lambda new: new
    if isinstance(expr, LetExpr):
        inner, rebuild = _first_for(expr.body)
        return inner, lambda new: dataclasses.replace(expr, body=rebuild(new))
    raise AssertionError("no for-loop found")
