"""Path steps as the host parser builds them, and their evaluation."""

from __future__ import annotations

import pytest

from conftest import steps_of
from xqowl.errors import HostSyntaxError
from xqowl.hostlang import PathApply, VarRef, parse_program
from xqowl.xmltree import QName, parse_xml
from xqowl.xpaths import AttrEquals, HasChild, Step, eval_steps

SPQL = "http://www.w3.org/2005/sparql-results#"

CONFERENCE = """
<conference>
  <papers>
    <paper id="1" studentPaper="true"><title>A</title><wordCount>1200</wordCount></paper>
    <paper id="2" studentPaper="false"><title>B</title><wordCount>2800</wordCount></paper>
    <paper id="3" studentPaper="true"><title>C</title><wordCount>12000</wordCount></paper>
  </papers>
  <researchers>
    <researcher id="a" isStudent="false"><name>Smith</name></researcher>
    <researcher id="b" isStudent="true"><name>Douglas</name></researcher>
  </researchers>
</conference>
"""


def test_parse_relative_and_absolute():
    relative = parse_program("$d/a/b").body
    assert relative == PathApply(VarRef("d"), (Step("child", QName(None, "a")),
                                               Step("child", QName(None, "b"))))
    assert parse_program("/a").body.start is None


def test_parse_all_step_forms():
    steps = steps_of("spql:sparql/*/@name/text()", spql=SPQL)
    kinds = [(s.axis, s.test if isinstance(s.test, str) else "name") for s in steps]
    assert kinds == [("child", "name"), ("child", "*"),
                     ("attribute", "name"), ("child", "text()")]
    assert steps[0].test == QName(SPQL, "sparql")
    assert steps[0].test.prefix == "spql"  # type: ignore[union-attr]


def test_parse_predicates():
    preds = steps_of('result/binding[@name="Ind"][uri]')[1].predicates
    assert preds == (AttrEquals(QName(None, "name"), "Ind"),
                     HasChild(QName(None, "uri")))


@pytest.mark.parametrize("bad", [
    "", "a//b", "a[", "a[@x=1]", "a[@x='v'", "parent::a", "a/@", "@", "a/", "..",
])
def test_parse_rejects_bad_paths(bad):
    with pytest.raises(HostSyntaxError):
        parse_program(f'let $d := doc("x") return $d/{bad}')


@pytest.fixture()
def conference():
    return parse_xml(CONFERENCE)


def test_child_steps_select_elements(conference):
    papers = eval_steps([conference], steps_of("conference/papers/paper"))
    assert len(papers) == 3
    assert [n.name.local for n in papers] == ["paper"] * 3


def test_relative_path_from_element(conference):
    root = conference.children[0]
    titles = eval_steps([root], steps_of("papers/paper/title/text()"))
    assert [t.value for t in titles] == ["A", "B", "C"]


def test_attribute_axis(conference):
    ids = eval_steps([conference], steps_of("conference/papers/paper/@id"))
    assert [a.value for a in ids] == ["1", "2", "3"]
    assert all(a.kind == "attribute" for a in ids)


def test_wildcard_step(conference):
    sections = eval_steps([conference], steps_of("conference/*"))
    assert [n.name.local for n in sections] == ["papers", "researchers"]


def test_attribute_predicate(conference):
    student = eval_steps([conference],
                         steps_of('conference/papers/paper[@studentPaper="true"]'))
    assert [p.attributes[0].value for p in student] == ["1", "3"]


def test_child_existence_predicate():
    doc = parse_xml("<r><x><u/></x><x/><x><u/></x></r>")
    hits = eval_steps([doc], steps_of("r/x[u]"))
    assert len(hits) == 2


def test_no_match_yields_empty_sequence(conference):
    assert eval_steps([conference], steps_of("conference/missing")) == []


def test_unprefixed_names_match_no_namespace_only():
    doc = parse_xml(f'<s:sparql xmlns:s="{SPQL}"/>')
    assert eval_steps([doc], steps_of("sparql")) == []


def test_absolute_path_starts_at_tree_root(conference):
    deep = eval_steps([conference], steps_of("conference/papers/paper"))[0]
    assert deep.root() is conference
    assert len(eval_steps([deep.root()], steps_of("conference/papers/paper"))) == 3


def test_results_document_text_extraction():
    markup = f"""
    <sparql xmlns="{SPQL}">
      <head><variable name="Ind"/></head>
      <results>
        <result><binding name="Ind"><uri>http://ex.org#v</uri></binding></result>
        <result><binding name="Ind"><uri>http://ex.org#j</uri></binding></result>
        <result><binding name="Ind"><uri>http://ex.org#l</uri></binding></result>
        <result><binding name="Ind"><uri>http://ex.org#e2</uri></binding></result>
        <result><binding name="Ind"><uri>http://ex.org#e1</uri></binding></result>
      </results>
    </sparql>
    """
    doc = parse_xml(markup)
    steps = steps_of("spql:sparql/spql:results/spql:result/spql:binding/spql:uri/text()",
                     spql=SPQL)
    texts = eval_steps([doc], steps)
    assert len(texts) == 5
    assert [t.value for t in texts] == [
        "http://ex.org#v", "http://ex.org#j", "http://ex.org#l",
        "http://ex.org#e2", "http://ex.org#e1",
    ]


def test_step_composition_matches_two_phase_evaluation(conference):
    # A/B over one context equals eval of B over each result of A, deduped
    combined = eval_steps([conference], steps_of("conference/papers/paper/title"))
    papers = eval_steps([conference], steps_of("conference/papers/paper"))
    stitched = eval_steps(papers, steps_of("title"))
    assert combined == stitched


def test_duplicate_contexts_are_deduplicated(conference):
    papers = eval_steps([conference], steps_of("conference/papers/paper"))
    twice = eval_steps(papers + papers, steps_of("title"))
    assert len(twice) == 3
