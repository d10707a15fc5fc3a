"""SPARQL subset: parsing, BGP joins, SELECT semantics.

The join property test checks eval_bgp, in every order of the patterns,
against a brute-force oracle that enumerates every assignment of
variables to terms occurring in the graph and keeps those whose
instantiated patterns are all asserted.
"""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import FIXTURES, assert_document_order, fixture_text
from xqowl.cli import main
from xqowl.errors import SparqlSyntaxError, UnsupportedFeatureError
from xqowl.rdf import (Iri, Literal, RdfGraph, SolutionTable, Triple, parse_rdfxml,
                       term_key, write_sparql_results)
from xqowl.sparql import (
    FragmentRef,
    SparqlQuery,
    TriplePattern,
    Variable,
    eval_bgp,
    eval_select,
    parse_sparql,
)

FOAF = "http://xmlns.com/foaf/0.1/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"


def rel(frag: str) -> Iri:
    return Iri("http://relations.org#" + frag)


@pytest.fixture(scope="module")
def relations() -> RdfGraph:
    return parse_rdfxml(fixture_text("relations.rdf"), base="file://relations.rdf")


def test_parse_basic_query():
    q = parse_sparql("""
        PREFIX rdf:  <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX sn: <http://www.semanticweb.org/socialnetwork.owl#>
        SELECT ?Ind
        WHERE { ?Ind rdf:type sn:user }
    """)
    assert q.select == ("Ind",)
    assert q.patterns == (TriplePattern(
        Variable("Ind"), Iri(RDF_TYPE),
        Iri("http://www.semanticweb.org/socialnetwork.owl#user")),)
    assert q.order_by == ()


def test_parse_multi_pattern_with_fragment_subjects_and_literal():
    q = parse_sparql("""
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        SELECT ?FName
        WHERE { _:b1 foaf:knows ?Friend .
                _:b1 foaf:name 'Alice' .
                ?Friend foaf:name ?FName }
    """)
    assert q.patterns[0].subject == FragmentRef("b1")
    assert q.patterns[1].object == Literal("Alice")
    assert q.variables() == ["Friend", "FName"]


def test_parse_select_star_order_by_and_trailing_dot():
    q = parse_sparql("PREFIX f: <http://f/> SELECT * WHERE { ?a f:p ?b . } "
                     "ORDER BY ?b DESC(?a)")
    assert q.select is None
    assert q.order_by == (("b", "asc"), ("a", "desc"))


def test_keywords_are_case_insensitive():
    q = parse_sparql("prefix f: <http://f/> select ?a where { ?a f:p ?b } order by ?a")
    assert q.select == ("a",)


@pytest.mark.parametrize("bad", [
    "SELECT ?x",  # no WHERE
    "SELECT WHERE { ?x ?p ?y }",  # no variables
    "PREFIX f: <http://f/> SELECT ?x WHERE { ?x f:p }",  # short pattern
    "SELECT ?x WHERE { ?x q:p ?y }",  # undeclared prefix
    "SELECT ?x WHERE { 'lit' ?p ?y }",  # literal subject
    "SELECT ?x WHERE { ?x _:b ?y }",  # _: predicate
    "SELECT ?x WHERE { ?x ?p ?y } ORDER BY",
    "SELECT ?x WHERE { ?x ?p ?y } garbage",
])
def test_parse_rejects_malformed_queries(bad):
    with pytest.raises(SparqlSyntaxError):
        parse_sparql(bad)


@pytest.mark.parametrize("feature,query", [
    ("FILTER", "SELECT ?x WHERE { ?x ?p ?y . FILTER(?y > 1) }"),
    ("OPTIONAL", "SELECT ?x WHERE { ?x ?p ?y . OPTIONAL { ?x ?q ?z } }"),
    ("UNION", "SELECT ?x WHERE { ?x ?p ?y } UNION { ?x ?q ?z }"),
    ("LIMIT", "SELECT ?x WHERE { ?x ?p ?y } LIMIT 5"),
    ("DISTINCT", "SELECT DISTINCT ?x WHERE { ?x ?p ?y }"),
])
def test_unsupported_features_are_named(feature, query):
    with pytest.raises(UnsupportedFeatureError, match=feature):
        parse_sparql(query)


def test_eval_friends_of_b1(relations):
    table = eval_bgp(relations, (
        TriplePattern(Iri("#b1"), Iri(FOAF + "knows"), Variable("F")),
        TriplePattern(Variable("F"), Iri(FOAF + "name"), Variable("FName")),
    ))
    assert table.variables == ["F", "FName"]
    assert sorted(table.rows, key=lambda r: r["F"].value) == [
        {"F": rel("b4"), "FName": Literal("Bob")},
        {"F": rel("b6"), "FName": Literal("Charles")},
    ]


def test_fragment_refs_resolve_against_graph_base(relations):
    q = parse_sparql("""
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        SELECT ?FName
        WHERE { _:b1 foaf:knows ?Friend . _:b1 foaf:name 'Alice' .
                ?Friend foaf:name ?FName }
    """)
    table = eval_select(relations, q)
    assert [r["FName"] for r in table.rows] == [Literal("Bob"), Literal("Charles")]


def test_order_by_name(relations):
    q = parse_sparql("""
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        SELECT ?Person ?Name
        WHERE { ?Person foaf:name ?Name }
        ORDER BY ?Name
    """)
    table = eval_select(relations, q)
    assert [(r["Person"], r["Name"].lexical) for r in table.rows] == [
        (rel("b1"), "Alice"), (rel("b4"), "Bob"), (rel("b6"), "Charles")]


def test_order_by_desc(relations):
    q = parse_sparql("PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?Name "
                     "WHERE { ?P foaf:name ?Name } ORDER BY DESC(?Name)")
    assert [r["Name"].lexical for r in eval_select(relations, q).rows] == [
        "Charles", "Bob", "Alice"]


def test_order_by_a_variable_that_is_not_selected(relations):
    # SPARQL orders the solutions before it projects them
    q = parse_sparql("PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?Person "
                     "WHERE { ?Person foaf:name ?Name } ORDER BY DESC(?Name)")
    assert eval_select(relations, q).rows == [
        {"Person": rel("b6")}, {"Person": rel("b4")}, {"Person": rel("b1")}]


def test_query_command_orders_by_a_variable_that_is_not_selected(capsys):
    query = ("PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?Person "
             "WHERE { ?Person foaf:name ?Name } ORDER BY DESC(?Name)")
    assert main(["query", query, "--data", str(FIXTURES / "relations.rdf")]) == 0
    out = capsys.readouterr().out
    assert [line.strip() for line in out.splitlines() if "<uri>" in line] == [
        f"<uri>http://relations.org#{b}</uri>" for b in ("b6", "b4", "b1")]


def test_projection_deduplicates(relations):
    # two knows-edges out of b1, projected onto the constant-free subject
    q = parse_sparql("PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?P "
                     "WHERE { ?P foaf:knows ?Q }")
    rows = eval_select(relations, q).rows
    assert rows == [{"P": rel("b1")}, {"P": rel("b4")}]


def test_default_order_sorts_bound_terms(relations):
    q = parse_sparql("PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?P ?Q "
                     "WHERE { ?P foaf:knows ?Q }")
    rows = eval_select(relations, q).rows
    assert rows == sorted(rows, key=lambda r: (r["P"].value, r["Q"].value))


def test_selecting_a_variable_not_in_the_pattern_leaves_it_unbound(relations):
    q = parse_sparql("PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?Nope "
                     "WHERE { ?P foaf:knows ?Q }")
    assert eval_select(relations, q).rows == [{}]


def test_empty_graph_gives_empty_results():
    q = parse_sparql("SELECT ?s WHERE { ?s ?p ?o }")
    assert eval_select(RdfGraph([], base_iri="http://e/"), q).rows == []


def test_repeated_variable_within_one_pattern():
    g = RdfGraph([
        Triple(Iri("http://e/#a"), Iri("http://e/#p"), Iri("http://e/#a")),
        Triple(Iri("http://e/#a"), Iri("http://e/#p"), Iri("http://e/#b")),
    ], base_iri="http://e/")
    table = eval_bgp(g, (TriplePattern(Variable("x"), Iri("http://e/#p"),
                                       Variable("x")),))
    assert table.rows == [{"x": Iri("http://e/#a")}]


def test_literal_binding_in_subject_or_predicate_skips_the_row(monkeypatch):
    # ?n is bound to a literal, which no triple has as subject or predicate
    graph = RdfGraph([Triple(Iri(f"http://e/#p{i}"), Iri(FOAF + "name"), Literal(f"n{i}"))
                      for i in range(20)], base_iri="http://e/")
    calls = []
    match = RdfGraph.match
    monkeypatch.setattr(RdfGraph, "match",
                        lambda self, *terms: calls.append(terms) or match(self, *terms))
    name = TriplePattern(Variable("a"), Iri(FOAF + "name"), Variable("n"))
    for second in (TriplePattern(Variable("n"), Iri(FOAF + "knows"), Variable("b")),
                   TriplePattern(Variable("b"), Variable("n"), Variable("c"))):
        calls.clear()
        assert eval_bgp(graph, (name, second)).rows == []
        assert len(calls) == 1


def test_join_commutativity(relations):
    patterns = (
        TriplePattern(Variable("P"), Iri(FOAF + "knows"), Variable("Q")),
        TriplePattern(Variable("Q"), Iri(FOAF + "name"), Variable("N")),
        TriplePattern(Variable("P"), Iri(FOAF + "name"), Literal("Alice")),
    )
    reference = {tuple(sorted(r.items())) for r in eval_bgp(relations, patterns).rows}
    for perm in itertools.permutations(patterns):
        got = {tuple(sorted(r.items())) for r in eval_bgp(relations, list(perm)).rows}
        assert got == reference


# -- randomized check against a brute-force oracle --------------------------------

def _random_instance(rng: random.Random, extended: bool = False):
    """A small graph and 1-3 patterns over it. An extended instance has a
    denser graph and 4 patterns over three variables, with constant
    predicates, `_:name` subjects and constants the graph lacks."""
    iris = [Iri(f"http://t/#{c}") for c in "abcdefgh"]
    preds = [Iri(f"http://t/#p{i}") for i in range(3)]
    lits = [Literal(s) for s in ("x", "y", "z")]
    triples = {
        Triple(rng.choice(iris), rng.choice(preds),
               rng.choice(iris + lits))  # type: ignore[arg-type]
        for _ in range(rng.randrange(80, 200) if extended else rng.randrange(0, 50))
    }
    graph = RdfGraph(triples, base_iri="http://t/")
    var_names = ["u", "v", "w"] if extended else ["u", "v", "w"][:rng.randrange(1, 4)]
    absent = {"subject": Iri("http://t/#none"), "predicate": Iri("http://t/#p9"),
              "object": Literal("none")}

    def pattern_term(position: str):
        roll = rng.random()
        if extended and roll < 0.03:
            return absent[position]
        if roll < (0.7 if extended else 0.5) and not (extended and position == "predicate"):
            return Variable(rng.choice(var_names))
        if extended and position == "subject" and roll < 0.85:
            return FragmentRef(rng.choice("abcdefgh"))
        if position == "object" and roll < 0.6:
            return rng.choice(lits)
        return rng.choice(iris if position != "predicate" else preds)

    patterns = tuple(TriplePattern(pattern_term("subject"), pattern_term("predicate"),
                                   pattern_term("object"))
                     for _ in range(4 if extended else rng.randrange(1, 4)))
    return graph, patterns


def _oracle_rows(graph: RdfGraph, patterns) -> set:
    terms = set()
    for t in graph:
        terms.update((t.subject, t.predicate, t.object))
    variables = sorted({term.name for p in patterns
                        for term in (p.subject, p.predicate, p.object)
                        if isinstance(term, Variable)})
    solutions = set()
    for combo in itertools.product(sorted(terms, key=repr), repeat=len(variables)):
        assignment = dict(zip(variables, combo))

        def subst(term):
            if isinstance(term, FragmentRef):
                return Iri(graph.base_iri + "#" + term.name)
            return assignment[term.name] if isinstance(term, Variable) else term

        ok = all(
            isinstance(subst(p.subject), Iri) and isinstance(subst(p.predicate), Iri)
            and Triple(subst(p.subject), subst(p.predicate), subst(p.object)) in graph
            for p in patterns)
        if ok:
            relevant = {v.name for p in patterns
                        for v in (p.subject, p.predicate, p.object)
                        if isinstance(v, Variable)}
            solutions.add(tuple(sorted((k, v) for k, v in assignment.items()
                                       if k in relevant)))
    return solutions


@pytest.mark.parametrize("seed", range(120))
def test_bgp_join_matches_brute_force_oracle(seed):
    graph, patterns = _random_instance(random.Random(seed), extended=seed >= 60)
    expected = _oracle_rows(graph, patterns)
    select = tuple(sorted({t.name for p in patterns for t in (p.subject, p.predicate, p.object)
                           if isinstance(t, Variable)}))
    order_by = ((select[-1], "desc"),) if select else ()
    tables = []
    for order in itertools.permutations(patterns):
        rows = [tuple(sorted(r.items())) for r in eval_bgp(graph, order).rows]
        assert len(set(rows)) == len(rows)
        assert set(rows) == expected
        tables.append(eval_select(graph, SparqlQuery(select, order, order_by)))
    assert all(table == tables[0] for table in tables)


def _foaf_graph(persons: int, degree: int, seed: int) -> RdfGraph:
    """Typed, named persons who each know `degree` others."""
    rng = random.Random(seed)
    people = [Iri(f"http://people/#p{i}") for i in range(persons)]
    triples = set()
    for i, person in enumerate(people):
        triples |= {Triple(person, Iri(RDF_TYPE), Iri(FOAF + "Person")),
                    Triple(person, Iri(FOAF + "name"), Literal(f"n{i}"))}
        triples |= {Triple(person, Iri(FOAF + "knows"), friend)
                    for friend in rng.sample(people[:i] + people[i + 1:], degree)}
    return RdfGraph(triples, base_iri="http://people/")


def test_every_written_order_makes_the_lookups_of_the_best_one(monkeypatch):
    degree = 4
    graph = _foaf_graph(300, degree, seed=3)
    friends_of_friends = (
        TriplePattern(Variable("a"), Iri(FOAF + "name"), Literal("n0")),
        TriplePattern(Variable("a"), Iri(FOAF + "knows"), Variable("b")),
        TriplePattern(Variable("b"), Iri(FOAF + "knows"), Variable("c")),
    )
    calls = []
    match = RdfGraph.match
    monkeypatch.setattr(RdfGraph, "match",
                        lambda self, *terms: calls.append(terms) or match(self, *terms))
    counts, answers = [], []
    for order in itertools.permutations(friends_of_friends):
        calls.clear()
        answers.append({tuple(sorted(r.items())) for r in eval_bgp(graph, order).rows})
        counts.append(len(calls))
    # the best order: the named person, their friends, then one lookup per friend
    assert counts == [2 + degree] * 6
    assert len(answers[0]) > degree and all(rows == answers[0] for rows in answers)


@pytest.mark.parametrize("seed", range(60))
def test_order_by_an_unselected_variable_keeps_each_row_at_its_first_solution(seed):
    rng = random.Random(seed)
    graph, _ = _random_instance(rng)
    patterns = (TriplePattern(Variable("u"), Variable("p"), Variable("v")),)
    names = ["u", "p", "v"]
    rng.shuffle(names)
    cut = rng.randrange(1, 3)
    selected, key, desc = names[:cut], names[cut], rng.random() < 0.5
    query = SparqlQuery(tuple(selected), patterns, ((key, "desc" if desc else "asc"),))
    rows = [tuple(r.items()) for r in eval_select(graph, query).rows]
    solutions = eval_bgp(graph, patterns).rows
    # each distinct projection sits where its first solution in ORDER BY order does
    first: dict[tuple, tuple] = {}
    for solution in solutions:
        row = tuple((v, solution[v]) for v in selected)
        rank = term_key(solution[key])
        known = first.setdefault(row, rank)
        first[row] = max(rank, known) if desc else min(rank, known)
    assert len(set(rows)) == len(rows) and set(rows) == set(first)
    ranks = [first[row] for row in rows]
    assert ranks == sorted(ranks, reverse=desc)


@pytest.mark.parametrize("seed", range(60))
def test_results_document_is_numbered_in_document_order(seed):
    graph, patterns = _random_instance(random.Random(seed))
    assert_document_order(write_sparql_results(eval_select(graph, SparqlQuery(None, patterns))))


def test_results_document_with_typed_and_tagged_literals_is_in_document_order():
    table = SolutionTable(["a", "b", "c"], [
        {"a": Iri("http://t/#x"), "b": Literal("1", datatype=XSD_INTEGER)},
        {"b": Literal("chat", language="fr"), "c": Literal("")},
    ])
    assert_document_order(write_sparql_results(table))
