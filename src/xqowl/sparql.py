"""SPARQL SELECT subset: prefix declarations, one basic graph pattern,
optional ORDER BY.

Matching is set-semantics over the asserted triples of a graph (simple
entailment): duplicate solutions are removed, and without ORDER BY the
rows come back sorted by their bound terms so results are reproducible.
The patterns are joined in an order planned from the graph's index sizes
(fewest expected matches first, ties in written order; see eval_bgp), so
their written order does not change the answer, and changes the lookups
only where two patterns tie.
FILTER, OPTIONAL, UNION and LIMIT are recognized and rejected loudly.

`_:name` subject tokens and relative IRI references (such as <#b1>)
denote fragment IRIs of the queried graph's base and are resolved when
the query runs against a concrete graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import SparqlSyntaxError, UnsupportedFeatureError
from .rdf import Iri, Literal, RdfGraph, SolutionTable, Term, resolve_iri, term_key

_UNSUPPORTED = {
    "FILTER", "OPTIONAL", "UNION", "LIMIT", "OFFSET", "DISTINCT", "REDUCED",
    "GRAPH", "CONSTRUCT", "ASK", "DESCRIBE", "FROM", "BIND", "VALUES", "MINUS",
    "SERVICE", "GROUP", "HAVING",
}

@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class FragmentRef:
    """A `_:name` token: the entity base + "#" + name of the queried graph."""

    name: str


PatternTerm = Variable | FragmentRef | Iri | Literal


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm


@dataclass(frozen=True)
class SparqlQuery:
    select: tuple[str, ...] | None  # None means SELECT *
    patterns: tuple[TriplePattern, ...]
    order_by: tuple[tuple[str, str], ...] = ()  # (variable, "asc" | "desc")

    def variables(self) -> list[str]:
        """Pattern variables in order of first occurrence."""
        seen: list[str] = []
        for p in self.patterns:
            for term in (p.subject, p.predicate, p.object):
                if isinstance(term, Variable) and term.name not in seen:
                    seen.append(term.name)
        return seen


# -- parsing ---------------------------------------------------------------------

@dataclass
class _Token:
    kind: str
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<iriref><[^<>\s]*>)
      | (?P<var>\?[A-Za-z_][\w\-]*)
      | (?P<frag>_:[A-Za-z_][\w.\-]*)
      | (?P<string>'[^']*'|"[^"]*")
      | (?P<pname>[A-Za-z_][\w.\-]*:[A-Za-z_][\w.\-]*)
      | (?P<prefix_ns>[A-Za-z_][\w.\-]*:)
      | (?P<name>[A-Za-z_][\w.\-]*)
      | (?P<punct>[{}().*])
      | (?P<other>\S)
    """, re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    # stray characters become "other" tokens so the parser can surface a
    # recognizable unsupported keyword before tripping over, say, FILTER's ">"
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        assert m is not None  # any character matches, at worst as an "other" token
        pos = m.end()
        kind = m.lastgroup or ""
        if kind == "ws":
            continue
        tokens.append(_Token(kind, m.group(), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise SparqlSyntaxError("unexpected end of query")
        self.i += 1
        return tok

    def keyword(self) -> str | None:
        tok = self.peek()
        if tok is not None and tok.kind == "name":
            return tok.value.upper()
        return None

    def expect_keyword(self, word: str) -> None:
        got = self.keyword()
        self._guard_unsupported()
        if got != word:
            raise SparqlSyntaxError(f"expected {word}, found "
                                    f"{self.peek().value if self.peek() else 'end of query'!r}")
        self.next()

    def expect_punct(self, char: str) -> None:
        tok = self.next()
        if tok.kind != "punct" or tok.value != char:
            raise SparqlSyntaxError(f"expected {char!r}, found {tok.value!r}")

    def _guard_unsupported(self) -> None:
        word = self.keyword()
        if word in _UNSUPPORTED:
            raise UnsupportedFeatureError(
                f"{word} is not supported: this engine evaluates a single basic "
                f"graph pattern with optional ORDER BY")

    def parse(self) -> SparqlQuery:
        while self.keyword() == "PREFIX":
            self.next()
            ns_tok = self.next()
            if ns_tok.kind != "prefix_ns":
                raise SparqlSyntaxError(f"expected a prefix name, found {ns_tok.value!r}")
            iri_tok = self.next()
            if iri_tok.kind != "iriref":
                raise SparqlSyntaxError(f"expected an IRI, found {iri_tok.value!r}")
            self.prefixes[ns_tok.value[:-1]] = iri_tok.value[1:-1]
        self.expect_keyword("SELECT")
        self._guard_unsupported()
        select: tuple[str, ...] | None
        if self.peek() is not None and self.peek().kind == "punct" \
                and self.peek().value == "*":
            self.next()
            select = None
        else:
            names = []
            while self.peek() is not None and self.peek().kind == "var":
                names.append(self.next().value[1:])
            if not names:
                raise SparqlSyntaxError("SELECT needs * or at least one ?variable")
            select = tuple(names)
        self.expect_keyword("WHERE")
        self.expect_punct("{")
        patterns = [self.pattern()]
        while True:
            tok = self.peek()
            if tok is None:
                raise SparqlSyntaxError("unterminated group pattern: missing }")
            if tok.kind == "punct" and tok.value == ".":
                self.next()
                tok = self.peek()
                if tok is not None and tok.kind == "punct" and tok.value == "}":
                    break
                patterns.append(self.pattern())
                continue
            if tok.kind == "punct" and tok.value == "}":
                break
            raise SparqlSyntaxError(f"expected '.' or '}}', found {tok.value!r}")
        self.expect_punct("}")
        order_by: list[tuple[str, str]] = []
        if self.keyword() == "ORDER":
            self.next()
            self.expect_keyword("BY")
            while True:
                tok = self.peek()
                if tok is None:
                    break
                if tok.kind == "var":
                    order_by.append((self.next().value[1:], "asc"))
                elif tok.kind == "name" and tok.value.upper() in ("ASC", "DESC"):
                    direction = self.next().value.lower()
                    self.expect_punct("(")
                    var_tok = self.next()
                    if var_tok.kind != "var":
                        raise SparqlSyntaxError("ASC/DESC takes a ?variable")
                    self.expect_punct(")")
                    order_by.append((var_tok.value[1:], direction))
                else:
                    break
            if not order_by:
                raise SparqlSyntaxError("ORDER BY needs at least one ?variable")
        if self.peek() is not None:
            self._guard_unsupported()
            raise SparqlSyntaxError(f"trailing input after query: "
                                    f"{self.peek().value!r}")
        return SparqlQuery(select, tuple(patterns), tuple(order_by))

    def pattern(self) -> TriplePattern:
        subject = self.term(position="subject")
        predicate = self.term(position="predicate")
        obj = self.term(position="object")
        return TriplePattern(subject, predicate, obj)

    def term(self, position: str) -> PatternTerm:
        self._guard_unsupported()
        tok = self.next()
        if tok.kind == "var":
            return Variable(tok.value[1:])
        if tok.kind == "iriref":
            return Iri(tok.value[1:-1])
        if tok.kind == "frag":
            if position == "predicate":
                raise SparqlSyntaxError("_: names cannot be used as predicates")
            return FragmentRef(tok.value[2:])
        if tok.kind == "pname":
            prefix, local = tok.value.split(":", 1)
            if prefix not in self.prefixes:
                raise SparqlSyntaxError(f"undeclared prefix {prefix!r} in query")
            return Iri(self.prefixes[prefix] + local)
        if tok.kind == "string":
            if position != "object":
                raise SparqlSyntaxError(f"a literal cannot be a {position}")
            return Literal(tok.value[1:-1])
        raise SparqlSyntaxError(f"expected a term in {position} position, "
                                f"found {tok.value!r}")


def parse_sparql(text: str) -> SparqlQuery:
    """Parse query text; prefixed names expand at parse time."""
    return _Parser(text).parse()


# -- evaluation ------------------------------------------------------------------

def _resolve(term: PatternTerm, base: str) -> PatternTerm:
    """A constant with `_:name` and relative IRIs resolved against the base."""
    if isinstance(term, FragmentRef):
        return Iri(resolve_iri(base, "#" + term.name))
    if isinstance(term, Iri):
        return Iri(resolve_iri(base, term.value))
    return term


def _ground(term: PatternTerm, row: dict) -> Term | bool | None:
    """A resolved pattern position's value in the row, None if unbound."""
    if isinstance(term, Variable):
        return row.get(term.name)
    return term


def eval_bgp(graph: RdfGraph,
             patterns: tuple[TriplePattern, ...] | list[TriplePattern]) -> SolutionTable:
    """Join the pattern list against the graph, in a planned order.

    Each step joins the remaining pattern with the fewest expected matches
    by `RdfGraph.estimate`: a constant counts its index bucket, a variable
    bound by an earlier step its index's mean bucket, and an unbound one
    adds no limit. On a tie the pattern written first goes first.

    Returns the rows over the patterns' variables in written order. They
    are distinct: the graph's triples are, and each pattern position is
    either ground or a variable, so distinct matches give distinct
    bindings. The order of the rows is unspecified, because graph lookups
    are unordered; eval_select sorts the answer.
    """
    variables = SparqlQuery(None, tuple(patterns)).variables()
    base = graph.base_iri
    remaining = [TriplePattern(_resolve(p.subject, base), _resolve(p.predicate, base),
                               _resolve(p.object, base)) for p in patterns]
    rows: list[dict[str, Term]] = [{}]
    while remaining and rows:
        bound = dict.fromkeys(rows[0], True)  # every row binds the same variables
        pattern = min(remaining, key=lambda q: graph.estimate(
            *(_ground(t, bound) for t in (q.subject, q.predicate, q.object))))
        remaining.remove(pattern)
        next_rows: list[dict[str, Term]] = []
        for row in rows:
            s = _ground(pattern.subject, row)
            p = _ground(pattern.predicate, row)
            if isinstance(s, Literal) or isinstance(p, Literal):
                continue  # a literal is never a subject or a predicate
            for triple in graph.match(s, p, _ground(pattern.object, row)):
                extended = _bind(row, pattern, triple)
                if extended is not None:
                    next_rows.append(extended)
        rows = next_rows
    return SolutionTable(variables=variables, rows=rows)


def _bind(row: dict[str, Term], pattern: TriplePattern, triple) -> dict[str, Term] | None:
    extended = dict(row)
    for term, value in ((pattern.subject, triple.subject),
                        (pattern.predicate, triple.predicate),
                        (pattern.object, triple.object)):
        if isinstance(term, Variable):
            if term.name in extended and extended[term.name] != value:
                return None
            extended[term.name] = value
    return extended


def eval_select(graph: RdfGraph, query: SparqlQuery) -> SolutionTable:
    """Full SELECT evaluation: join, order, project, deduplicate. As in
    SPARQL, ORDER BY may name a variable that is not selected; ties go by
    the projected terms, and each projected row keeps its first place."""
    table = eval_bgp(graph, query.patterns)
    projected = list(query.select) if query.select is not None else table.variables
    ordered = sorted(table.rows,
                     key=lambda r: tuple(term_key(r[v]) for v in projected if v in r))
    for var, direction in reversed(query.order_by):
        unbound = [r for r in ordered if var not in r]
        bound = sorted((r for r in ordered if var in r),
                       key=lambda r: term_key(r[var]),
                       reverse=direction == "desc")
        ordered = unbound + bound
    unique = dict.fromkeys(tuple(r.get(v) for v in projected) for r in ordered)
    rows = [{v: t for v, t in zip(projected, key) if t is not None} for key in unique]
    return SolutionTable(variables=projected, rows=rows)
