"""FLWOR host language: abstract syntax and parser.

The language is a small XQuery-like core:

    Program   ::= Prolog Expr
    Prolog    ::= ("declare" ("namespace" NCName "=" String
                             | "variable" "$" NCName ":=" Expr) ";")*
    Expr      ::= FLWOR | If | Comparison
    FLWOR     ::= Clause+ "return" Expr
    Clause    ::= "for" "$" NCName "in" Expr ("," "$" NCName "in" Expr)*
                | "let" "$" NCName ":=" Expr ("," "$" NCName ":=" Expr)*
                | "where" Expr
    If        ::= "if" "(" Expr ")" "then" Expr "else" Expr
    Comparison::= Union (("=" | "!=") Union)?
    Union     ::= Path ("union" Path)*
    Path      ::= "/" Step ("/" Step)* | Primary ("/" Step)*
    Step      ::= ("@" QName | QName | "*" | "text" "(" ")") Predicate*
    Predicate ::= "[" ("@" QName "=" String | QName) "]"
    Primary   ::= String | Number | "$" NCName | "(" (Expr ("," Expr)*)? ")"
                | QName "(" (Expr ("," Expr)*)? ")" | Constructor
                | "document" "{" Expr "}"

Steps use the child axis, or the attribute axis after "@"; xpaths
evaluates them. Direct element constructors carry literal text,
nested constructors and enclosed expressions in braces; "{{" and "}}"
escape literal braces. Whitespace-only literal content is boundary
whitespace and is dropped.

QNames in paths and constructors are resolved at parse time against the
prolog declarations plus any inline xmlns attributes, which scope over
the constructor's subtree (an inline default namespace applies to
unprefixed element names, never to attributes). Function names resolve
by prefix alone: fn (the default), xqowl, sw and functx.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import HostSyntaxError
from .xmltree import QName, XML_NS
from .xpaths import AttrEquals, HasChild, Predicate, Step

_NAME_RE = re.compile(r"[^\W\d][\w.\-]*")

FUNCTION_PREFIXES = ("fn", "xqowl", "sw", "functx")

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class NumberLit:
    value: int | float


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class SequenceExpr:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class FnCall:
    prefix: str
    name: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class LetExpr:
    var: str
    value: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class ForExpr:
    var: str
    seq: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class IfExpr:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


@dataclass(frozen=True)
class Compare:
    op: str  # "=" or "!="
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnionExpr:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class PathApply:
    start: "Expr | None"  # None navigates from the context document
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class ElementCtor:
    name: QName
    # each attribute value is a run of literal chunks and enclosed expressions
    attrs: tuple[tuple[QName, tuple["str | Expr", ...]], ...]
    content: tuple["str | Expr", ...]


@dataclass(frozen=True)
class DocumentCtor:
    content: "Expr"


Expr = (StringLit | NumberLit | VarRef | SequenceExpr | FnCall | LetExpr
        | ForExpr | IfExpr | Compare | UnionExpr | PathApply | ElementCtor
        | DocumentCtor)


@dataclass
class Program:
    namespaces: dict[str, str]
    variables: tuple[tuple[str, Expr], ...]
    body: Expr


def parse_program(text: str) -> Program:
    parser = _Parser(text)
    program = parser.program()
    parser.ws()
    if not parser.at_end():
        raise parser.error("trailing input after the program body")
    return program


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.namespaces: dict[str, str] = {"xml": XML_NS}
        self.default_elem_ns: str | None = None

    # -- cursor helpers ---------------------------------------------------------

    def error(self, message: str) -> HostSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        return HostSyntaxError(message, line, column)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isspace():
                self.pos += 1
            elif self.text.startswith("(:", self.pos):
                depth = 1
                self.pos += 2
                while depth:
                    if self.text.startswith("(:", self.pos):
                        depth += 1
                        self.pos += 2
                    elif self.text.startswith(":)", self.pos):
                        depth -= 1
                        self.pos += 2
                    elif self.at_end():
                        raise self.error("unterminated comment")
                    else:
                        self.pos += 1
            else:
                return

    def take(self, literal: str) -> bool:
        self.ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def peek_word(self) -> str:
        self.ws()
        m = _NAME_RE.match(self.text, self.pos)
        return m.group() if m else ""

    def keyword(self, word: str) -> bool:
        if self.peek_word() == word:
            self.pos += len(word)
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.keyword(word):
            raise self.error(f"expected {word!r}")

    def raw_name(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group()

    def name(self) -> str:
        self.ws()
        return self.raw_name()

    def string_literal(self) -> str:
        self.ws()
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected a string literal")
        self.pos += 1
        parts: list[str] = []
        while True:
            end = self.text.find(quote, self.pos)
            if end < 0:
                raise self.error("unterminated string literal")
            parts.append(self.text[self.pos:end])
            self.pos = end + 1
            if self.peek() == quote:  # a doubled quote stands for itself
                parts.append(quote)
                self.pos += 1
            else:
                return "".join(parts)

    # -- name resolution --------------------------------------------------------

    def resolve_prefix(self, prefix: str) -> str:
        try:
            return self.namespaces[prefix]
        except KeyError:
            raise self.error(f"undeclared namespace prefix {prefix!r}") from None

    def _split_qname(self) -> tuple[str | None, str]:
        first = self.raw_name()
        if self.peek() == ":" and not self.text.startswith("::", self.pos):
            self.pos += 1
            return first, self.raw_name()
        return None, first

    def element_qname(self) -> QName:
        prefix, local = self._split_qname()
        if prefix is not None:
            return QName(self.resolve_prefix(prefix), local, prefix=prefix)
        return QName(self.default_elem_ns, local)

    def attribute_qname(self) -> QName:
        prefix, local = self._split_qname()
        if prefix is not None:
            return QName(self.resolve_prefix(prefix), local, prefix=prefix)
        return QName(None, local)

    # -- grammar ----------------------------------------------------------------

    def program(self) -> Program:
        variables: list[tuple[str, Expr]] = []
        while self.keyword("declare"):
            if self.keyword("namespace"):
                prefix = self.name()
                self.expect("=")
                self.namespaces[prefix] = self.string_literal()
            elif self.keyword("variable"):
                self.expect("$")
                name = self.raw_name()
                self.expect(":=")
                variables.append((name, self.expr()))
            else:
                raise self.error("expected 'namespace' or 'variable' after 'declare'")
            self.expect(";")
        return Program(dict(self.namespaces), tuple(variables), self.expr())

    def expr(self) -> Expr:
        word = self.peek_word()
        if word in ("for", "let"):
            return self.flwor()
        if word == "if":
            return self.if_expr()
        return self.comparison()

    def flwor(self) -> Expr:
        clauses: list[tuple[str, str | None, Expr]] = []
        while True:
            word = self.peek_word()
            if word == "for":
                self.keyword("for")
                while True:
                    self.expect("$")
                    var = self.raw_name()
                    self.expect_keyword("in")
                    clauses.append(("for", var, self.expr()))
                    if not self.take(","):
                        break
            elif word == "let":
                self.keyword("let")
                while True:
                    self.expect("$")
                    var = self.raw_name()
                    self.expect(":=")
                    clauses.append(("let", var, self.expr()))
                    if not self.take(","):
                        break
            elif word == "where":
                self.keyword("where")
                clauses.append(("where", None, self.expr()))
            else:
                break
        self.expect_keyword("return")
        body = self.expr()
        for kind, var, bound in reversed(clauses):
            if kind == "for":
                body = ForExpr(var, bound, body)
            elif kind == "let":
                body = LetExpr(var, bound, body)
            else:
                body = IfExpr(bound, body, SequenceExpr(()))
        return body

    def if_expr(self) -> Expr:
        self.keyword("if")
        self.expect("(")
        cond = self.expr()
        self.expect(")")
        self.expect_keyword("then")
        then = self.expr()
        self.expect_keyword("else")
        return IfExpr(cond, then, self.expr())

    def comparison(self) -> Expr:
        left = self.union_expr()
        if self.take("!="):
            return Compare("!=", left, self.union_expr())
        self.ws()
        if self.peek() == "=":
            self.pos += 1
            return Compare("=", left, self.union_expr())
        return left

    def union_expr(self) -> Expr:
        expr = self.path_expr()
        while self.keyword("union"):
            expr = UnionExpr(expr, self.path_expr())
        return expr

    def path_expr(self) -> Expr:
        self.ws()
        if self.peek() == "/":
            start: Expr | None = None
        else:
            start = self.primary()
        steps: list[Step] = []
        while True:
            self.ws()
            if self.peek() != "/":
                break
            if self.text.startswith("//", self.pos):
                raise self.error("descendant steps ('//') are not supported")
            self.pos += 1
            steps.append(self.step())
        if start is None:
            if not steps:
                raise self.error("expected a step after '/'")
            return PathApply(None, tuple(steps))
        return PathApply(start, tuple(steps)) if steps else start

    def step(self) -> Step:
        self.ws()
        if self.take("@"):
            self.ws()
            return Step("attribute", self.attribute_qname(), self.predicates())
        if self.take("*"):
            return Step("child", "*", self.predicates())
        mark = self.pos
        prefix, local = self._split_qname()
        if prefix is None and local == "text" and self.take("("):
            self.expect(")")
            return Step("child", "text()", self.predicates())
        self.pos = mark
        return Step("child", self.element_qname(), self.predicates())

    def predicates(self) -> tuple[Predicate, ...]:
        out: list[Predicate] = []
        while self.take("["):
            if self.take("@"):
                self.ws()
                name = self.attribute_qname()
                self.expect("=")
                out.append(AttrEquals(name, self.string_literal()))
            else:
                self.ws()
                out.append(HasChild(self.element_qname()))
            self.expect("]")
        return tuple(out)

    def primary(self) -> Expr:
        self.ws()
        ch = self.peek()
        if ch in ("'", '"'):
            return StringLit(self.string_literal())
        if ch == "$":
            self.pos += 1
            return VarRef(self.raw_name())
        if ch == "(":
            return self.parenthesized()
        if ch == "<":
            return self.constructor()
        if ch.isdigit():
            return self.number()
        word = self.peek_word()
        if not word:
            raise self.error("expected an expression")
        if word == "document":
            mark = self.pos
            self.pos += len(word)
            if self.take("{"):
                content = self.expr()
                self.expect("}")
                return DocumentCtor(content)
            self.pos = mark
        return self.function_call()

    def parenthesized(self) -> Expr:
        self.expect("(")
        if self.take(")"):
            return SequenceExpr(())
        items = [self.expr()]
        while self.take(","):
            items.append(self.expr())
        self.expect(")")
        return items[0] if len(items) == 1 else SequenceExpr(tuple(items))

    def number(self) -> NumberLit:
        m = re.compile(r"\d+(\.\d+)?").match(self.text, self.pos)
        assert m is not None
        self.pos = m.end()
        literal = m.group()
        return NumberLit(float(literal) if "." in literal else int(literal))

    def function_call(self) -> FnCall:
        prefix, local = self._split_qname()
        prefix = prefix or "fn"
        if prefix not in FUNCTION_PREFIXES:
            raise self.error(f"unknown function namespace prefix {prefix!r}")
        self.expect("(")
        args: list[Expr] = []
        if not self.take(")"):
            args.append(self.expr())
            while self.take(","):
                args.append(self.expr())
            self.expect(")")
        return FnCall(prefix, local, tuple(args))

    # -- direct constructors ----------------------------------------------------

    def constructor(self) -> ElementCtor:
        self.expect("<")
        open_prefix, open_local = self._split_qname()
        open_tag = f"{open_prefix}:{open_local}" if open_prefix else open_local
        saved = (dict(self.namespaces), self.default_elem_ns)
        try:
            raw_attrs: list[tuple[str | None, str, tuple[str | Expr, ...]]] = []
            while True:
                self.ws()
                if self.peek() in (">", "/"):
                    break
                prefix, local = self._split_qname()
                self.expect("=")
                self.ws()
                parts = self.attr_value()
                if prefix is None and local == "xmlns":
                    self.default_elem_ns = self._xmlns_value(parts) or None
                elif prefix == "xmlns":
                    self.namespaces[local] = self._xmlns_value(parts)
                else:
                    raw_attrs.append((prefix, local, parts))
            name = self._resolve_ctor_name(open_prefix, open_local)
            attrs = tuple((self._resolve_ctor_attr(p, l), parts)
                          for p, l, parts in raw_attrs)
            if self.take("/>"):
                return ElementCtor(name, attrs, ())
            self.expect(">")
            content = self.element_content(open_tag)
            return ElementCtor(name, attrs, content)
        finally:
            self.namespaces, self.default_elem_ns = saved

    def _xmlns_value(self, parts: tuple[str | Expr, ...]) -> str:
        if any(not isinstance(p, str) for p in parts):
            raise self.error("a namespace declaration must be a literal value")
        return "".join(parts)  # type: ignore[arg-type]

    def _resolve_ctor_name(self, prefix: str | None, local: str) -> QName:
        if prefix is not None:
            return QName(self.resolve_prefix(prefix), local, prefix=prefix)
        return QName(self.default_elem_ns, local)

    def _resolve_ctor_attr(self, prefix: str | None, local: str) -> QName:
        if prefix is not None:
            return QName(self.resolve_prefix(prefix), local, prefix=prefix)
        return QName(None, local)

    def attr_value(self) -> tuple[str | Expr, ...]:
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected a quoted attribute value")
        self.pos += 1
        parts: list[str | Expr] = []
        buf: list[str] = []

        def flush() -> None:
            if buf:
                parts.append("".join(buf))
                buf.clear()

        while True:
            if self.at_end():
                raise self.error("unterminated attribute value")
            ch = self.text[self.pos]
            if ch == quote:
                self.pos += 1
                flush()
                return tuple(parts)
            if ch == "{":
                if self.text.startswith("{{", self.pos):
                    buf.append("{")
                    self.pos += 2
                    continue
                self.pos += 1
                flush()
                parts.append(self.expr())
                self.expect("}")
            elif ch == "}":
                if not self.text.startswith("}}", self.pos):
                    raise self.error("'}' outside an enclosed expression")
                buf.append("}")
                self.pos += 2
            elif ch == "&":
                buf.append(self.entity())
            elif ch == "<":
                raise self.error("'<' is not allowed in an attribute value")
            else:
                buf.append(ch)
                self.pos += 1

    def element_content(self, open_tag: str) -> tuple[str | Expr, ...]:
        parts: list[str | Expr] = []
        buf: list[str] = []

        def flush() -> None:
            # whitespace-only literal runs are boundary whitespace
            chunk = "".join(buf)
            buf.clear()
            if chunk and chunk.strip():
                parts.append(chunk)

        while True:
            if self.at_end():
                raise self.error(f"unterminated element <{open_tag}>")
            ch = self.text[self.pos]
            if ch == "<":
                if self.text.startswith("</", self.pos):
                    flush()
                    self.pos += 2
                    close_prefix, close_local = self._split_qname()
                    close_tag = f"{close_prefix}:{close_local}" \
                        if close_prefix else close_local
                    if close_tag != open_tag:
                        raise self.error(f"mismatched closing tag </{close_tag}> "
                                         f"for <{open_tag}>")
                    self.ws()
                    if not self.text.startswith(">", self.pos):
                        raise self.error("expected '>'")
                    self.pos += 1
                    return tuple(parts)
                if self.text.startswith("<!--", self.pos):
                    end = self.text.find("-->", self.pos + 4)
                    if end < 0:
                        raise self.error("unterminated comment")
                    self.pos = end + 3
                    continue
                flush()
                parts.append(self.constructor())
            elif ch == "{":
                if self.text.startswith("{{", self.pos):
                    buf.append("{")
                    self.pos += 2
                    continue
                self.pos += 1
                flush()
                parts.append(self.expr())
                self.expect("}")
            elif ch == "}":
                if not self.text.startswith("}}", self.pos):
                    raise self.error("'}' outside an enclosed expression")
                buf.append("}")
                self.pos += 2
            elif ch == "&":
                buf.append(self.entity())
            else:
                buf.append(ch)
                self.pos += 1

    def entity(self) -> str:
        end = self.text.find(";", self.pos)
        if end < 0:
            raise self.error("unterminated entity reference")
        name = self.text[self.pos + 1:end]
        if name not in _ENTITIES:
            raise self.error(f"unsupported entity reference &{name};")
        self.pos = end + 1
        return _ENTITIES[name]
