"""Exception hierarchy shared by every layer of the engine."""

from __future__ import annotations


class XqowlError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(XqowlError):
    """Syntax error in some textual input, with a best-effort position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XmlParseError(ParseError):
    """Malformed XML markup."""


class NamespaceError(ParseError):
    """A prefix was used without a namespace declaration in scope."""


class RdfParseError(ParseError):
    """RDF/XML markup outside the supported subset, or ill-formed."""


class SparqlSyntaxError(ParseError):
    """Malformed SPARQL query text."""


class HostSyntaxError(ParseError):
    """Malformed host-language program text."""


class UnsupportedFeatureError(XqowlError):
    """Input uses a feature that is deliberately outside the supported subset."""


class EvalError(XqowlError):
    """Runtime failure while evaluating a query or program."""


class InconsistentOntologyError(EvalError):
    """A retrieval task was asked of an ontology whose ABox contains a clash."""
