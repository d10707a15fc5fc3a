"""xqowl: an XQuery-flavored host language whose builtins embed a SPARQL
SELECT engine over RDF graphs and a native OWL reasoner.

The package layers, bottom up:

- xmltree / xpaths: XML node model, parsing, serialization, path steps
- rdf: RDF terms, triples, graphs, RDF/XML reading, results writing
- sparql: SPARQL SELECT subset (basic graph patterns with ORDER BY)
- owl: OWL class/role expressions, axioms, loading and rendering
- reasoner: ABox saturation, consistency, retrieval, subsumption
- hostlang / interpreter / functions: the host query language
- cli: the xqowl command line
"""

from .errors import (
    EvalError,
    HostSyntaxError,
    InconsistentOntologyError,
    NamespaceError,
    ParseError,
    RdfParseError,
    SparqlSyntaxError,
    UnsupportedFeatureError,
    XmlParseError,
    XqowlError,
)
from .xmltree import (
    QName,
    XmlNode,
    attribute,
    canonical_equal,
    canonical_key,
    clone,
    element,
    parse_xml,
    serialize_xml,
    string_value,
    sub_element,
    text,
)
from .xpaths import Step, eval_steps
from .rdf import (
    Iri,
    Literal,
    RdfGraph,
    Triple,
    parse_rdfxml,
    rdf_from_document,
    write_sparql_results,
)
from .sparql import SparqlQuery, eval_select, parse_sparql
from .owl import (
    Ontology,
    axioms_to_xml,
    entities_to_xml,
    load_ontology,
)
from .reasoner import ClashReport, Reasoner, saturate
from .hostlang import Program, parse_program
from .interpreter import Environment, Interpreter, evaluate
from .functions import OntologyHandle, ReasonerHandle

__all__ = [name for name in dir() if not name.startswith("_")]
