"""Command line front end.

Four subcommands cover the library's pipelines:

    xqowl run PROGRAM [--data FILE] [--output FILE] [--format xml|text]
                      [--temp-files]
        Evaluate a host program. The first --data file becomes the
        context document for absolute paths; file names inside the
        program resolve against the program's directory.

    xqowl query QUERY --data FILE [--output FILE]
        Evaluate one SPARQL SELECT query over RDF/XML data and print
        the SPARQL-results XML. Repeating --data merges the graphs.

    xqowl reason --task NAME --ontology FILE [--class IRI]
                 [--individual IRI] [--property IRI] [--profile NAME]
                 [--direct]
        Run one reasoning task: consistent, instances, subclasses,
        values, instance-of, holds (two --individual), or subsumed
        (two --class). Bare names resolve against the ontology IRI
        plus "#".

    xqowl check PROGRAM --data FILE [--output FILE] [--temp-files]
        Evaluate a mapping program that builds an ontology document
        from the context XML, write the merged ontology (default
        ontology_analysis.owl), then report its consistency and every
        clash found.

Exit status: 0 on success (an inconsistent ontology is still a
successful analysis), 1 on evaluation errors, 2 on usage errors.
Nothing is written to stdout when the exit status is 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import XqowlError
from .functions import item_string
from .hostlang import parse_program
from .interpreter import Environment, evaluate
from .owl import Named, class_of_iri, load_ontology  # perfbench reads cli.Named
from .rdf import RdfGraph, parse_rdfxml, rdf_from_document, write_sparql_results
from .reasoner import Reasoner
from .sparql import eval_select, parse_sparql
from .xmltree import XmlNode, parse_xml, serialize_xml, string_value

REASON_TASKS = ("consistent", "instances", "subclasses", "values",
                "instance-of", "holds", "subsumed")


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xqowl",
        description="Query XML and RDF/OWL documents and reason over them.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a host program")
    run.add_argument("program", help="program file (.xq)")
    run.add_argument("--data", action="append", default=[], metavar="FILE",
                     help="XML input; the first one is the context document")
    run.add_argument("--output", metavar="FILE", help="write result here")
    run.add_argument("--format", choices=("xml", "text"), default="xml")
    run.add_argument("--temp-files", action="store_true", dest="temp_files",
                     help="pass query results through temporary files")

    query = sub.add_parser("query", help="evaluate one SPARQL query")
    query.add_argument("query", help="SPARQL SELECT text")
    query.add_argument("--data", action="append", default=[], metavar="FILE",
                       help="RDF/XML input (repeatable, merged)", required=True)
    query.add_argument("--output", metavar="FILE")

    reason = sub.add_parser("reason", help="run one reasoning task")
    reason.add_argument("--task", required=True, choices=REASON_TASKS)
    reason.add_argument("--ontology", required=True, metavar="FILE")
    reason.add_argument("--class", dest="classes", action="append", default=[],
                        metavar="IRI")
    reason.add_argument("--individual", dest="individuals", action="append",
                        default=[], metavar="IRI")
    reason.add_argument("--property", dest="property", metavar="IRI")
    reason.add_argument("--profile", choices=Reasoner.PROFILES, default="hermit")
    reason.add_argument("--direct", action="store_true",
                        help="direct subclasses only")
    reason.add_argument("--output", metavar="FILE")

    check = sub.add_parser("check", help="map XML to an ontology and check it")
    check.add_argument("program", help="mapping program file (.xq)")
    check.add_argument("--data", required=True, metavar="FILE",
                       help="XML document to analyze")
    check.add_argument("--output", metavar="FILE",
                       help="merged ontology file (default ontology_analysis.owl)")
    check.add_argument("--temp-files", action="store_true", dest="temp_files")
    return parser


def _require_file(name: str) -> Path:
    path = Path(name)
    if not path.is_file():
        raise UsageError(f"no such file: {name}")
    return path


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _deliver(body: str, output: str | None) -> None:
    if body and not body.endswith("\n"):
        body += "\n"
    if output:
        Path(output).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


def _render_item(item, fmt: str) -> str:
    if isinstance(item, XmlNode):
        if item.kind in ("document", "element") and fmt == "xml":
            return serialize_xml(item, indent=True)
        return string_value(item)
    return item_string(item)


def cmd_run(args: argparse.Namespace) -> int:
    program_path = _require_file(args.program)
    for name in args.data:
        _require_file(name)
    program = parse_program(_read(program_path))
    context = parse_xml(_read(Path(args.data[0]))) if args.data else None
    env = Environment(base_dir=program_path.parent, context_document=context,
                      temp_files=args.temp_files)
    result = evaluate(program, env)
    _deliver("\n".join(_render_item(item, args.format) for item in result),
             args.output)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    graphs = [parse_rdfxml(_read(_require_file(name))) for name in args.data]
    graph = graphs[0]
    if len(graphs) > 1:
        triples = [t for g in graphs for t in g.triples]
        graph = RdfGraph(triples, base_iri=graphs[0].base_iri)
    table = eval_select(graph, parse_sparql(args.query))
    _deliver(serialize_xml(write_sparql_results(table), indent=True), args.output)
    return 0


def _expand_iri(ontology_iri: str, name: str) -> str:
    # bare names are shorthand for fragments of the ontology itself
    return name if ":" in name else f"{ontology_iri}#{name}"


def _exactly(values: list[str], count: int, flag: str, task: str) -> list[str]:
    if len(values) != count:
        raise UsageError(f"task {task!r} needs exactly {count} {flag} "
                         f"argument(s), got {len(values)}")
    return values


def cmd_reason(args: argparse.Namespace) -> int:
    ontology_file = _require_file(args.ontology)
    ont = load_ontology(parse_rdfxml(_read(ontology_file)))
    reasoner = Reasoner(ont, profile=args.profile)
    classes = [class_of_iri(_expand_iri(ont.iri, c)) for c in args.classes]
    individuals = [_expand_iri(ont.iri, i) for i in args.individuals]
    prop = _expand_iri(ont.iri, args.property) if args.property else None
    task = args.task

    if task == "consistent":
        lines = [item_string(reasoner.is_consistent())]
    elif task == "instances":
        (cls,) = _exactly(classes, 1, "--class", task)
        lines = sorted(reasoner.instances(cls))
    elif task == "subclasses":
        (cls,) = _exactly(classes, 1, "--class", task)
        lines = sorted(reasoner.subclasses(cls, direct=args.direct))
    elif task == "values":
        (ind,) = _exactly(individuals, 1, "--individual", task)
        if prop is None:
            raise UsageError("task 'values' needs --property")
        lines = sorted(reasoner.property_values(ind, prop))
    elif task == "instance-of":
        (ind,) = _exactly(individuals, 1, "--individual", task)
        (cls,) = _exactly(classes, 1, "--class", task)
        lines = [item_string(reasoner.is_instance_of(ind, cls))]
    elif task == "holds":
        subject, obj = _exactly(individuals, 2, "--individual", task)
        if prop is None:
            raise UsageError("task 'holds' needs --property")
        lines = [item_string(reasoner.holds(subject, prop, obj))]
    else:  # subsumed
        sub, sup = _exactly(classes, 2, "--class", task)
        lines = [item_string(reasoner.is_subsumed(sub, sup))]

    _deliver("\n".join(lines), args.output)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    program_path = _require_file(args.program)
    data_path = _require_file(args.data)
    program = parse_program(_read(program_path))
    env = Environment(base_dir=program_path.parent,
                      context_document=parse_xml(_read(data_path)),
                      temp_files=args.temp_files)
    result = evaluate(program, env)
    if len(result) != 1 or not isinstance(result[0], XmlNode) \
            or result[0].kind != "document":
        raise XqowlError("the mapping program must produce exactly one document")
    merged = result[0]
    out_path = Path(args.output) if args.output else Path("ontology_analysis.owl")
    out_path.write_text(serialize_xml(merged, indent=True) + "\n",
                        encoding="utf-8")
    sat = Reasoner(load_ontology(rdf_from_document(merged, ""))).saturation
    lines = [f"consistent: {'false' if sat.clashes else 'true'}"]
    for clash in sat.clashes:
        lines.append(f"{clash.kind}: {', '.join(clash.culprits)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


_HANDLERS = {"run": cmd_run, "query": cmd_query,
             "reason": cmd_reason, "check": cmd_check}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except XqowlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply (maximum recursion depth exceeded)",
              file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
