"""The four benchmark workloads.

Each workload is a set-up function `(root, work, seed) -> Prepared`. It
generates its inputs under `work`, loads what the workload loads once,
and returns a deck: a seeded list of requests with fixed proportions of
request kinds. The runner replays whole decks, so every run sees the
same mix. A request calls the same library entry points as the xqowl
CLI pipeline it stands for, looked up on `xqowl.cli` at call time so a
traced run sees its own rebinding of them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from xqowl import cli, reasoner as reasoner_module

import generators
import oracles

FIXTURES = Path("src") / "xqowl" / "fixtures"
PROBE_REPEATS = 3


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Prepared:
    deck: list[Request]
    # extra measurements for the traced run, outside the request loop
    probes: Callable[[], dict[str, float]] = field(default=lambda: {})


def _fixture(root: Path, name: str) -> str:
    return (root / FIXTURES / name).read_text(encoding="utf-8")


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _load(path: Path):
    return cli.load_ontology(cli.parse_rdfxml(path.read_text(encoding="utf-8")))


def _median_seconds(fn: Callable[[], object]) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _equals(expected) -> Callable[[object], bool]:
    return lambda output: output == expected


# -- reason-abox -----------------------------------------------------------------

def _reason_task(ont, task: str, args: tuple[str, ...]) -> list[str]:
    """One `xqowl reason` task on a fresh reasoner, rendered as its lines."""
    reasoner = cli.Reasoner(ont)
    if task == "consistent":
        return [cli.item_string(reasoner.is_consistent())]
    if task == "instances":
        return sorted(reasoner.instances(cli.Named(args[0])))
    if task == "values":
        return sorted(reasoner.property_values(*args))
    if task == "instance-of":
        return [cli.item_string(reasoner.is_instance_of(args[0], cli.Named(args[1])))]
    return [cli.item_string(reasoner.holds(*args))]  # holds


def reason_abox(root: Path, work: Path, seed: int, copies: int = 64,
                per_task: int = 2) -> Prepared:
    fixture = _fixture(root, "socialnetwork.owl")
    ont = _load(_write(work / "abox.owl",
                       generators.replicate_abox(fixture, copies, seed)))
    names = generators.individual_names(fixture)
    sn = oracles.SN
    rng = random.Random(f"reason-abox-{seed}")
    tasks = []
    for _ in range(per_task):
        tasks.append(("consistent", (), ["true"]))
        cls = rng.choice(sorted(oracles.MEMBERS))
        tasks.append(("instances", (sn + cls,), oracles.instances_lines(cls, copies)))
        (ind, prop), fillers = rng.choice(sorted(oracles.VALUES.items()))
        copy = rng.randrange(copies)
        tasks.append(("values", (oracles.sn_individual(ind, copy), sn + prop),
                      sorted(oracles.sn_individual(f, copy) for f in fillers)))
        name, cls = rng.choice(names), rng.choice(sorted(oracles.MEMBERS))
        copy = rng.randrange(copies)
        tasks.append(("instance-of", (oracles.sn_individual(name, copy), sn + cls),
                      oracles.bool_line(name in oracles.MEMBERS[cls])))
        (ind, prop), fillers = rng.choice(sorted(oracles.VALUES.items()))
        copy, other = rng.randrange(copies), rng.randrange(copies)
        obj = rng.choice(names)
        tasks.append(("holds", (oracles.sn_individual(ind, copy), sn + prop,
                                oracles.sn_individual(obj, other)),
                      oracles.bool_line(obj in fillers and copy == other)))
    rng.shuffle(tasks)
    deck = [Request(f"{task} {' '.join(args)}",
                    lambda task=task, args=args: _reason_task(ont, task, args),
                    _equals(expected))
            for task, args, expected in tasks]

    def probes() -> dict[str, float]:
        # saturation time at twice the workload's ABox over its own size
        double = _load(_write(work / "abox-double.owl",
                              generators.replicate_abox(fixture, 2 * copies, seed)))
        base = _median_seconds(lambda: reasoner_module.saturate(ont))
        return {"reasoner.saturate_doubling_ratio":
                _median_seconds(lambda: reasoner_module.saturate(double)) / base}

    return Prepared(deck, probes)


# -- classify-tbox ---------------------------------------------------------------

def classify_tbox(root: Path, work: Path, seed: int, copies: int = 8,
                  subsumption_tests: int = 2) -> Prepared:
    fixture = _fixture(root, "socialnetwork.owl")
    ont = _load(_write(work / "tbox.owl",
                       generators.replicate_tbox(fixture, copies, seed)))
    rng = random.Random(f"classify-tbox-{seed}")
    deck = []
    for cls in sorted(oracles.SUPERS):
        copy = rng.randrange(copies)
        expected = sorted(oracles.sn_class(sub, copy)
                          for sub in oracles.direct_subclasses(cls))
        deck.append(Request(
            f"subclasses --direct {cls} copy {copy}",
            lambda iri=oracles.sn_class(cls, copy): sorted(
                cli.Reasoner(ont).subclasses(cli.Named(iri), direct=True)),
            _equals(expected)))
    with_supers = sorted(c for c, sups in oracles.SUPERS.items() if len(sups) > 1)
    for test in range(subsumption_tests):
        sub, copy = rng.choice(with_supers), rng.randrange(copies)
        if test % 2 == 0:
            sup = rng.choice(sorted(oracles.SUPERS[sub] - {sub}))
        else:
            sup = rng.choice(sorted(set(oracles.SUPERS) - oracles.SUPERS[sub]))
        deck.append(Request(
            f"subsumed {sub} {sup} copy {copy}",
            lambda a=oracles.sn_class(sub, copy), b=oracles.sn_class(sup, copy): [
                cli.item_string(cli.Reasoner(ont).is_subsumed(cli.Named(a),
                                                              cli.Named(b)))],
            _equals(oracles.bool_line(sup in oracles.SUPERS[sub]))))
    rng.shuffle(deck)
    return Prepared(deck)


# -- sparql-foaf -----------------------------------------------------------------

RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"


def _query_pipeline(graph, text: str) -> str:
    """The `xqowl query` pipeline after the data is read."""
    table = cli.eval_select(graph, cli.parse_sparql(text))
    return cli.serialize_xml(cli.write_sparql_results(table), indent=True)


def _select(variables: list[str], patterns, order: str = "") -> str:
    return (oracles.FOAF_PREFIX + f"SELECT {' '.join('?' + v for v in variables)}"
            f" WHERE {{ {' . '.join(patterns)} }}" + (f" ORDER BY {order}" if order else ""))


def _sparql_request(graph, label: str, variables: list[str], patterns,
                    rows, order_by: list[tuple[int, str]] = ()) -> Request:
    order = " ".join(f"{d.upper()}(?{variables[c]})" for c, d in order_by)
    text = _select(variables, patterns, order)
    expected = (variables, oracles.sort_rows(rows, list(order_by)))
    return Request(label, lambda: _query_pipeline(graph, text),
                   lambda out: oracles.read_results(out) == expected)


def fof_patterns(name: str) -> list[str]:
    return [f"?a foaf:name '{name}'", "?a foaf:knows ?b", "?b foaf:knows ?c"]


# pattern orders of the deck's friends-of-friends joins: the best, the
# second-worst, and the worst four times
FOF_ORDERS = [(0, 1, 2), (2, 1, 0), (1, 2, 0), (1, 2, 0), (1, 2, 0), (1, 2, 0)]


def sparql_foaf(root: Path, work: Path, seed: int, persons: int = 1000,
                degree: int = 6) -> Prepared:
    foaf = generators.foaf_graph(persons, degree, seed)
    graph = cli.parse_rdfxml(_write(work / "foaf.rdf", foaf.markup)
                             .read_text(encoding="utf-8"))
    rng = random.Random(f"sparql-foaf-{seed}")
    pick = lambda: rng.randrange(persons)  # noqa: E731
    person, names = oracles.person, foaf.names
    deck = []
    # Cost classes per deck, cheapest first: four 1-pattern lookups; two
    # 2-pattern joins in the selective order and the 3-pattern join in its
    # best order; six 2-pattern joins in the unselective order (the
    # median); two full scans of every person and one 3-pattern join in
    # the second-worst order; four 3-pattern joins in the worst order
    # (p90, which so falls inside one cost class). The seed picks the
    # people and the order of the deck; the pattern orders are fixed.
    for _ in range(2):
        i = pick()
        deck.append(_sparql_request(graph, f"name of p{i}", ["p"],
                                    [f"?p foaf:name '{names[i]}'"], [(person(i),)]))
        i = pick()
        deck.append(_sparql_request(graph, f"knows of p{i}", ["q"],
                                    [f"<{person(i)}> foaf:knows ?q"],
                                    [(person(j),) for j in foaf.knows[i]]))
    for knows_first, count in ((True, 2), (False, 6)):
        for number in range(count):
            i = pick()
            patterns = [f"<{person(i)}> foaf:knows ?q", "?q foaf:name ?n"]
            deck.append(_sparql_request(
                graph, f"friend names of p{i}", ["q", "n"],
                patterns if knows_first else patterns[::-1],
                [(person(j), names[j]) for j in foaf.knows[i]],
                [(1, "desc")] if number % 2 else []))
    for permutation in FOF_ORDERS:
        i = pick()
        patterns = fof_patterns(names[i])
        deck.append(_sparql_request(graph, f"friends of friends of p{i}", ["c"],
                                    [patterns[k] for k in permutation],
                                    oracles.fof(foaf, i)))
    for type_first in (True, False):
        patterns = [f"?p {RDF_TYPE} foaf:Person", "?p foaf:name ?n"]
        deck.append(_sparql_request(
            graph, "every person", ["p", "n"],
            patterns if type_first else patterns[::-1],
            [(person(i), names[i]) for i in range(persons)],
            [(1, "asc")] if type_first else []))
    rng.shuffle(deck)

    def probes() -> dict[str, float]:
        # one friends-of-friends query timed in each of its pattern orders
        patterns = fof_patterns(names[0])
        times = [_median_seconds(lambda q=_select(["c"], perm): cli.eval_select(
                     graph, cli.parse_sparql(q)))
                 for perm in itertools.permutations(patterns)]
        return {"sparql.order_gap_ratio": max(times) / min(times)}

    return Prepared(deck, probes)


# -- check-mapping ---------------------------------------------------------------

def _check_command(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# papers per document of the deck, each with twice as many researchers.
# The large document costs about five small ones, so the four small ones
# hold the median and the large one holds p90, which so falls inside one
# cost class rather than on the tail of identical requests.
DECK_PAPERS = (50, 50, 50, 50, 200)


def check_mapping(root: Path, work: Path, seed: int,
                  papers: tuple[int, ...] = DECK_PAPERS) -> Prepared:
    deck = []
    for k, count in enumerate(papers):
        conf = generators.conference(count, 2 * count, f"check-mapping-{seed}-{k}")
        data = _write(work / f"conference-{k}.xml", conf.markup)
        argv = ["check", str(root / FIXTURES / "mapping.xq"), "--data", str(data),
                "--output", str(work / "ontology_analysis.owl")]
        expected = (0, "\n".join(oracles.check_lines(conf)) + "\n")
        deck.append(Request(f"check mapping.xq over {count} papers",
                            lambda argv=argv: _check_command(argv), _equals(expected)))
    return Prepared(deck)


WORKLOADS: dict[str, Callable[[Path, Path, int], Prepared]] = {
    "reason-abox": reason_abox,
    "classify-tbox": classify_tbox,
    "sparql-foaf": sparql_foaf,
    "check-mapping": check_mapping,
}
