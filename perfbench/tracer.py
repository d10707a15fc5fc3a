"""Span tracing of xqowl's layers from outside the package.

`Tracer.install` wraps each layer's public functions where the consuming
module looked them up: a name imported into a module is rebound in that
module, a method is rebound on its class. Recursion inside a layer (such
as xmltree.clone calling itself) stays unwrapped, so one call into a
layer is one span. `Tracer.restore` puts every original back.

A span is (name, start, end, parent, request, tail, counts). `tail` is
the time the wrapper spent after `end` computing the span's counts; it
is charged to neither the span nor its parent. A span's self time is its
duration minus the spans and tails directly below it.
"""

from __future__ import annotations

import gc
import gzip
import importlib
from pathlib import Path
from time import perf_counter
from typing import Callable


def _count_nodes(doc) -> tuple[int]:
    count, stack = 0, [doc]
    while stack:
        node = stack.pop()
        count += 1 + len(node.attributes)
        stack.extend(node.children)
    return (count,)


def _saturation_counts(sat) -> tuple[int, int, int]:
    facts = len(sat.class_facts) + len(sat.role_facts) + len(sat.data_facts)
    return facts, len(sat.fresh), len(sat.clashes)


# (module, attribute, span name, counts of the result)
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("xqowl.cli", "main", "cli.main", None),
    ("xqowl.cli", "parse_program", "hostlang.parse", None),
    ("xqowl.cli", "evaluate", "interpreter.eval", None),
    ("xqowl.cli", "parse_xml", "xmltree.parse", _count_nodes),
    ("xqowl.cli", "serialize_xml", "xmltree.serialize", None),
    ("xqowl.cli", "parse_rdfxml", "rdf.read", lambda g: (len(g),)),
    ("xqowl.cli", "rdf_from_document", "rdf.read", lambda g: (len(g),)),
    ("xqowl.cli", "write_sparql_results", "rdf.results_write", None),
    ("xqowl.cli", "parse_sparql", "sparql.parse", None),
    ("xqowl.cli", "eval_select", "sparql.select", lambda t: (len(t.rows),)),
    ("xqowl.cli", "load_ontology", "owl.load",
     lambda o: (len(o.tbox), len(o.abox))),
    ("xqowl.interpreter", "call_builtin", "functions.builtin", None),
    ("xqowl.interpreter", "parse_xml", "xmltree.parse", _count_nodes),
    ("xqowl.interpreter", "parse_rdfxml", "rdf.read", lambda g: (len(g),)),
    ("xqowl.interpreter", "load_ontology", "owl.load",
     lambda o: (len(o.tbox), len(o.abox))),
    ("xqowl.interpreter", "clone", "xmltree.clone", None),
    ("xqowl.interpreter", "serialize_xml", "xmltree.serialize", None),
    ("xqowl.interpreter", "eval_steps", "xpaths.eval", None),
    ("xqowl.functions", "rdf_from_document", "rdf.read", lambda g: (len(g),)),
    ("xqowl.functions", "write_sparql_results", "rdf.results_write", None),
    ("xqowl.functions", "eval_select", "sparql.select", lambda t: (len(t.rows),)),
    ("xqowl.functions", "parse_sparql", "sparql.parse", None),
    ("xqowl.rdf", "parse_xml", "xmltree.parse", _count_nodes),
    ("xqowl.rdf", "RdfGraph.match", "rdf.match", lambda m: (len(m),)),
    ("xqowl.sparql", "eval_bgp", "sparql.bgp", None),
    ("xqowl.reasoner", "saturate", "reasoner.saturate", _saturation_counts),
    ("xqowl.reasoner", "Reasoner.is_subsumed", "reasoner.subsume", None),
] + [("xqowl.reasoner", f"Reasoner.{method}", "reasoner.query", None)
     for method in ("is_consistent", "instances", "is_instance_of", "holds",
                    "property_values", "subclasses")]

# span name -> (self-time metric, call-count metric, names of its counts)
SPAN_METRICS: dict[str, tuple[str, str | None, tuple[str, ...]]] = {
    "cli.main": ("cli.self_s", None, ()),
    "hostlang.parse": ("hostlang.parse_s", None, ()),
    "interpreter.eval": ("interpreter.eval_s", None, ()),
    "functions.builtin": ("functions.builtin_s", "functions.builtin_calls", ()),
    "xpaths.eval": ("xpaths.eval_s", "xpaths.calls", ()),
    "xmltree.parse": ("xmltree.parse_s", None, ("xmltree.nodes_parsed",)),
    "xmltree.serialize": ("xmltree.serialize_s", None, ()),
    "xmltree.clone": ("xmltree.clone_s", None, ()),
    "rdf.read": ("rdf.read_s", None, ("rdf.triples_read",)),
    "rdf.match": ("rdf.match_s", "rdf.match_calls", ("rdf.triples_matched",)),
    "rdf.results_write": ("rdf.results_write_s", None, ()),
    "sparql.parse": ("sparql.parse_s", None, ()),
    "sparql.select": ("sparql.select_s", None, ("sparql.rows_out",)),
    "sparql.bgp": ("sparql.bgp_s", None, ()),
    "owl.load": ("owl.load_s", None, ("owl.axioms_loaded", "owl.assertions_loaded")),
    "reasoner.saturate": ("reasoner.saturate_s", "reasoner.saturate_calls",
                          ("reasoner.facts_out", "reasoner.witnesses",
                           "reasoner.clashes")),
    "reasoner.query": ("reasoner.query_s", None, ()),
    "reasoner.subsume": ("reasoner.query_s", "reasoner.subsumption_tests", ()),
}


def _resolve(module: str, attr: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = -1
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def wrap(self, name: str, fn: Callable, counts: Callable | None) -> Callable:
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent,
                                tracer.request, 0.0, ())
                raise
            finally:
                stack.pop()
            end = perf_counter()
            measured = counts(result) if counts is not None else ()
            spans[index] = (name, start, end, parent, tracer.request,
                            perf_counter() - end, measured)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, counts in TARGETS:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            setattr(owner, key, self.wrap(name, original, counts))
            self._patches.append((owner, key, original))
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        # only collections inside a request count, not those of the
        # oracle checks run between requests
        if not self._stack:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_seconds += perf_counter() - self._gc_start
            self.gc_collections += 1

    def request_span(self, fn: Callable) -> Callable:
        """A root span around one benchmark request."""
        return self.wrap("request", fn, None)

    def self_times(self) -> list[float]:
        below = [0.0] * len(self.spans)
        for _, start, end, parent, _, tail, _ in self.spans:
            if parent >= 0:
                below[parent] += end - start + tail
        return [end - start - below[i]
                for i, (_, start, end, *_) in enumerate(self.spans)]

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Per-request means of every layer metric over the traced spans."""
        totals = {metric: 0.0 for self_metric, calls_metric, count_names
                  in SPAN_METRICS.values()
                  for metric in (self_metric, calls_metric, *count_names) if metric}
        saturating = set()  # spans with a saturation directly below them
        tests = []
        for index, (span, self_time) in enumerate(zip(self.spans, self.self_times())):
            name, parent, measured = span[0], span[3], span[6]
            if name == "reasoner.saturate":
                saturating.add(parent)
            elif name == "reasoner.subsume":
                tests.append(index)
            if name not in SPAN_METRICS:
                continue
            self_metric, calls_metric, count_names = SPAN_METRICS[name]
            totals[self_metric] += self_time
            if calls_metric:
                totals[calls_metric] += 1
            for count_name, value in zip(count_names, measured):
                totals[count_name] += value
        metrics = {key: value / requests for key, value in totals.items()}
        # base: subsumption tests; a hit is answered without saturating
        hits = sum(1 for index in tests if index not in saturating)
        metrics["reasoner.subsumption_hit_ratio"] = hits / len(tests) if tests else 0.0
        # base: result rows of SELECT evaluation
        rows = totals["sparql.rows_out"]
        metrics["sparql.matched_per_row"] = (totals["rdf.triples_matched"] / rows
                                             if rows else 0.0)
        metrics["runtime.gc_s"] = self.gc_seconds / requests
        metrics["runtime.gc_collections"] = self.gc_collections / requests
        return metrics

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("index,name,start,end,parent,request,tail,counts\n")
            for i, (name, start, end, parent, request, tail, measured) in \
                    enumerate(self.spans):
                out.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},"
                          f"{parent},{request},{tail:.9f},"
                          f"{';'.join(map(str, measured))}\n")
