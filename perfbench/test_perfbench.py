"""Checks of the benchmark itself, at small scales so they stay fast.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import pytest

import generators
import oracles
import run
import workloads
from tracer import TARGETS, Tracer, _resolve
from xqowl.owl import load_ontology
from xqowl.rdf import parse_rdfxml

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = (ROOT / workloads.FIXTURES / "socialnetwork.owl").read_text(encoding="utf-8")

SMALL = {
    "reason-abox": dict(copies=2, per_task=1),
    "classify-tbox": dict(copies=2, subsumption_tests=2),
    "sparql-foaf": dict(persons=40, degree=3),
    "check-mapping": dict(papers=(6, 12)),
}

GENERATORS = {
    "abox": lambda seed: generators.replicate_abox(FIXTURE, 3, seed),
    "tbox": lambda seed: generators.replicate_tbox(FIXTURE, 3, seed),
    "foaf": lambda seed: generators.foaf_graph(30, 4, seed).markup,
    "conference": lambda seed: generators.conference(8, 16, seed).markup,
}


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generators_are_byte_identical_per_seed(kind):
    make = GENERATORS[kind]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_replicated_ontologies_have_the_stated_sizes():
    abox = load_ontology(parse_rdfxml(generators.replicate_abox(FIXTURE, 2, 1)))
    fixture = load_ontology(parse_rdfxml(FIXTURE))
    assert abox.tbox == fixture.tbox
    assert len(abox.abox) == 2 * len(fixture.abox) == 64
    tbox = load_ontology(parse_rdfxml(generators.replicate_tbox(FIXTURE, 2, 1)))
    assert not tbox.abox
    assert len(tbox.tbox) == 2 * len(fixture.tbox) == 104
    assert len(tbox.named_classes()) == 20


def test_generated_foaf_graph_has_one_name_and_degree_knows_per_person():
    foaf = generators.foaf_graph(30, 4, 3)
    assert len(parse_rdfxml(foaf.markup)) == 30 * (2 + 4)
    assert len(set(foaf.names)) == 30
    assert all(len(set(k)) == 4 and i not in k for i, k in enumerate(foaf.knows))


def test_direct_subclass_oracle_matches_criterion_06():
    below_activity = {sub for sub, sups in oracles.SUPERS.items()
                      if "activity" in sups and sub != "activity"}
    assert below_activity == {"popular_message", "event", "popular_event", "message"}
    assert oracles.direct_subclasses("activity") == {"event", "message"}
    assert oracles.direct_subclasses("user") == {"Nothing"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_request_of_a_small_deck_matches_its_oracle(name, tmp_path):
    prepared = workloads.WORKLOADS[name](ROOT, tmp_path, 5, **SMALL[name])
    assert prepared.deck
    for request in prepared.deck:
        assert request.check(request.run()), request.label


def test_oracles_reject_a_wrong_answer(tmp_path):
    prepared = workloads.check_mapping(ROOT, tmp_path, 5, **SMALL["check-mapping"])
    request = prepared.deck[0]
    code, out = request.run()
    assert not request.check((code, out.replace("consistent: false", "consistent: true")))
    sparql = workloads.sparql_foaf(ROOT, tmp_path, 5, **SMALL["sparql-foaf"])
    request = sparql.deck[0]
    assert not request.check(request.run().replace("people#p", "people#q", 1))


def test_self_time_excludes_children_and_their_tails():
    tracer = Tracer()
    tracer.spans[:] = [("request", 0.0, 10.0, -1, 0, 0.0, ()),
                       ("cli.main", 1.0, 9.0, 0, 0, 0.5, ()),
                       ("rdf.match", 2.0, 4.0, 1, 0, 0.25, (3,))]
    assert tracer.self_times() == [1.5, 5.75, 2.0]
    metrics = tracer.layer_metrics(requests=2)
    assert metrics["cli.self_s"] == 5.75 / 2
    assert metrics["rdf.match_calls"] == 0.5
    assert metrics["rdf.triples_matched"] == 1.5


def test_install_rebinds_every_target_and_restore_puts_it_back():
    originals = [getattr(*_resolve(module, attr)) for module, attr, _, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(*_resolve(module, attr)) is not original
                   for (module, attr, _, _), original in zip(TARGETS, originals))
    finally:
        tracer.restore()
    assert [getattr(*_resolve(module, attr)) for module, attr, _, _ in TARGETS] \
        == originals


def test_collections_count_only_inside_a_request():
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()  # as an oracle check between requests might
        assert tracer.gc_collections == 0
        tracer.request_span(gc.collect)()
        assert tracer.gc_collections >= 1
    finally:
        tracer.restore()


def _traced_counts(name: str, work: Path) -> dict[str, float]:
    prepared = workloads.WORKLOADS[name](ROOT, work, 5, **SMALL[name])
    tracer = Tracer()
    tracer.install()
    try:
        for number, request in enumerate(prepared.deck):
            tracer.request = number
            assert request.check(tracer.request_span(request.run)())
    finally:
        tracer.restore()
    # counts only: times vary, and so do collections, which follow the heap
    return {key: value for key, value in tracer.layer_metrics(len(prepared.deck)).items()
            if not key.endswith("_s") and not key.startswith("runtime.")}


def test_traced_counts_repeat_and_bypassed_layers_stay_at_zero(tmp_path):
    sparql = _traced_counts("sparql-foaf", tmp_path)
    assert sparql == _traced_counts("sparql-foaf", tmp_path)
    assert sparql["rdf.match_calls"] > 0 and sparql["sparql.rows_out"] > 0
    assert all(value == 0 for key, value in sparql.items() if key.startswith("reasoner."))
    classify = _traced_counts("classify-tbox", tmp_path)
    assert classify["reasoner.subsumption_tests"] > classify["reasoner.saturate_calls"] > 0
    assert all(value == 0 for key, value in classify.items() if key.startswith("sparql."))
    check = _traced_counts("check-mapping", tmp_path)
    assert check["functions.builtin_calls"] > 0 and check["reasoner.clashes"] > 0


def test_benchmark_file_lists_exactly_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = set(Tracer().layer_metrics(1)) | set(run.PROBE_METRICS) \
        | {"tracing.overhead_pct"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in reported}
