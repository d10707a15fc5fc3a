"""Fixture goldens: the stdout and written files of every fixture pipeline,
byte for byte.

Each case runs `cli.main` in process. The goldens under tests/goldens/
were written by this module; after an intended change of output,
regenerate them with

    PYTHONPATH=src python tests/test_goldens.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import FIXTURES  # noqa: E402
from xqowl.cli import main  # noqa: E402
from xqowl.owl import load_ontology  # noqa: E402
from xqowl.rdf import parse_rdfxml  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens"

PROGRAMS = sorted(p.name for p in FIXTURES.glob("*.xq"))
CHECKED = ("conference.xml", "conference_fixed.xml")
ONTOLOGIES = ("socialnetwork.owl", "ontology_papers.owl")
QUERY = ("PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
         "SELECT ?Person ?Name WHERE { ?Person foaf:name ?Name } ORDER BY DESC(?Name)")
_PREFIXES = ("PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
             "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> ")
_JOIN = ("?a foaf:knows ?b", "?b foaf:name ?bn", "?a foaf:name ?an")
_JOIN_ORDERS = [" . ".join(order) for order in itertools.permutations(_JOIN)]
# one 3-pattern join in all six written orders (the last one with ORDER BY),
# a SELECT * join and a join through a _:name subject
JOIN_QUERIES = (
    *(f"{_PREFIXES}SELECT ?a ?an ?bn WHERE {{ {where} }}" for where in _JOIN_ORDERS[:-1]),
    f"{_PREFIXES}SELECT ?a ?an ?bn WHERE {{ {_JOIN_ORDERS[-1]} }} ORDER BY DESC(?bn) ?a",
    f"{_PREFIXES}SELECT * WHERE {{ ?b foaf:name ?n . ?a foaf:knows ?b . ?a rdf:type foaf:Person }}",
    f"{_PREFIXES}SELECT ?f ?n WHERE {{ ?f foaf:name ?n . _:b1 foaf:knows ?f }}",
)


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def run_program(name: str, temp_files: bool = False) -> str:
    argv = ["run", str(FIXTURES / name)]
    if name == "mapping.xq":
        argv += ["--data", str(FIXTURES / "conference.xml")]
    return _stdout(argv + (["--temp-files"] if temp_files else []))


def check(data: str, workdir: Path) -> tuple[str, str]:
    """The stdout of `check mapping.xq` on one document, and the ontology
    file it writes."""
    owl = workdir / "analysis.owl"
    out = _stdout(["check", str(FIXTURES / "mapping.xq"), "--data", str(FIXTURES / data),
                   "--output", str(owl)])
    return out, owl.read_text(encoding="utf-8")


def query(text: str = QUERY) -> str:
    return _stdout(["query", text, "--data", str(FIXTURES / "relations.rdf")])


def join_queries() -> str:
    """The result of every join query, one headed section per query."""
    return "".join(f"== {text}\n{query(text)}" for text in JOIN_QUERIES)


def reason_all(ontology: str) -> str:
    """subclasses, direct subclasses and instances of every class, one
    headed section per call."""
    path = FIXTURES / ontology
    classes = sorted(load_ontology(parse_rdfxml(path.read_text())).named_classes())
    sections = []
    for cls in classes:
        for task in (["subclasses"], ["subclasses", "--direct"], ["instances"]):
            body = _stdout(["reason", "--task", *task, "--ontology", str(path),
                            "--class", cls])
            sections.append(f"== {' '.join(task)} {cls}\n{body}")
    return "".join(sections)


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


@pytest.fixture
def temp_dir(tmp_path, monkeypatch):
    # --temp-files writes its result files under tempfile's directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("temp_files", [False, True], ids=["values", "temp-files"])
@pytest.mark.parametrize("program", PROGRAMS)
def test_fixture_program_matches_its_golden(program, temp_files, temp_dir):
    assert run_program(program, temp_files) == golden(f"run-{program}.out")


@pytest.mark.parametrize("data", CHECKED)
def test_check_matches_its_goldens(data, tmp_path):
    out, owl = check(data, tmp_path)
    stem = Path(data).stem
    assert out == golden(f"check-{stem}.out")
    assert owl == golden(f"check-{stem}.owl")


def test_query_matches_its_golden():
    assert query() == golden("query-relations.out")


def test_join_queries_match_their_golden():
    assert join_queries() == golden("query-joins.txt")


@pytest.mark.parametrize("ontology", ONTOLOGIES)
def test_reason_tasks_match_their_golden(ontology):
    assert reason_all(ontology) == golden(f"reason-{Path(ontology).stem}.txt")


def regenerate() -> None:
    GOLDENS.mkdir(exist_ok=True)
    for program in PROGRAMS:
        out = run_program(program)
        with tempfile.TemporaryDirectory() as tmp:
            tempfile.tempdir = tmp
            assert run_program(program, temp_files=True) == out, program
            tempfile.tempdir = None
        (GOLDENS / f"run-{program}.out").write_text(out, encoding="utf-8")
    for data in CHECKED:
        with tempfile.TemporaryDirectory() as tmp:
            out, owl = check(data, Path(tmp))
        stem = Path(data).stem
        (GOLDENS / f"check-{stem}.out").write_text(out, encoding="utf-8")
        (GOLDENS / f"check-{stem}.owl").write_text(owl, encoding="utf-8")
    (GOLDENS / "query-relations.out").write_text(query(), encoding="utf-8")
    (GOLDENS / "query-joins.txt").write_text(join_queries(), encoding="utf-8")
    for ontology in ONTOLOGIES:
        (GOLDENS / f"reason-{Path(ontology).stem}.txt").write_text(
            reason_all(ontology), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
