from __future__ import annotations

from pathlib import Path

import pytest

from xqowl.hostlang import parse_program

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC / "xqowl" / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def steps_of(path: str, **namespaces: str) -> tuple:
    """The steps of the host path "/" + path, with each keyword argument
    declared as a namespace prefix."""
    prolog = "".join(f'declare namespace {p} = "{iri}"; ' for p, iri in namespaces.items())
    return parse_program(prolog + "/" + path).body.steps
