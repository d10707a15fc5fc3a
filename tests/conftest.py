from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from xqowl.hostlang import parse_program
from xqowl.xmltree import XmlNode

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC / "xqowl" / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def run_cli(args: list[str], hashseed: int | None = None,
            timeout: float = 120) -> subprocess.CompletedProcess:
    """Run `python ARGS` in a child process that imports xqowl from the
    source tree, with PYTHONHASHSEED set when a hashseed is given; a child
    still running after timeout seconds is killed and the test fails."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


def steps_of(path: str, **namespaces: str) -> tuple:
    """The steps of the host path "/" + path, with each keyword argument
    declared as a namespace prefix."""
    prolog = "".join(f'declare namespace {p} = "{iri}"; ' for p, iri in namespaces.items())
    return parse_program(prolog + "/" + path).body.steps


def preorder_ids(node: XmlNode) -> list[int]:
    """node_ids along a pre-order walk: each node, then its attributes,
    then its children."""
    ids, stack = [], [node]
    while stack:
        current = stack.pop()
        ids.append(current.node_id)
        ids.extend(attr.node_id for attr in current.attributes)
        stack.extend(reversed(current.children))
    return ids


def assert_document_order(node: XmlNode) -> None:
    """node_id must strictly increase in document order."""
    ids = preorder_ids(node)
    assert ids == sorted(set(ids)), f"node_ids out of document order: {ids}"
