"""The README's library example runs as written."""

from __future__ import annotations

import re

from conftest import SRC
from xqowl.owl import Named

ROOT = SRC.parent


def test_readme_python_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(ROOT)
    scope: dict = {}
    exec(compile(block, "<README python block>", "exec"), scope)
    reasoner, ontology = scope["reasoner"], scope["ontology"]
    assert [item.name.local for item in scope["items"]] == ["item", "item"]
    assert reasoner.is_consistent()
    assert len(reasoner.instances(Named(ontology.iri + "#user"))) == 3
