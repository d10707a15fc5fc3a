"""The amount of work each benchmark workload does, pinned in tier-1.

Each workload of perfbench/ builds its deck at seed 5 with small sizes
(those of perfbench/test_perfbench.py) and replays it once under
tracer.Tracer. Every per-request count and ratio its layer_metrics reports
must equal the one in work_counts.json, so a change that makes the program
do more work (a second saturation, a join in a worse order) fails here
even when every answer stays right.

Left out: times (`*_s`), the runtime.* collector counts, which follow the
heap, and tracing.*, which the runner measures itself; also
reasoner.subsumption_tests and reasoner.subsumption_hit_ratio, which move
with PYTHONHASHSEED (20.25 against 20.33 tests per request on
classify-tbox).

After a change that means to alter the work done, rewrite the file with
`PYTHONPATH=src python tests/test_work_counts.py` and review its diff.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNTS = Path(__file__).resolve().parent / "work_counts.json"
SEED = 5
SMALL = {
    "reason-abox": dict(copies=2, per_task=1),
    "classify-tbox": dict(copies=2, subsumption_tests=2),
    "sparql-foaf": dict(persons=40, degree=3),
    "check-mapping": dict(papers=(6, 12)),
}
UNSTABLE = {"reasoner.subsumption_tests", "reasoner.subsumption_hit_ratio"}


def work_counts(name: str, work: Path) -> dict[str, float]:
    """The pinned layer metrics of one traced replay of name's small deck."""
    prepared = workloads.WORKLOADS[name](ROOT, work, SEED, **SMALL[name])
    tracer = Tracer()
    tracer.install()
    try:
        for number, request in enumerate(prepared.deck):
            tracer.request = number
            assert request.check(tracer.request_span(request.run)()), request.label
    finally:
        tracer.restore()
    return {key: value for key, value in tracer.layer_metrics(len(prepared.deck)).items()
            if not key.endswith("_s") and not key.startswith(("runtime.", "tracing."))
            and key not in UNSTABLE}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_a_small_deck_does_the_pinned_amount_of_work(name, tmp_path):
    expected = json.loads(COUNTS.read_text(encoding="utf-8"))[name]
    counts = work_counts(name, tmp_path)
    changed = [f"{key}: {expected.get(key)} -> {counts.get(key)}"
               for key in sorted(expected.keys() | counts.keys())
               if expected.get(key) != counts.get(key)]
    assert not changed, f"{name} work changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        pinned = {name: work_counts(name, Path(work) / name) for name in sorted(SMALL)}
    COUNTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
