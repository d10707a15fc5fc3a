"""xqowl benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run it from the root of an xqowl source tree: the package is imported
from ./src, never from an installed copy. Each workload is one client in
one process driving a closed loop: a request starts when the previous
one has finished. The loop replays whole decks of seeded requests until
both --seconds of request time and 100 requests have passed, and checks
every output against an oracle that does not use xqowl.

With --trace 0 the last stdout line is a JSON result holding the
end-to-end metrics. With --trace 1 the program's layers are wrapped in
spans (see tracer.py) on every other deck, the decks between price the
tracing, and the result holds the per-layer metrics. Generated
inputs, span files and result records go to .bench_work/ under the root.
`--workload all` runs each workload in its own process and prints every
metric by name and unit. The exit status is non-zero when any output is
wrong or a request raised.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REQUESTS = 100
SETUP_REPEATS = 5
TRACED_REQUESTS = 20  # at least this many, rounded up to whole decks
WORKLOAD_NAMES = ("reason-abox", "classify-tbox", "sparql-foaf", "check-mapping")
# measured by one workload's probes, 0 on the others
PROBE_METRICS = ("reasoner.saturate_doubling_ratio", "sparql.order_gap_ratio")

END_TO_END_UNITS = {
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_rps": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name == "sparql.matched_per_row":
        return "triples/row"
    return "count"


class Loop:
    """Outcome of replaying a deck: per-request latencies, failures, and
    the loop's wall time without the oracle checks."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.seconds = 0.0

    def add(self, other: "Loop") -> None:
        self.latencies += other.latencies
        self.failed += other.failed
        self.seconds += other.seconds


def replay(deck, seconds: float = 0.0, min_requests: int = 0,
           decks: int | None = None, tracer=None) -> Loop:
    loop = Loop()
    checking = 0.0
    start = time.perf_counter()
    passes = 0
    while True:
        for request in deck:
            run = request.run
            if tracer is not None:
                tracer.request += 1
                run = tracer.request_span(run)
            began = time.perf_counter()
            try:
                output = run()
                ok = True
            except Exception:  # a failed request is counted, the loop goes on
                if loop.failed < 3:
                    print(f"request {request.label!r} raised:\n{traceback.format_exc()}",
                          file=sys.stderr)
                ok = False
            finished = time.perf_counter()
            loop.latencies.append(finished - began)
            if ok:
                try:
                    ok = request.check(output)
                except Exception:
                    ok = False
                if not ok and loop.failed < 3:
                    print(f"request {request.label!r}: output does not match the "
                          f"oracle", file=sys.stderr)
            loop.failed += not ok
            checking += time.perf_counter() - finished
        passes += 1
        loop.seconds = time.perf_counter() - start - checking
        if decks is not None:
            if passes >= decks:
                return loop
        elif loop.seconds >= seconds and len(loop.latencies) >= min_requests:
            return loop


def timed_set_ups(set_up) -> tuple[list[float], object]:
    """Durations of at least SETUP_REPEATS set-ups that together take a
    second (at most 100 of them), and the last set-up's result. Each
    set-up's result is freed before the next starts, so the peak RSS
    holds one set-up, not two."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or (sum(times) < 1.0 and len(times) < 100):
        prepared = None
        gc.collect()
        began = time.perf_counter()
        prepared = set_up()
        times.append(time.perf_counter() - began)
    return times, prepared


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "xqowl").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads
    from tracer import Tracer

    def set_up():
        return workloads.WORKLOADS[name](ROOT, WORK / name, seed)

    if not trace:
        setups, prepared = timed_set_ups(set_up)
        deck = prepared.deck
        loop = replay(deck, seconds, MIN_REQUESTS)
        # time set-up again after the loop, at a second moment of the
        # machine, once the first set-up's data is freed
        del prepared, deck
        setups += timed_set_ups(set_up)[0]
        attempted, failed = len(loop.latencies), loop.failed
        values = {
            "latency_p50_ms": statistics.median(loop.latencies) * 1000,
            "latency_p90_ms": statistics.quantiles(loop.latencies, n=10)[8] * 1000,
            "throughput_rps": attempted / loop.seconds,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]}
                   for key, value in values.items()}
    else:
        prepared = set_up()
        deck = prepared.deck
        tracer = Tracer()
        traced, plain = Loop(), Loop()
        # traced and untraced decks alternate, so a drift in machine speed
        # falls alike on both sides of the overhead figure
        for _ in range(math.ceil(TRACED_REQUESTS / len(deck))):
            tracer.install()
            try:
                traced.add(replay(deck, decks=1, tracer=tracer))
            finally:
                tracer.restore()
            plain.add(replay(deck, decks=1))
        attempted = len(traced.latencies) + len(plain.latencies)
        failed = traced.failed + plain.failed
        values = tracer.layer_metrics(len(traced.latencies))
        values.update(dict.fromkeys(PROBE_METRICS, 0.0), **prepared.probes())
        traced_rps = len(traced.latencies) / traced.seconds
        plain_rps = len(plain.latencies) / plain.seconds
        # base: throughput of the untraced decks
        values["tracing.overhead_pct"] = (plain_rps - traced_rps) / plain_rps * 100
        metrics = {key: {"value": values[key], "unit": layer_unit(key)}
                   for key in sorted(values)}
        tracer.write(WORK / name / f"spans-seed{seed}.csv.gz")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "git_commit": git_commit(), "source_digest": source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "requests": attempted,
            "unix_time": round(time.time())}
    record = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")

    for key, metric in metrics.items():
        print(f"{name:14} {key:34} {metric['value']:14.6f} {metric['unit']}")
    print(f"{name:14} {'error_rate':34} {failed / attempted:14.6f} ratio")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    status = 0
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or done.returncode
        if done.returncode not in (0, 1):  # no result line
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value
                        for key, value in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="xqowl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xqowl" / "__init__.py").is_file():
        print(f"no xqowl sources under {SRC}: run from an xqowl checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # set and dict iteration order steers how much work some calls do, so
    # the hash seed is part of the seeded input: same seed, same work
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    sys.path.insert(0, str(SRC))
    import xqowl
    if Path(xqowl.__file__).resolve().parent != SRC / "xqowl":
        print(f"imported xqowl from {xqowl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
