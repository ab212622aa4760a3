"""gcdeform benchmark: one closed-loop workload per run, one caller, one process.

Run from the repository root:

    python3 bench/run.py --workload report-corpus --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (reporting the median set-up
time), warms up, runs whole rounds of operations for at least ``--seconds``
seconds, checks every output, and prints the end-to-end metrics.  Every time
is taken at the reference speed of ``speed.py``: the machine's swings in
speed are divided out by a fixed reference computation run between calls.
``--trace 1`` runs a fixed number of rounds, three times plain and three
times with spans and operator counters installed, and prints the per-layer
metrics per operation together with the tracing overhead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from spans import TraceError, Tracer  # noqa: E402
from speed import Clock  # noqa: E402
from workloads import WORKLOADS, SetupError  # noqa: E402

SETUP_REPS = 21  # set-ups per run; the median is reported
MIN_OPS = 40  # fewest timed operations: the tail percentile needs ten beyond it
TAIL_BEYOND = 10
TRACE_PASSES = 3  # plain and traced passes over the same rounds, alternately
GCDEFORM_MODULES = ("scalar", "frame", "courant", "algebroid", "deformation", "cli")


def import_gcdeform() -> types.SimpleNamespace:
    """Fresh import of gcdeform from this checkout's src/ (never an installed copy)."""
    for name in [n for n in sys.modules if n.split(".")[0] == "gcdeform"]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    try:
        pkg = importlib.import_module("gcdeform")
    except ImportError as exc:
        raise SetupError(f"cannot import gcdeform from {SRC}: {exc}") from None
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"gcdeform was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"gcdeform.{m}") for m in GCDEFORM_MODULES}
    )


def run_ops(run, ops, records, clock: Clock):
    """Run operations back to back, the reference computation between each
    two; returns (times at the reference speed, wall times, failures)."""
    scaled, wall, failures = [], [], []
    for kind, payload in ops:
        try:
            output, seconds, at_reference = clock.time(run, kind, payload)
        except Exception as exc:  # an operation's failure is counted, not fatal
            failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        scaled.append(at_reference)
        wall.append(seconds)
        records.append((kind, payload, output))
    return scaled, wall, failures


def tail_index(n: int) -> int:
    """Rank (from 0, ascending) of the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    return n - TAIL_BEYOND - 1


def timed_setup(workload, clock: Clock) -> tuple[float, float]:
    """Import gcdeform afresh and set the workload up; returns the seconds
    taken (wall, at the reference speed)."""
    gc.collect()
    _, wall, at_reference = clock.time(lambda: workload.setup(import_gcdeform()))
    return wall, at_reference


def measure(workload, seconds: float):
    with Clock() as clock:
        return _measure(workload, seconds, clock)


def _measure(workload, seconds: float, clock: Clock):
    setups = [timed_setup(workload, clock)]
    run_ops(workload.run, workload.warmup_ops(), [], clock)

    records: list = []
    samples: list[float] = []  # operation times at the reference speed
    walls: list[float] = []
    failures: list[str] = []
    attempted = 0
    timed = 0.0
    rounds = workload.rounds(random.Random(workload.seed))
    gc.collect()
    while True:
        ops = next(rounds)
        start = time.perf_counter()
        scaled, wall, failed = run_ops(workload.run, ops, records, clock)
        timed += time.perf_counter() - start
        attempted += len(ops)
        samples += scaled
        walls += wall
        failures += failed
        if timed >= seconds and attempted >= MIN_OPS:
            break
        # the other set-ups are spread over the run, between rounds, on a
        # throwaway instance (the timed operations keep their own import)
        while len(setups) < SETUP_REPS and timed >= len(setups) * seconds / SETUP_REPS:
            setups.append(timed_setup(type(workload)(workload.seed), clock))

    problems = workload.check(records)
    while len(setups) < SETUP_REPS:
        setups.append(timed_setup(type(workload)(workload.seed), clock))
    n = len(samples)
    if n < MIN_OPS:
        raise SetupError(f"only {n} of {attempted} operations succeeded: {failures[:3]}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    order = sorted(range(n), key=samples.__getitem__)
    metrics = {
        "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
        "ops_per_s": {"value": n / sum(samples), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(samples) * 1000.0, "unit": "ms"},
        "op_tail_ms": {"value": samples[order[tail_index(n)]] * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    refs = sorted(clock.refs + clock.ticks)
    notes = {
        "samples": n,
        "tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        # kinds of the operations around the median and at the tail rank:
        # each should be a single kind (see the mixes in workloads.py)
        "p50_kinds": sorted({records[i][0] for i in order[(n - 1) // 2 : n // 2 + 1]}),
        "tail_kind": records[order[tail_index(n)]][0],
        "timed_s": timed,
        # the same figures from plain wall times, which follow the machine's speed
        "wall": {
            "setup_s": statistics.median(w for w, _ in setups),
            "ops_per_s": n / sum(walls),
            "op_p50_ms": statistics.median(walls) * 1000.0,
            "op_tail_ms": sorted(walls)[tail_index(n)] * 1000.0,
        },
        "reference_ms": {
            "min": refs[0] * 1000.0,
            "median": statistics.median(refs) * 1000.0,
            "max": refs[-1] * 1000.0,
        },
        "setup_reps_s": [s for _, s in setups],
    }
    return attempted, failures, problems, metrics, notes


def trace(workload, seed: int, out_dir: str):
    """Per-layer metrics over a fixed set of rounds, so counts repeat exactly.

    The rounds run TRACE_PASSES times plain and as often traced, alternately,
    and the tracing overhead compares the median pass times, each the sum of
    its operations' times at the reference speed.  The span file holds one
    traced set-up and every traced pass; the metrics count the passes only,
    per traced operation.
    """
    with Clock(tick=False) as clock:
        return _trace(workload, seed, out_dir, clock)


def _trace(workload, seed: int, out_dir: str, clock: Clock):
    g = import_gcdeform()
    workload.setup(g)
    run_ops(workload.run, workload.warmup_ops(), [], clock)
    rounds = workload.rounds(random.Random(seed))
    ops = [op for _ in range(workload.trace_rounds) for op in next(rounds)]

    tracer = Tracer()
    tracer.install()
    try:
        tracer.in_span("bench.setup", workload.setup, g)
    finally:
        tracer.uninstall()
    mark = tracer.mark()

    def traced_run(kind, payload):
        return tracer.in_span(f"bench.op.{kind}", workload.run, kind, payload)

    records: list = []
    failures: list[str] = []
    plain_s, traced_s = [], []
    for _ in range(TRACE_PASSES):
        gc.collect()
        scaled, _, failed = run_ops(workload.run, ops, [], clock)
        plain_s.append(sum(scaled))
        failures += failed
        tracer.install()
        try:
            gc.collect()
            scaled, _, failed = run_ops(traced_run, ops, records, clock)
            traced_s.append(sum(scaled))
            failures += failed
        finally:
            tracer.uninstall()

    problems = workload.check(records)
    traced_ops = TRACE_PASSES * len(ops)
    metrics = tracer.layer_metrics(traced_ops, mark)
    metrics["bench.trace_overhead_pct"] = {
        "value": 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0),
        "unit": "%",
    }
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.json"))
    notes = {"ops": traced_ops, "plain_s": plain_s, "traced_s": traced_s, "spans": len(tracer.spans)}
    return 2 * traced_ops, failures, problems, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            attempted, failures, problems, metrics, notes = trace(workload, args.seed, OUT)
        else:
            attempted, failures, problems, metrics, notes = measure(workload, args.seconds)
    except (SetupError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for message in failures[:5]:
        print(f"op failed: {message}", file=sys.stderr)
    for message in problems[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({**result, "notes": notes}, fh, indent=1)
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {len(failures)}, notes = {json.dumps(notes, default=str)[:300]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
