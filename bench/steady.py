"""Steadiness check: run one workload once per seed and report each metric's
spread, the distance between its first and third quartile as a share of its
median, against the bound in BENCHMARK.json.

    python3 bench/steady.py --workload type-sweep --seeds 1-10

Runs are made one after another, each in its own process.  The same metrics
taken from plain wall times (the ``wall`` notes of each result file) are
reported beside them, for comparison.  With ``--compare
FILE`` the medians are also compared with an earlier summary written by this
script (bench/out/steady-<workload>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--compare", help="earlier summary to compare medians with")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    wall_values: dict[str, list[float]] = {}  # the same metrics from plain wall times
    shares, walls, correct = [], [], True
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = time.monotonic() - started
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        result_file = os.path.join(HERE, "out", f"result-{args.workload}-seed{seed}-trace0.json")
        with open(result_file, encoding="utf-8") as fh:
            for name, value in json.load(fh)["notes"]["wall"].items():
                wall_values.setdefault(name, []).append(value)
        walls.append(wall)
        print(f"seed {seed} ({wall:.0f} s): " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "correct": correct, "failed_shares": shares,
               "run_wall_s": walls, "metrics": {}}
    print(f"correct={correct} failed shares={sorted(set(shares))} run wall time {min(walls):.0f}-{max(walls):.0f} s")
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["metrics"]
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]["bound"]
        line = f"{name}: median {med:.5g} spread {spread:.3f} bound {bound} ({spread / bound:.2f} of it)"
        if earlier:
            prev = earlier[name]["median"]
            worse = (med - prev) / prev if bounds[name]["better"] == "lower" else (prev - med) / prev
            line += f"; worse than earlier by {worse:+.3f}"
        print(line)
        summary["metrics"][name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread}
    for name, vals in wall_values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name} from wall times: median {med:.5g} spread {(q3 - q1) / med:.3f}")
        summary.setdefault("wall", {})[name] = {"values": vals, "median": med, "spread": (q3 - q1) / med}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"summary written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
