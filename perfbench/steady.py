"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/steady.py --runs 10 --first-seed 101 --save perfbench-out/set1.json
    python3 perfbench/steady.py --compare perfbench-out/set1.json perfbench-out/set2.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median, next to the metric's bound from BENCHMARK.json.
``--compare`` prints, per metric, how far the second set's median moved
from the first's in the metric's worse direction.  Runs are sequential, one
process at a time, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(results: dict, bench: dict) -> None:
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':14} {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        failed = {(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, all correct: {correct}, (failed, attempted): {sorted(failed)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{'':14} {name:44} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{bound if bound is not None else '':>6}")


def compare(first: dict, second: dict, bench: dict) -> None:
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    print(f"{'workload':14} {'metric':16} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}")
    for workload, runs in first.items():
        for name, (direction, bound) in better.items():
            a = statistics.median(r["metrics"][name]["value"] for r in runs)
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if direction == "lower" else (a - b) / a
            print(f"{workload:14} {name:16} {a:12.5g} {b:12.5g} {worse:9.4f} {bound:6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="SET", help="compare two saved sets")
    args = parser.parse_args(argv)
    bench = _benchmark()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(first, second, bench)
        return 0
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    results = {}
    for workload in workloads:
        started = time.monotonic()
        results[workload] = [
            run_once(workload, args.first_seed + i, seconds, args.trace) for i in range(args.runs)
        ]
        elapsed = time.monotonic() - started
        print(f"done {workload}: {args.runs} runs in {elapsed:.0f} s", file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(results, indent=1))
    summarise(results, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
