"""Run one benchmark workload against the repeaterscope sources beside it.

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``,
which needs no build step.  The run repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checks the outputs of the first
round against computations made apart from the program (and every later
round against the first), and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics, with no wrapper installed;
* ``--trace 1``: the per-layer metrics, from a run in which every traced
  function is wrapped (see ``tracing.py``), per round of the workload.

Before each timed operation every ``functools.lru_cache`` in the program is
cleared, so no operation is served from a cache entry that an earlier
operation on the same inputs left; within one operation caches work as in
a fresh ``repeaterscope`` process.  Spans of a traced run are written to
``perfbench-out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench-out"

SETUP_REPEATS = 3
WORKLOAD_NAMES = ("fig5_sweep", "fig5_threaded", "memory_sweep", "wide_chains", "facet_scan")
END_TO_END = {
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _prepare(workload: str, seed: int):
    """Everything a run does before its first timed operation."""
    import workloads

    spec = workloads.WORKLOADS[workload]
    inputs = spec.make_inputs(seed)
    return inputs, [spec.operation(item) for item in inputs]


def _measure_setup(workload: str, seed: int) -> float:
    """Median time from interpreter start to the first timed operation.

    Each sample starts a fresh interpreter that imports the program, builds
    the workload's inputs and reports the moment it is ready.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - started)
    return statistics.median(samples)


def _program_cache_clears():
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "repeaterscope" or name.startswith("repeaterscope."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
    return list(found.values())


def _timed_rounds(ops, seconds: float):
    """Closed loop over whole rounds; returns timings and first-round outputs."""
    clears = _program_cache_clears()
    round_rates, first = [], []
    attempted = failed = rounds = mismatched = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        gc.collect()
        busy = 0.0
        for i, op in enumerate(ops):
            for clear in clears:
                clear()
            attempted += 1
            start = clock()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                out = None
                if failed <= 3:
                    print(f"operation {i} failed: {exc!r}", file=sys.stderr)
            busy += clock() - start
            if rounds == 0:
                first.append(out)
            elif out != first[i]:
                mismatched += 1
        rounds += 1
        round_rates.append(sum(op.items for op in ops) / busy)
        if clock() >= deadline:
            break
    return {
        "round_rates": round_rates,
        "outputs": first,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "mismatched": mismatched,
    }


def sustained_rate(round_rates) -> float:
    """The lower quartile of the per-round rates: a rate three rounds in four
    reach or beat.

    On a machine shared with other tenants the speed can sit at a base
    level broken by bursts up to 1.5 times faster that last seconds to tens
    of seconds (README, *Steadiness*); the lower quartile tracks the base
    level, where the median and upper quantiles follow the bursts.
    """
    if len(round_rates) < 2:
        return round_rates[0]
    return statistics.quantiles(round_rates, n=4)[0]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repeaterscope" / "__init__.py").is_file():
        print(f"perfbench: no repeaterscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        _prepare(args.workload, args.seed)
        print(time.monotonic())
        return 0

    setup_s = None if args.trace else _measure_setup(args.workload, args.seed)
    inputs, ops = _prepare(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        run = _timed_rounds(ops, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    failures = checks.check_round(inputs, run["outputs"], args.seed)
    if run["mismatched"]:
        failures.append(f"{run['mismatched']} outputs of later rounds differ from the first round")
    for line in failures[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    throughput = sustained_rate(run["round_rates"])
    if tracer is None:
        values = {
            "points_per_s": throughput,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        import tracing

        values = tracer.summary(run["rounds"])
        values[tracing.CSV_BYTES] = float(
            sum(len(out.encode()) for out in run["outputs"] if isinstance(out, str))
        )
        values[tracing.TRACED_THROUGHPUT] = throughput
        units = tracing.per_layer_units()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")

    result = {
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
