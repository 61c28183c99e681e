"""Benchmark for mirrorgallery: three seeded workloads, end to end and per layer.

    python3 bench/run.py                          # every workload, one after another
    python3 bench/run.py --workload guard-cover --seed 7 --trace 0

Runs from a plain checkout: no install step and no PYTHONPATH. Each
workload runs in a fresh child interpreter (``sys.executable`` with the
checkout's ``src`` on its path), one child at a time. With --trace 0 the
end-to-end metrics are printed; with --trace 1 a traced child reports
the per-layer metrics instead. The last line of standard output is one
JSON object: for a single workload ``{"correct", "attempted", "failed",
"metrics"}``, for all of them the same object per workload name.
The run length is ``run_seconds`` of the checkout's BENCHMARK.json; a
--seconds argument is accepted only if it says the same. Times are in
reference seconds (speed.py). See bench/README.md for what each number
means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ["reduction-verify", "guard-cover", "extend-queries"]

# set-up is also timed in this many interpreters before the measuring one, and as many after
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # fixed string hashing keeps set and dict orders, and so the work done, the same run to run
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    probe_s = speed.probe()
    t0_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([*argv, "--probe-s", repr(probe_s), "--t0-ns", str(t0_ns)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as ex:
        raise ChildFailed(f"{workload}: worker exceeded {CHILD_TIMEOUT_S}s") from ex
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        from layertrace import METRICS

        res = _child(workload, seed, seconds, 1,
                     "--spans", str(BENCH / "work" / f"spans-{workload}-seed{seed}.jsonl"))
        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in METRICS}
        done = res["attempted"] - res["failed"]
        notes = [f"traced: {done} ops in {res['timed_s']:.3f} reference s timed "
                 f"({done / res['timed_s']:.4f} ops/s with tracing; {res['timed_wall_s']:.3f} s wall)"]
    else:
        setups = [_child(workload, seed, seconds, 0, "--setup-only") for _ in range(SETUP_RUNS)]
        res = _child(workload, seed, seconds, 0)
        setups += [_child(workload, seed, seconds, 0, "--setup-only") for _ in range(SETUP_RUNS)]
        setups.append(res)
        done = res["attempted"] - res["failed"]
        durations = res["durations"]
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "ops_per_s": {"value": done / res["timed_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(durations) if durations else 0.0,
                          "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        notes = [f"setup_s is the median of {len(setups)} interpreter starts "
                 f"({statistics.median(s['setup_wall_s'] for s in setups):.4f} s wall)",
                 f"op_p50_ms is the median of {len(durations)} operations; {res['rounds']} rounds, "
                 f"{res['timed_s']:.3f} reference s timed, {res['timed_wall_s']:.3f} s wall "
                 f"({done / res['timed_wall_s']:.4f} ops/s wall)"]
        if res["check_raised_peak"]:
            notes.append(f"peak_rss_mb includes checks: {res['check_raised_peak']} raised the high-water mark")
    print(f"== {workload} (seed {seed}): {res['attempted']} attempted, {res['failed']} failed, "
          f"{'correct' if res['correct'] else 'INCORRECT'}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"  ({note})")
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json, which sets the run length")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds} of BENCHMARK.json",
              file=sys.stderr)
        return 2
    if not (SRC / "mirrorgallery" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} is not a mirrorgallery checkout (needs src/mirrorgallery and tests/oracles.py)",
              file=sys.stderr)
        return 2
    try:
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed, seconds, args.trace)))
        else:
            results = {w: run_workload(w, args.seed, seconds, args.trace) for w in WORKLOADS}
            print(json.dumps(results))
    except ChildFailed as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
