"""One workload in one fresh interpreter; started by run.py with src on its path.

Set-up runs from interpreter start to the first timed operation: importing
mirrorgallery, building and validating the first round's polygons and
writing its instance files. Then whole rounds run, as many as bring the
time spent inside timed operations, in reference seconds (see speed.py),
nearest to --seconds. Each operation's output is checked outside the timed
region: right after the operation, or after the last one where the
workload defers its checks. The last line of standard output is one JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import speed


def _rss_mb() -> float:
    # ru_maxrss is the process's high-water mark, in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check(op, out) -> bool:
    try:
        op.check(out)
    except Exception as ex:  # any exception from a check means the output is wrong
        print(f"incorrect: {op.label}: {type(ex).__name__}: {ex}", file=sys.stderr)
        return False
    return True


def run(args, workdir: Path) -> dict:
    meter = speed.Meter()
    # the interpreter started at t0; the parent probed the machine just before
    t0 = time.perf_counter() - (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0_ns) / 1e9
    meter.start(t0, args.probe_s)
    workloads = importlib.import_module("workloads")  # imports mirrorgallery: part of set-up
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    wl.round(0)
    setup_wall, setup_ref = meter.stop()
    if args.setup_only:
        return {"setup_s": setup_ref, "setup_wall_s": setup_wall}

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()

    durations: list[float] = []
    attempted = failed = 0
    correct = True
    timed_s = timed_wall_s = 0.0
    rounds = 0
    peak_mb = _rss_mb()
    check_raised_peak = 0
    deferred = []
    # whole rounds, as many as bring the timed total nearest to --seconds
    while rounds == 0 or timed_s + timed_s / rounds / 2 < args.seconds:
        for op in wl.round(rounds):
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            meter.start()
            try:
                out = op.run()
            except Exception as ex:  # an operation that fails is counted, not fatal
                failed += 1
                print(f"failed: {op.label}: {type(ex).__name__}: {ex}", file=sys.stderr)
                continue
            finally:
                wall, ref = meter.stop()
                timed_wall_s += wall
                timed_s += ref
                if tracer is not None:
                    tracer.op = None
            durations.append(ref)
            peak_mb = _rss_mb()
            if wl.defer_checks:
                deferred.append((op, out))
                continue
            correct &= _check(op, out)
            if _rss_mb() > peak_mb:
                check_raised_peak += 1
        rounds += 1
    peak_mb = _rss_mb()
    for op, out in deferred:
        correct &= _check(op, out)
    try:
        wl.finish()
    except Exception as ex:
        correct = False
        print(f"incorrect: {type(ex).__name__}: {ex}", file=sys.stderr)

    result = {
        "setup_s": setup_ref,
        "setup_wall_s": setup_wall,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "rounds": rounds,
        "timed_s": timed_s,
        "timed_wall_s": timed_wall_s,
        "durations": durations,
        "peak_rss_mb": peak_mb,
        "check_raised_peak": check_raised_peak,
        "layers": None,
    }
    if tracer is not None:
        if tracer.errors:
            raise layertrace.TraceError("; ".join(tracer.errors))
        result["layers"] = tracer.metrics()
        tracer.dump(args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this interpreter was started")
    parser.add_argument("--probe-s", type=float, required=True,
                        help="speed probe taken by the parent just before this interpreter was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = parser.parse_args()
    work_root = Path(__file__).resolve().parent / "work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
