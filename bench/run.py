"""Run one benchmark workload against the pcl sources of this checkout.

    python3 bench/run.py --workload suites|dims|learn --seed N --seconds S --trace 0|1

Load is one closed loop on one thread: each operation starts when the
previous one returns, and BLAS is held to one thread.  The loop runs whole
rounds until ``--seconds`` have passed (at least one round).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  The traced run also
writes its full trace to ``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 5
REFERENCE_LOOP = 2_000_000


def reference_loop_s() -> float:
    """A fixed pure-Python loop: a figure for machine drift, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def import_pcl() -> None:
    if SRC in sys.path:
        return
    if not os.path.isfile(os.path.join(SRC, "pcl", "__init__.py")):
        sys.exit(f"error: no pcl sources at {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import pcl

    if not os.path.abspath(pcl.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pcl from {pcl.__file__}, not from {SRC}")


def setup(workload: str, seed: int):
    """Imports plus the seeded inputs of the first round."""
    import_pcl()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    return wl, wl.round(0)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that set up the workload and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_round(rnd, tracer):
    """Time each operation, then check the outputs; returns (times, failed, errors)."""
    outputs, times, failed = {}, {}, 0
    for name, call in rnd.ops:
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            outputs[name] = call()
        except Exception:  # a failing operation is counted and the loop goes on
            failed += 1
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            times[name] = time.perf_counter() - start
            if tracer:
                tracer.active = False
    errors = []
    for names, check in rnd.checks:
        if all(n in outputs for n in names):
            errors += check(*(outputs[n] for n in names))
    return times, failed, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("suites", "dims", "learn"))
    ap.add_argument("--seed", type=int, default=20240817)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_pcl()
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    wl, rnd = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    loop_before = reference_loop_s()
    # A traced run traces a fixed number of rounds, so its call counts repeat
    # exactly whatever the machine's speed; it then runs on untraced.
    traced_rounds = wl.trace_rounds if tracer else 0
    round_s, traced_s, op_s, attempted, failed, errors = [], [], {}, 0, 0, []
    start = time.perf_counter()
    index = 0
    while True:
        traced = index < traced_rounds
        times, n_failed, round_errors = run_round(rnd, tracer if traced else None)
        attempted += len(rnd.ops)
        failed += n_failed
        errors += round_errors
        (traced_s if traced else round_s).append(sum(times.values()))
        if traced:
            for name, t in times.items():
                op_s[name] = op_s.get(name, 0.0) + t
        index += 1
        if index >= traced_rounds and time.perf_counter() - start >= args.seconds:
            break
        rnd = wl.round(index)
    loop_after = reference_loop_s()

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if args.workload == "suites":  # reference figures, not metrics
        for name, digest in wl.digests.items():
            print(f"suite {name}: sha256 {digest}, {times[name]:.4f} s in the last round")
    print(f"reference loop: {loop_before:.4f} s before, {loop_after:.4f} s after")
    for label, rounds in (("untraced", round_s), ("traced", traced_s)):
        if rounds:
            print(f"{label}: {len(rounds)} rounds, mean {statistics.mean(rounds):.4f} s")

    if tracer:
        from workloads import SUITES

        metrics = tracer.metrics()
        for name, *_ in SUITES:
            metrics[f"experiments.{name}.wall_s"] = op_s.get(name, 0.0) / traced_rounds
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            trace = {"traced_rounds": traced_rounds, "traced_wall_s": traced_s}
            trace["untraced_wall_s"] = round_s
            json.dump(dict(trace, metrics=metrics), fh, indent=1)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.mean(round_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
