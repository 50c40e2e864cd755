#!/usr/bin/env python3
"""Run one benchmark workload against the infocalc sources of this checkout.

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 40 --trace 0

One process, one thread, closed loop.  After set-up, the run repeats whole
rounds -- timed passes of every query kind in a fixed order, each followed
by the checks of its answers -- until another round would overrun
``--seconds`` (at least two rounds); a few once-per-run checks follow.  With ``--trace 0`` the last line of stdout is a
JSON object with every end-to-end metric (the median pass time per kind);
with ``--trace 1`` the same rounds run under the per-layer tracer and the
object holds the per-layer metrics.  A summary goes to stderr; the result
and the trace are also written under ``.perfbench_out/`` at the checkout
root.
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

# one thread everywhere, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2
SETUP_REPEATS = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("case_study", "kpath10", "random_family"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, infocalc, infocalc.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median wall time of importing numpy and infocalc in a fresh
    interpreter (the part of set-up the checkout's own process pays once)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                              capture_output=True, text=True, timeout=60, env=os.environ)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "infocalc" / "__init__.py").is_file():
        print(f"error: no infocalc sources at {SRC}", file=sys.stderr)
        return 2
    import_s = 0.0 if args.trace else import_seconds()
    sys.path[:0] = [str(SRC), str(HERE)]
    import infocalc

    if not Path(infocalc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported infocalc from {infocalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    pass_s = {k: [] for k in workloads.KINDS}
    sim_rate = []
    errors: list[str] = []
    attempted = failed = rounds = 0
    round_s = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if tracer:
            tracer.begin_round(rounds)
        workload.prepare(rounds)
        results: dict = {}
        for kind in workload.plan:
            if tracer:
                with tracer.span("bench." + kind):
                    secs, ops, runs = workload.run_pass(kind, results)
            else:
                secs, ops, runs = workload.run_pass(kind, results)
            attempted += ops
            pass_s[kind].append(secs)
            if runs:
                sim_rate.append(runs / secs)
            errors += workload.check(kind, results)
        attempted += len(workload.faults)
        failed += workload.run_faults()
        rounds += 1
        round_s.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - t_start
        if rounds >= MIN_ROUNDS and elapsed + statistics.mean(round_s) > args.seconds:
            break

    measured_s = time.perf_counter() - t_start
    errors += workload.final_checks(results)  # untraced: outside every pass
    if tracer:
        tracer.uninstall()
        metrics = {name: {"value": value, "unit": "ms" if name.endswith("_ms") else
                          ("MB" if name.endswith("_mb") else "count")}
                   for name, value in tracer.metrics().items()}
        tracer.save(outdir / f"trace_{args.workload}.npz")
    else:
        metrics = {"setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"}}
        for kind, metric in workloads.METRIC_OF.items():
            metrics[metric] = {"value": 1e3 * statistics.median(pass_s[kind]), "unit": "ms"}
        metrics["sim_runs_per_s"] = {"value": statistics.median(sim_rate), "unit": "runs/s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}

    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(errors) > 20:
        print(f"... {len(errors) - 20} more failed checks", file=sys.stderr)
    summary = ", ".join(f"{k} {1e3 * statistics.median(v):.1f} ms" for k, v in pass_s.items())
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {rounds} rounds in "
          f"{measured_s:.1f} s; import {import_s:.3f} s, set-up "
          f"{statistics.median(setup_times):.3f} s; passes: {summary}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result, sort_keys=True)
    (outdir / f"result_{args.workload}_trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
