#!/usr/bin/env python3
"""One-off scaling table: subset search at K = 4/8/10/12 paths and the
simulator at 1k/10k runs.  Too slow to be a workload (pruning alone takes
about half a minute at K = 12); run it by hand and paste its output into
the README:

    python3 perfbench/scaling.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> None:
    alg, sc, sim = wl.alg, wl.sc, wl.sim
    print("| K | subsets | ratecal | prune (kept) | bflr 35 ms | infeasible bflr | one table cell |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for k in (4, 8, 10, 12):
        doc = wl.kpath_doc(k)
        s = sc.parse_scenario(json.dumps(doc))
        floor = wl.checks.Model(doc).delay_floor(0.001)
        rates, t_rate = timed(lambda: alg.ratecal(s))
        kept, t_prune = timed(lambda: alg.ratecal(s, prune=True))
        _, t_bflr = timed(lambda: alg.bflr(s, 0.035, 0.001))
        _, t_inf = timed(lambda: alg.bflr(s, 0.5 * floor, 0.001))
        _, t_table = timed(lambda: alg.bflr_table(s, 0.035, 0.001))
        cells = [f"{1e3 * t:,.0f} ms" for t in (t_rate, t_prune, t_bflr, t_inf, t_table)]
        cells[1] += f" ({len(kept)})"
        print(f"| {k} | {len(rates)} | " + " | ".join(cells) + " |", flush=True)
    s = sc.case_study_scenario()
    schedule = alg.bflr(s, 0.045, 0.001)
    print("\n| case-study simulate | time | runs/s |")
    print("| --- | --- | --- |")
    for runs in (1000, 10_000):
        cfg = sim.TraceConfig(runs=runs, seed=42)
        _, t = timed(lambda: sim.simulate(s, schedule, cfg, within_delay=0.045))
        print(f"| {runs:,} runs | {1e3 * t:,.0f} ms | {runs / t:,.0f} |", flush=True)


if __name__ == "__main__":
    main()
