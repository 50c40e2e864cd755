#!/usr/bin/env python3
"""Reproduce the bundled case study end to end.

Prints the per-path service table, the above-rate subset list, the
schedule-feasibility table for both delay bounds and violation
probabilities, the delivery-ratio table under tight delays (with the
calibrated horizon), and a Monte-Carlo spot check of one schedule.
"""

import argparse

from infocalc.algorithms import (
    Schedule,
    bflr_table,
    calibrate_horizon,
    delivery_ratio,
    feasible_rates,
)
from infocalc.cli import fmt_bound, fmt_curve
from infocalc.scenario import case_study_scenario, effective_path_service
from infocalc.simulate import TraceConfig, simulate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=2000, help="Monte-Carlo runs for the spot check")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--skip-simulation", action="store_true")
    args = ap.parse_args()

    s = case_study_scenario()

    print("== per-path information service ==")
    for pid in s.path_ids():
        plain = effective_path_service(s, {pid}, pid)
        impaired = effective_path_service(s, {pid} | s.partners(pid), pid)
        print(f"  {pid}: w/o impairment <{fmt_bound(plain.bounding)}, {fmt_curve(plain.curve)}>")
        print(f"      w/  impairment <{fmt_bound(impaired.bounding)}, {fmt_curve(impaired.curve)}>")

    print("\n== subsets above the 16.78 kbit/s total arrival rate ==")
    for rate in feasible_rates(s):
        print(f"  {'+'.join(rate.subset):16s} <{fmt_bound(rate.service.bounding)}, "
              f"{fmt_curve(rate.service.curve)}>")

    print("\n== schedule feasibility ==")
    for p in (0.001, 0.0001):
        for delay in (0.035, 0.045):
            print(f"  violation {p}, delay {delay*1000:.0f} ms:")
            for subset, result in bflr_table(s, delay, p):
                if isinstance(result, Schedule):
                    per = ", ".join(f"{pid}<-{'+'.join(result.sources_on(pid))}"
                                    for pid in subset)
                    print(f"    {'+'.join(subset):16s} feasible: {per}")
                else:
                    print(f"    {'+'.join(subset):16s} X")

    print("\n== delivery ratio under tight delays ==")
    cal_subset, cal_p, cal_tau, cal_target = ("L1", "L2", "L3"), 0.15, 0.015, 0.597
    horizon = calibrate_horizon(s, cal_subset, cal_tau, cal_p, cal_target)
    print(f"  horizon calibrated on {'+'.join(cal_subset)} @ p={cal_p}, "
          f"tau={cal_tau*1000:.0f} ms -> {horizon*1000:.2f} ms")
    for p in (0.10, 0.15):
        for tau in (0.015, 0.020):
            row = []
            for subset in (("L1", "L2", "L3"), ("L1", "L2", "L4"), ("L1", "L2", "L3", "L4")):
                rr = delivery_ratio(s, subset, tau, p, horizon)
                row.append(f"{'+'.join(subset)}: {rr.ratio_lower_bound*100:5.1f}%")
            print(f"  p={p:4} tau={tau*1000:.0f} ms  " + "   ".join(row))

    if not args.skip_simulation:
        print(f"\n== Monte-Carlo spot check ({args.runs} runs, seed {args.seed}) ==")
        sched = Schedule({f"A1.{i}": "L1" for i in (1, 2, 3)}
                         | {f"A2.{i}": "L2" for i in (1, 2, 3)},
                         ("L1", "L2"), {})
        cfg = TraceConfig(runs=args.runs, seed=args.seed, time_step=1e-3, horizon=1.0)
        for rep in simulate(s, sched, cfg, within_delay=0.015):
            print(f"  {rep.quantity:22s} {rep.path_id}: {'PASS' if rep.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
