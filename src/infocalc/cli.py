"""Command-line front end.

Subcommands: ``ratecal`` (achievable delivery rates per path subset),
``bflr`` (feasible transmission schedules), ``ratio`` (delivery-ratio lower
bounds), ``simulate`` (Monte-Carlo validation of the bounds), ``curve``
(sample any model curve for plotting).  Exit status 0 on success, 2 when a
scheduling question is answered "infeasible" (a result, not a fault), 1 on
errors.  All quantities are printed with units: bits, seconds, probability.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from .algorithms import (
    Infeasible,
    Schedule,
    bflr,
    bflr_table,
    calibrate_horizon,
    delivery_ratio_table,
    feasible_rates,
    ratecal,
)
from .bounding import ExpBound, ZeroBound
from .errors import InfoCalcError
from .scenario import PAPER_TABLE1_BOUNDINGS, effective_path_service, load_scenario
from .simulate import TraceConfig, simulate
from .sources import aggregate_information, gaussian_arrival_curve, group_information


def fmt_bound(bf, clamp: bool = False) -> str:
    if isinstance(bf, ZeroBound):
        return "0 (deterministic)"
    if isinstance(bf, ExpBound):
        a = min(float(bf.a), 1.0) if clamp and bf.x0 == 0 else float(bf.a)
        core = f"{a:g}*exp(-x/{float(bf.b):g})"
        return f"{core} shifted x0={float(bf.x0):g} bits" if bf.x0 else core
    return repr(bf)


def fmt_curve(c) -> str:
    tail = c.segments[-1]
    desc = f"rate {float(tail.slope):g} bit/s"
    if len(c.segments) == 1:
        off = float(tail.value)
        if off:
            return f"{float(tail.slope):g}*t {'+' if off > 0 else '-'} {abs(off):g} bits"
        return f"{float(tail.slope):g}*t bits"
    return f"{len(c.segments)}-segment curve, {desc}"


def _emit(args, rows: list[dict], table_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif args.format == "csv":
        if rows:
            # a column missing from some rows (an infeasible row has no
            # delay quantiles) stays empty there; a dict cell is JSON
            keys = list(dict.fromkeys(k for r in rows for k in r))
            out = csv.writer(sys.stdout, lineterminator="\n")
            out.writerow(keys)
            for r in rows:
                out.writerow(json.dumps(v) if isinstance(v, dict) else str(v)
                             for v in (r.get(k, "") for k in keys))
    else:
        for line in table_lines:
            print(line)


def _overrides(args):
    return PAPER_TABLE1_BOUNDINGS if args.paper_table1 else None


_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and positive")
#: option attribute -> (test, requirement) for every ranged numeric option
_RANGES = {
    "delay_ms": _POSITIVE, "horizon_ms": _POSITIVE, "step_ms": _POSITIVE, "t_max": _POSITIVE,
    "violation": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "calibrate": (lambda v: 0 < v < 100, "must lie in (0, 100)"),
    "points": (lambda v: v >= 2, "must be at least 2"),
}


def _check_args(args) -> None:
    """Reject an out-of-range option before any scenario is loaded."""
    for name, (ok, requirement) in _RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise InfoCalcError(f"--{name.replace('_', '-')} {value:g} {requirement}")


def _path_line(result: Schedule, pid: str, bound: str = "") -> str:
    """One path of a schedule; an idle path has no certificate and no quantile."""
    report = result.certificates.get(pid)
    if report is None:
        return f"{pid}: (idle)"
    return (f"{pid}: {', '.join(result.sources_on(pid))}"
            f"  [delay quantile {report.derived_quantile*1000:.3f} ms{bound}]")


def cmd_ratecal(args) -> int:
    s = load_scenario(args.scenario)
    rates = ratecal(s, prune=args.prune, bounding_overrides=_overrides(args))
    rows, lines = [], []
    lines.append("per-path information service (bits, seconds):")
    for pid in s.path_ids():
        partners = s.partners(pid)
        plain = effective_path_service(s, {pid}, pid)
        lines.append(f"  {pid}: w/o impairment <{fmt_bound(plain.bounding, args.clamp)}, "
                     f"{fmt_curve(plain.curve)}>")
        if partners:
            impaired = effective_path_service(s, {pid} | partners, pid, _overrides(args))
            lines.append(f"  {'':{len(pid)}s}  w/  impairment <"
                         f"{fmt_bound(impaired.bounding, args.clamp)}, {fmt_curve(impaired.curve)}>")
    lines.append(f"{len(rates)} achievable service rate(s)"
                 + (" (pruned)" if args.prune else ""))
    for r in rates:
        rows.append({
            "subset": "+".join(r.subset),
            "bounding": fmt_bound(r.service.bounding, args.clamp),
            "rate_bps": float(r.service.asymptotic_rate),
            "curve": fmt_curve(r.service.curve),
        })
        lines.append(f"  {'+'.join(r.subset):16s} <{fmt_bound(r.service.bounding, args.clamp)}, "
                     f"{fmt_curve(r.service.curve)}>")
    _emit(args, rows, lines)
    return 0


def _schedule_rows(subset, result):
    if isinstance(result, Infeasible):
        return {"subset": "+".join(subset), "feasible": False, "assignment": None}
    certs = {pid: rep.derived_quantile for pid, rep in result.certificates.items()}
    return {"subset": "+".join(subset), "feasible": True,
            "assignment": {pid: "+".join(result.sources_on(pid)) for pid in subset},
            "delay_quantiles_s": certs}


def cmd_bflr(args) -> int:
    s = load_scenario(args.scenario)
    delay = args.delay_ms / 1000.0
    if args.all_subsets:
        table = bflr_table(s, delay, args.violation, prune=args.prune,
                           bounding_overrides=_overrides(args))
        rows, lines = [], [f"delay bound {args.delay_ms} ms, violation {args.violation}"]
        any_ok = False
        for subset, result in table:
            rows.append(_schedule_rows(subset, result))
            if isinstance(result, Schedule):
                any_ok = True
                lines.append(f"  {'+'.join(subset):16s} FEASIBLE")
                lines += [f"    {_path_line(result, pid)}" for pid in subset]
            else:
                lines.append(f"  {'+'.join(subset):16s} X  ({result.reason})")
        _emit(args, rows, lines)
        return 0 if any_ok else 2
    result = bflr(s, delay, args.violation, prune=args.prune,
                  bounding_overrides=_overrides(args))
    if isinstance(result, Infeasible):
        _emit(args, [{"feasible": False, "reason": result.reason}],
              [f"INFEASIBLE: {result.reason}"])
        return 2
    rows = [_schedule_rows(result.subset, result)]
    lines = [f"feasible schedule on {'+'.join(result.subset)} "
             f"(delay {args.delay_ms} ms, violation {args.violation}):"]
    lines += [f"  {_path_line(result, pid, f' <= {args.delay_ms} ms')}" for pid in result.subset]
    _emit(args, rows, lines)
    return 0


def cmd_ratio(args) -> int:
    s = load_scenario(args.scenario)
    delay = args.delay_ms / 1000.0
    overrides = _overrides(args)
    subsets = ([tuple(x.split("+")) for x in args.subset]
               if args.subset else [r.subset for r in feasible_rates(s, bounding_overrides=overrides)])
    if args.calibrate is not None:
        if not subsets:
            raise InfoCalcError("--calibrate needs a subset: no path subset reaches the sources' "
                                "total rate, so name one with --subset")
        horizon = calibrate_horizon(s, subsets[0], delay, args.violation,
                                    args.calibrate / 100.0, bounding_overrides=overrides)
        print(f"calibrated horizon: {horizon*1000:.4f} ms "
              f"(subset {'+'.join(subsets[0])}, target {args.calibrate}%)", file=sys.stderr)
    elif args.horizon_ms is None:
        raise InfoCalcError("ratio requires --horizon-ms or --calibrate")
    else:
        horizon = args.horizon_ms / 1000.0
    rows, lines = [], [f"delivery ratio within {args.delay_ms} ms at violation "
                       f"{args.violation}, horizon {horizon*1000:.4f} ms"]
    for rr in delivery_ratio_table(s, subsets, delay, args.violation, horizon,
                                   bounding_overrides=overrides):
        rows.append({"subset": "+".join(rr.subset),
                     "ratio_lower_bound": rr.ratio_lower_bound,
                     "undelivered_quantile_bits": rr.undelivered_quantile,
                     "clamped": rr.clamped,
                     "fully_delivered_paths": "+".join(rr.fully_delivered_paths),
                     "horizon_s": rr.horizon})
        note = " (clamped to 0)" if rr.clamped else ""
        lines.append(f"  {'+'.join(rr.subset):16s} {rr.ratio_lower_bound*100:6.1f}%{note}"
                     f"  [undelivered quantile {rr.undelivered_quantile:.1f} bits]")
    _emit(args, rows, lines)
    return 0


def cmd_simulate(args) -> int:
    s = load_scenario(args.scenario)
    delay = args.delay_ms / 1000.0
    result = bflr(s, delay, args.violation, prune=args.prune,
                  bounding_overrides=_overrides(args))
    if isinstance(result, Infeasible):
        print(f"INFEASIBLE: {result.reason}", file=sys.stderr)
        return 2
    cfg = TraceConfig(runs=args.runs, seed=args.seed,
                      time_step=args.step_ms / 1000.0, horizon=args.horizon_ms / 1000.0)
    reports = simulate(s, result, cfg, within_delay=delay)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
    elif args.format == "csv":
        for r in reports:
            print(f"# {r.quantity} path={r.path_id} passed={r.passed}")
            sys.stdout.write(r.to_csv())
    else:
        unit = {"delay": "s", "backlog": "bits", "backlog_within_delay": "bits"}
        for r in reports:
            print(f"{r.quantity} on {r.path_id} ({unit.get(r.quantity, '')}, {cfg.runs} runs): "
                  f"{'PASS' if r.passed else 'FAIL'}")
            for t, e, c, b in zip(r.thresholds, r.empirical, r.ci_hi, r.bounds):
                print(f"  > {t:12.6g}  empirical {e:10.6f}  ci_hi {c:10.6f}  bound {b:10.6g}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_curve(args) -> int:
    s = load_scenario(args.scenario)
    kind, _, rest = args.what.partition(":")
    if kind == "path":
        pid, _, active = rest.partition("@")
        active_set = set(active.split("+")) if active else {pid}
        unknown = sorted((active_set | {pid}) - set(s.path_ids()))
        if unknown:
            raise InfoCalcError(f"unknown path id(s) {unknown} in '{args.what}'")
        spec = effective_path_service(s, active_set | {pid}, pid, _overrides(args))
        curve, bound = spec.curve, spec.bounding
    elif kind == "source":
        src = next((x for x in s.sources if x.id == rest), None)
        if src is None:
            raise InfoCalcError(f"unknown source id '{rest}'")
        spec = gaussian_arrival_curve(src)
        curve, bound = spec.curve, spec.bounding
    elif kind == "group":
        members = [x for x in s.sources if x.group_id == rest]
        if not members:
            raise InfoCalcError(f"unknown source group '{rest}'")
        spec = group_information(members, s.spatial)
        curve, bound = spec.curve, spec.bounding
    elif kind == "total" or args.what == "total":
        spec = aggregate_information(list(s.sources), s.spatial)
        curve, bound = spec.curve, spec.bounding
    else:
        raise InfoCalcError(f"unknown curve selector '{args.what}' "
                            "(use path:ID[@SUBSET], source:ID, group:ID, total)")
    n = args.points
    rows = []
    for i in range(n):
        t = args.t_max * i / (n - 1)
        rows.append({"t_s": t, "value_bits": float(curve.value(t))})
    lines = [f"{args.what}: <{fmt_bound(bound, args.clamp)}, {fmt_curve(curve)}>"]
    lines += [f"  t={r['t_s']:10.6f} s  {r['value_bits']:14.4f} bits" for r in rows]
    _emit(args, rows, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown option, unparsable value, missing argument) is
    a bad argument like any other: one ``error:`` line and exit 1, so it is
    never mistaken for exit 2, infeasible.  Subparsers inherit the class."""

    def error(self, message):
        raise InfoCalcError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="infocalc", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scheduling=False, sim=False):
        p.add_argument("scenario", help="scenario JSON document")
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--paper-table1", action="store_true",
                       help="inject the published per-path table values for the "
                            "bundled case study's impaired L3/L4 paths")
        p.add_argument("--clamp", action="store_true",
                       help="clamp printed probability bounds to at most 1")
        prune = p.add_mutually_exclusive_group()
        prune.add_argument("--prune", dest="prune", action="store_true",
                           help="drop dominated subsets")
        prune.add_argument("--no-prune", dest="prune", action="store_false")
        p.set_defaults(prune=False)
        if scheduling:
            p.add_argument("--delay-ms", type=float, required=True,
                           help="end-to-end information delay bound, milliseconds")
            p.add_argument("--violation", type=float, required=True,
                           help="violation probability in (0, 1]")
        if sim:
            p.add_argument("--runs", type=int, default=10000)
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--horizon-ms", type=float, default=1000.0)
            p.add_argument("--step-ms", type=float, default=1.0)

    p = sub.add_parser("ratecal", help="achievable information delivery rates")
    common(p)
    p.set_defaults(func=cmd_ratecal)

    p = sub.add_parser("bflr", help="search for feasible transmission schedules")
    common(p, scheduling=True)
    p.add_argument("--all-subsets", action="store_true",
                   help="report every above-rate subset instead of the first feasible")
    p.set_defaults(func=cmd_bflr)

    p = sub.add_parser("ratio", help="information delivery ratio lower bounds")
    common(p, scheduling=True)
    p.add_argument("--horizon-ms", type=float, default=None,
                   help="evaluation horizon for the ratio denominator")
    p.add_argument("--calibrate", type=float, default=None, metavar="PCT",
                   help="calibrate the horizon so the first subset's ratio equals PCT%%")
    p.add_argument("--subset", action="append", default=None, metavar="L1+L2",
                   help="restrict to specific subsets (repeatable)")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("simulate", help="Monte-Carlo validation of the analytic bounds")
    common(p, scheduling=True, sim=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("curve", help="sample a named curve for plotting")
    common(p)
    p.add_argument("--what", required=True,
                   help="path:ID[@L1+L2], source:ID, group:ID, or total")
    p.add_argument("--t-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=21)
    p.set_defaults(func=cmd_curve)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except InfoCalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (e.g. `| head`); send the unflushed rest to
        # devnull so the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
