"""The benchmark's three workloads: their inputs, their calls and their checks.

A workload is a list of *items*, one scenario each with its questions.  A
round runs one timed pass of every query kind over all items, in the fixed
order of ``KINDS``, then checks the answers of that pass.  ``case_study``
and ``kpath10`` keep the same items in every round; ``random_family``
draws a fresh batch of items per round from the workload seed.

The program is reached through module attributes only (``alg.bflr``, not a
from-import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import copy
import gc
import io
import json
import math
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import infocalc.algorithms as alg
import infocalc.cli as cli
import infocalc.scenario as sc
import infocalc.simulate  # noqa: F401  (registers the module; the package attribute is the function)
import infocalc.sources as srcmod

import checks

sim = sys.modules["infocalc.simulate"]

KINDS = ("ratecal", "prune", "schedule", "infeasible", "table", "ratio", "cli", "sim")
#: end-to-end metric fed by each kind's pass time
METRIC_OF = {"ratecal": "ratecal_ms", "prune": "prune_ms", "schedule": "schedule_ms",
             "infeasible": "infeasible_ms", "table": "table_ms", "ratio": "ratio_ms",
             "cli": "cli_ms"}


def derived_seed(*parts: int) -> int:
    return int(np.random.default_rng(list(parts)).integers(0, 2**62))


def run_cli(argv: list[str]):
    """``infocalc.cli.main(argv)`` with stdout/stderr captured; returns
    (exit code, stdout, stderr, exception raised or None)."""
    out, err = io.StringIO(), io.StringIO()
    raised = code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is the answer being measured
            raised = exc
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue(), raised


def is_schedule(result) -> bool:
    return isinstance(result, alg.Schedule)


def reports_text(reports) -> str:
    return json.dumps([r.to_json() for r in reports], sort_keys=True)


class Item:
    """One scenario, parsed from its file, and the questions asked of it."""

    def __init__(self, doc: dict, file: Path):
        self.file = file
        self.s = sc.parse_scenario(file.read_text(encoding="utf-8"))
        self.model = checks.Model(doc)
        self.feasible: list[tuple[float, float]] = []    # (delay, p)
        self.infeasible: list[tuple[float, float]] = []
        self.cells: list[tuple[float, float]] = []
        self.ratio = None  # (cal_subset, cal_tau, cal_p, target, [(subset, tau, p)])
        self.cli: list[tuple[list[str], int]] = []       # (argv, expected exit)
        self.sim_question = 0                            # index into feasible
        self.sim_runs = 0
        self.sim_seed = 0


# ---------------------------------------------------------------------------
# Input makers
# ---------------------------------------------------------------------------


def case_study_doc() -> dict:
    with open(sc.case_study_path(), encoding="utf-8") as fh:
        return json.load(fh)


def kpath_doc(k: int = 10) -> dict:
    """K paths L1..LK of 1-4 case-study nodes (L1 has 1, L2 2, L3 3, L4 4,
    L5 1, ...), impairments pairing L1~L2, L3~L4, ... alternating the case
    study's two entry kinds, and the case study's nine sources."""
    base = case_study_doc()
    node = base["paths"][0]["nodes"][0]
    paths = [{"id": f"L{i}", "nodes": [dict(copy.deepcopy(node), id=f"L{i}.{j}")
                                       for j in range((i - 1) % 4 + 1)]}
             for i in range(1, k + 1)]
    impairments = []
    for i in range(1, k, 2):
        kind = base["impairments"][(i // 2) % 2]
        shorter = min(len(paths[i - 1]["nodes"]), len(paths[i]["nodes"]))
        idx = min(kind["a"][1], shorter - 1)
        impairments.append({"a": [f"L{i}", idx], "b": [f"L{i + 1}", idx],
                            "process": copy.deepcopy(kind["process"])})
    return {"units": base["units"], "sources": base["sources"], "spatial": base["spatial"],
            "paths": paths, "impairments": impairments}


def random_doc(rng: np.random.Generator, nodes: list[int], n_imp: int, sizes: list[int]) -> dict:
    """A small scenario from the randomized family with the given shape:
    nodes per path (1-3 each), impairment count (0-2) and source-group
    sizes (1-3 each); every parameter value is drawn from ``rng``.  The
    sources share 30-60% of the slowest path's fully impaired rate (at most
    2400 bit/s each), so every single path can carry all sources and a
    generous delay bound is feasible."""
    pick = lambda xs: xs[int(rng.integers(len(xs)))]  # noqa: E731
    paths = []
    for p, n_nodes in enumerate(nodes):
        paths.append({"id": f"P{p}", "nodes": [
            {"id": f"P{p}.n{j}",
             "bounding": {"a": pick([1.0, 1.0, 2.0]), "b": pick([1.0, 2.0])},
             "beta": {"rate_bps": pick([4000.0, 6000.0, 8000.0, 12000.0]),
                      "latency_s": pick([0.002, 0.005, 0.010, 0.020])}}
            for j in range(n_nodes)]})
    pairs = [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
    n_imp = min(n_imp, len(pairs))
    impairments = []
    for k in rng.choice(len(pairs), size=n_imp, replace=False):
        i, j = pairs[int(k)]
        impairments.append({
            "a": [f"P{i}", int(rng.integers(len(paths[i]["nodes"])))],
            "b": [f"P{j}", int(rng.integers(len(paths[j]["nodes"])))],
            "process": {"bounding": {"a": pick([3.0, 4.0]), "b": pick([3.0, 4.0])},
                        "alpha": {"rate_fraction_of_node": pick([0.2, 0.25, 1.0 / 3.0]),
                                  "latency_s": pick([0.005, 0.0075])}}})
    worst = math.inf
    for p in paths:
        for j, n in enumerate(p["nodes"]):
            frac = sum(e["process"]["alpha"]["rate_fraction_of_node"] for e in impairments
                       for end in (e["a"], e["b"]) if end == [p["id"], j])
            worst = min(worst, n["beta"]["rate_bps"] * (1.0 - frac))
    load = pick([0.3, 0.45, 0.6])
    weights = [int(rng.integers(1, 4)) for _ in sizes]
    sources, spatial = [], {}
    for g, (size, w) in enumerate(zip(sizes, weights)):
        pair = pick([1.5, 1.7, 1.9])
        coeffs = {1: 1.0, 2: pair, 3: min(3.0, pair + pick([0.4, 0.6, 0.8]))}
        spatial[f"g{g}"] = {"pair": coeffs[2], "triple": coeffs[3]}
        rate = min(2400, math.floor(load * worst * w / sum(weights) / coeffs[size]))
        sources += [{"id": f"S{g}.{m}", "target_rate_bps": float(rate), "eta": 100.0,
                     "delta_s": 0.1, "group": f"g{g}"} for m in range(size)]
    return {"units": {"time": "seconds", "information": "bits"}, "sources": sources,
            "spatial": spatial, "paths": paths, "impairments": impairments}


def write_doc(doc: dict, file: Path) -> Path:
    file.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
    return file


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: ``prepare(round)`` makes the round's items (untimed),
    ``run_pass`` times one pass of a kind, ``check_<kind>`` verifies its
    answers."""

    #: calls of a kind per item in one pass (batches millisecond calls)
    repeats = {k: 1 for k in KINDS}
    #: passes per round of every kind not in ``once``: more samples of the
    #: short kinds between two passes of a long one
    cycles = 1
    once: tuple[str, ...] = ("sim",)
    #: False when every round draws fresh items
    fixed_items = True

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.items: list[Item] = []
        self.prev_sim: dict[int, str] = {}
        self.faults: list[list[str]] = []

    @property
    def plan(self) -> tuple[str, ...]:
        """The kinds of one round, in order."""
        again = tuple(k for k in KINDS if k not in self.once)
        return KINDS + again * (self.cycles - 1)

    # -- set-up --------------------------------------------------------

    def make_items(self, round_index: int) -> list[Item]:
        raise NotImplementedError

    def setup(self) -> None:
        """Make and parse the inputs, then warm every layer once on them."""
        self.items = self.make_items(0)
        item = self.items[0]
        for p in item.s.paths:
            sc.effective_path_service(item.s, {p.id}, p.id)
        srcmod.aggregate_information(list(item.s.sources), item.s.spatial)
        first = item.s.paths[0].id
        warm = alg.Schedule({x.id: first for x in item.s.sources}, (first,), {})
        sim.simulate(item.s, warm, sim.TraceConfig(runs=20, seed=0), within_delay=0.05)
        run_cli(["curve", str(item.file), "--what", "total", "--points", "3"])

    def prepare(self, round_index: int) -> None:
        if not self.fixed_items:
            self.items = self.make_items(round_index)

    # -- passes --------------------------------------------------------

    def run_pass(self, kind: str, results: dict) -> tuple[float, int, float]:
        """Run one pass of ``kind``; returns (seconds, calls, simulated runs)."""
        fn = getattr(self, "do_" + kind)
        reps = self.repeats[kind]
        gc.collect()
        ops = runs = 0
        t0 = time.perf_counter()
        for i, item in enumerate(self.items):
            for _ in range(reps):
                out, n, r = fn(i, item, results)
                ops += n
                runs += r
            results.setdefault(kind, {})[i] = out
        return time.perf_counter() - t0, ops, runs

    def do_ratecal(self, i, item, results):
        return alg.ratecal(item.s), 1, 0

    def do_prune(self, i, item, results):
        return alg.ratecal(item.s, prune=True), 1, 0

    def do_schedule(self, i, item, results):
        return [alg.bflr(item.s, d, p) for d, p in item.feasible], len(item.feasible), 0

    def do_infeasible(self, i, item, results):
        return [alg.bflr(item.s, d, p) for d, p in item.infeasible], len(item.infeasible), 0

    def do_table(self, i, item, results):
        return [alg.bflr_table(item.s, d, p) for d, p in item.cells], len(item.cells), 0

    def do_ratio(self, i, item, results):
        cal_subset, cal_tau, cal_p, target, cells = item.ratio
        horizon = alg.calibrate_horizon(item.s, cal_subset, cal_tau, cal_p, target)
        out = {(subset, tau, p): alg.delivery_ratio(item.s, subset, tau, p, horizon).ratio_lower_bound
               for subset, tau, p in cells}
        return (horizon, out), 1 + len(cells), 0

    def do_cli(self, i, item, results):
        return [run_cli(argv) for argv, _ in item.cli], len(item.cli), 0

    def do_sim(self, i, item, results):
        schedule = results["schedule"][i][item.sim_question]
        delay = item.feasible[item.sim_question][0]
        cfg = sim.TraceConfig(runs=item.sim_runs, seed=item.sim_seed)
        return sim.simulate(item.s, schedule, cfg, within_delay=delay), 1, item.sim_runs

    # -- faults ----------------------------------------------------------

    def run_faults(self) -> int:
        """Run the known-fault commands (untimed); returns how many failed."""
        failed = 0
        for argv in self.faults:
            code, _, err, raised = run_cli(argv)
            if not checks.fault_fixed(code, err, raised):
                failed += 1
        return failed

    # -- checks ----------------------------------------------------------

    def check(self, kind: str, results: dict) -> list[str]:
        errors = []
        for i, item in enumerate(self.items):
            errors += getattr(self, "check_" + kind)(i, item, results)
        return errors

    def check_ratecal(self, i, item, results):
        return checks.check_ratecal(item.model, results["ratecal"][i])

    def check_prune(self, i, item, results):
        return checks.check_prune(results["ratecal"][i], results["prune"][i])

    def check_schedule(self, i, item, results):
        errors = []
        for (d, p), result in zip(item.feasible, results["schedule"][i]):
            if not is_schedule(result):
                errors.append(f"feasible question D={d}, p={p} answered {result}")
                continue
            errors += checks.check_schedule(item.model, result, d, p)
        return errors

    def check_infeasible(self, i, item, results):
        errors = []
        for (d, p), result in zip(item.infeasible, results["infeasible"][i]):
            floor = item.model.delay_floor(p)
            if not d < floor:
                errors.append(f"infeasible question D={d} is not below the delay floor {floor}")
            if not isinstance(result, alg.Infeasible):
                errors.append(f"D={d} below the delay floor answered {result}")
        return errors

    def check_table(self, i, item, results):
        errors = []
        for (d, p), table in zip(item.cells, results["table"][i]):
            errors += checks.check_table(item.model, table, d, p, is_schedule)
            for (fd, fp), answer in zip(item.feasible, results["schedule"][i]):
                if (fd, fp) == (d, p):
                    errors += checks.check_bflr_matches_table(answer, table, is_schedule)
        return errors

    def check_ratio(self, i, item, results):
        _, cells = results["ratio"][i]
        cal_subset, cal_tau, cal_p, target, _ = item.ratio
        return checks.check_ratios(cells, (cal_subset, cal_tau, cal_p), target)

    def check_cli(self, i, item, results):
        errors = []
        for (argv, want), (code, out, err, raised) in zip(item.cli, results["cli"][i]):
            if raised is not None:
                errors.append(f"`{' '.join(argv)}` raised {raised!r}")
            errors += checks.check_exit(argv, code, want)
        return errors

    def check_sim(self, i, item, results):
        reports = results["sim"][i]
        schedule = results["schedule"][i][item.sim_question]
        errors = checks.check_reports(reports, sorted(set(schedule.assignment.values())))
        if self.fixed_items:  # the same seeded call every round
            text = reports_text(reports)
            errors += checks.check_identical(self.prev_sim.setdefault(i, text), text, "simulate")
        return errors

    def final_checks(self, results: dict) -> list[str]:
        """Checks made once, after the measured rounds, on the last round's
        answers: ``bflr`` with pruning picks the table's first feasible kept
        subset, and a repeated seeded ``simulate`` is bit-identical."""
        errors = []
        for i, item in enumerate(self.items):
            kept = {r.subset for r in results["prune"][i]}
            for (d, p), table in zip(item.cells, results["table"][i]):
                for (fd, fp), answer in zip(item.feasible, results["schedule"][i]):
                    if (fd, fp) != (d, p):
                        continue
                    pruned = alg.bflr(item.s, d, p, prune=True)
                    errors += checks.check_bflr_matches_table(pruned, table, is_schedule, kept)
                    # the choices may differ only where the unpruned choice ties
                    # in rate with a subset that dominates it (see CHANGES.md)
                    if (is_schedule(pruned) and pruned.subset != answer.subset
                            and answer.subset in kept):
                        errors.append("bflr picks another subset with pruning")
        item = self.items[0]
        schedule = results["schedule"][0][item.sim_question]
        cfg = sim.TraceConfig(runs=min(item.sim_runs, 1000), seed=item.sim_seed)
        delay = item.feasible[item.sim_question][0]
        first, again = (reports_text(sim.simulate(item.s, schedule, cfg, within_delay=delay))
                        for _ in range(2))
        return errors + checks.check_identical(first, again, "simulate")


class CaseStudy(Workload):
    """The bundled nine-source, four-path scenario through the paper's tables."""

    repeats = {"ratecal": 40, "prune": 20, "schedule": 6, "infeasible": 12, "table": 2,
               "ratio": 3, "cli": 1, "sim": 1}
    cycles = 2

    def make_items(self, round_index):
        doc = case_study_doc()
        file = Path(sc.case_study_path())
        item = Item(doc, file)
        item.feasible = [(0.035, 0.001), (0.045, 0.001)]
        item.infeasible = [(0.005, 0.001)]
        item.cells = [(d, p) for p in (0.001, 0.0001) for d in (0.035, 0.045)]
        subsets = [("L1", "L2", "L3"), ("L1", "L2", "L4"), ("L1", "L2", "L3", "L4")]
        item.ratio = (("L1", "L2", "L3"), 0.015, 0.15, 0.597,
                      [(s, tau, p) for s in subsets for tau in (0.015, 0.020) for p in (0.10, 0.15)])
        f = str(file)
        item.cli = [
            (["ratecal", f], 0),
            (["bflr", f, "--delay-ms", "35", "--violation", "0.001"], 0),
            (["bflr", f, "--delay-ms", "35", "--violation", "0.0001", "--all-subsets"], 0),
            (["bflr", f, "--delay-ms", "5", "--violation", "0.001"], 2),
            (["ratio", f, "--delay-ms", "15", "--violation", "0.15", "--calibrate", "59.7",
              "--subset", "L1+L2+L3"], 0),
            (["curve", f, "--what", "path:L1@L1+L2", "--t-max", "0.05", "--format", "csv"], 0),
        ]
        item.sim_question, item.sim_runs = 1, 10_000
        item.sim_seed = derived_seed(self.seed, 1, 0)
        bad = copy.deepcopy(doc)
        bad["paths"][1]["nodes"][0]["beta"]["rate_bps"] = math.nan
        nan_file = write_doc(bad, self.outdir / "case_study_nan_rate.json")
        self.faults = [
            ["curve", f, "--what", "source:NOPE"],
            ["curve", f, "--what", "total", "--points", "1"],
            ["bflr", str(nan_file), "--delay-ms", "35", "--violation", "0.001"],
        ]
        return [item]

    def check_table(self, i, item, results):
        tables = dict(zip(item.cells, results["table"][i]))
        by_paper_key = {(p, d): t for (d, p), t in tables.items()}
        return super().check_table(i, item, results) + \
            checks.check_table2(by_paper_key, is_schedule)

    def check_schedule(self, i, item, results):
        errors = super().check_schedule(i, item, results)
        first = results["schedule"][i][0]
        if is_schedule(first) and first.subset != ("L1", "L2", "L3"):
            errors.append(f"bflr at 35 ms / 1e-3 chose {first.subset}, paper L1+L2+L3")
        return errors

    def check_ratio(self, i, item, results):
        return checks.check_table3(results["ratio"][i][1])

    def check_cli(self, i, item, results):
        errors = super().check_cli(i, item, results)
        outs = [out for _, out, _, _ in results["cli"][i]]
        expect = ["15 achievable service rate(s)", "feasible schedule on L1+L2+L3",
                  "L1+L2+L3         FEASIBLE", "INFEASIBLE", "59.7%", "t_s,value_bits"]
        for (argv, _), out, text in zip(item.cli, outs, expect):
            if text not in out:
                errors.append(f"`{' '.join(argv)}` output lacks {text!r}")
        return errors

    def final_checks(self, results):
        exact = sc.case_study_scenario(exact=True)
        services = {(pid, imp): sc.effective_path_service(
            exact, {pid, checks.PARTNER[pid]} if imp else {pid}, pid)
            for pid in ("L1", "L2", "L3", "L4") for imp in (False, True)}
        item = self.items[0]
        combos = alg.feasible_rates(item.s, bounding_overrides=sc.PAPER_TABLE1_BOUNDINGS)
        total = float(srcmod.aggregate_information(list(item.s.sources), item.s.spatial).asymptotic_rate)
        return (super().final_checks(results) + checks.check_table1(services)
                + checks.check_combos(combos, total))


class KPath(Workload):
    """Ten paths, 1,023 subsets: the subset search dominates."""

    repeats = {"ratecal": 1, "prune": 1, "schedule": 1, "infeasible": 1, "table": 1,
               "ratio": 10, "cli": 1, "sim": 1}

    def make_items(self, round_index):
        doc = kpath_doc(10)
        file = write_doc(doc, self.outdir / "kpath10.json")
        item = Item(doc, file)
        item.feasible = [(0.035, 0.001)]
        item.infeasible = [(round(0.5 * item.model.delay_floor(0.001), 6), 0.001)]
        item.cells = [(0.035, 0.001)]
        top = tuple(p["id"] for p in doc["paths"])
        item.ratio = (("L1", "L2", "L3"), 0.015, 0.15, 0.597,
                      [(s, 0.015, p) for s in (("L1", "L2", "L3"), top) for p in (0.10, 0.15)])
        f = str(file)
        item.cli = [
            (["ratecal", f, "--format", "json"], 0),
            (["ratio", f, "--delay-ms", "15", "--violation", "0.15", "--calibrate", "59.7",
              "--subset", "L1+L2+L3", "--format", "json"], 0),
            (["curve", f, "--what", "path:L3@L3+L4", "--t-max", "0.05", "--format", "csv"], 0),
        ]
        item.sim_runs = 1000
        item.sim_seed = derived_seed(self.seed, 1, 0)
        return [item]

    def check_cli(self, i, item, results):
        return super().check_cli(i, item, results) + cli_json_checks(item, results, i)


class RandomFamily(Workload):
    """A fresh, seeded batch of small scenarios every round."""

    fixed_items = False
    repeats = {"ratecal": 10, "prune": 5, "schedule": 3, "infeasible": 3, "table": 1,
               "ratio": 2, "cli": 1, "sim": 1}
    #: scenarios per round
    batch = 18

    @staticmethod
    def shape(k: int) -> tuple[list[int], int, list[int]]:
        """Shape of the batch's k-th scenario: (nodes per path, impairments,
        group sizes).  Every batch holds the same 18 shapes -- each of 2-4
        paths with each of 1-3 groups twice, 0-2 impairments and 1-3 nodes
        and sources rotating -- so batches differ in values, not in size."""
        n_paths, n_groups, n_imp = 2 + k % 3, 1 + (k // 3) % 3, (k // 6) % 3
        nodes = [1 + (k + p) % 3 for p in range(n_paths)]
        sizes = [1 + (k + 2 * g) % 3 for g in range(n_groups)]
        return nodes, n_imp, sizes

    def make_items(self, round_index):
        rng = np.random.default_rng([self.seed, 2, round_index])
        items = []
        for k in range(self.batch):
            doc = random_doc(rng, *self.shape(k))
            file = write_doc(doc, self.outdir / f"random_{k:02d}.json")
            item = Item(doc, file)
            model = item.model
            ids = {x["id"] for x in doc["sources"]}
            worst = max(model.delay_quantile(ids, pid, set(subset), 0.01)
                        for subset in model.subsets() for pid in subset)
            d_f = math.ceil(1500.0 * worst) / 1000.0
            floor = model.delay_floor(0.01)
            d_inf = math.floor(500000.0 * floor) / 1e6
            tau = round(2.0 * floor, 6)
            everything = tuple(model.order)
            item.feasible = [(d_f, 0.01)]
            item.infeasible = [(d_inf, 0.01)]
            item.cells = [(d_f, 0.01)]
            item.ratio = (everything, tau, 0.15, 0.6,
                          [(everything, tau, p) for p in (0.10, 0.15)])
            f = str(file)
            item.cli = [
                (["ratecal", f, "--format", "json"], 0),
                (["bflr", f, "--delay-ms", repr(d_inf * 1000.0), "--violation", "0.01"], 2),
                (["ratio", f, "--delay-ms", repr(tau * 1000.0), "--violation", "0.15",
                  "--calibrate", "60", "--subset", "+".join(everything), "--format", "json"], 0),
                (["curve", f, "--what", "total", "--points", "5", "--format", "csv"], 0),
            ]
            item.sim_runs = 200
            item.sim_seed = derived_seed(self.seed, 1, round_index, k)
            items.append(item)
        return items

    def check_ratio(self, i, item, results):
        horizon, cells = results["ratio"][i]
        cal_subset, cal_tau, cal_p, target, _ = item.ratio
        # a zero undelivered quantile calibrates to horizon 0, where the
        # ratio is 1 by definition rather than the target
        calibrated = (cal_subset, cal_tau, cal_p) if horizon > 0 else None
        return checks.check_ratios(cells, calibrated, target)

    def check_cli(self, i, item, results):
        return super().check_cli(i, item, results) + cli_json_checks(item, results, i)


def cli_json_checks(item: Item, results: dict, i: int) -> list[str]:
    """The JSON outputs of `ratecal` and `ratio` agree with the closed form
    and with the library's answers of the same round."""
    errors = []
    for (argv, _), (code, out, _, _) in zip(item.cli, results["cli"][i]):
        if "--format" not in argv or argv[0] == "curve" or code not in (0,):
            continue
        rows = json.loads(out)
        if argv[0] == "ratecal":
            subsets = list(item.model.subsets())
            if len(rows) != len(subsets):
                errors.append(f"CLI ratecal printed {len(rows)} rows, expected {len(subsets)}")
            for row, subset in zip(rows, subsets):
                want = float(item.model.subset_service(subset)[0])
                if row["subset"] != "+".join(subset) or not checks.close(row["rate_bps"], want):
                    errors.append(f"CLI ratecal row {row['subset']} rate {row['rate_bps']} != {want}")
        elif argv[0] == "ratio":
            cal_subset, cal_tau, cal_p, target, _ = item.ratio
            lib = results["ratio"][i][1][(cal_subset, cal_tau, cal_p)]
            if not checks.close(rows[0]["ratio_lower_bound"], lib, 1e-6):
                errors.append(f"CLI ratio {rows[0]['ratio_lower_bound']} != library {lib}")
    return errors


WORKLOADS = {"case_study": CaseStudy, "kpath10": KPath, "random_family": RandomFamily}
