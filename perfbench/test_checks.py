"""Tests of the benchmark's own answer checks.

Each check must accept the program's correct answers and reject a
deliberately wrong one; the closed-form subset service must agree with
``ratecal`` on small path counts.  Run with ``pytest perfbench``.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from infocalc import algorithms as alg  # noqa: E402
from infocalc import scenario as sc  # noqa: E402
from infocalc.calculus import IssSpec  # noqa: E402
from infocalc.curves import Curve  # noqa: E402

sim = sys.modules["infocalc.simulate"]


def parsed(doc):
    return sc.parse_scenario(wl.json.dumps(doc)), checks.Model(doc)


@pytest.fixture(scope="module")
def case():
    return parsed(wl.case_study_doc())


def random_docs(n=6, seed=5):
    rng = np.random.default_rng(seed)
    return [wl.random_doc(rng, *wl.RandomFamily.shape(3 * k)) for k in range(n)]


def nudge_rate(rate: alg.AchievableRate, by: float) -> alg.AchievableRate:
    seg = rate.service.curve.segments[0]
    curve = Curve.affine(seg.slope + by, seg.value)
    return dataclasses.replace(rate, service=IssSpec(rate.service.bounding, curve))


# -- closed form agrees with the program -----------------------------------


@pytest.mark.parametrize("doc", [wl.case_study_doc(), wl.kpath_doc(4), wl.kpath_doc(6)]
                         + random_docs(), ids=lambda d: f"K{len(d['paths'])}")
def test_closed_form_matches_ratecal(doc):
    s, model = parsed(doc)
    assert checks.check_ratecal(model, alg.ratecal(s)) == []


@pytest.mark.parametrize("doc", random_docs(4, seed=9), ids=lambda d: f"K{len(d['paths'])}")
def test_closed_form_quantiles_match_schedules(doc):
    s, model = parsed(doc)
    ids = {x["id"] for x in doc["sources"]}
    worst = max(model.delay_quantile(ids, pid, set(sub), 0.01)
                for sub in model.subsets() for pid in sub)
    delay = 1.5 * worst
    table = alg.bflr_table(s, delay, 0.01)
    assert table and all(wl.is_schedule(r) for _, r in table)
    assert checks.check_table(model, table, delay, 0.01, wl.is_schedule) == []
    assert alg.bflr(s, 0.5 * model.delay_floor(0.01), 0.01) == alg.Infeasible()


# -- each check rejects a wrong answer --------------------------------------


def test_rate_off_by_one_bit_is_rejected(case):
    s, model = case
    rates = alg.ratecal(s)
    rates[3] = nudge_rate(rates[3], 1.0)
    errors = checks.check_ratecal(model, rates)
    assert len(errors) == 1 and "rate" in errors[0]


def test_missing_subset_is_rejected(case):
    s, model = case
    assert checks.check_ratecal(model, alg.ratecal(s)[:-1])


def test_prune_checks(case):
    s, _ = case
    plain, kept = alg.ratecal(s), alg.ratecal(s, prune=True)
    assert checks.check_prune(plain, kept) == []
    assert checks.check_prune(plain, kept[1:])            # a maximal subset dropped
    dominated = next(r for r in plain if r not in kept)
    assert checks.check_prune(plain, sorted(kept + [dominated], key=plain.index))


def test_dropped_source_is_rejected(case):
    s, model = case
    sched = alg.bflr(s, 0.035, 0.001)
    assert checks.check_schedule(model, sched, 0.035, 0.001) == []
    assignment = dict(sched.assignment)
    del assignment["A2.2"]
    bad = dataclasses.replace(sched, assignment=assignment)
    assert any("misses ['A2.2']" in e for e in checks.check_schedule(model, bad, 0.035, 0.001))


def test_late_certificate_is_rejected(case):
    s, model = case
    sched = alg.bflr(s, 0.035, 0.001)
    assert checks.check_schedule(model, sched, 0.020, 0.001)   # quantiles exceed 20 ms
    certs = dict(sched.certificates)
    certs["L1"] = dataclasses.replace(certs["L1"], derived_quantile=certs["L1"].derived_quantile * 1.01)
    assert checks.check_schedule(model, dataclasses.replace(sched, certificates=certs), 0.035, 0.001)


def test_table_checks(case):
    s, model = case
    table = alg.bflr_table(s, 0.035, 0.001)
    assert checks.check_table(model, table, 0.035, 0.001, wl.is_schedule) == []
    assert checks.check_table(model, table[1:], 0.035, 0.001, wl.is_schedule)
    assert checks.check_table(model, table[::-1], 0.035, 0.001, wl.is_schedule)
    answer = alg.bflr(s, 0.035, 0.001)
    assert checks.check_bflr_matches_table(answer, table, wl.is_schedule) == []
    assert checks.check_bflr_matches_table(alg.Infeasible(), table, wl.is_schedule)


def test_paper_tables(case):
    s, _ = case
    tables = {(p, d): alg.bflr_table(s, d, p) for p, d in checks.PAPER_TABLE2}
    assert checks.check_table2(tables, wl.is_schedule) == []
    flipped = dict(tables)
    cell = (0.0001, 0.035)
    flipped[cell] = [(sub, alg.Infeasible()) if sub == ("L1", "L2", "L3") else (sub, r)
                     for sub, r in tables[cell]]
    assert checks.check_table2(flipped, wl.is_schedule)

    subset, tau, p, target = checks.CALIBRATION
    horizon = alg.calibrate_horizon(s, subset, tau, p, target)
    cells = {(sub, t, q): alg.delivery_ratio(s, sub, t, q, horizon).ratio_lower_bound
             for sub in (("L1", "L2", "L3"), ("L1", "L2", "L4"))
             for t in (0.015, 0.020) for q in (0.10, 0.15)}
    assert checks.check_table3(cells) == []
    off = dict(cells)
    off[(("L1", "L2", "L4"), 0.015, 0.10)] += 0.04             # 4 pp from the paper
    assert checks.check_table3(off)


def test_exact_table1_and_combos():
    exact = sc.case_study_scenario(exact=True)
    services = {(pid, imp): sc.effective_path_service(
        exact, {pid, checks.PARTNER[pid]} if imp else {pid}, pid)
        for pid in ("L1", "L2", "L3", "L4") for imp in (False, True)}
    assert checks.check_table1(services) == []
    services[("L2", True)] = services[("L2", False)]
    assert checks.check_table1(services)

    s = sc.case_study_scenario()
    combos = alg.feasible_rates(s, bounding_overrides=sc.PAPER_TABLE1_BOUNDINGS)
    assert checks.check_combos(combos, 16776.0) == []
    assert checks.check_combos(combos[1:], 16776.0)
    assert checks.check_combos(combos, 16700.0)


def test_ratio_properties():
    key = lambda p: (("L1",), 0.015, p)  # noqa: E731
    assert checks.check_ratios({key(0.1): 0.4, key(0.15): 0.6}, key(0.15), 0.6) == []
    assert checks.check_ratios({key(0.1): 0.7, key(0.15): 0.6})           # drops as p grows
    assert checks.check_ratios({key(0.1): -0.1, key(0.15): 0.6})          # below 0
    assert checks.check_ratios({key(0.1): 0.4, key(0.15): 0.6}, key(0.15), 0.61)


def test_failing_tail_report_is_rejected(case):
    s, _ = case
    sched = alg.bflr(s, 0.035, 0.001)
    cfg = sim.TraceConfig(runs=200, seed=3)
    reports = sim.simulate(s, sched, cfg, within_delay=0.035)
    loaded = sorted(set(sched.assignment.values()))
    assert checks.check_reports(reports, loaded) == []
    reports[2] = dataclasses.replace(reports[2], passed=False)
    assert checks.check_reports(reports, loaded)
    assert checks.check_reports(reports[1:], loaded)
    again = wl.reports_text(sim.simulate(s, sched, cfg, within_delay=0.035))
    assert checks.check_identical(again, again, "simulate") == []
    assert checks.check_identical(again, again.replace("0", "1", 1), "simulate")


def test_exit_codes_and_fault_verdicts():
    assert checks.check_exit(["bflr"], 2, 2) == []
    assert checks.check_exit(["bflr"], 0, 2)
    assert checks.fault_fixed(1, "error: SchemaError: bad\n", None)
    assert not checks.fault_fixed(1, "error: a\nerror: b\n", None)
    assert not checks.fault_fixed(None, "Traceback: StopIteration\n", StopIteration())
    assert not checks.fault_fixed(2, "", None)


def test_infeasible_check_rejects_a_schedule(tmp_path):
    work = wl.KPath(1, tmp_path)
    item = work.make_items(0)[0]
    work.items = [item]
    good = {"infeasible": {0: [alg.Infeasible()]}}
    assert work.check_infeasible(0, item, good) == []
    bad = {"infeasible": {0: [alg.bflr(item.s, 0.035, 0.001)]}}
    assert work.check_infeasible(0, item, bad)
