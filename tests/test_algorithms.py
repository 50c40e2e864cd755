"""RateCal, dominance pruning, BFLR scheduling and the delivery-ratio bound."""

import itertools
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from conftest import random_scenario
from infocalc import algorithms
from infocalc.algorithms import (
    AchievableRate,
    Infeasible,
    Schedule,
    bflr,
    bflr_table,
    calibrate_horizon,
    delivery_ratio,
    dominates,
    feasible_rates,
    ratecal,
    schedule_subset,
    subset_service,
)
from infocalc.bounding import ExpBound, ZeroBound
from infocalc.calculus import IssSpec, delay_bound
from infocalc.curves import Curve
from infocalc.errors import SubsetLimitExceeded
from infocalc.scenario import (
    PAPER_TABLE1_BOUNDINGS,
    Node,
    Path,
    Scenario,
    effective_path_service,
)
from infocalc.sources import SpatialModel, aggregate_information

R = 8000.0
PINNED_RATIOS = FsPath(__file__).parent / "data" / "ratio_paired_six.json"


def three_path_example() -> Scenario:
    """Three non-interfering paths of 1, 2, 3 identical <e^-x, rt> nodes."""
    paths = tuple(
        Path(f"P{k}", tuple(Node(f"P{k}.n{j}", 1.0, 1.0, R, 0.0) for j in range(k)))
        for k in (1, 2, 3)
    )
    return Scenario((), SpatialModel({}), paths, ())


class TestRateCal:
    def test_three_path_example_yields_seven(self):
        rates = ratecal(three_path_example())
        assert len(rates) == 7
        full = next(r for r in rates if r.subset == ("P1", "P2", "P3"))
        # 1-, 2- and 3-node paths compose to <6e^-x/6, 3rt>
        assert full.service.bounding.params() == (6.0, 6.0, 0.0)
        assert float(full.service.curve.final_slope) == pytest.approx(3 * R)
        assert full.service.bounding.value(24.0) == pytest.approx(6 * np.exp(-4.0), abs=1e-12)

    def test_subset_guard(self):
        paths = tuple(Path(f"P{k}", (Node(f"n{k}", 1.0, 1.0, R, 0.0),)) for k in range(25))
        with pytest.raises(SubsetLimitExceeded):
            ratecal(Scenario((), SpatialModel({}), paths, ()))

    def test_case_study_combo(self, case_study):
        rate = next(r for r in ratecal(case_study) if r.subset == ("L1", "L2", "L3"))
        assert rate.service.bounding.params() == (14.0, 14.0, 0.0)
        assert float(rate.service.curve.final_slope) == pytest.approx(13.0 / 5.0 * R)
        assert float(rate.service.curve.value(0)) == pytest.approx(-28.0 / 5.0 * R * 0.0075)

    def test_single_path_no_partner(self, case_study):
        rate = next(r for r in ratecal(case_study) if r.subset == ("L1",))
        assert rate.service.bounding.params() == (1.0, 1.0, 0.0)


class TestDominates:
    def test_strictly_better_curve_and_bound(self):
        a = IssSpec(ExpBound(1, 1), Curve.affine(2 * R))
        b = IssSpec(ExpBound(2, 2), Curve.affine(R))
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_never_self_dominates(self):
        a = IssSpec(ExpBound(1, 1), Curve.affine(R))
        assert not dominates(a, a)

    def test_incomparable(self):
        a = IssSpec(ExpBound(1, 1), Curve.affine(R))
        b = IssSpec(ExpBound(2, 2), Curve.affine(2 * R))
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_grid_fallback_for_numeric_bounds(self):
        from infocalc.bounding import GridBound

        g = GridBound([0.0, 10.0], [0.5, 0.1])
        a = IssSpec(ZeroBound(), Curve.affine(2 * R))
        b = IssSpec(g, Curve.affine(R))
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_pruning_drops_dominated_single_path(self):
        rates = ratecal(three_path_example(), prune=True)
        subsets = {r.subset for r in rates}
        assert ("P3",) not in subsets  # {P1,P2} gives the same bound at twice the rate
        assert len(rates) < 7


class TestBflrCaseStudy:
    CELLS = {
        (0.001, 0.035): {"L1+L2+L3": True, "L1+L2+L4": True, "L1+L3+L4": False,
                         "L2+L3+L4": False, "L1+L2+L3+L4": False},
        (0.001, 0.045): {"L1+L2+L3": True, "L1+L2+L4": True, "L1+L3+L4": False,
                         "L2+L3+L4": False},
        (0.0001, 0.035): {"L1+L2+L3": True, "L1+L2+L4": False, "L1+L3+L4": False,
                          "L2+L3+L4": False, "L1+L2+L3+L4": False},
        (0.0001, 0.045): {"L1+L2+L3": True, "L1+L2+L4": True, "L1+L3+L4": False,
                          "L2+L3+L4": False},
    }

    def test_rate_filter_keeps_five_subsets(self, case_study):
        rates = feasible_rates(case_study)
        assert [r.subset for r in rates] == [
            ("L1", "L2", "L3", "L4"), ("L1", "L2", "L3"), ("L1", "L2", "L4"),
            ("L1", "L3", "L4"), ("L2", "L3", "L4")]

    @pytest.mark.parametrize("p,delay", sorted(CELLS))
    def test_feasibility_pattern(self, case_study, p, delay):
        outcomes = {"+".join(sub): isinstance(res, Schedule)
                    for sub, res in bflr_table(case_study, delay, p)}
        for key, expected in self.CELLS[(p, delay)].items():
            assert outcomes[key] == expected, (key, p, delay)

    def test_group_per_path_assignment(self, case_study):
        res = schedule_subset(case_study, ("L1", "L2", "L3"), 0.035, 0.001)
        assert isinstance(res, Schedule)
        for g, pid in ((1, "L1"), (2, "L2"), (3, "L3")):
            assert res.sources_on(pid) == [f"A{g}.1", f"A{g}.2", f"A{g}.3"]

    def test_first_feasible_is_l123(self, case_study):
        res = bflr(case_study, 0.035, 0.001)
        assert isinstance(res, Schedule)
        assert res.subset == ("L1", "L2", "L3")

    def test_infeasible_everywhere_at_tight_delay(self, case_study):
        res = bflr(case_study, 0.005, 0.001)
        assert isinstance(res, Infeasible)

    def test_vacuous_constraints_feasible(self, case_study):
        res = bflr(case_study, 10.0, 1.0)
        assert isinstance(res, Schedule)
        assert res.subset == ("L1", "L2", "L3", "L4")

    def test_certificates_reverify(self, case_study):
        res = bflr(case_study, 0.035, 0.001)
        for pid, report in res.certificates.items():
            service = effective_path_service(case_study, set(res.subset), pid)
            members = [src for src in case_study.sources
                       if res.assignment.get(src.id) == pid]
            arrival = aggregate_information(members, case_study.spatial)
            again = delay_bound(arrival, service, 0.001)
            assert again.derived_quantile == pytest.approx(report.derived_quantile, rel=1e-12)
            assert again.derived_quantile <= 0.035

    def test_no_path_below_assigned_rate(self, case_study):
        res = bflr(case_study, 0.045, 0.001)
        for pid in res.subset:
            members = [src for src in case_study.sources
                       if res.assignment.get(src.id) == pid]
            if not members:
                continue
            arrival = aggregate_information(members, case_study.spatial)
            service = effective_path_service(case_study, set(res.subset), pid)
            assert float(arrival.asymptotic_rate) < float(service.asymptotic_rate)


class TestBflrProperties:
    def test_pruning_preserves_verdict(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(25):
            s = random_scenario(rng)
            delay = float(rng.choice([0.02, 0.035, 0.05]))
            p = float(rng.choice([0.01, 0.001]))
            a = bflr(s, delay, p, prune=False)
            b = bflr(s, delay, p, prune=True)
            assert isinstance(a, Schedule) == isinstance(b, Schedule)
            checked += 1
        assert checked == 25

    def test_monotone_in_delay_and_probability(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            s = random_scenario(rng)
            delays = [0.015, 0.025, 0.04, 0.08]
            ps = [1e-4, 1e-3, 1e-2, 0.1]
            feas_d = [isinstance(bflr(s, d, 1e-3), Schedule) for d in delays]
            assert feas_d == sorted(feas_d)  # once feasible, stays feasible
            feas_p = [isinstance(bflr(s, 0.03, p), Schedule) for p in ps]
            assert feas_p == sorted(feas_p)

    def test_zero_sources_trivially_feasible(self):
        s = three_path_example()
        res = bflr(s, 0.01, 0.5)
        assert isinstance(res, Schedule)
        assert res.assignment == {}


class TestDeliveryRatio:
    def test_case_study_calibrated_cell(self, case_study):
        horizon = calibrate_horizon(case_study, ("L1", "L2", "L3"), 0.015, 0.15, 0.597)
        rr = delivery_ratio(case_study, ("L1", "L2", "L3"), 0.015, 0.15, horizon)
        assert rr.ratio_lower_bound == pytest.approx(0.597, abs=1e-9)

    def test_first_published_cell_reachable_by_calibration(self, case_study):
        # 56.4% at p=0.1 within 15 ms on (L1,L2,L3), with its own fitted horizon
        horizon = calibrate_horizon(case_study, ("L1", "L2", "L3"), 0.015, 0.10, 0.564)
        rr = delivery_ratio(case_study, ("L1", "L2", "L3"), 0.015, 0.10, horizon)
        assert rr.ratio_lower_bound == pytest.approx(0.564, abs=1e-9)
        assert rr.fully_delivered_paths == ("L1",)

    def test_vacuous_delivery_clamps_to_zero(self, case_study):
        rr = delivery_ratio(case_study, ("L1", "L2", "L3"), 0.015, 0.1, horizon=1e-3)
        assert rr.ratio_lower_bound == 0.0
        assert rr.clamped

    def test_full_delivery_regime(self, case_study):
        # generous delay: every path's quantile is met, ratio hits 1.0
        rr = delivery_ratio(case_study, ("L1", "L2", "L3"), 0.5, 0.1, horizon=0.05)
        assert rr.ratio_lower_bound == 1.0
        assert set(rr.fully_delivered_paths) == {"L1", "L2", "L3"}

    def test_monotone_in_tau_and_p(self, case_study):
        horizon = 0.05
        taus = [0.005, 0.01, 0.02, 0.05, 0.1]
        ratios = [delivery_ratio(case_study, ("L1", "L2", "L4"), t, 0.1, horizon).ratio_lower_bound
                  for t in taus]
        assert ratios == sorted(ratios)
        ps = [0.01, 0.05, 0.1, 0.2]
        ratios_p = [delivery_ratio(case_study, ("L1", "L2", "L4"), 0.015, p, horizon).ratio_lower_bound
                    for p in ps]
        assert ratios_p == sorted(ratios_p)

    def test_accepts_schedule_object(self, case_study):
        sched = bflr(case_study, 0.045, 0.001)
        rr = delivery_ratio(case_study, sched, 0.015, 0.1, horizon=0.05)
        assert 0.0 <= rr.ratio_lower_bound <= 1.0
        assert rr.subset == sched.subset

    @pytest.mark.parametrize("delay,p", [(0.015, 0.10), (0.015, 0.15), (0.020, 0.10),
                                         (0.020, 0.15)])
    def test_paired_six_paths_pinned(self, case_study, delay, p):
        # every subset of six paired paths at the criterion-6 cells, horizon
        # 0.06 s, bit for bit: unassigned sources and fully delivered paths
        # both occur, so each branch of the ratio packing is pinned
        s = paired_six_paths(case_study)
        pinned = [r for r in json.loads(PINNED_RATIOS.read_text())
                  if (r["delay"], r["p"]) == (delay, p)]
        assert len(pinned) == 2 ** len(s.path_ids()) - 1
        for r in pinned:
            rr = delivery_ratio(s, tuple(r["subset"].split("+")), delay, p, 0.06)
            got = (rr.ratio_lower_bound, rr.undelivered_quantile,
                   "+".join(rr.fully_delivered_paths), " ".join(rr.unassigned_sources))
            assert got == (r["ratio_lower_bound"], r["undelivered_quantile"],
                           r["fully_delivered_paths"], r["unassigned_sources"]), r["subset"]

    def test_monotone_random_sweep(self):
        rng = np.random.default_rng(5150)
        for _ in range(10):
            s = random_scenario(rng)
            subset = tuple(s.path_ids())
            ratios = [delivery_ratio(s, subset, t, 0.1, 0.1).ratio_lower_bound
                      for t in (0.005, 0.02, 0.08)]
            assert ratios == sorted(ratios)


# ---------------------------------------------------------------------------
# The per-call analysis context changes no answer
# ---------------------------------------------------------------------------


def paired_six_paths(case_study) -> Scenario:
    """Six paths of 1-3 case-study nodes with paired impairments P1~P2
    (node 0, rate 1/5) and P3~P4, P5~P6 (node 1, rate 1/3), carrying the
    case study's nine sources."""
    paths = tuple(Path(f"P{i}", tuple(Node(f"P{i}.{j}", 1.0, 1.0, R, 0.0075)
                                      for j in range((i - 1) % 3 + 1)))
                  for i in range(1, 7))
    first, second = case_study.impairments
    impairments = (
        replace(first, a=("P1", 0), b=("P2", 0)),
        replace(second, a=("P3", 1), b=("P4", 1)),
        replace(second, a=("P5", 1), b=("P6", 1)),
    )
    return Scenario(case_study.sources, case_study.spatial, paths, impairments)


def reference_ratecal(s, prune, overrides):
    """``ratecal`` with every subset's service computed without a shared context."""
    ids = s.path_ids()
    rates = [AchievableRate(combo, subset_service(s, combo, overrides))
             for k in range(1, len(ids) + 1) for combo in itertools.combinations(ids, k)]
    if prune:
        rates = [r for r in rates
                 if not any(o is not r and dominates(o.service, r.service) for o in rates)]
    return rates


def reference_feasible_rates(s, prune, overrides):
    total = aggregate_information(list(s.sources), s.spatial).asymptotic_rate
    rates = [r for r in reference_ratecal(s, prune, overrides)
             if r.service.asymptotic_rate >= total]
    rates.sort(key=lambda r: (-float(r.service.asymptotic_rate), r.subset))
    return rates


def reference_table(s, delay, p, prune, overrides):
    return [(r.subset, schedule_subset(s, r.subset, delay, p, overrides))
            for r in reference_feasible_rates(s, prune, overrides)]


def reference_bflr(s, delay, p, prune, overrides):
    return next((result for _, result in reference_table(s, delay, p, prune, overrides)
                 if isinstance(result, Schedule)), Infeasible())


CONTEXT_CASES = [("case_study", None), ("case_study", PAPER_TABLE1_BOUNDINGS),
                 ("paired_six", None)]


class TestAnalysisContext:
    @pytest.fixture(params=CONTEXT_CASES, ids=["case_study", "paper_table1", "paired_six"])
    def case(self, request, case_study):
        name, overrides = request.param
        s = case_study if name == "case_study" else paired_six_paths(case_study)
        return s, overrides

    @pytest.mark.parametrize("prune", [False, True])
    def test_rates_unchanged(self, case, prune):
        s, overrides = case
        assert ratecal(s, prune, overrides) == reference_ratecal(s, prune, overrides)
        assert feasible_rates(s, prune, overrides) == reference_feasible_rates(s, prune, overrides)

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("delay,p", [(0.035, 1e-3), (0.045, 1e-4), (0.005, 1e-3)])
    def test_schedules_unchanged(self, case, prune, delay, p):
        s, overrides = case
        table = bflr_table(s, delay, p, prune, overrides)
        assert table == reference_table(s, delay, p, prune, overrides)
        assert [subset for subset, _ in table] == \
            [r.subset for r in reference_feasible_rates(s, prune, overrides)]
        assert bflr(s, delay, p, prune, overrides) == reference_bflr(s, delay, p, prune, overrides)

    def test_one_effective_service_per_distinct_key(self, case_study, monkeypatch):
        s = paired_six_paths(case_study)
        partners = {"P1": {"P2"}, "P2": {"P1"}, "P3": {"P4"}, "P4": {"P3"},
                    "P5": {"P6"}, "P6": {"P5"}}
        calls = Counter()
        original = algorithms.effective_path_service

        def counted(s, active, path_id, bounding_overrides=None):
            calls[(path_id, frozenset(set(active) & partners[path_id]))] += 1
            return original(s, active, path_id, bounding_overrides)

        monkeypatch.setattr(algorithms, "effective_path_service", counted)
        bflr_table(s, 0.035, 1e-3)
        # each path alone and with its partner active
        assert set(calls) == {(pid, frozenset(ps)) for pid, mates in partners.items()
                              for ps in (set(), mates)}
        assert set(calls.values()) == {1}
