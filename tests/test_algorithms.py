"""RateCal, dominance pruning, BFLR scheduling and the delivery-ratio bound."""

import hashlib
import itertools
import json
import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import near_linear_source, np_bound, random_scenario, with_bounding_a
from infocalc import algorithms, sources
from infocalc.algorithms import (
    AchievableRate,
    Infeasible,
    Schedule,
    bflr,
    bflr_table,
    calibrate_horizon,
    delivery_ratio,
    delivery_ratio_table,
    dominates,
    feasible_rates,
    ratecal,
    schedule_subset,
    subset_service,
)
from infocalc.bounding import ExpBound, ZeroBound, bf_invert
from infocalc.calculus import IssSpec, delay_bound, service_deficit
from infocalc.curves import Curve
from infocalc.errors import (
    InconsistentGroup,
    SubsetLimitExceeded,
    UnreachableRatio,
    ValidationError,
)
from infocalc.scenario import (
    PAPER_TABLE1_BOUNDINGS,
    ImpairmentEntry,
    Node,
    Path,
    Scenario,
    case_study_scenario,
    effective_path_service,
    parse_scenario,
    serialize_scenario,
)
from infocalc.sources import (
    SourceModel,
    SpatialModel,
    aggregate_information,
    aggregate_rate,
    calibrate_sigma2,
)

R = 8000.0
PINNED_RATIOS = FsPath(__file__).parent / "data" / "ratio_paired_six.json"
ANSWERS_GOLDEN = FsPath(__file__).parent / "data" / "answers_golden.json"


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


BOUNDS = st.one_of(
    st.just(ZeroBound()),
    st.builds(ExpBound, st.floats(0.0, 2.0), st.floats(0.01, 4.0), st.floats(0.0, 4.0)))


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

    @settings(max_examples=300, deadline=None)
    @given(g=BOUNDS, data=st.data())
    def test_shown_dominance_holds_between_knots(self, g, data):
        f = data.draw(BOUNDS)
        if not algorithms._bounding_le(f, g):
            return
        knots = [[0.0]] + [[float(b.x0)] for b in (f, g) if isinstance(b, ExpBound)]
        knots = np.unique(np.concatenate(knots))
        xs = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2,
                             np.linspace(0.0, knots[-1] + 10.0, 4001)])
        assert np.all(np_bound(f, xs) <= np_bound(g, xs) + 1e-12)

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

    def test_calibration_counts_unassigned_sources(self, case_study):
        horizon = calibrate_horizon(case_study, ("L1", "L2"), 0.015, 0.15, 0.3)
        rr = delivery_ratio(case_study, ("L1", "L2"), 0.015, 0.15, horizon)
        assert rr.unassigned_sources
        assert rr.ratio_lower_bound == pytest.approx(0.3, abs=1e-9)

    def test_unreachable_calibration_target(self, case_study):
        with pytest.raises(UnreachableRatio, match="L1"):
            calibrate_horizon(case_study, ("L1",), 0.015, 0.15, 0.9999)

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

    @pytest.mark.parametrize("subset,delay,quantile,ratio", [
        (("L4",), 0.005, 240.0, 0.4024),
        (("L1", "L2", "L3", "L4"), 0.020, 380.0, 0.9774),
    ])
    def test_no_claim_below_the_shift(self, case_study, subset, delay, quantile, ratio):
        # every bounding a of the case study at 0.001: a path's undelivered
        # information is at least its deterministic backlog after the delay,
        # although the composed bound reads below p from 0 on
        s = with_bounding_a(case_study, 0.001)
        rr = delivery_ratio(s, subset, delay, 0.01, 1.0)
        assert (rr.undelivered_quantile, rr.ratio_lower_bound) == pytest.approx((quantile, ratio),
                                                                               abs=1e-4)
        if subset == ("L4",):
            sent = [src for src in s.sources if src.id not in rr.unassigned_sources]
            arrival = aggregate_information(sent, s.spatial)
            service = effective_path_service(s, {"L4"}, "L4")
            assert rr.undelivered_quantile >= -service_deficit(arrival, service, delay)

    @pytest.mark.parametrize("subset", [("L1", "L1"), ("L1", "L2", "L1")])
    def test_repeated_path_rejected(self, case_study, subset):
        calls = [
            lambda: subset_service(case_study, subset),
            lambda: schedule_subset(case_study, subset, 0.035, 1e-3),
            lambda: delivery_ratio(case_study, subset, 0.015, 0.15, 0.06),
            lambda: delivery_ratio_table(case_study, [("L2",), subset], 0.015, 0.15, 0.06),
            lambda: calibrate_horizon(case_study, subset, 0.015, 0.15, 0.3),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="L1 repeated"):
                call()

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


def kpath(case_study, k) -> Scenario:
    """K paths L1..LK of 1-4 case-study nodes (L1 has 1, L2 2, ..., L5 1),
    paired L1~L2, L3~L4, ... by the case study's two impairment entries in
    turn, carrying the case study's nine sources."""
    node = case_study.paths[0].nodes[0]
    paths = tuple(Path(f"L{i}", tuple(replace(node, id=f"L{i}.{j}")
                                      for j in range((i - 1) % 4 + 1)))
                  for i in range(1, k + 1))
    impairments = []
    for i in range(1, k, 2):
        kind = case_study.impairments[(i // 2) % 2]
        idx = min(kind.a[1], len(paths[i - 1].nodes) - 1, len(paths[i].nodes) - 1)
        impairments.append(replace(kind, a=(f"L{i}", idx), b=(f"L{i + 1}", idx)))
    return Scenario(case_study.sources, case_study.spatial, paths, tuple(impairments))


def reference_prune(rates):
    """The all-pairs dominance scan."""
    return [r for r in rates
            if not any(o is not r and dominates(o.service, r.service) for o in rates)]


def reference_ratecal(s, prune, overrides):
    """``ratecal`` with every subset's service computed without a shared context."""
    ids = s.path_ids()
    rates = [AchievableRate(combo, subset_service(s, combo, overrides))
             for k in range(1, len(ids) + 1) for combo in itertools.combinations(ids, k)]
    return reference_prune(rates) if prune else rates


def reference_feasible_rates(s, prune, overrides):
    """The above-rate subsets of ``reference_ratecal`` by decreasing rate; in
    each equal-rate group, the smallest subset that no member left
    dominates goes next."""
    total = aggregate_information(list(s.sources), s.spatial).asymptotic_rate
    rates = [r for r in reference_ratecal(s, prune, overrides)
             if r.service.asymptotic_rate >= total]
    rates.sort(key=lambda r: (-float(r.service.asymptotic_rate), r.subset))
    ordered = []
    for _, group in itertools.groupby(rates, key=lambda r: float(r.service.asymptotic_rate)):
        left = list(group)
        above = {id(r): {id(o) for o in left if o is not r and dominates(o.service, r.service)}
                 for r in left}
        while left:
            free = {id(r) for r in left}
            nxt = next(r for r in left if not above[id(r)] & free)
            ordered.append(nxt)
            left.remove(nxt)
    return ordered


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

    @pytest.mark.parametrize("delay,p", [(0.015, 0.15), (0.035, 1e-3)])
    def test_ratio_table_unchanged(self, case, delay, p):
        s, overrides = case
        subsets = [tuple(c) for k in range(1, len(s.path_ids()) + 1)
                   for c in itertools.combinations(s.path_ids(), k)]
        table = delivery_ratio_table(s, subsets, delay, p, 0.06, overrides)
        assert table == [delivery_ratio(s, subset, delay, p, 0.06, overrides)
                         for subset in subsets]

    def test_rates_without_curves_on_a_shared_context(self, case_study, monkeypatch):
        # every above-rate kpath10 subset on one context: each source's
        # single curve is built once for its rate, and otherwise only inside
        # an arrival model, which is built once per fused source set
        s = kpath(case_study, 10)
        subsets = [r.subset for r in feasible_rates(s)]
        assert len(subsets) == 968
        rates, curves, arrivals = Counter(), Counter(), Counter()
        single, aggregate = sources.gaussian_arrival_curve, algorithms.aggregate_information

        def counted_rate(src):
            rates[src.id] += 1
            return single(src)

        def counted_curve(src):
            curves[src.id] += 1
            return single(src)

        def counted_arrival(srcs, spatial):
            arrivals[frozenset(src.id for src in srcs)] += 1
            return aggregate(srcs, spatial)

        monkeypatch.setattr(algorithms, "gaussian_arrival_curve", counted_rate)
        monkeypatch.setattr(sources, "gaussian_arrival_curve", counted_curve)
        monkeypatch.setattr(algorithms, "aggregate_information", counted_arrival)
        delivery_ratio_table(s, subsets, 0.015, 0.15, 1.0)
        assert rates == Counter(src.id for src in s.sources)
        assert set(arrivals.values()) == {1}
        groups = {src.id: src.group_id for src in s.sources}
        assert sum(curves.values()) == sum(len({groups[sid] for sid in key}) for key in arrivals)

    def test_merged_last_knee_changes_no_answer(self, case_study, monkeypatch):
        # with the near-linear source added, every fused set it joins has a
        # scalar rate that differs from its summed curve's final slope; rate
        # gates and redundancies read from the curves, as they were before
        # the scalar fold, give the same answers
        s = replace(case_study, sources=case_study.sources + (near_linear_source(),))
        everything = list(s.sources)
        assert aggregate_rate(everything, s.spatial) != \
            aggregate_information(everything, s.spatial).asymptotic_rate
        ids = s.path_ids()
        subsets = [c for k in range(1, len(ids) + 1) for c in itertools.combinations(ids, k)]

        def answers():
            out = []
            for delay, p in [(0.015, 0.15), (0.035, 1e-3)]:
                for subset in subsets:
                    out += [schedule_subset(s, subset, delay, p),
                            delivery_ratio(s, subset, delay, p, 0.06)]
                schedule = bflr(s, delay, p)
                out += [schedule, bflr_table(s, delay, p),
                        calibrate_horizon(s, ids, delay, p, 0.6)]
                if isinstance(schedule, Schedule):
                    out.append(delivery_ratio(s, schedule, delay, p, 0.06))
            return [repr(x) for x in out]

        def curve_redundancy(ctx, chosen_ids):
            chosen = [ctx.sources[sid] for sid in chosen_ids]
            if not chosen:
                return 0.0
            return float(sum(ctx.rate(src) for src in chosen)
                         - ctx.arrival(chosen).curve.final_slope)

        scalar = answers()
        monkeypatch.setattr(algorithms._Context, "fused_rate",
                            lambda ctx, fused: ctx.arrival(fused).asymptotic_rate)
        monkeypatch.setattr(algorithms._Context, "redundancy", curve_redundancy)
        assert scalar == answers()


# ---------------------------------------------------------------------------
# Pruning: the candidate filter changes no answer
# ---------------------------------------------------------------------------


def mixed_family_rates() -> list[AchievableRate]:
    """Every curve and bound family ``dominates`` handles: affine and
    two-segment curves with float and Fraction coefficients; Zero and Exp
    (with a = 0, with an offset x0, Fraction) bounds."""
    curves = [
        Curve.affine(R, -60.0),
        Curve.affine(Fraction(8000), Fraction(-60)),
        Curve.affine(2 * R, -60.0),
        Curve.affine(R, 0.0),
        Curve([(0, 2000.0, -10.0), (0.01, R, 10.0)]),
        Curve([(0, Fraction(4000), Fraction(-30)), (Fraction(1, 100), Fraction(16000), Fraction(10))]),
    ]
    bounds = [
        ZeroBound(), ExpBound(0.0, 2.0), ExpBound(1.0, 1.0), ExpBound(Fraction(1), Fraction(1)),
        ExpBound(Fraction(1, 2), Fraction(3)), ExpBound(1.0, 1.0, 2.0),
    ]
    return [AchievableRate((f"C{i}", f"B{j}"), IssSpec(b, c))
            for i, c in enumerate(curves) for j, b in enumerate(bounds)]


class TestPrune:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_families_match_pairwise_scan(self, seed):
        # the whole list, then small samples, in which a dominated rate often
        # has a single dominator, so one wrongly filtered candidate shows
        rng = random.Random(seed)
        rates = mixed_family_rates()
        rng.shuffle(rates)
        kept = algorithms._undominated(rates)
        assert kept == reference_prune(rates)
        assert 0 < len(kept) < len(rates)
        for _ in range(40):
            sample = rng.sample(rates, 8)
            assert algorithms._undominated(sample) == reference_prune(sample)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_shared_services_match_pairwise_scan(self, seed):
        # every service object sits under two subsets; some twins are
        # pruned together, others kept together
        rng = random.Random(seed)
        rates = mixed_family_rates()
        rates += [AchievableRate(r.subset + ("twin",), r.service) for r in rates]
        rng.shuffle(rates)
        kept = algorithms._undominated(rates)
        assert kept == reference_prune(rates)
        by_service = Counter(id(r.service) for r in kept)
        assert set(by_service.values()) == {2}
        assert 0 < len(by_service) < len(rates) // 2
        for _ in range(40):
            sample = rng.sample(rates, 8)
            assert algorithms._undominated(sample) == reference_prune(sample)

    @staticmethod
    def counted_dominates(monkeypatch) -> Counter:
        calls = Counter()
        original = algorithms.dominates

        def counted(a, b):
            calls["dominates"] += 1
            return original(a, b)

        monkeypatch.setattr(algorithms, "dominates", counted)
        return calls

    def test_far_fewer_dominance_tests_than_pairs(self, case_study, monkeypatch):
        s = paired_six_paths(case_study)
        calls = self.counted_dominates(monkeypatch)
        kept = ratecal(s, prune=True)
        # 58 calls measured for 63 subsets; the all-pairs scan makes 2,005
        assert calls["dominates"] <= 200
        assert kept == reference_prune(ratecal(s))

    def test_one_dominance_scan_per_service(self, case_study, monkeypatch):
        # 1,023 subsets share far fewer services: 191 calls measured, and
        # 1,254 when every subset ran its own scan
        s = kpath(case_study, 10)
        calls = self.counted_dominates(monkeypatch)
        ratecal(s, prune=True)
        assert calls["dominates"] <= 210


# ---------------------------------------------------------------------------
# Best-first subset search
# ---------------------------------------------------------------------------


def tie_scenario() -> Scenario:
    """P1 alone and P0+P1 both serve 12,000 bit/s: inside P0+P1 the
    impairment takes from P1 what P0 adds.  P1 alone has the higher curve
    and the smaller bound, so it dominates P0+P1, which comes first by
    subset id."""
    paths = (Path("P0", (Node("P0.n0", 1.0, 1.0, 6000.0, 0.01),
                         Node("P0.n1", 1.0, 2.0, 4000.0, 0.02))),
             Path("P1", (Node("P1.n0", 1.0, 2.0, 12000.0, 0.01),)))
    impairments = (ImpairmentEntry(("P0", 1), ("P1", 0), 3.0, 4.0, 0.25, None, 0.0075),)
    source = SourceModel("S0.0", calibrate_sigma2(1800.0, 0.1, 100.0), 100.0, 0.1, "g0")
    return Scenario((source,), SpatialModel({"g0": {2: 1.9, 3: 2.7}}), paths, impairments)


def built_cases(case_study, case_study_exact):
    """(name, scenario, overrides) of the hand-built search cases."""
    return [("case_study", case_study, None),
            ("paper_table1", case_study, PAPER_TABLE1_BOUNDINGS),
            ("exact", case_study_exact, None),
            ("exact_paper_table1", case_study_exact, PAPER_TABLE1_BOUNDINGS),
            ("paired_six", paired_six_paths(case_study), None),
            ("kpath8", kpath(case_study, 8), None),
            ("kpath10", kpath(case_study, 10), None),
            ("tie", tie_scenario(), None)]


def search_cases(case_study, case_study_exact):
    """(name, scenario, overrides) for the best-first search tests."""
    return built_cases(case_study, case_study_exact) + [
        (f"random{seed}", random_scenario(np.random.default_rng(seed)), None) for seed in range(30)]


class TestBestFirst:
    @pytest.fixture(scope="class")
    def cases(self, case_study, case_study_exact):
        return search_cases(case_study, case_study_exact)

    @pytest.fixture(scope="class")
    def references(self, cases):
        """(name, prune) -> ``reference_feasible_rates``, computed once."""
        return {(name, prune): reference_feasible_rates(s, prune, overrides)
                for name, s, overrides in cases for prune in (False, True)}

    def test_bound_is_admissible(self, cases):
        for name, s, overrides in cases:
            standalone = {path.id: path.standalone_rate for path in s.paths}
            for rate in ratecal(s, bounding_overrides=overrides):
                bound = algorithms._rate_bound([standalone[pid] for pid in rate.subset])
                assert bound >= float(rate.service.asymptotic_rate), (name, rate.subset)

    @pytest.mark.parametrize("prune", [False, True])
    def test_stream_equals_full_enumeration(self, cases, references, prune):
        for name, s, overrides in cases:
            assert feasible_rates(s, prune, overrides) == references[name, prune], name

    @pytest.mark.parametrize("prune", [False, True])
    def test_answers_equal_full_enumeration(self, cases, references, prune):
        for name, s, overrides in cases:
            ctx = algorithms._Context(s, overrides)
            reference = [(r.subset, schedule_subset(s, r.subset, 0.035, 1e-3, ctx=ctx))
                         for r in references[name, prune]]
            assert repr(bflr_table(s, 0.035, 1e-3, prune, overrides)) == repr(reference), name
            first = next((result for _, result in reference if isinstance(result, Schedule)),
                         Infeasible())
            assert repr(bflr(s, 0.035, 1e-3, prune, overrides)) == repr(first), name

    def test_feasible_answer_builds_few_subsets(self, case_study, monkeypatch):
        s = kpath(case_study, 10)
        calls = 0
        original = algorithms.subset_service

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(algorithms, "subset_service", counted)
        result = bflr(s, 0.035, 1e-3)
        assert result.subset == tuple(s.path_ids())
        # 56 measured; building every subset first made 1,023
        assert calls <= 64

    def test_rate_tie_tries_the_dominator_first(self):
        s = tie_scenario()
        services = {r.subset: r.service for r in ratecal(s)}
        alone, both = services[("P1",)], services[("P0", "P1")]
        assert alone.asymptotic_rate == both.asymptotic_rate
        assert dominates(alone, both)
        # ordered by subset id, P0+P1 would be tried first, and it is feasible
        assert isinstance(schedule_subset(s, ("P0", "P1"), 0.035, 1e-3), Schedule)
        assert [r.subset for r in feasible_rates(s)][:2] == [("P1",), ("P0", "P1")]
        assert bflr(s, 0.035, 1e-3, prune=False) == bflr(s, 0.035, 1e-3, prune=True)
        assert bflr(s, 0.035, 1e-3).subset == ("P1",)

    def test_subset_guard_spares_an_early_answer(self, case_study):
        paths = tuple(Path(f"P{k}", (Node(f"n{k}", 1.0, 1.0, R, 0.0),)) for k in range(26))
        s = Scenario(case_study.sources, case_study.spatial, paths, ())
        result = bflr(s, 0.05, 1e-3)
        assert isinstance(result, Schedule)
        assert result.subset == tuple(s.path_ids())
        for listing in (lambda: ratecal(s), lambda: feasible_rates(s),
                        lambda: bflr_table(s, 0.05, 1e-3)):
            with pytest.raises(SubsetLimitExceeded):
                listing()


# ---------------------------------------------------------------------------
# A hopeless bflr is answered before the subset search
# ---------------------------------------------------------------------------

PERFBENCH = FsPath(__file__).resolve().parents[1] / "perfbench"


def perfbench_workloads():
    """``perfbench/workloads.py``, imported for its scenario makers."""
    if str(PERFBENCH) not in sys.path:
        sys.path.append(str(PERFBENCH))
    import workloads

    return workloads


def delay_floor(s: Scenario, p: float) -> float:
    """The smallest delay quantile at violation ``p`` that any path in any
    subset gives any source set: ``(x - offset) / rate`` of the path's
    affine service at the tail level x, the quantile of a vanishing burst."""
    floor = float("inf")
    for pid in s.path_ids():
        mates = sorted(s.partners(pid))
        for k in range(len(mates) + 1):
            for some in itertools.combinations(mates, k):
                spec = effective_path_service(s, {pid, *some}, pid)
                (segment,) = spec.curve.segments
                x = bf_invert(spec.bounding, p)
                floor = min(floor, float((x - segment.value) / segment.slope))
    return floor


def hopeless(s: Scenario, delay: float, p: float) -> bool:
    return algorithms._hopeless(algorithms._Context(s, None), p, delay)


def impaired_only_scenario() -> Scenario:
    """P0 is one 8 kbit/s, 2 ms node; its entry with P1 starts at 7.5 ms, so
    inside P0+P1 the unclipped impairment leaves 6,000 t - 1 bits, a latency
    of 1/6 ms.  Node and entry bounds are small, so at p = 0.01 the source
    meets a 1 ms delay on impaired P0 and on no standalone path."""
    paths = (Path("P0", (Node("P0.n0", 0.001, 1.0, R, 0.002),)),
             Path("P1", (Node("P1.n0", 0.001, 1.0, R, 0.02),)))
    impairments = (ImpairmentEntry(("P0", 0), ("P1", 0), 0.001, 1.0, 0.25, None, 0.0075),)
    source = SourceModel("S0.0", calibrate_sigma2(1000.0, 0.1, 100.0), 100.0, 0.1, "g0")
    return Scenario((source,), SpatialModel({}), paths, impairments)


class TestHopeless:
    @staticmethod
    def random_family():
        """(scenario, p) of 30 ``random_scenario`` draws at p = 0.01 and 0.001,
        and of three ``random_doc`` batches, seed 903 round 4 among them, at
        the benchmark's p = 0.01."""
        wl = perfbench_workloads()
        rng = np.random.default_rng(2027)
        for i in range(30):
            yield random_scenario(rng), (0.01, 0.001)[i % 2]
        for seed, rnd in ((1, 0), (903, 4), (7006, 29)):
            rng = np.random.default_rng([seed, 2, rnd])
            for k in range(wl.RandomFamily.batch):
                doc = wl.random_doc(rng, *wl.RandomFamily.shape(k))
                s = parse_scenario(json.dumps(doc))
                assert delay_floor(s, 0.01) == pytest.approx(
                    wl.checks.Model(doc).delay_floor(0.01), rel=1e-9)
                yield s, 0.01

    def test_certificate_is_sound(self):
        fired = feasible = 0
        for s, p in self.random_family():
            floor = delay_floor(s, p)
            for scale in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0):
                delay = scale * floor
                table = [result for _, result in bflr_table(s, delay, p)]
                any_schedule = any(isinstance(result, Schedule) for result in table)
                if hopeless(s, delay, p):
                    fired += 1
                    # every subset's packing fails, so no row is a schedule
                    assert not any_schedule, (serialize_scenario(s), delay, p)
                feasible += any_schedule
                first = next((result for result in table if isinstance(result, Schedule)),
                             Infeasible())
                assert repr(bflr(s, delay, p)) == repr(first)
        assert fired and feasible

    def test_impaired_service_admits_the_head(self):
        # a certificate that tried the standalone services only would fire
        s = impaired_only_scenario()
        standalone = [effective_path_service(s, {pid}, pid) for pid in s.path_ids()]
        arrival = aggregate_information(list(s.sources), s.spatial)
        assert all(delay_bound(arrival, spec, 0.01).derived_quantile > 0.001
                   for spec in standalone)
        assert not hopeless(s, 0.001, 0.01)
        result = bflr(s, 0.001, 0.01)
        assert isinstance(result, Schedule)
        assert result.subset == ("P0", "P1") and result.assignment == {"S0.0": "P0"}

    def test_sixteen_paths_answered_before_any_subset(self, monkeypatch):
        wl = perfbench_workloads()
        s = parse_scenario(json.dumps(wl.kpath_doc(16)))
        calls = 0
        original = algorithms.subset_service

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(algorithms, "subset_service", counted)
        assert bflr(s, 0.5 * delay_floor(s, 1e-3), 1e-3) == Infeasible()
        assert calls == 0

    def test_subset_guard_spares_a_hopeless_answer(self, case_study, monkeypatch):
        s = paired_six_paths(case_study)
        monkeypatch.setattr(algorithms, "SUBSET_LIMIT", 4)
        assert bflr(s, 0.001, 1e-3) == Infeasible()
        # without the certificate the search gives up before it is done
        monkeypatch.setattr(algorithms, "_hopeless", lambda ctx, p, delay: False)
        with pytest.raises(SubsetLimitExceeded):
            bflr(s, 0.001, 1e-3)

    def test_refused_sources_raise_before_the_certificate(self, case_study):
        # a group that mixes parameters has no fused model, at any delay
        first = replace(case_study.sources[0], sigma2=2 * case_study.sources[0].sigma2)
        s = replace(case_study, sources=(first,) + case_study.sources[1:])
        with pytest.raises(InconsistentGroup):
            bflr(s, 0.001, 1e-3)

    @pytest.mark.parametrize("delay,p", [(0.035, 1e-3), (0.045, 1e-4)])
    def test_feasible_answer_checks_no_more(self, case_study, monkeypatch, delay, p):
        # the certificate's single-source checks are the packing's first ones
        calls = 0
        original = algorithms._path_check

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(algorithms, "_path_check", counted)
        for s in (case_study, kpath(case_study, 10)):
            calls = 0
            result = bflr(s, delay, p)
            assert isinstance(result, Schedule)
            with_certificate = calls
            with monkeypatch.context() as off:
                off.setattr(algorithms, "_hopeless", lambda ctx, p, delay: False)
                calls = 0
                assert bflr(s, delay, p) == result
            assert with_certificate == calls


# ---------------------------------------------------------------------------
# Equal path services share compositions, delay checks and packing steps
# ---------------------------------------------------------------------------


def unshare(monkeypatch):
    """Turn the context's sharing off: one service id per (path, partners)
    key, ``parallel`` per subset in subset order, every packing step
    computed."""
    ctx_class = algorithms._Context
    monkeypatch.setattr(ctx_class, "_intern",
                        lambda ctx, spec: ctx.specs.append(spec) or len(ctx.specs) - 1)
    monkeypatch.setattr(ctx_class, "parallel",
                        lambda ctx, sids: algorithms.parallel([ctx.specs[sid] for sid in sids]))
    monkeypatch.setattr(ctx_class, "step", ctx_class._step)


def sharing_answers(s, overrides, cells):
    """repr of every listing and answer: ``ratecal``, ``feasible_rates``,
    ``bflr`` and ``bflr_table`` with ``prune`` both ways at each cell, and
    ``delivery_ratio_table`` over the above-rate subsets at each cell."""
    out = []
    for prune in (False, True):
        out += [ratecal(s, prune, overrides), feasible_rates(s, prune, overrides)]
        for delay, p in cells:
            out += [bflr(s, delay, p, prune, overrides), bflr_table(s, delay, p, prune, overrides)]
    subsets = [r.subset for r in feasible_rates(s, False, overrides)]
    for delay, p in cells:
        out.append(delivery_ratio_table(s, subsets, delay, p, 0.06, overrides))
    return repr(out)


class TestSharedServices:
    @pytest.fixture(scope="class")
    def cases(self, case_study, case_study_exact):
        return search_cases(case_study, case_study_exact)

    def test_answers_equal_unshared(self, cases):
        # a feasible and an infeasible cell for each scenario
        cells = {name: [(0.035, 1e-3), (0.0021 if name.startswith("kpath") else 0.005, 1e-3)]
                 for name, _, _ in cases}
        shared = {name: sharing_answers(s, overrides, cells[name]) for name, s, overrides in cases}
        with pytest.MonkeyPatch.context() as monkeypatch:
            unshare(monkeypatch)
            for name, s, overrides in cases:
                assert shared[name] == sharing_answers(s, overrides, cells[name]), name

    def test_one_context_across_cells_and_gates(self, case_study):
        # library callers may pass one context to several cells and to both
        # gates; a memo key missing the gate or the cell would show here
        s = paired_six_paths(case_study)
        ids = s.path_ids()
        subsets = [c for k in range(1, len(ids) + 1) for c in itertools.combinations(ids, k)]
        ctx = algorithms._Context(s, None)

        def answers(ctx):
            out = []
            for delay, p in [(0.035, 1e-3), (0.005, 1e-3), (0.035, 1e-4), (0.015, 0.15)]:
                for subset in subsets:
                    out += [schedule_subset(s, subset, delay, p, ctx=ctx),
                            delivery_ratio(s, subset, delay, p, 0.06, ctx=ctx)]
            return repr(out)

        assert answers(ctx) == answers(None)

    def test_equal_values_of_another_type_or_sign_stay_apart(self, case_study):
        ctx = algorithms._Context(case_study, None)
        services = [IssSpec(ExpBound(1.0, 1.0), Curve.affine(R, 0.0)),
                    IssSpec(ExpBound(1.0, 1.0), Curve.affine(R, -0.0)),
                    IssSpec(ExpBound(1.0, 1.0), Curve.affine(Fraction(8000), Fraction(0))),
                    IssSpec(ExpBound(Fraction(1), 1.0), Curve.affine(R, 0.0))]
        assert len(set(services)) == 1
        assert [ctx._intern(spec) for spec in services] == [0, 1, 2, 3]
        assert ctx._intern(IssSpec(ExpBound(1.0, 1.0), Curve.affine(R, 0.0))) == 0

    def test_one_parallel_per_multiset(self, case_study, monkeypatch):
        s = kpath(case_study, 10)
        calls = 0
        original = algorithms.parallel

        def counted(servers):
            nonlocal calls
            calls += 1
            return original(servers)

        monkeypatch.setattr(algorithms, "parallel", counted)
        table = bflr_table(s, 0.035, 1e-3)
        # the 968 above-rate subsets hold 183 multisets of 8 distinct path
        # services (20 (path, partners) keys); one composition per subset
        # made 968 calls
        assert len(table) == 968
        assert calls <= 183

    def test_equal_services_share_delay_checks(self, case_study, monkeypatch):
        # P0 and P1 are equal single nodes, each fast enough for every
        # source: one service id, so a fused set's delay bound is computed
        # once, not once per path
        paths = tuple(Path(f"P{k}", (Node(f"P{k}.n0", 1.0, 1.0, 4 * R, 0.0075),))
                      for k in range(2))
        s = Scenario(case_study.sources, case_study.spatial, paths, ())
        calls = Counter()
        original = algorithms.delay_bound

        def counted(arrival, service, p):
            calls[arrival, p] += 1
            return original(arrival, service, p)

        monkeypatch.setattr(algorithms, "delay_bound", counted)
        for delay, p in [(0.035, 1e-3), (0.005, 1e-3)]:
            calls.clear()
            table = bflr_table(s, delay, p)
            assert [subset for subset, _ in table] == [("P0", "P1"), ("P0",), ("P1",)]
            assert calls and set(calls.values()) == {1}


# ---------------------------------------------------------------------------
# The closed family: every stage builds ExpBound or ZeroBound only
# ---------------------------------------------------------------------------


def tail_bounds(s: Scenario) -> list:
    """The tail bounds of every ``ratecal`` service and of every delay
    certificate of ``bflr`` and ``bflr_table``, at a tight and a loose delay."""
    bounds = [rate.service.bounding for rate in ratecal(s)]
    for delay in (0.05, 0.2):
        results = [bflr(s, delay, 1e-3)] + [result for _, result in bflr_table(s, delay, 1e-3)]
        bounds += [report.bound_function for result in results if isinstance(result, Schedule)
                   for report in result.certificates.values()]
    return bounds


class TestClosedFamily:
    # the operators refuse any other bound, so a stage that built one would
    # raise; this pins that no stage does
    def test_case_study(self, case_study):
        bounds = tail_bounds(case_study)
        assert len(bounds) > 15
        assert all(isinstance(bound, (ExpBound, ZeroBound)) for bound in bounds)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_scenarios(self, seed):
        bounds = tail_bounds(random_scenario(np.random.default_rng(seed)))
        assert all(isinstance(bound, (ExpBound, ZeroBound)) for bound in bounds)


# ---------------------------------------------------------------------------
# Pinned answers: one digest per (scenario, query)
# ---------------------------------------------------------------------------

GOLDEN_CELLS = ((0.035, 1e-3), (0.015, 0.15))


def golden_cases(texts):
    """``search_cases`` with the random scenarios read from their recorded
    ``serialize_scenario`` texts, so that no RNG change can move them."""
    return built_cases(case_study_scenario(), case_study_scenario(exact=True)) + [
        (name, parse_scenario(text), None) for name, text in texts.items()]


def answer_digests(s, overrides) -> dict[str, str]:
    """sha256 of the ``repr`` of each query's answer: ``ratecal`` and
    ``feasible_rates`` with ``prune`` both ways, ``bflr`` and ``bflr_table``
    with ``prune`` both ways at each cell, and ``delivery_ratio_table`` over
    the above-rate subsets at each cell with horizon 0.06."""
    answers = {}
    for prune in (False, True):
        answers[f"ratecal prune={prune}"] = ratecal(s, prune, overrides)
        answers[f"feasible_rates prune={prune}"] = feasible_rates(s, prune, overrides)
        for delay, p in GOLDEN_CELLS:
            answers[f"bflr prune={prune} D={delay} p={p}"] = bflr(s, delay, p, prune, overrides)
            answers[f"bflr_table prune={prune} D={delay} p={p}"] = bflr_table(
                s, delay, p, prune, overrides)
    subsets = [r.subset for r in answers["feasible_rates prune=False"]]
    for delay, p in GOLDEN_CELLS:
        answers[f"delivery_ratio_table D={delay} p={p}"] = delivery_ratio_table(
            s, subsets, delay, p, 0.06, overrides)
    return {key: hashlib.sha256(repr(value).encode()).hexdigest()
            for key, value in answers.items()}


def test_answers_equal_recorded():
    golden = json.loads(ANSWERS_GOLDEN.read_text())
    cases = golden_cases(golden["scenarios"])
    got = {name: answer_digests(s, overrides) for name, s, overrides in cases}
    assert got.keys() == golden["answers"].keys()
    for name, digests in got.items():
        assert digests == golden["answers"][name], name


if __name__ == "__main__":
    # rewrite the golden file: PYTHONPATH=src:tests python tests/test_algorithms.py
    texts = {f"random{seed}": serialize_scenario(random_scenario(np.random.default_rng(seed)))
             for seed in range(30)}
    answers = {name: answer_digests(s, overrides) for name, s, overrides in golden_cases(texts)}
    ANSWERS_GOLDEN.write_text(json.dumps({"scenarios": texts, "answers": answers},
                                         indent=1, sort_keys=True) + "\n")
