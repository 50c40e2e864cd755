"""Monte-Carlo oracle: reproducibility, conservation, bound validation."""

import json
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario
from infocalc.algorithms import Schedule, bflr
from infocalc.bounding import BoundingFunction, ExpBound, bf_convolve
from infocalc.calculus import IsaSpec, IssSpec
from infocalc.curves import Curve, horizontal_deviation
from infocalc.errors import ConfigError
from infocalc.scenario import Node, Scenario, case_study_scenario, effective_path_service
from infocalc.simulate import (
    TraceConfig,
    _cumulative,
    _delay_bound_curve,
    _serve_head,
    _serve_path,
    impairment_excess_samples,
    impairment_selfcheck,
    simulate,
    splitmix64_stream,
    wilson_upper,
)
from infocalc.sources import aggregate_information


@pytest.fixture(scope="module")
def two_path_schedule():
    assign = {f"A1.{i}": "L1" for i in (1, 2, 3)} | {f"A2.{i}": "L2" for i in (1, 2, 3)}
    return Schedule(assign, ("L1", "L2"), {})


def deterministic_scenario():
    s = case_study_scenario()
    return Scenario(s.sources, s.spatial, s.paths, (), source_rate_specs=s.source_rate_specs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TraceConfig(runs=0, seed=1)
        with pytest.raises(ConfigError):
            TraceConfig(runs=1, seed=1, time_step=0.0)
        with pytest.raises(ConfigError):
            TraceConfig(runs=1, seed=1, time_step=1.0, horizon=0.5)

    @pytest.mark.parametrize("bad", [
        {"time_step": float("nan")}, {"time_step": float("inf")},
        {"horizon": float("nan")}, {"horizon": float("inf")}, {"time_step": "0.001"},
        {"runs": 2.5}, {"runs": True}, {"runs": 10.0}, {"runs": "10"}, {"seed": 1.5},
    ])
    def test_typed_errors(self, bad):
        with pytest.raises(ConfigError):
            TraceConfig(**({"runs": 10, "seed": 1} | bad))

    def test_splitmix_is_deterministic(self):
        a = splitmix64_stream(42, 5)
        b = splitmix64_stream(42, 5)
        assert a == b
        assert len(set(a)) == 5
        assert splitmix64_stream(43, 1) != splitmix64_stream(42, 1)


class TestWilson:
    def test_zero_and_full(self):
        assert wilson_upper(np.array([0]), 100)[0] == pytest.approx(0.0370, abs=1e-3)
        assert wilson_upper(np.array([100]), 100)[0] == 1.0

    def test_monotone_in_k(self):
        ks = np.arange(0, 50)
        ups = wilson_upper(ks, 100)
        assert np.all(np.diff(ups) > 0)


class TestReproducibility:
    def test_bit_identical_reports(self, case_study, two_path_schedule):
        cfg = TraceConfig(runs=300, seed=7, time_step=1e-3, horizon=0.5)
        a = simulate(case_study, two_path_schedule, cfg, within_delay=0.015)
        b = simulate(case_study, two_path_schedule, cfg, within_delay=0.015)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.quantity == rb.quantity and ra.path_id == rb.path_id
            assert np.array_equal(ra.thresholds, rb.thresholds)
            assert np.array_equal(ra.empirical, rb.empirical)
            assert np.array_equal(ra.bounds, rb.bounds)
            assert ra.passed == rb.passed

    def test_chunk_size_changes_nothing(self, case_study, two_path_schedule, monkeypatch):
        cfg = TraceConfig(runs=50, seed=7, time_step=1e-3, horizon=0.2)
        whole = simulate(case_study, two_path_schedule, cfg, within_delay=0.015)
        monkeypatch.setattr(sys.modules["infocalc.simulate"], "CHUNK_RUNS", 7)
        chunked = simulate(case_study, two_path_schedule, cfg, within_delay=0.015)
        assert [r.to_json() for r in chunked] == [r.to_json() for r in whole]

    def test_seed_changes_samples(self, case_study, two_path_schedule):
        a = simulate(case_study, two_path_schedule,
                     TraceConfig(runs=300, seed=7, time_step=1e-3, horizon=0.5))
        b = simulate(case_study, two_path_schedule,
                     TraceConfig(runs=300, seed=8, time_step=1e-3, horizon=0.5))
        assert any(not np.array_equal(ra.empirical, rb.empirical) for ra, rb in zip(a, b))


GOLDEN = Path(__file__).parent / "data" / "simulate_golden.json"

#: run counts below, across and off the simulator's chunk boundaries
GOLDEN_CONFIGS = (
    TraceConfig(runs=1, seed=42),
    TraceConfig(runs=1500, seed=42, time_step=1e-3, horizon=0.8),
    TraceConfig(runs=2049, seed=7, time_step=2e-3, horizon=0.5),
)


def golden_schedules(s):
    """(name, schedule, within_delay) of the pinned seeded runs on the case
    study ``s``: two ``bflr`` schedules, four paths and zero sources."""
    for delay, p in ((0.035, 1e-3), (0.045, 1e-4)):
        yield f"bflr D={delay} p={p}", bflr(s, delay, p), delay
    four = Schedule({f"A1.{i}": "L1" for i in (1, 2, 3)} | {f"A2.{i}": "L2" for i in (1, 2, 3)}
                    | {"A3.1": "L3", "A3.2": "L3", "A3.3": "L4"}, ("L1", "L2", "L3", "L4"), {})
    yield "four paths", four, 0.005
    yield "zero sources", Schedule({}, ("L3",), {}), None


def golden_cases(s):
    """(key, reports) of every pinned seeded run on the case study ``s``."""
    schedules = list(golden_schedules(s))
    for name, sched, delay in schedules[:2]:
        for cfg in GOLDEN_CONFIGS:
            yield f"{name} runs={cfg.runs}", simulate(s, sched, cfg, within_delay=delay)
    cfg = GOLDEN_CONFIGS[2]
    for name, sched, delay in schedules[2:]:
        yield name, simulate(s, sched, cfg, within_delay=delay)
    for i, entry in enumerate(s.impairments):
        node = s.path(entry.a[0]).nodes[entry.a[1]]
        yield f"selfcheck entry={i}", [impairment_selfcheck(entry, node, cfg)]


def pinned(report) -> dict:
    doc = report.to_json()
    return {k: doc[k] for k in ("quantity", "path", "passed", "points")}


class TestGolden:
    def test_reports_equal_recorded(self, case_study):
        # recorded from the row-major simulator that served all runs at once
        golden = json.loads(GOLDEN.read_text())
        got = {key: [pinned(r) for r in reports] for key, reports in golden_cases(case_study)}
        assert got.keys() == golden.keys()
        for key, reports in got.items():
            assert len(reports) == len(golden[key]), key
            for rep, want in zip(reports, golden[key]):
                assert rep == want, (key, rep["quantity"], rep["path"])


def quantile(arrival, service, x):
    """The delay quantile at bound level x, by the horizontal-deviation operator."""
    return horizontal_deviation(arrival.curve.shift_up(x), service.curve.floor_at(x))


class Recording(BoundingFunction):
    """A tail bound that records the levels it is read at."""

    def __init__(self, inner):
        self.inner, self.levels = inner, []

    def value(self, x):
        self.levels.append(x)
        return self.inner.value(x)


def reference_delay_bound_curve(arrival, service, thresholds, slack):
    """Analytic Prob{D > y} bound per threshold y by one bisection per
    threshold, every probe evaluated afresh."""
    fg = bf_convolve(arrival.bounding, service.bounding)
    if arrival.curve.final_slope > service.curve.final_slope:
        return np.full_like(thresholds, max(1.0, float(fg.value(0.0))))
    q0 = quantile(arrival, service, 0.0)
    out = np.empty_like(thresholds)
    for i, y in enumerate(thresholds):
        y_eff = y - slack
        if y_eff < q0:
            out[i] = max(1.0, float(fg.value(0.0)))
            continue
        lo, hi = 0.0, 1.0
        while quantile(arrival, service, hi) <= y_eff:
            hi *= 2
            if hi > 1e9:
                break
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if quantile(arrival, service, mid) <= y_eff:
                lo = mid
            else:
                hi = mid
        out[i] = float(fg.value(lo))
    return out


def schedule_flows(s, schedule):
    """(arrival, service) of every path of ``schedule``, as ``simulate`` builds them."""
    active = set(schedule.subset)
    for pid in schedule.subset:
        sources = [src for src in s.sources if schedule.assignment.get(src.id) == pid]
        yield aggregate_information(sources, s.spatial), effective_path_service(s, active, pid)


def random_flows(seed):
    """Flows of a random scenario with every path active: its source groups
    spread over the paths, then all sources on the first path."""
    s = random_scenario(np.random.default_rng(seed))
    ids = s.path_ids()
    groups = sorted({src.group_id for src in s.sources})
    spread = {src.id: ids[groups.index(src.group_id) % len(ids)] for src in s.sources}
    crowded = {src.id: ids[0] for src in s.sources}
    for assignment in (spread, crowded):
        yield from schedule_flows(s, Schedule(assignment, tuple(ids), {}))


class TestBoundCurve:
    SLACK = 2e-3

    @staticmethod
    def thresholds(arrival, service):
        """20 thresholds from 0, below every zero-slack quantile, to well above it."""
        if arrival.curve.final_slope > service.curve.final_slope:
            return np.linspace(0.0, 0.1, 20)
        q0 = horizontal_deviation(arrival.curve, service.curve.floor_at(0.0))
        return np.linspace(0.0, 3 * q0 + 0.05, 20)

    def flows(self, case_study):
        for _, sched, _ in golden_schedules(case_study):
            yield from schedule_flows(case_study, sched)
        for seed in range(10):
            yield from random_flows(seed)

    @staticmethod
    def edge_flows(case_study):
        """A zero arrival, services positive (c > 0) and zero (c = 0) at
        t = 0, and an overloaded path."""
        spatial = case_study.spatial
        one = aggregate_information(case_study.sources[:1], spatial)
        three = aggregate_information(case_study.sources[:3], spatial)
        bound = ExpBound(1.5, 20.0)
        positive = IssSpec(bound, Curve([(0, 2666.6, 24.0)]))
        yield aggregate_information([], spatial), positive
        yield one, positive
        yield one, IssSpec(bound, Curve.affine(8000.0, 0.0))
        yield three, positive

    def curves(self, case_study):
        """(arrival, service, thresholds, levels, got) per flow: ``levels``
        holds the x at which the returned bound read ``fg``."""
        flows = [*self.flows(case_study), *self.edge_flows(case_study)]
        for arrival, service in flows:
            thr = self.thresholds(arrival, service)
            fg = Recording(bf_convolve(arrival.bounding, service.bounding))
            vacuous = max(1.0, float(fg.inner.value(0.0)))
            got = _delay_bound_curve(arrival, service, fg, vacuous, thr, self.SLACK)
            yield arrival, service, thr, fg.levels, got

    def test_close_to_per_threshold_bisection(self, case_study):
        overloaded = []
        for arrival, service, thr, _, got in self.curves(case_study):
            want = reference_delay_bound_curve(arrival, service, thr, self.SLACK)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            overloaded.append(arrival.curve.final_slope > service.curve.final_slope)
        assert 0 < sum(overloaded) < len(overloaded)

    def test_every_level_is_sound(self, case_study):
        # each non-vacuous bound is fg(x) at an x whose real quantile is within y - slack
        checked = 0
        for arrival, service, thr, levels, got in self.curves(case_study):
            if arrival.curve.final_slope > service.curve.final_slope:
                assert levels == []
                continue
            y_eff = thr - self.SLACK
            claims = y_eff >= quantile(arrival, service, 0.0)
            assert len(levels) == claims.sum()
            fg = bf_convolve(arrival.bounding, service.bounding)
            for x, y, bound in zip(levels, y_eff[claims], got[claims]):
                assert bound == float(fg.value(x))
                assert quantile(arrival, service, x) <= y
            checked += len(levels)
        assert checked > 500

    def test_refuses_a_multi_segment_service(self, case_study):
        arrival = aggregate_information(case_study.sources[:1], case_study.spatial)
        service = IssSpec(ExpBound(1.0, 10.0), Curve([(0, 4000.0, -40.0), (0.01, 8000.0, 0.0)]))
        fg = bf_convolve(arrival.bounding, service.bounding)
        with pytest.raises(TypeError):
            _delay_bound_curve(arrival, service, fg, 1.0, np.linspace(0, 0.1, 5), self.SLACK)

    @settings(max_examples=200, deadline=None)
    @given(rate=st.floats(1e3, 1e5), offset=st.floats(-500.0, 500.0),
           burst=st.one_of(st.just(0.0), st.floats(1.0, 800.0)),
           slopes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           knees=st.lists(st.floats(1e-4, 0.05), min_size=2, max_size=2),
           x=st.floats(0.0, 5e3), y=st.floats(0.0, 0.5))
    def test_quantile_closed_form(self, rate, offset, burst, slopes, knees, x, y):
        # an affine service and a concave arrival (decreasing slopes, final
        # slope at most the rate): q(x) = max(0, K + x/R) with
        # K = max over the arrival's segment starts s of (alpha(s) - c)/R - s
        slopes = sorted((rate * f for f in slopes), reverse=True)
        segs, t, v = [(0.0, slopes[0], burst)], 0.0, burst
        for slope, width in zip(slopes[1:], knees):
            v, t = v + segs[-1][1] * width, t + width
            segs.append((t, slope, v))
        arrival = IsaSpec(ExpBound(1.0, 5.0), Curve(segs))
        service = IssSpec(ExpBound(2.0, 7.0), Curve.affine(rate, offset))
        live = [seg for seg in arrival.curve.segments if seg.value > 0 or seg.slope > 0]
        if live:
            k = max((seg.value - offset) / rate - seg.start for seg in live)
            want = max(0.0, k + x / rate)
        else:
            want = 0.0
        assert quantile(arrival, service, x) == pytest.approx(want, rel=1e-9, abs=1e-12)
        # the returned level is sound and, up to rounding, the largest such level
        fg = Recording(bf_convolve(arrival.bounding, service.bounding))
        thr = np.array([y])
        _delay_bound_curve(arrival, service, fg, 1.0, thr, 0.0)
        if fg.levels and live:
            level = fg.levels[0]
            assert quantile(arrival, service, level) <= y
            assert quantile(arrival, service, level * (1 + 1e-9) + 1e-9) > y

    def test_no_probe_evaluated_twice(self, case_study, monkeypatch):
        sim = sys.modules["infocalc.simulate"]
        calls, current = [], None  # the probes of each bound-curve call
        original_deviation, original_curve = sim.horizontal_deviation, sim._delay_bound_curve

        def deviation(alpha, beta):
            if current is not None:
                current.append((repr(alpha.segments), repr(beta.segments)))
            return original_deviation(alpha, beta)

        def curve(*args, **kwargs):
            nonlocal current
            current = []
            calls.append(current)
            try:
                return original_curve(*args, **kwargs)
            finally:
                current = None

        monkeypatch.setattr(sim, "horizontal_deviation", deviation)
        monkeypatch.setattr(sim, "_delay_bound_curve", curve)
        sched = bflr(case_study, 0.035, 1e-3)
        simulate(case_study, sched, TraceConfig(runs=50, seed=1, horizon=0.4), within_delay=0.035)
        assert len(calls) == len(sched.subset)
        for probes in calls:
            assert len(probes) == len(set(probes))

    def test_deviations_of_one_run(self, case_study, monkeypatch):
        # 142 measured; 1,260 with a memoized bisection per report, 2,067
        # when each threshold bisected on its own
        sim = sys.modules["infocalc.simulate"]
        calls = Counter()
        original = sim.horizontal_deviation

        def deviation(alpha, beta):
            calls["deviation"] += 1
            return original(alpha, beta)

        sched = bflr(case_study, 0.035, 1e-3)
        monkeypatch.setattr(sim, "horizontal_deviation", deviation)
        simulate(case_study, sched, GOLDEN_CONFIGS[1], within_delay=0.035)
        assert calls["deviation"] <= 150


class TestBounds:
    def test_deterministic_scenario_hard_bound(self):
        s = deterministic_scenario()
        sched = Schedule({f"A1.{i}": "L1" for i in (1, 2, 3)}, ("L1",), {})
        reports = simulate(s, sched, TraceConfig(runs=50, seed=3, time_step=1e-3, horizon=0.5))
        for rep in reports:
            assert rep.passed, rep.quantity

    def test_stochastic_paths_within_bounds(self, case_study, two_path_schedule):
        cfg = TraceConfig(runs=1500, seed=42, time_step=1e-3, horizon=0.8)
        reports = simulate(case_study, two_path_schedule, cfg, within_delay=0.015)
        assert {r.quantity for r in reports} == {"delay", "backlog", "backlog_within_delay"}
        for rep in reports:
            assert rep.passed, (rep.quantity, rep.path_id)

    def test_zero_source_schedule_all_zero_backlog(self, case_study):
        sched = Schedule({}, ("L3",), {})
        reports = simulate(case_study, sched, TraceConfig(runs=20, seed=1, time_step=1e-3, horizon=0.2))
        backlog = next(r for r in reports if r.quantity == "backlog")
        assert np.all(backlog.empirical == 0.0)

    def test_cumulative_arrival_equals_curve_values(self, case_study):
        from infocalc.simulate import _cumulative

        ts = np.arange(1001) * 1e-3
        for arrival, _ in TestBoundCurve().flows(case_study):
            want = np.array([float(arrival.curve.value(t)) for t in ts])
            assert np.array_equal(_cumulative(arrival.curve, ts), want)

    def test_conservation(self, case_study, two_path_schedule):
        # delivered information never exceeds arrivals, per run and per step
        from infocalc.simulate import _increments, _sample_impairment_increments, _serve_path
        from infocalc.sources import aggregate_information

        cfg = TraceConfig(runs=50, seed=9, time_step=1e-3, horizon=0.3)
        rng = np.random.default_rng(123)
        sources = [s for s in case_study.sources if s.group_id == "1"]
        arrival = aggregate_information(sources, case_study.spatial)
        ts = np.arange(cfg.steps + 1) * cfg.time_step
        arr = np.array([float(arrival.curve.value(t)) for t in ts])
        path = case_study.path("L2")  # two nodes, the first impaired
        draws = _sample_impairment_increments(case_study.impairments[0], path.nodes[0], cfg, rng)
        assert draws.shape == (3, cfg.runs)
        imps = [_increments(draws, cfg.steps)] + [None] * (len(path.nodes) - 1)
        out = _serve_path(arr, list(path.nodes), imps, cfg.runs, cfg.time_step)
        assert out.shape == (cfg.steps + 1, cfg.runs)  # time-major
        assert np.all(out <= arr[:, None] + 1e-9)
        assert np.all(np.diff(out, axis=0) >= -1e-9)


def reference_serve_path(arrival_cum, path_nodes, node_impairments, runs, time_step):
    """Cumulative output ((steps+1) x runs) of the whole path, every node
    served on the full run matrix, an unimpaired one with a constant
    capacity column."""
    steps = len(arrival_cum) - 1
    x = arrival_cum[:, None]
    for node, imp in zip(path_nodes, node_impairments):
        k_d = int(math.ceil(float(node.latency) / time_step - 1e-12))
        full = float(node.rate) * time_step
        cap = np.full((steps, 1), full) if imp is None else np.maximum(full - imp, 0.0)
        out = np.zeros((steps + 1, runs))
        k0 = max(k_d, 1)
        for prev, step_cap, inp, row in zip(out[k0 - 1:], cap[k0 - 1:], x[k0 - k_d:], out[k0:]):
            np.add(prev, step_cap, out=row)
            np.minimum(inp, row, out=row)
        x = out
    return x


class TestHeadAndSuffix:
    STEP, STEPS, RUNS = 1e-3, 200, 13

    @staticmethod
    def node(rate, latency):
        return Node("n", 1.0, 10.0, rate, latency)

    @pytest.fixture(scope="class")
    def arrival_cum(self, case_study):
        sources = [src for src in case_study.sources if src.group_id == "1"]
        arrival = aggregate_information(sources, case_study.spatial)
        return _cumulative(arrival.curve, np.arange(self.STEPS + 1) * self.STEP)

    # (rates as multiples of the arrival's final rate, latencies, impaired nodes)
    PATHS = {
        "unimpaired": ((2.0, 0.5), (0.0075, 0.002), ()),
        "first impaired": ((2.0, 0.5, 1.5), (0.0075, 0.002, 0.004), (0,)),
        "middle impaired": ((2.0, 0.5, 1.5), (0.0075, 0.002, 0.004), (1,)),
        "last impaired": ((2.0, 0.5, 1.5), (0.0075, 0.002, 0.004), (2,)),
        "latency 0": ((0.8, 1.5), (0.0, 0.0), (1,)),
        "latency off the step": ((0.7, 1.2, 0.9), (0.0025, 0.0013, 0.0007), (2,)),
        "latency beyond the horizon": ((2.0, 1.0), (0.002, 0.5), (1,)),
        "unimpaired beyond the horizon": ((2.0, 1.0), (0.002, 0.5), ()),
    }

    @pytest.mark.parametrize("burst", [0.0, 50.0, None], ids=["arrival", "burst", "zero arrival"])
    @pytest.mark.parametrize("name", list(PATHS))
    def test_head_plus_suffix_equals_whole_path(self, arrival_cum, name, burst):
        factors, latencies, impaired = self.PATHS[name]
        zero = burst is None
        arr = np.zeros_like(arrival_cum) if zero else arrival_cum + burst
        rate = (arrival_cum[-1] - arrival_cum[-2]) / self.STEP
        nodes = [self.node(f * rate, d) for f, d in zip(factors, latencies)]
        rng = np.random.default_rng(5)
        # increments up to 1.5 steps of capacity, so some steps clip at zero
        imps = [rng.uniform(0.0, 1.5 * n.rate * self.STEP, (self.STEPS, self.RUNS))
                if i in impaired else None for i, n in enumerate(nodes)]
        want = reference_serve_path(arr, nodes, imps, self.RUNS, self.STEP)
        first = min(impaired, default=len(nodes))
        head = _serve_head(arr, nodes[:first], self.STEP)
        if first == len(nodes):
            got = np.broadcast_to(head[:, None], want.shape)
        else:
            got = _serve_path(head, nodes[first:], imps[first:], self.RUNS, self.STEP)
        assert np.array_equal(got, want)
        # nothing gets through a zero arrival or a latency beyond the horizon
        assert np.any(want > 0) == (not zero and max(latencies) < self.STEPS * self.STEP)

    def test_unimpaired_schedule_serves_no_run(self, case_study, monkeypatch):
        # the case study's two impairment entries need L1+L2 and L3+L4 active
        sim = sys.modules["infocalc.simulate"]
        sched = Schedule({f"A1.{i}": "L1" for i in (1, 2, 3)} | {f"A3.{i}": "L3" for i in (1, 2, 3)},
                         ("L1", "L3"), {})
        serve_path, tail_report = sim._serve_path, sim._tail_report
        served, samples = [], {}

        def counted(*args):
            served.append(args)
            return serve_path(*args)

        def recorded(quantity, path_id, thresholds, values, *rest):
            samples[quantity, path_id] = values
            return tail_report(quantity, path_id, thresholds, values, *rest)

        monkeypatch.setattr(sim, "CHUNK_RUNS", 7)
        monkeypatch.setattr(sim, "_serve_path", counted)
        monkeypatch.setattr(sim, "_tail_report", recorded)
        simulate(case_study, sched, TraceConfig(runs=50, seed=7, time_step=1e-3, horizon=0.2))
        assert served == []
        assert sorted(samples) == [(q, pid) for q in ("backlog", "delay") for pid in ("L1", "L3")]
        for values in samples.values():
            assert len(values) == 50 and np.all(values == values[0])


class TestMemory:
    def test_peak_is_bounded_by_the_chunk(self, case_study, two_path_schedule):
        # four chunks' worth of runs costs little more than one chunk
        from infocalc.simulate import CHUNK_RUNS

        def peak(runs):
            cfg = TraceConfig(runs=runs, seed=3, time_step=1e-3, horizon=0.3)
            tracemalloc.start()
            try:
                simulate(case_study, two_path_schedule, cfg, within_delay=0.015)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm every lazy set-up
        one, four = peak(CHUNK_RUNS), peak(4 * CHUNK_RUNS)
        assert four <= 1.2 * one, (one, four)


class TestCensoring:
    @staticmethod
    def delay_reports(case_study, schedule, horizon):
        cfg = TraceConfig(runs=400, seed=1, time_step=1e-3, horizon=horizon)
        return {r.path_id: r for r in simulate(case_study, schedule, cfg) if r.quantity == "delay"}

    def test_no_delay_observed_is_all_censored(self, case_study, two_path_schedule):
        # 10 ms remain after the evaluation instant; L2's two nodes add 15 ms of latency
        reports = self.delay_reports(case_study, two_path_schedule, 0.02)
        assert reports["L1"].meta["censored"] == 0.0
        assert reports["L2"].meta["censored"] == 1.0

    def test_partial_censoring_is_counted_in_the_tail(self, case_study, two_path_schedule):
        rep = self.delay_reports(case_study, two_path_schedule, 0.032)["L2"]
        share = rep.meta["censored"]
        assert 0.0 < share < 1.0
        # a censored sample reads as the remaining horizon, 17 steps here
        remaining = 0.017
        below = rep.thresholds < remaining - 1e-12
        assert below.any()
        assert np.all(rep.empirical[below] >= share)
        assert np.all(rep.empirical[~below] == 0.0)


class TestImpairmentModel:
    def test_selfcheck_respects_own_envelope(self, case_study):
        cfg = TraceConfig(runs=600, seed=11, time_step=5e-3, horizon=1.0)
        for entry in case_study.impairments:
            node = case_study.path(entry.a[0]).nodes[entry.a[1]]
            rep = impairment_selfcheck(entry, node, cfg)
            assert rep.passed

    def test_excess_tail_beats_bounding_function(self, case_study):
        entry = case_study.impairments[0]
        node = case_study.path(entry.a[0]).nodes[entry.a[1]]
        cfg = TraceConfig(runs=2000, seed=5, time_step=5e-3, horizon=0.5)
        excess = impairment_excess_samples(entry, node, cfg)

        a, b = entry.bounding_a, entry.bounding_b
        for x in np.linspace(0.0, 20.0, 10):
            emp = float(np.mean(excess > x))
            assert emp <= min(1.0, a * np.exp(-x / b)) + 1e-12


class TestSerialization:
    def test_csv_layout(self, case_study, two_path_schedule):
        cfg = TraceConfig(runs=50, seed=2, time_step=1e-3, horizon=0.2)
        rep = simulate(case_study, two_path_schedule, cfg)[0]
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "threshold,empirical,ci_hi,bound"
        assert len(lines) == 1 + len(rep.thresholds)

    def test_json_roundtrip(self, case_study, two_path_schedule):
        cfg = TraceConfig(runs=50, seed=2, time_step=1e-3, horizon=0.2)
        rep = simulate(case_study, two_path_schedule, cfg)[0]
        doc = json.loads(json.dumps(rep.to_json()))
        assert doc["quantity"] == rep.quantity
        assert len(doc["points"]) == len(rep.thresholds)


def test_simulate_matches_bflr_schedule(case_study):
    sched = bflr(case_study, 0.045, 0.001)
    cfg = TraceConfig(runs=200, seed=21, time_step=1e-3, horizon=0.4)
    reports = simulate(case_study, sched, cfg)
    assert {r.path_id for r in reports} == set(sched.subset)
    assert all(r.passed for r in reports)


if __name__ == "__main__":
    # rewrite the golden file: PYTHONPATH=src python tests/test_simulate.py
    from infocalc.scenario import case_study_scenario

    doc = {key: [pinned(r) for r in reports] for key, reports in golden_cases(case_study_scenario())}
    GOLDEN.write_text(json.dumps(doc, sort_keys=True) + "\n")
