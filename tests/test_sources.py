"""Gaussian entropy curves against the covariance log-determinant oracle."""

import itertools
import math

import numpy as np
import pytest

from conftest import near_linear_source, random_scenario
from infocalc.algorithms import _Context
from infocalc.curves import MERGE_TOL
from infocalc.errors import DegenerateVariance, InconsistentGroup, NumericalSingularity
from infocalc.scenario import Scenario
from infocalc.sources import (
    SourceModel,
    SpatialModel,
    aggregate_information,
    aggregate_rate,
    calibrate_sigma2,
    entropy_of_gaussian_block,
    gaussian_arrival_curve,
    group_information,
    marginal_redundancy_rate,
    subset_redundancy_rate,
)

DELTA, ETA, RATE = 0.1, 100.0, 2330.0


@pytest.fixture(scope="module")
def source():
    return SourceModel("A1.1", calibrate_sigma2(RATE, DELTA, ETA), ETA, DELTA, "g1")


@pytest.fixture(scope="module")
def spatial():
    return SpatialModel({"g1": {2: 1.8, 3: 2.4}, "g2": {2: 1.8, 3: 2.4}})


def triple(source, group="g1"):
    return [SourceModel(f"{group}.{i}", source.sigma2, ETA, DELTA, group) for i in range(3)]


class TestArrivalCurve:
    def test_calibrated_long_term_rate(self, source):
        spec = gaussian_arrival_curve(source)
        assert spec.bounding.is_zero
        assert float(spec.curve.final_slope) == pytest.approx(RATE, rel=1e-12)

    def test_tail_offset_value(self, source):
        # -(1/2) log2(1 - e^{-2/eta}) for eta = 100
        spec = gaussian_arrival_curve(source)
        tail = spec.curve.segments[-1]
        offset = float(tail.value) - float(tail.slope) * float(tail.start)
        assert offset == pytest.approx(-0.5 * math.log2(1.0 - math.exp(-0.02)), rel=1e-9)
        assert offset == pytest.approx(2.83, abs=0.01)

    def test_continuity_at_sampling_interval(self, source):
        spec = gaussian_arrival_curve(source)
        c = spec.curve
        left = c.segments[0].value + c.segments[0].slope * DELTA
        assert abs(left - c.segments[1].value) <= 1e-9 * max(1.0, abs(left))

    def test_starts_at_zero_and_increases(self, source):
        c = gaussian_arrival_curve(source).curve
        assert c.value(0.0) == 0.0
        ts = np.linspace(0, 1, 100)
        vals = [c.value(t) for t in ts]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_interval_additivity_is_evaluation_consistent(self, source):
        c = gaussian_arrival_curve(source).curve
        for s, t in [(0.05, 0.3), (0.1, 0.5), (0.0, 0.7)]:
            assert c.value(t) == pytest.approx(c.value(s) + (c.value(t) - c.value(s)))

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            gaussian_arrival_curve(SourceModel("x", 1e-6, 1e6, DELTA, "g"))


class TestBlockEntropyOracle:
    def test_scalar_block(self, source):
        expected = 0.5 * math.log2(2 * math.pi * math.e * source.sigma2)
        assert entropy_of_gaussian_block(source, 1) == pytest.approx(expected, rel=1e-12)

    def test_two_sample_determinant(self):
        m = SourceModel("x", 1.0, ETA, DELTA, "g")
        expected = 0.5 * math.log2((2 * math.pi * math.e) ** 2 * (1 - math.exp(-0.02)))
        assert entropy_of_gaussian_block(m, 2) == pytest.approx(expected, rel=1e-12)

    def test_curve_matches_oracle_on_sample_counts(self, source):
        c = gaussian_arrival_curve(source).curve
        for k in range(1, 51):
            oracle = entropy_of_gaussian_block(source, k)
            assert c.value(k * DELTA) == pytest.approx(oracle, rel=1e-8)

    def test_block_cap(self, source):
        with pytest.raises(NumericalSingularity):
            entropy_of_gaussian_block(source, 65)

    def test_invalid_length(self, source):
        with pytest.raises(ValueError):
            entropy_of_gaussian_block(source, 0)


class TestCalibration:
    def test_case_study_total_rate(self, source, spatial):
        srcs = triple(source, "g1") + triple(source, "g2")
        coeffs = dict(spatial.coefficients)
        coeffs["g3"] = {2: 1.8, 3: 2.4}
        srcs += [SourceModel(f"g3.{i}", source.sigma2, ETA, DELTA, "g3") for i in range(3)]
        total = aggregate_information(srcs, SpatialModel(coeffs))
        assert float(total.curve.final_slope) == pytest.approx(16776.0, abs=20.0)

    def test_roundtrip(self):
        for rate in (500.0, 2330.0, 4500.0):
            sig2 = calibrate_sigma2(rate, DELTA, ETA)
            m = SourceModel("x", sig2, ETA, DELTA, "g")
            assert float(gaussian_arrival_curve(m).curve.final_slope) == pytest.approx(rate, rel=1e-12)

    def test_unrepresentable_rate_rejected(self):
        with pytest.raises(ValueError):
            calibrate_sigma2(9000.0, DELTA, ETA)


class TestGroups:
    def test_triple_coefficient(self, source, spatial):
        grp = group_information(triple(source), spatial)
        assert float(grp.curve.final_slope) == pytest.approx(2.4 * RATE, rel=1e-12)

    def test_single_source_identity(self, source, spatial):
        grp = group_information([source], spatial)
        assert grp.curve == gaussian_arrival_curve(source).curve

    def test_pair_redundancy(self, source, spatial):
        srcs = triple(source)
        red = subset_redundancy_rate(srcs[:2], spatial)
        assert red == pytest.approx(0.2 * RATE, rel=1e-9)

    def test_heterogeneous_rejected(self, source):
        other = SourceModel("y", source.sigma2 * 2, ETA, DELTA, "g1")
        with pytest.raises(InconsistentGroup):
            group_information([source, other], SpatialModel({"g1": {2: 1.8, 3: 2.4}}))

    def test_cross_group_rejected_in_group_information(self, source):
        other = SourceModel("y", source.sigma2, ETA, DELTA, "gX")
        with pytest.raises(InconsistentGroup):
            group_information([source, other], SpatialModel({}))

    def test_aggregate_adds_groups_independently(self, source, spatial):
        srcs = triple(source, "g1") + triple(source, "g2")[:2]
        agg = aggregate_information(srcs, spatial)
        assert float(agg.curve.final_slope) == pytest.approx((2.4 + 1.8) * RATE, rel=1e-12)

    def test_monotone_in_subset_size(self, source, spatial):
        srcs = triple(source)
        prev = None
        for k in (1, 2, 3):
            cur = group_information(srcs[:k], spatial).curve
            if prev is not None:
                for t in np.linspace(0, 1, 20):
                    assert cur.value(t) >= prev.value(t) - 1e-9
            prev = cur

    def test_redundancy_bounded_by_single_source(self, source, spatial):
        srcs = triple(source)
        single = RATE
        for k in (2, 3):
            red = subset_redundancy_rate(srcs[:k], spatial)
            assert 0.0 <= red <= single + 1e-9

    def test_marginal_redundancy_greedy_order(self, source, spatial):
        srcs = triple(source)
        outsider = SourceModel("g2.0", source.sigma2, ETA, DELTA, "g2")
        assert marginal_redundancy_rate(srcs[1], [srcs[0]], spatial) == pytest.approx(0.2 * RATE, rel=1e-9)
        assert marginal_redundancy_rate(srcs[2], srcs[:2], spatial) == pytest.approx(0.4 * RATE, rel=1e-9)
        assert marginal_redundancy_rate(outsider, srcs[:2], spatial) == 0.0


def curve_redundancy(sources, spatial):
    """``subset_redundancy_rate`` from whole curves, as it was computed before
    the scalar fold."""
    total_single = sum(gaussian_arrival_curve(x).curve.final_slope for x in sources)
    return float(total_single - aggregate_information(sources, spatial).curve.final_slope)


def five_groups() -> Scenario:
    """Five pairs of sources with uneven rates, sampling intervals and
    correlation constants: summing their group rates in another order
    changes the float result on about a quarter of the subsets."""
    rates = [1234.567, 987.654321, 3141.5926, 271.828, 1618.034]
    sources, coeffs = [], {}
    for g, rate in enumerate(rates):
        delta, eta = (0.1, 0.05, 0.15)[g % 3], (100.0, 3.0)[g % 2]
        sigma2 = calibrate_sigma2(rate, delta, eta)
        sources += [SourceModel(f"g{g}.{m}", sigma2, eta, delta, f"g{g}") for m in range(2)]
        coeffs[f"g{g}"] = {2: 1.7, 3: 2.3}
    return Scenario(tuple(sources), SpatialModel(coeffs), (), ())


class TestScalarRates:
    """The scalar fold is the curve algebra's final slope, bit for bit."""

    @pytest.fixture(params=["case_study", "exact", "five_groups"]
                    + [f"random{seed}" for seed in range(30)])
    def scenario(self, request, case_study, case_study_exact):
        if request.param == "case_study":
            return case_study
        if request.param == "exact":
            return case_study_exact
        if request.param == "five_groups":
            return five_groups()
        return random_scenario(np.random.default_rng(int(request.param[len("random"):])))

    def test_equal_to_curves_on_every_source_subset(self, scenario):
        ctx = _Context(scenario, None)
        sources = list(scenario.sources)
        for k in range(1, len(sources) + 1):
            for combo in itertools.combinations(sources, k):
                for subset in (list(combo), list(reversed(combo))):
                    fused = aggregate_information(subset, scenario.spatial).asymptotic_rate
                    assert aggregate_rate(subset, scenario.spatial) == fused
                    assert ctx.fused_rate(subset) == fused
                    red = curve_redundancy(subset, scenario.spatial)
                    assert subset_redundancy_rate(subset, scenario.spatial) == red
                    assert ctx.redundancy(tuple(x.id for x in subset)) == red

    def test_sum_of_group_slopes_where_the_curve_sum_drops_its_last_knee(self):
        # the near-linear source's knee at 0.2 s comes after the pair's at
        # 0.1 s and moves the summed slope by under MERGE_TOL of it: the
        # summed curve keeps the slope before that knee, the fold adds the
        # two groups' final slopes
        near = near_linear_source()
        pair = [SourceModel(f"b{i}", calibrate_sigma2(1200.0, DELTA, ETA), ETA, DELTA, "b")
                for i in range(2)]
        spatial = SpatialModel({"b": {2: 1.7}})
        assert len(gaussian_arrival_curve(near).curve.segments) == 2
        summed = aggregate_information(pair + [near], spatial).curve
        assert near.delta not in summed.breakpoints()
        rate = aggregate_rate(pair + [near], spatial)
        assert rate == (group_information(pair, spatial).curve.final_slope
                        + group_information([near], spatial).curve.final_slope)
        assert summed.final_slope != rate
        assert abs(summed.final_slope - rate) <= MERGE_TOL * rate

    def test_raises_where_the_curves_raise(self, source):
        spatial = SpatialModel({"g1": {2: 1.8, 3: 2.4}})
        mixed = [source, SourceModel("y", source.sigma2 * 2, ETA, DELTA, "g1")]
        four = [SourceModel(f"g1.{i}", source.sigma2, ETA, DELTA, "g1") for i in range(4)]
        flat = [SourceModel("z", 0.01, ETA, DELTA, "g2")]
        for sources, error in ((mixed, InconsistentGroup), (four, ValueError),
                               (flat, DegenerateVariance)):
            with pytest.raises(error):
                aggregate_information(sources, spatial)
            with pytest.raises(error):
                aggregate_rate(sources, spatial)

    def test_empty_set_has_rate_zero(self, spatial):
        assert aggregate_rate([], spatial) == aggregate_information([], spatial).asymptotic_rate
        assert subset_redundancy_rate([], spatial) == 0.0


class TestSpatialModel:
    def test_coefficient_bounds(self):
        with pytest.raises(ValueError):
            SpatialModel({"g": {2: 2.5}})
        with pytest.raises(ValueError):
            SpatialModel({"g": {2: 0.9}})
        with pytest.raises(ValueError):
            SpatialModel({"g": {2: 1.9, 3: 1.8}})

    def test_implicit_sizes(self):
        m = SpatialModel({"g": {2: 1.8, 3: 2.4}})
        assert m.coefficient("g", 0) == 0.0
        assert m.coefficient("g", 1) == 1.0
        with pytest.raises(ValueError):
            m.coefficient("g", 4)
