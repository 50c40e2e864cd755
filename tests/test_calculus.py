"""Composition operations: frozen reference values, properties, and a
brute-force greedy-server simulation oracle for the deterministic case."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import np_eval
from infocalc.bounding import ExpBound, ZeroBound
from infocalc.calculus import (
    IsaSpec,
    IssSpec,
    backlog_bound,
    backlog_within_delay_bound,
    concatenate,
    delay_bound,
    delay_bound_at,
    impair,
    output_bound,
    parallel,
    service_deficit,
)
from infocalc.curves import Curve, Segment
from infocalc.errors import UnboundedDeconvolution

R = F(8000)
D = F(3, 400)


def node(a=1, b=1, rate=R, latency=D):
    return IssSpec(ExpBound(a, b), Curve.rate_latency(rate, latency))


class TestConcatenate:
    def test_two_nodes(self):
        out = concatenate([node(), node()])
        assert out.bounding.params() == (2, 2, 0)
        assert out.curve.segments == (Segment(0, R, -2 * R * D),)

    def test_single_node_identity(self):
        n = node()
        out = concatenate([n])
        assert out.bounding == n.bounding and out.curve == n.curve

    def test_three_nodes(self):
        out = concatenate([node()] * 3)
        assert out.bounding.params() == (3, 3, 0)
        assert out.curve.segments == (Segment(0, R, -3 * R * D),)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tandem_pattern(self, n):
        out = concatenate([node()] * n)
        assert out.bounding.params() == (n, n, 0)
        assert out.curve.segments == (Segment(0, R, -n * R * D),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concatenate([])


class TestOutput:
    def test_deterministic_rate_through_rate_latency(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(2.0))
        srv = IssSpec(ZeroBound(), Curve.rate_latency(5.0, 1.5))
        out = output_bound(arr, srv)
        assert out.bounding.is_zero
        assert out.curve.approx_eq(Curve.affine(2.0, 7.5))  # rho t + RT

    def test_self_output_pure_rate(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(3.0))
        srv = IssSpec(ZeroBound(), Curve.affine(3.0))
        assert output_bound(arr, srv).curve == Curve.affine(3.0)

    def test_bounding_composes(self):
        arr = IsaSpec(ExpBound(1, 1), Curve.affine(1.0))
        srv = IssSpec(ExpBound(2, 2), Curve.affine(2.0))
        out = output_bound(arr, srv)
        assert out.bounding.params() == (3, 3, 0)
        for x in np.linspace(0, 30, 10):
            assert out.bounding.value(x) == pytest.approx(3 * math.exp(-x / 3), rel=1e-12)

    def test_unbounded(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(3.0))
        srv = IssSpec(ZeroBound(), Curve.affine(2.0))
        with pytest.raises(UnboundedDeconvolution):
            output_bound(arr, srv)


class TestBacklog:
    def test_token_bucket_rate_latency(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(2.0, 3.0))
        srv = IssSpec(ExpBound(1, 1), Curve.rate_latency(5.0, 1.5))
        dev = 3.0 + 5.0 * 1.5
        rep = backlog_bound(arr, srv, 20.0)
        assert rep.bound_value == pytest.approx(math.exp(-(20.0 - dev)))
        assert rep.derived_quantile == pytest.approx(dev)

    def test_vanishes_at_infinity(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(2.0, 3.0))
        srv = IssSpec(ExpBound(1, 1), Curve.rate_latency(5.0, 1.5))
        assert backlog_bound(arr, srv, 1e6).bound_value == pytest.approx(0.0, abs=1e-30)

    def test_deterministic_zero_beyond_deviation(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(2.0, 3.0))
        srv = IssSpec(ZeroBound(), Curve.rate_latency(5.0, 1.5))
        assert backlog_bound(arr, srv, 11.0).bound_value == 0.0


class TestDelay:
    def test_case_study_infeasible_cell(self):
        # group arrival vs the 4-hop path at 1e-4: quantile just over 35 ms
        from infocalc.sources import SourceModel, SpatialModel, calibrate_sigma2, group_information

        sig2 = calibrate_sigma2(2330.0, 0.1, 100.0)
        srcs = [SourceModel(f"A{i}", sig2, 100.0, 0.1, "g") for i in range(3)]
        grp = group_information(srcs, SpatialModel({"g": {2: 1.8, 3: 2.4}}))
        srv = IssSpec(ExpBound(4.0, 4.0), Curve.rate_latency(8000.0, 0.03))
        rep = delay_bound(grp, srv, 1e-4)
        x = 4 * math.log(4e4)
        assert rep.derived_quantile == pytest.approx((240.0 + x) / 8000.0, rel=1e-12)
        assert rep.derived_quantile > 0.035

    def test_zero_slack_case(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(2.0, 1.0))
        srv = IssSpec(ZeroBound(), Curve.rate_latency(5.0, 1.5))
        rep = delay_bound(arr, srv, 1.0)  # p >= f(x)g(0): x = 0
        from infocalc.curves import horizontal_deviation

        expected = horizontal_deviation(arr.curve.shift_up(0.0), srv.curve.floor_at(0.0))
        assert rep.derived_quantile == pytest.approx(expected)

    def test_three_rate_paths_example(self):
        # <6e^-x/6, 3rt> serving 3rt at p = 6e^-4 gives excess x = 24
        arr = IsaSpec(ZeroBound(), Curve.affine(3 * 8000.0))
        srv = IssSpec(ExpBound(6, 6), Curve.affine(3 * 8000.0))
        p = 6 * math.exp(-4.0)
        rep = delay_bound(arr, srv, p)
        assert rep.derived_quantile == pytest.approx(24.0 / 24000.0)
        raw = delay_bound_at(arr, srv, 24.0)
        assert raw.bound_value == pytest.approx(p, rel=1e-12)

    def test_quantile_monotone_in_p_and_burst(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            rate = float(rng.uniform(1, 5))
            srv = IssSpec(ExpBound(float(rng.uniform(1, 4)), float(rng.uniform(1, 4))),
                          Curve.rate_latency(rate + rng.uniform(0.5, 3), rng.uniform(0.1, 2)))
            sigma = float(rng.uniform(0, 5))
            arr = IsaSpec(ZeroBound(), Curve.affine(rate, sigma))
            ps = [1e-4, 1e-3, 1e-2, 0.1]
            qs = [delay_bound(arr, srv, p).derived_quantile for p in ps]
            assert all(q1 >= q2 - 1e-12 for q1, q2 in zip(qs, qs[1:]))
            arr2 = IsaSpec(ZeroBound(), Curve.affine(rate, sigma + 1.0))
            assert delay_bound(arr2, srv, 1e-3).derived_quantile >= qs[1] - 1e-12


class TestBacklogWithinDelay:
    def test_unclipped_deficit_is_initial_value(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(5592.0, 6.8))
        srv = IssSpec(ExpBound(1, 1), Curve.rate_latency(8000.0, 0.0075))
        assert service_deficit(arr, srv, 0.015) == pytest.approx(-60.0)
        rep = backlog_within_delay_bound(arr, srv, 0.015, 100.0)
        assert rep.bound_value == pytest.approx(math.exp(-(100.0 - 60.0)))

    def test_deficit_by_dense_grid(self):
        arr = IsaSpec(ZeroBound(), Curve([Segment(0, 3.0, 0.0), Segment(0.5, 1.0, 1.5)]))
        srv = IssSpec(ZeroBound(), Curve.rate_latency(4.0, 0.2))
        tau = 0.3
        c = service_deficit(arr, srv, tau)
        vs = np.arange(0.0, 1.0, 1e-5)
        ref = min(srv.curve.value(v) - (arr.curve.value(v - tau) if v > tau else 0.0) for v in vs)
        assert c == pytest.approx(ref, abs=1e-4)

    def test_degenerate_tau_zero_identical_curves(self):
        beta = Curve.rate_latency(5.0, 1.0)
        spec = service_deficit(IsaSpec(ZeroBound(), beta.floor_at(0.0)),
                               IssSpec(ZeroBound(), beta), 0.0)
        assert spec == pytest.approx(min(float(beta.value(0)), 0.0))

    def test_vanishes_at_infinity(self):
        arr = IsaSpec(ZeroBound(), Curve.affine(5592.0, 6.8))
        srv = IssSpec(ExpBound(1, 1), Curve.rate_latency(8000.0, 0.0075))
        assert backlog_within_delay_bound(arr, srv, 0.015, 1e7).bound_value == pytest.approx(0.0, abs=1e-300)


class TestImpair:
    def test_case_study_first_hop(self):
        out = impair(node(), IsaSpec(ExpBound(4, 4), Curve.rate_latency(R / 5, D)))
        assert out.bounding.params() == (5, 5, 0)
        assert out.curve.segments == (Segment(0, F(4, 5) * R, -F(4, 5) * R * D),)

    def test_zero_impairment_is_identity(self):
        n = node()
        out = impair(n, IsaSpec(ZeroBound(), Curve.zero()))
        assert out.curve == n.curve and out.bounding == n.bounding

    def test_one_third_share(self):
        out = impair(node(), IsaSpec(ExpBound(3, 3), Curve.rate_latency(R / 3, D)))
        assert out.bounding.params() == (4, 4, 0)
        assert out.curve.segments == (Segment(0, F(2, 3) * R, -F(2, 3) * R * D),)


class TestParallel:
    def test_case_study_combo(self):
        l1 = impair(node(), IsaSpec(ExpBound(4, 4), Curve.rate_latency(R / 5, D)))
        l2 = concatenate([l1, node()])
        l3 = concatenate([node()] * 3)
        out = parallel([l1, l2, l3])
        assert out.bounding.params() == (14, 14, 0)
        assert out.curve.segments == (Segment(0, F(13, 5) * R, -F(28, 5) * R * D),)

    def test_single_identity(self):
        n = node()
        out = parallel([n])
        assert out.curve == n.curve and out.bounding == n.bounding

    def test_three_homogeneous_paths(self):
        # 1-, 2-, 3-node paths of <e^-x, rt> give <6e^-x/6, 3rt>
        paths = [concatenate([IssSpec(ExpBound(1, 1), Curve.affine(R))] * k) for k in (1, 2, 3)]
        out = parallel(paths)
        assert out.bounding.params() == (6, 6, 0)
        assert out.curve.segments == (Segment(0, 3 * R, 0),)

    def test_order_independent(self):
        rng = np.random.default_rng(17)
        servers = [IssSpec(ExpBound(float(rng.uniform(1, 3)), float(rng.uniform(1, 3))),
                           Curve.rate_latency(float(rng.uniform(1, 9)), float(rng.uniform(0.1, 1))))
                   for _ in range(4)]
        a = parallel(servers)
        b = parallel(servers[::-1])
        assert a.curve == b.curve and a.bounding == b.bounding

    def test_every_order_gives_the_same_bits(self):
        # float, Fraction and mixed coefficients, an offset x0, a Zero bound
        # and a two-segment curve: the sums are exact or exactly rounded, so
        # every order prints the same (the analysis context shares one
        # composition per multiset of path services on this)
        servers = [
            IssSpec(ExpBound(0.1, 0.7), Curve.rate_latency(8000.0 / 3, 0.0075)),
            IssSpec(ExpBound(F(1, 3), F(2)), Curve.rate_latency(F(8000, 7), F(3, 400))),
            IssSpec(ExpBound(0.2, 1.3, 0.05), Curve.affine(1e-3 + 4000.0, -0.1)),
            IssSpec(ZeroBound(), Curve([(0, 1000.0 / 3, -1.0), (0.3, 3000.0, 99.0)])),
            IssSpec(ExpBound(F(1, 7), 0.3), Curve.affine(F(1000, 3), -0.3)),
        ]
        for k in (2, 3, 5):
            for subset in itertools.combinations(servers, k):
                outs = {repr(parallel(list(order))) for order in itertools.permutations(subset)}
                assert len(outs) == 1
        only_zero = [IssSpec(ZeroBound(), Curve.affine(0.1)), IssSpec(ZeroBound(), Curve.affine(0.2))]
        assert repr(parallel(only_zero)) == repr(parallel(only_zero[::-1]))


# ---------------------------------------------------------------------------
# Deterministic brute-force oracle: greedy fluid servers on a discrete grid.
# ---------------------------------------------------------------------------


def greedy_outputs(arrival: Curve, nodes: list[tuple[float, float]], h: float,
                   steps: int) -> np.ndarray:
    ts = np.arange(steps + 1) * h
    x = np_eval(arrival, ts)
    for rate, latency in nodes:
        k_d = int(round(latency / h))
        delayed = np.zeros_like(x)
        delayed[k_d:] = x[: steps + 1 - k_d]
        out = np.zeros_like(x)
        for k in range(steps):
            out[k + 1] = min(delayed[k + 1], out[k] + rate * h)
        x = out
    return x


@pytest.mark.parametrize("seed", range(10))
def test_deterministic_superpose_output_parallel_vs_simulation(seed):
    """Deterministic-calculus sanity on random small systems: the greedy-fluid
    simulation never exceeds the analytic bounds for fused flows, departure
    envelopes, and split-across-parallel-servers service."""
    rng = np.random.default_rng(3000 + seed)
    h = 1e-3
    steps = 3000
    ts = np.arange(steps + 1) * h

    rho = float(rng.uniform(0.4, 1.2)) * 1000
    gamma_share = float(rng.uniform(0.0, 0.4))
    a1 = IsaSpec(ZeroBound(), Curve.affine(rho, float(rng.uniform(0, 100))))
    a2 = IsaSpec(ZeroBound(), Curve.affine(rho, float(rng.uniform(0, 100))))
    # two flows fused with their redundancy gamma_share * rho removed
    fused = IsaSpec(ZeroBound(), (a1.curve + a2.curve).subtract(
        Curve.affine(gamma_share * rho), allow_unclipped=False))

    rate = float(rng.choice([3.0, 4.0])) * 1000
    latency = float(rng.integers(2, 15)) * h
    srv = IssSpec(ZeroBound(), Curve.rate_latency(rate, latency))

    # fused flow through one server
    arr = np_eval(fused.curve, ts)
    out = greedy_outputs(fused.curve, [(rate, latency)], h, steps)
    dev = backlog_bound(fused, srv, 0.0).derived_quantile
    assert float(np.max(arr - out)) <= dev + rate * h + 1e-9

    # departures respect the output-bound envelope on sampled windows
    env = output_bound(fused, srv).curve
    for _ in range(20):
        i, j = sorted(rng.integers(0, steps, size=2))
        if i < j:
            assert out[j] - out[i] <= float(env.value((j - i) * h)) + rate * h + 1e-9

    # fluid split across two parallel servers per their service weights
    srv2 = IssSpec(ZeroBound(), Curve.rate_latency(rate / 2, latency))
    combined = parallel([srv, srv2])
    w1 = rate / (rate + rate / 2)
    out_par = (greedy_outputs(fused.curve.scale(w1), [(rate, latency)], h, steps)
               + greedy_outputs(fused.curve.scale(1 - w1), [(rate / 2, latency)], h, steps))
    dev_par = backlog_bound(fused, combined, 0.0).derived_quantile
    assert float(np.max(arr - out_par)) <= dev_par + 1.5 * rate * h + 1e-9
    q_par = delay_bound(fused, combined, 1.0).derived_quantile
    for k in rng.integers(1, steps // 2, size=6):
        target = arr[k]
        j = int(np.searchsorted(out_par >= target - 1e-9, True))
        assert (j - k) * h <= q_par + 3 * h


@pytest.mark.parametrize("seed", range(20))
def test_deterministic_bounds_dominate_greedy_simulation(seed):
    rng = np.random.default_rng(1000 + seed)
    h = 1e-3
    rho = float(rng.uniform(0.5, 2.0)) * 1000
    sigma = float(rng.uniform(0.0, 300.0))
    arrival = Curve.affine(rho, sigma)
    n_nodes = int(rng.integers(1, 4))
    nodes = [(float(rng.choice([2.0, 3.0, 5.0])) * 1000, float(rng.integers(1, 20)) * h)
             for _ in range(n_nodes)]
    steps = 4000
    out = greedy_outputs(arrival, nodes, h, steps)
    ts = np.arange(steps + 1) * h
    arr = np_eval(arrival, ts)

    spec_arr = IsaSpec(ZeroBound(), arrival)
    spec_srv = concatenate([IssSpec(ZeroBound(), Curve.rate_latency(r, l)) for r, l in nodes])

    # simulated backlog never exceeds the analytic deviation (zero slack)
    dev = backlog_bound(spec_arr, spec_srv, 0.0).derived_quantile
    slack_bits = sum(r for r, _ in nodes) * h
    assert float(np.max(arr - out)) <= dev + slack_bits + 1e-9

    # simulated delay never exceeds the analytic quantile
    q = delay_bound(spec_arr, spec_srv, 1.0).derived_quantile
    eval_ks = rng.integers(1, steps // 2, size=8)
    for k in eval_ks:
        target = arr[k]
        j = int(np.searchsorted(out >= target - 1e-9, True))
        assert (j - k) * h <= q + (n_nodes + 2) * h
