"""Exact min-plus algebra: frozen examples plus randomized properties."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ORACLE_STEP, lattice_curve, np_eval
from infocalc.curves import Curve, Segment, convolve, deconvolve, horizontal_deviation
from infocalc.errors import InfiniteDeviation, NonMonotoneResult, UnboundedDeconvolution

R = F(8000)
D = F(3, 400)  # 7.5 ms


def rate_latency(rate, latency):
    return Curve.rate_latency(rate, latency)


class TestConvolve:
    def test_rate_latency_tandem_exact(self):
        # r(t-d) (x) r(t-d) = r(t-2d): unclipped-affine semantics
        a = rate_latency(R, D)
        out = convolve(a, a)
        assert out.segments == (Segment(0, R, -2 * R * D),)
        assert out.value(0) == -120

    def test_pure_rate_identity(self):
        a = Curve.affine(5.0)
        assert convolve(a, a) == a

    def test_impaired_tandem_offsets(self):
        # (4/5)rt-(4/5)rd (x) rt-rd = (4/5)rt-(9/5)rd
        impaired = Curve.affine(F(4, 5) * R, -F(4, 5) * R * D)
        plain = rate_latency(R, D)
        out = convolve(impaired, plain)
        assert out.segments == (Segment(0, F(4, 5) * R, -F(9, 5) * R * D),)

    def test_commutative_bitexact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = lattice_curve(rng, allow_neg=True)
            b = lattice_curve(rng, allow_neg=True)
            assert convolve(a, b) == convolve(b, a)

    def test_associative_exact_fractions(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            a = lattice_curve(rng, exact=True, allow_neg=True)
            b = lattice_curve(rng, exact=True)
            c = lattice_curve(rng, exact=True)
            assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_grid_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        a = lattice_curve(rng, allow_neg=True)
        b = lattice_curve(rng, allow_neg=True)
        out = convolve(a, b)
        last = max(a.breakpoints()[-1], b.breakpoints()[-1], 10 * ORACLE_STEP)
        ts = np.arange(0.0, 2.0 * last + ORACLE_STEP, ORACLE_STEP)
        av, bv = np_eval(a, ts), np_eval(b, ts)
        for k in rng.integers(0, len(ts), size=10):
            ref = np.min(av[: k + 1] + bv[k::-1])
            assert out.value(ts[k]) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_isotone(self, seed):
        rng = np.random.default_rng(seed)
        a = lattice_curve(rng)
        b = lattice_curve(rng)
        a_up = a.shift_up(1.0)
        lo, hi = convolve(a, b), convolve(a_up, b)
        ts = np.linspace(0, 2 * max(a.breakpoints()[-1], b.breakpoints()[-1], 0.01), 50)
        assert np.all(np_eval(lo, ts) <= np_eval(hi, ts) + 1e-12)

    def test_nonconvex_crossing_breakpoint(self):
        # concave (x) affine develops a breakpoint at a line crossing,
        # not at a breakpoint sum
        f = Curve([Segment(0, 3.0, 0.0), Segment(1.0, 1.0, 3.0)])
        g = Curve.affine(2.0)
        out = convolve(f, g)
        assert out.approx_eq(Curve([Segment(0, 2.0, 0.0), Segment(2.0, 1.0, 4.0)]))


class TestDeconvolve:
    def test_token_bucket_through_unclipped_rate_latency(self):
        # (rho t + sigma) (/) (Rt - RT) = rho t + sigma + RT
        out = deconvolve(Curve.affine(2.0, 3.0), rate_latency(5.0, 1.5))
        assert out.approx_eq(Curve.affine(2.0, 3.0 + 7.5))
        assert out.value(0) == pytest.approx(10.5)

    def test_self_deconvolution_pure_rate(self):
        a = Curve.affine(7.0)
        assert deconvolve(a, a) == a

    def test_unbounded(self):
        with pytest.raises(UnboundedDeconvolution):
            deconvolve(Curve.affine(2.0), Curve.affine(1.0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_grid_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        a = lattice_curve(rng, allow_neg=True)
        b = lattice_curve(rng, allow_neg=True)
        if a.final_slope > b.final_slope:
            a, b = b, a
        if a.final_slope > b.final_slope:
            return
        out = deconvolve(a, b)
        last = max(a.breakpoints()[-1], b.breakpoints()[-1], 10 * ORACLE_STEP)
        ss = np.arange(0.0, last + 50 * ORACLE_STEP, ORACLE_STEP)
        bv = np_eval(b, ss)
        for t in rng.integers(0, int(last / ORACLE_STEP) + 20, size=6) * ORACLE_STEP:
            ref = np.max(np_eval(a, t + ss) - bv)
            assert out.value(t) == pytest.approx(ref, rel=1e-9, abs=1e-12)


class TestHorizontalDeviation:
    def test_rate_vs_rate_latency(self):
        assert horizontal_deviation(Curve.affine(2.0), rate_latency(5.0, 1.5)) == 1.5

    def test_burst_adds_scaled_term(self):
        h = horizontal_deviation(Curve.affine(2.0, 3.0), rate_latency(5.0, 1.5))
        assert h == pytest.approx(1.5 + 3.0 / 5.0)

    def test_identical_curves(self):
        a = Curve.affine(4.0)
        assert horizontal_deviation(a, a) == 0

    def test_zero_when_alpha_below_beta(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = lattice_curve(rng, allow_flat=False)
            assert horizontal_deviation(b, b.shift_up(1.0)) == 0

    def test_infinite_on_rate_mismatch(self):
        with pytest.raises(InfiniteDeviation):
            horizontal_deviation(Curve.affine(3.0), Curve.affine(2.0))

    def test_sup_is_right_limit_on_flat_service(self):
        # alpha(0)=0 touches the service floor, so the pointwise inner inf at
        # s=0 is 0; the sup is only approached from the right
        alpha = Curve.affine(1.0)
        beta = Curve([Segment(0, 0.0, 0.0), Segment(1.0, 2.0, 0.0)])
        assert horizontal_deviation(alpha, beta) == pytest.approx(1.0)

    def test_flat_alpha_on_flat_beta_plateau(self):
        flat = Curve([Segment(0, 1.0, 1.0), Segment(1.0, 0.0, 2.0), Segment(3.0, 1.0, 2.0)])
        assert horizontal_deviation(flat, flat) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_grid_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        alpha = lattice_curve(rng)
        beta = lattice_curve(rng, allow_flat=False, allow_neg=True)
        if alpha.final_slope > beta.final_slope:
            return
        h = horizontal_deviation(alpha, beta)
        last = max(alpha.breakpoints()[-1], beta.breakpoints()[-1], 10 * ORACLE_STEP)
        ss = np.arange(0.0, last + 10 * ORACLE_STEP, ORACLE_STEP)
        ref = max(max(0.0, beta.first_reach(alpha.value(s)) - s) for s in ss)
        assert h == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_plateau_service_sweep(self):
        # with plateaus the grid oracle only sees one-sided values; the exact
        # sup may exceed it by up to a grid step of right-limit jump
        from infocalc.curves import INF

        rng = np.random.default_rng(123456)
        checked = 0
        for _ in range(150):
            alpha = lattice_curve(rng)
            beta = lattice_curve(rng, allow_flat=True, allow_neg=True)
            if alpha.final_slope > beta.final_slope:
                continue
            try:
                h = horizontal_deviation(alpha, beta)
            except Exception:
                continue  # flat service tail below alpha: legitimately infinite
            last = max(alpha.breakpoints()[-1], beta.breakpoints()[-1], 0.01)
            ref = 0.0
            for s in np.arange(0.0, last + 0.005, 1e-5):
                r = beta.first_reach(alpha.value(s))
                if r == INF:
                    ref = None
                    break
                ref = max(ref, r - s)
            if ref is None:
                continue
            assert ref - 1e-9 <= h <= ref + 2e-4
            checked += 1
        assert checked > 50


class TestTransforms:
    def test_floor_clips_at_zero(self):
        # [8000t-60]^0: breakpoint at 7.5 ms
        out = Curve.affine(8000.0, -60.0).floor_at(0.0)
        assert out.approx_eq(Curve([Segment(0, 0.0, 0.0), Segment(0.0075, 8000.0, 0.0)]))
        assert out.value(0) >= 0

    def test_floor_introduces_at_most_one_breakpoint(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = lattice_curve(rng, allow_neg=True)
            out = c.floor_at(0.5)
            assert len(out.segments) <= len(c.segments) + 1

    @pytest.mark.parametrize("curve, x", [
        (Curve.affine(1000.0, 0.0), 5e-324),
        (Curve.affine(1000.0, 6.267719375448164e-307), 6.267719375448166e-307),
    ])
    def test_floor_crossing_that_rounds_to_zero(self, curve, x):
        # first_reach(x) rounds to 0: no zero-length flat segment at t = 0
        out = curve.floor_at(x)
        for t in (0.0, 1e-9, 1e-3, 1.0, 10.0):
            assert out.value(t) == pytest.approx(max(curve.value(t), x), rel=1e-12)

    def test_shift_up(self):
        assert Curve.affine(3.0).shift_up(5.0) == Curve.affine(3.0, 5.0)

    def test_subtract_impairment_share(self):
        # r(t-d) - r(t-d)/5 = (4/5) r (t-d)
        base = rate_latency(R, D)
        out = base.subtract(base.scale(F(1, 5)))
        assert out.segments == (Segment(0, F(4, 5) * R, -F(4, 5) * R * D),)

    def test_subtract_rejects_decreasing(self):
        with pytest.raises(NonMonotoneResult):
            Curve.affine(1.0).subtract(Curve.affine(2.0))

    def test_scale_and_add(self):
        a = Curve.affine(2.0, 1.0)
        assert a.scale(2.0) == Curve.affine(4.0, 2.0)
        assert a + a == a.scale(2.0)


class TestValidation:
    def test_requires_start_at_zero(self):
        with pytest.raises(ValueError):
            Curve([Segment(1.0, 1.0, 0.0)])

    def test_rejects_negative_slope(self):
        with pytest.raises(NonMonotoneResult):
            Curve([Segment(0, -1.0, 0.0)])

    def test_rejects_discontinuity(self):
        with pytest.raises(ValueError):
            Curve([Segment(0, 1.0, 0.0), Segment(1.0, 1.0, 5.0)])

    def test_collinear_segments_merge(self):
        c = Curve([Segment(0, 1.0, 0.0), Segment(1.0, 1.0, 1.0)])
        assert len(c.segments) == 1
