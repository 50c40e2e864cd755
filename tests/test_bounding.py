"""Tail-bound algebra: closed forms, inversion round-trips, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infocalc.bounding import (
    GRID_STEP,
    ExpBound,
    GridBound,
    GridLowerBound,
    ZeroBound,
    ZeroLowerBound,
    bf_convolve,
    bf_infsum,
    bf_invert,
    constant_lower_bound,
    exact_exp_convolution_value,
    shift_bound,
)
from infocalc.errors import UnreachableProbability


class TestConvolve:
    def test_impaired_node_composition(self):
        # e^-x (x) 4e^-x/4 -> 5e^-x/5
        out = bf_convolve(ExpBound(1, 1), ExpBound(4, 4))
        assert out.params() == (5, 5, 0)

    def test_two_node_tandem(self):
        out = bf_convolve(ExpBound(1, 1), ExpBound(1, 1))
        assert out.params() == (2, 2, 0)

    def test_zero_absorbs(self):
        g = ExpBound(3, 3)
        assert bf_convolve(ZeroBound(), g) is g
        assert bf_convolve(g, ZeroBound()) is g

    def test_offsets_add(self):
        out = bf_convolve(ExpBound(1, 1, 10), ExpBound(2, 2, 5))
        assert out.params() == (3, 3, 15)

    def test_closed_form_upper_bounds_exact_infimum(self):
        # the proportional-split value equals the objective at its split point
        # and upper-bounds the true infimum
        rng = np.random.default_rng(9)
        for _ in range(500):
            a1, a2 = rng.uniform(0.5, 6, size=2)
            b1, b2 = rng.uniform(0.5, 6, size=2)
            x = rng.uniform(0, 30)
            f, g = ExpBound(a1, b1), ExpBound(a2, b2)
            closed = bf_convolve(f, g).value(x)
            split = b1 * x / (b1 + b2)
            assert closed == pytest.approx(f.value(split) + g.value(x - split), rel=1e-12)
            assert closed >= exact_exp_convolution_value(f, g, x) - 1e-12

    def test_exact_flag_returns_grid_infimum(self):
        f, g = ExpBound(1, 1), ExpBound(4, 4)
        exact = bf_convolve(f, g, exact=True)
        closed = bf_convolve(f, g)
        for x in (0.0, 1.0, 5.0, 12.0):
            assert exact.value(x) <= closed.value(x) + 1e-9
            assert exact.value(x) == pytest.approx(
                exact_exp_convolution_value(f, g, x), rel=1e-6, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_results_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        f = ExpBound(rng.uniform(0.5, 5), rng.uniform(0.5, 5))
        g = ExpBound(rng.uniform(0.5, 5), rng.uniform(0.5, 5))
        out = bf_convolve(f, g, exact=bool(rng.integers(0, 2)))
        xs = np.sort(rng.uniform(0, 40, size=20))
        vals = [out.value(x) for x in xs]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


class TestInfSum:
    def test_zero_theta_gives_zero_for_vanishing_bound(self):
        assert bf_infsum(ExpBound(2, 3), ZeroLowerBound()).is_zero

    def test_constant_theta_one(self):
        theta = constant_lower_bound(1.0, x_max=50.0)
        out = bf_infsum(ExpBound(1, 1), theta)
        assert out.value(0.0) <= 1.0 + 1e-9
        assert out.value(0.0) >= 1.0 - 1e-3  # inf approaches 1 from above

    def test_zero_f_gives_theta_at_origin(self):
        theta = GridLowerBound([0.0, 1.0, 2.0], [0.25, 0.5, 1.0])
        out = bf_infsum(ZeroBound(), theta)
        assert out.value(0.0) == pytest.approx(0.25)
        assert out.value(7.0) == pytest.approx(0.25)

    def test_clamp(self):
        theta = constant_lower_bound(1.0, x_max=10.0)
        out = bf_infsum(ExpBound(5, 1), theta, clamp=True)
        assert out.value(0.0) <= 1.0 + 1e-12


class TestInvert:
    def test_closed_form(self):
        f = ExpBound(14, 14)
        x = bf_invert(f, 0.001)
        assert x == pytest.approx(14 * math.log(14000))
        assert f.value(x) == pytest.approx(0.001, rel=1e-12)

    def test_zero_bound(self):
        assert bf_invert(ZeroBound(), 0.5) == 0.0

    def test_reachable_example(self):
        # 6e^-x/6 evaluated at 24 inverts back to 24
        f = ExpBound(6, 6)
        p = f.value(24.0)
        assert p == pytest.approx(6 * math.exp(-4))
        assert bf_invert(f, p) == pytest.approx(24.0)

    def test_probability_at_or_above_start_returns_zero(self):
        assert bf_invert(ExpBound(0.5, 1), 0.7) == 0.0

    def test_nonpositive_probability_rejected(self):
        with pytest.raises(UnreachableProbability):
            bf_invert(ExpBound(1, 1), 0.0)

    def test_grid_bisection(self):
        xs = np.linspace(0, 20, 2001)
        f = GridBound(xs, 2.0 * np.exp(-xs / 2.0))
        x = bf_invert(f, 0.05)
        assert f.value(x) == pytest.approx(0.05, abs=1e-6)

    def test_grid_unreachable(self):
        with pytest.raises(UnreachableProbability):
            bf_invert(GridBound([0.0, 1.0], [0.5, 0.4]), 0.1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 50.0), st.floats(0.1, 20.0), st.floats(0.2, 8.0))
    def test_roundtrip(self, x, b, a):
        f = ExpBound(a, b)
        p = f.value(x)
        if p >= a:
            return
        assert bf_invert(f, p) == pytest.approx(x, rel=1e-9, abs=1e-9)


class TestShift:
    def test_exp_shift(self):
        out = shift_bound(ExpBound(5, 5), 48.0)
        assert out.params() == (5, 5, 48.0)
        assert out.value(10.0) == 5.0  # below the offset
        assert out.value(53.0) == pytest.approx(5 * math.exp(-1.0))

    def test_negative_shift_clamps_at_origin(self):
        out = shift_bound(ExpBound(5, 5, 2.0), -10.0)
        assert out.params() == (5, 5, 0)

    def test_zero_passthrough(self):
        z = ZeroBound()
        assert shift_bound(z, 100.0) is z


@pytest.mark.parametrize("b", [0.01, 1.0, 10.0])
def test_grid_rule(b):
    # from 0 to the sum of the reaches, at most max(GRID_STEP, span/4000)
    # apart: below 4,000 steps of GRID_STEP and at the 4,001-point cap
    f = ExpBound(1.0, b)
    out = bf_convolve(f, f, exact=True)
    span = 2 * f.reach()
    assert out.xs[0] == 0.0 and out.xs[-1] == pytest.approx(span)
    assert len(out.xs) == min(int(span / GRID_STEP) + 2, 4001)
    assert np.diff(out.xs).max() <= max(GRID_STEP, span / 4000) * (1 + 1e-9)


class TestValidation:
    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            GridBound([0.0, 1.0], [0.1, 0.5])

    def test_lower_grid_must_increase_within_unit(self):
        with pytest.raises(ValueError):
            GridLowerBound([0.0, 1.0], [0.5, 1.5])

    def test_exp_parameter_domains(self):
        with pytest.raises(ValueError):
            ExpBound(-1, 1)
        with pytest.raises(ValueError):
            ExpBound(1, 0)
        with pytest.raises(ValueError):
            ExpBound(1, 1, -1)
