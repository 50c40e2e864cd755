"""Tail-bound algebra: closed forms, inversion round-trips, monotonicity, and
the refusal of any bound outside the closed family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import np_bound
from infocalc import algorithms
from infocalc.bounding import (
    ExpBound,
    GridBound,
    GridLowerBound,
    ZeroBound,
    bf_convolve,
    bf_invert,
    shift_bound,
)
from infocalc.calculus import IssSpec, parallel
from infocalc.curves import Curve
from infocalc.errors import UnreachableProbability


def exact_exp_convolution_value(f: ExpBound, g: ExpBound, x: float) -> float:
    """True infimum of ``f(s) + g(x-s)`` over ``0 <= s <= x``: the ends, the
    offsets and the stationary point of the two exponentials."""
    a1, b1, x01 = float(f.a), float(f.b), float(f.x0)
    a2, b2, x02 = float(g.a), float(g.b), float(g.x0)
    cands = [0.0, x]
    if a1 > 0 and a2 > 0:
        # stationary point of a1 e^{-(s-x01)/b1} + a2 e^{-(x-s-x02)/b2}
        s = (b1 * b2 / (b1 + b2)) * (math.log(a1 * b2 / (a2 * b1)) + (x - x02) / b2 + x01 / b1)
        if 0 < s < x:
            cands.append(s)
    cands.extend(v for v in (x01, x - x02) if 0 < v < x)
    return min(f.value(s) + g.value(x - s) for s in cands)


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

    def test_oracle_matches_a_dense_scan(self):
        # the infimum oracle against f(s) + g(x - s) on 20,001 splits
        rng = np.random.default_rng(11)
        for _ in range(200):
            a1, a2, b1, b2 = rng.uniform(0.5, 6, size=4)
            x01, x02 = rng.choice([0.0, 0.0, 1.5, 4.0], size=2)
            x = rng.uniform(0, 30)
            f, g = ExpBound(a1, b1, x01), ExpBound(a2, b2, x02)
            split = np.linspace(0.0, x, 20_001)
            scan = np.min(np_bound(f, split) + np_bound(g, x - split))
            exact = exact_exp_convolution_value(f, g, x)
            assert exact <= scan + 1e-12
            assert exact == pytest.approx(scan, rel=1e-6, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_results_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        f = ExpBound(rng.uniform(0.5, 5), rng.uniform(0.5, 5))
        g = ExpBound(rng.uniform(0.5, 5), rng.uniform(0.5, 5))
        out = bf_convolve(f, g)
        xs = np.sort(rng.uniform(0, 40, size=20))
        vals = [out.value(x) for x in xs]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


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


class TestValidation:
    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            GridBound([0.0, 1.0], [0.1, 0.5])

    def test_lower_grid_must_increase_within_unit(self):
        with pytest.raises(ValueError):
            GridLowerBound([0.0, 1.0], [0.5, 1.5])

    @pytest.mark.parametrize("cls, ys", [(GridBound, [1.0, 0.0]), (GridLowerBound, [0.0, 1.0])])
    def test_knots_at_least_the_smallest_normal_apart(self, cls, ys):
        # between knots a subnormal apart np.interp overflows: the bound
        # would read -inf at 1.1e-313
        with pytest.raises(ValueError):
            cls([0.0, 2.2250738585e-313], ys)
        tiny = np.finfo(float).tiny
        assert cls([0.0, tiny], ys).value(tiny / 2) == pytest.approx(0.5)

    def test_exp_parameter_domains(self):
        with pytest.raises(ValueError):
            ExpBound(-1, 1)
        with pytest.raises(ValueError):
            ExpBound(1, 0)
        with pytest.raises(ValueError):
            ExpBound(1, 1, -1)


GRID = GridBound([0.0, 10.0], [0.5, 0.1])
EXP_SERVICE = IssSpec(ExpBound(1, 1), Curve.affine(1.0))
GRID_SERVICE = IssSpec(GRID, Curve.affine(1.0))


@pytest.mark.parametrize("call", [
    lambda: bf_convolve(ExpBound(1, 1), GRID),
    lambda: bf_convolve(GRID, ZeroBound()),
    lambda: parallel([EXP_SERVICE, GRID_SERVICE]),
    lambda: bf_invert(GRID, 0.1),
    lambda: shift_bound(GRID, 1.0),
    # a Zero service strictly above: the grid test used to answer True
    lambda: algorithms.dominates(IssSpec(ZeroBound(), Curve.affine(2.0)), GRID_SERVICE),
    lambda: algorithms._bounding_le(ZeroBound(), GRID),
    lambda: algorithms._bounding_le(GRID, ExpBound(1, 1)),
], ids=["convolve", "convolve-zero", "parallel", "invert", "shift", "dominates",
        "le-zero-left", "le-grid-left"])
def test_bounds_outside_the_closed_family_are_refused(call):
    with pytest.raises(TypeError, match="only ExpBound and ZeroBound"):
        call()
