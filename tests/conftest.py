"""Shared fixtures: lattice random curves and random scenarios.

Random piecewise-affine curves are generated on a time lattice (multiples of
8e-4 s) with slopes that are power-of-two multiples of value_step/time_step,
so every level crossing and every min-plus breakpoint lands on the 1e-4
oracle grid and dense-grid brute force is exact (not merely approximate).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from infocalc.curves import Curve, Segment
from infocalc.scenario import ImpairmentEntry, Node, Path, Scenario, case_study_scenario
from infocalc.sources import SourceModel, SpatialModel

T_STEP = 8e-4          # lattice spacing for curve breakpoints
V_STEP = 0.25          # lattice spacing for curve values
ORACLE_STEP = 1e-4     # dense-grid oracle step (divides T_STEP and crossings)
SLOPE_UNIT = V_STEP / T_STEP  # 312.5


def lattice_curve(rng: np.random.Generator, max_segs: int = 4, allow_neg: bool = False,
                  allow_flat: bool = True, exact: bool = False) -> Curve:
    """Random wide-sense increasing curve on the lattice (see module docstring)."""
    n = int(rng.integers(1, max_segs + 1))
    starts = sorted(rng.choice(np.arange(1, 30), size=n - 1, replace=False).tolist())
    starts = [0] + starts
    v_units = int(rng.integers(-12, 1)) if allow_neg else int(rng.integers(0, 13))
    slope_choices = [0, 1, 2, 4, 8] if allow_flat else [1, 2, 4, 8]
    segs = []
    v = v_units
    for i, t_units in enumerate(starts):
        k = int(rng.choice(slope_choices))
        if exact:
            t0 = Fraction(t_units) * Fraction(8, 10000)
            segs.append(Segment(t0, k * Fraction(int(V_STEP * 4), 4) / Fraction(8, 10000),
                                Fraction(v) * Fraction(1, 4)))
        else:
            segs.append(Segment(t_units * T_STEP, k * SLOPE_UNIT, v * V_STEP))
        if i + 1 < len(starts):
            v += k * (starts[i + 1] - t_units)  # value stays on the V_STEP lattice
    if exact:
        # rebuild values exactly to keep continuity in Fraction arithmetic
        fixed = [segs[0]]
        for prev, cur in zip(segs, segs[1:]):
            val = fixed[-1].value + fixed[-1].slope * (cur.start - fixed[-1].start)
            fixed.append(Segment(cur.start, cur.slope, val))
        segs = fixed
    return Curve(segs)


def np_eval(curve: Curve, ts: np.ndarray) -> np.ndarray:
    """Vectorized curve evaluation."""
    starts = np.array([float(s.start) for s in curve.segments])
    slopes = np.array([float(s.slope) for s in curve.segments])
    values = np.array([float(s.value) for s in curve.segments])
    idx = np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, len(starts) - 1)
    return values[idx] + slopes[idx] * (ts - starts[idx])


def np_bound(f, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of a ``ZeroBound`` or an ``ExpBound``."""
    if f.is_zero:
        return np.zeros_like(xs)
    return float(f.a) * np.exp(-np.maximum(xs - float(f.x0), 0.0) / float(f.b))


@pytest.fixture(scope="session")
def case_study():
    return case_study_scenario()


@pytest.fixture(scope="session")
def case_study_exact():
    return case_study_scenario(exact=True)


def near_linear_source() -> SourceModel:
    """A 2 bit/s source sampled every 0.2 s whose two arrival-curve slopes
    differ by about 5e-11 bit/s (2.5e-11 of its rate, above
    ``curves.MERGE_TOL``): summed with a source of a few thousand bit/s whose
    knee comes first, that knee is the sum's last and is merged away."""
    from infocalc.sources import calibrate_sigma2

    return SourceModel("near", calibrate_sigma2(2.0, 0.2, 0.08), 0.08, 0.2, "near")


def random_scenario(rng: np.random.Generator, max_paths: int = 4) -> Scenario:
    """Small random scenario in the case-study family (node-disjoint paths of
    latency-rate nodes, exponential bounds, 1-3 symmetric sources per group)."""
    n_paths = int(rng.integers(2, max_paths + 1))
    paths = []
    for p in range(n_paths):
        n_nodes = int(rng.integers(1, 4))
        nodes = tuple(
            Node(f"P{p}.n{j}",
                 float(rng.choice([1.0, 1.0, 2.0])),
                 float(rng.choice([1.0, 2.0])),
                 float(rng.choice([4000.0, 6000.0, 8000.0, 12000.0])),
                 float(rng.choice([0.002, 0.005, 0.010, 0.020])))
            for j in range(n_nodes)
        )
        paths.append(Path(f"P{p}", nodes))
    impairments = []
    n_imp = int(rng.integers(0, 3))
    pairs = [(i, j) for i in range(n_paths) for j in range(i + 1, n_paths)]
    if pairs and n_imp:
        for k in rng.choice(len(pairs), size=min(n_imp, len(pairs)), replace=False):
            i, j = pairs[int(k)]
            ia = int(rng.integers(0, len(paths[i].nodes)))
            ib = int(rng.integers(0, len(paths[j].nodes)))
            impairments.append(ImpairmentEntry(
                (f"P{i}", ia), (f"P{j}", ib),
                float(rng.choice([3.0, 4.0])), float(rng.choice([3.0, 4.0])),
                float(rng.choice([0.2, 0.25, 1.0 / 3.0])), None,
                float(rng.choice([0.005, 0.0075]))))
    n_groups = int(rng.integers(1, 4))
    sources, coeffs = [], {}
    for g in range(n_groups):
        size = int(rng.integers(1, 4))
        rate = float(rng.choice([600.0, 1200.0, 1800.0, 2400.0]))
        from infocalc.sources import calibrate_sigma2

        sigma2 = calibrate_sigma2(rate, 0.1, 100.0)
        for m in range(size):
            sources.append(SourceModel(f"S{g}.{m}", sigma2, 100.0, 0.1, f"g{g}"))
        c2 = float(rng.choice([1.5, 1.7, 1.9]))
        coeffs[f"g{g}"] = {2: c2, 3: min(3.0, c2 + float(rng.choice([0.4, 0.6, 0.8])))}
    return Scenario(tuple(sources), SpatialModel(coeffs), tuple(paths), tuple(impairments))
