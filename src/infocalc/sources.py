"""Entropy models for the correlated-sensor case study.

Each source periodically samples a stationary Gaussian process with
exponential temporal covariance ``sigma^2 * exp(-|tau|/eta)``; the entropy of
a length-t sample block has a two-segment affine envelope in continuous time
(continuous at the sampling interval).  Spatial redundancy within a source
group is captured by aggregate coefficients: a subset of k identical sources
carries ``coeff(k)`` times the single-source information, with
``1 <= coeff(k) <= k`` and coeff non-decreasing in k.

Information is entropy in bits: every logarithm is base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .bounding import ZeroBound
from .calculus import IsaSpec
from .curves import Curve, Segment
from .errors import DegenerateVariance, InconsistentGroup, NumericalSingularity

TWO_PI_E = 2.0 * math.pi * math.e
LN2 = math.log(2.0)
#: log-determinant oracle caps the covariance block size here
MAX_BLOCK = 64


@dataclass(frozen=True)
class SourceModel:
    """One information source: Gaussian variance, correlation constant,
    sampling interval, and its spatial group."""

    id: str
    sigma2: float
    eta: float
    delta: float
    group_id: str

    def __post_init__(self):
        if self.sigma2 <= 0 or self.eta <= 0 or self.delta <= 0:
            raise ValueError("sigma2, eta and delta must all be positive")


@dataclass(frozen=True)
class SpatialModel:
    """Per-group aggregate coefficients keyed by subset size (multiples of
    the single-source information)."""

    coefficients: Mapping[str, Mapping[int, float]]

    def __post_init__(self):
        for group, table in self.coefficients.items():
            prev = 1.0
            for k in sorted(table):
                c = table[k]
                if not 1.0 <= c <= k:
                    raise ValueError(f"group {group}: coefficient {c} for size {k} outside [1, {k}]")
                if c < prev:
                    raise ValueError(f"group {group}: coefficients must be non-decreasing")
                prev = c

    def coefficient(self, group: str, k: int) -> float:
        if k == 0:
            return 0.0
        if k == 1:
            return 1.0
        table = self.coefficients.get(group, {})
        if k not in table:
            raise ValueError(f"no aggregate coefficient for {k} sources in group {group}")
        return float(table[k])


def _innovation(eta: float) -> float:
    """Variance shrink factor 1 - e^{-2/eta} of consecutive samples."""
    return -math.expm1(-2.0 / eta)


def gaussian_arrival_curve(m: SourceModel) -> IsaSpec:
    """Deterministic arrival model of one source.

    First segment (one sampling interval): slope ``log(2*pi*e*sigma^2)/(2*delta)``;
    afterwards the innovations dominate: slope
    ``log(2*pi*e*sigma^2*(1 - e^{-2/eta}))/(2*delta)`` with the positive offset
    ``-log(1 - e^{-2/eta})/2``.  Both branches agree at the interval boundary.
    """
    q = _innovation(m.eta)
    long_arg = TWO_PI_E * m.sigma2 * q
    if long_arg <= 1.0:
        raise DegenerateVariance(
            f"2*pi*e*sigma2*(1-e^(-2/eta)) = {long_arg} <= 1: long-term entropy rate not positive")
    slope1 = math.log(TWO_PI_E * m.sigma2) / LN2 / (2.0 * m.delta)
    slope2 = math.log(long_arg) / LN2 / (2.0 * m.delta)
    knee = slope1 * m.delta  # = -log(1-q)/2 + slope2*delta, continuity by construction
    curve = Curve([Segment(0.0, slope1, 0.0), Segment(m.delta, slope2, knee)])
    return IsaSpec(ZeroBound(), curve)


def entropy_of_gaussian_block(m: SourceModel, t: int) -> float:
    """Differential entropy of ``t`` consecutive samples via the covariance
    log-determinant: the independent oracle for :func:`gaussian_arrival_curve`."""
    if t < 1:
        raise ValueError("block length must be >= 1")
    if t > MAX_BLOCK:
        raise NumericalSingularity(f"block length {t} exceeds cap {MAX_BLOCK}")
    idx = np.arange(t)
    cov = m.sigma2 * np.exp(-np.abs(idx[:, None] - idx[None, :]) / m.eta)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericalSingularity(f"covariance determinant degenerate for t={t}")
    return 0.5 * (t * math.log(TWO_PI_E) + logdet) / LN2


def calibrate_sigma2(target_rate: float, delta: float, eta: float) -> float:
    """Variance for which the long-term information rate equals ``target_rate``.

    The per-sample entropy ``2*delta*target_rate`` must stay within float64
    range (about 1000 bits); beyond that the variance is not representable.
    """
    bits = 2.0 * delta * target_rate
    if bits > 1000.0:
        raise ValueError(
            f"per-sample entropy {bits:.0f} bits exceeds the representable variance range")
    q = _innovation(eta)
    sigma2 = 2.0 ** bits / (TWO_PI_E * q)
    if not math.isfinite(sigma2):
        raise ValueError(f"variance for {target_rate:g} bit/s at eta={eta:g} is not representable")
    return sigma2


def _require_symmetric(sources: Sequence[SourceModel]) -> SourceModel:
    first = sources[0]
    for s in sources[1:]:
        if s.group_id != first.group_id:
            raise InconsistentGroup(f"sources {first.id} and {s.id} are in different groups")
        if (s.sigma2, s.eta, s.delta) != (first.sigma2, first.eta, first.delta):
            raise InconsistentGroup(
                f"group {first.group_id} mixes parameters ({first.id} vs {s.id}); the "
                "coefficient model is defined for identical sources only")
    return first


def _single_rate(src: SourceModel) -> float:
    """Asymptotic rate of one source: the final slope of its arrival curve
    (so a curve whose two segments merged reads the merged slope)."""
    return gaussian_arrival_curve(src).curve.final_slope


def _by_group(sources: Sequence[SourceModel]) -> dict[str, list[SourceModel]]:
    by_group: dict[str, list[SourceModel]] = {}
    for s in sources:
        by_group.setdefault(s.group_id, []).append(s)
    return by_group


def group_information(sources: Sequence[SourceModel], spatial: SpatialModel) -> IsaSpec:
    """Combined arrival model of same-group sources: the single-source curve
    scaled by the group's aggregate coefficient for the subset size."""
    if not sources:
        raise ValueError("group_information needs at least one source")
    first = _require_symmetric(sources)
    single = gaussian_arrival_curve(first)
    coeff = spatial.coefficient(first.group_id, len(sources))
    return IsaSpec(ZeroBound(), single.curve.scale(coeff))


def aggregate_information(sources: Sequence[SourceModel], spatial: SpatialModel) -> IsaSpec:
    """Arrival model of an arbitrary source set: coefficients within groups,
    independent addition across groups."""
    if not sources:
        return IsaSpec(ZeroBound(), Curve.zero())
    by_group = _by_group(sources)
    curve = None
    for group in sorted(by_group):
        part = group_information(by_group[group], spatial).curve
        curve = part if curve is None else curve + part
    return IsaSpec(ZeroBound(), curve)


def _aggregate_rate(sources: Sequence[SourceModel], spatial: SpatialModel,
                    rate: Callable[[SourceModel], float]) -> float:
    """Asymptotic rate of :func:`aggregate_information` without its curve,
    from the single-source rate ``rate``.

    Asymptotic rates add (Le Boudec & Thiran, *Network Calculus*, 2001), so
    the final slope is, per group in sorted order, the group's coefficient
    times the single-source rate, summed left to right: the products and
    sums ``Curve.scale`` and ``Curve.__add__`` form on the final segments,
    in their order.  The fold checks each group and looks up its
    coefficient as :func:`group_information` does, so it raises where that
    does.  It differs from the curve's final slope only where the curve
    sum's merge of collinear segments (``curves.MERGE_TOL``, 1e-12
    relative) drops the last knee, one that changes the total slope by
    less than 1e-12 of it: the fold then returns the sum of the groups'
    final slopes, the curve the slope before that knee."""
    by_group = _by_group(sources)
    total = 0.0
    for group in sorted(by_group):
        first = _require_symmetric(by_group[group])
        single = rate(first)
        total += spatial.coefficient(first.group_id, len(by_group[group])) * single
    return total


def _subset_redundancy_rate(sources: Sequence[SourceModel], spatial: SpatialModel,
                            rate: Callable[[SourceModel], float]) -> float:
    """:func:`subset_redundancy_rate` from the single-source rate ``rate``."""
    if not sources:
        return 0.0
    total_single = sum(rate(s) for s in sources)
    return float(total_single - _aggregate_rate(sources, spatial, rate))


def aggregate_rate(sources: Sequence[SourceModel], spatial: SpatialModel) -> float:
    """Asymptotic rate of :func:`aggregate_information`, summed as scalars
    (see :func:`_aggregate_rate`)."""
    return _aggregate_rate(sources, spatial, _single_rate)


def subset_redundancy_rate(sources: Sequence[SourceModel], spatial: SpatialModel) -> float:
    """Asymptotic rate of the redundant information of a source set:
    ``sum_i H(A_i) - H(sum_i A_i)`` per unit time."""
    return _subset_redundancy_rate(sources, spatial, _single_rate)


def marginal_redundancy_rate(candidate: SourceModel, chosen: Sequence[SourceModel],
                             spatial: SpatialModel) -> float:
    """Redundancy-rate increase of adding ``candidate`` to ``chosen``: the
    quantity the best-fit-largest-redundancy greedy maximizes."""
    base_red = subset_redundancy_rate(list(chosen), spatial)
    new_red = subset_redundancy_rate(list(chosen) + [candidate], spatial)
    return new_red - base_red


__all__ = [
    "SourceModel",
    "SpatialModel",
    "gaussian_arrival_curve",
    "entropy_of_gaussian_block",
    "calibrate_sigma2",
    "group_information",
    "aggregate_information",
    "aggregate_rate",
    "subset_redundancy_rate",
    "marginal_redundancy_rate",
]
