"""Composition rules over information stochastic arrival/service models.

An arrival model pairs a wide-sense increasing envelope on cumulative
information with a decreasing tail bound on the envelope excess; a service
model does the same for guaranteed service.  The operations here compose
them: tandem concatenation, output characterization, node impairment,
parallel aggregation, and the three service-guarantee bounds (backlog,
delay, backlog-within-delay).  Tail bounds are ``ExpBound`` or
``ZeroBound`` (see ``bounding``); sources fuse, with their redundancy
removed, in ``sources.aggregate_information``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounding import BoundingFunction, ExpBound, ZeroBound, _closed, bf_convolve, bf_invert
from .curves import INF, Curve, Segment, convolve, deconvolve, horizontal_deviation


@dataclass(frozen=True)
class IsaSpec:
    """Stochastic arrival model: tail bound + arrival envelope."""

    bounding: BoundingFunction
    curve: Curve

    @property
    def asymptotic_rate(self):
        return self.curve.final_slope


@dataclass(frozen=True)
class IssSpec:
    """Stochastic service model: tail bound + (possibly unclipped) service envelope."""

    bounding: BoundingFunction
    curve: Curve

    @property
    def asymptotic_rate(self):
        return self.curve.final_slope


@dataclass(frozen=True)
class GuaranteeReport:
    """Result of a service-guarantee bound evaluation.

    ``kind`` is one of ``backlog``, ``delay``, ``backlog_within_delay``.
    ``threshold`` is the probed excess (bits) or the requested violation
    probability for the delay direction; ``bound_value`` the tail-probability
    bound (unclamped); ``derived_quantile`` the matching backlog quantile in
    bits or delay quantile in seconds.
    """

    kind: str
    threshold: float
    bound_value: float
    bound_function: BoundingFunction
    derived_quantile: float


def concatenate(servers: list[IssSpec]) -> IssSpec:
    """Tandem of nodes: envelopes and bounds both compose by convolution."""
    if not servers:
        raise ValueError("concatenate needs at least one server")
    curve = servers[0].curve
    bounding = servers[0].bounding
    for srv in servers[1:]:
        curve = convolve(curve, srv.curve)
        bounding = bf_convolve(bounding, srv.bounding)
    return IssSpec(bounding, curve)


def output_bound(arrival: IsaSpec, service: IssSpec) -> IsaSpec:
    """Arrival model of the departures: ``<f (x) g, alpha (/) beta>``."""
    return IsaSpec(bf_convolve(arrival.bounding, service.bounding),
                   deconvolve(arrival.curve, service.curve))


def backlog_bound(arrival: IsaSpec, service: IssSpec, x) -> GuaranteeReport:
    """Tail bound on the information backlog: ``(f (x) g)(x - (alpha (/) beta)(0))``."""
    fg = bf_convolve(arrival.bounding, service.bounding)
    dev = deconvolve(arrival.curve, service.curve).value(0)
    value = fg.value(x - dev)
    return GuaranteeReport("backlog", float(x), float(value), fg,
                           float(max(dev, 0 * dev)))


def delay_bound(arrival: IsaSpec, service: IssSpec, p: float) -> GuaranteeReport:
    """Delay quantile at violation probability ``p``.

    Inverts the composed tail bound at ``p`` to get the excess ``x``, then
    returns the horizontal deviation ``h(alpha^x, [beta]^x)``: the delay D
    satisfies ``Prob{D > quantile} <= p``.
    """
    fg = bf_convolve(arrival.bounding, service.bounding)
    x = bf_invert(fg, p)
    quantile = horizontal_deviation(arrival.curve.shift_up(x), service.curve.floor_at(x))
    return GuaranteeReport("delay", float(p), float(p), fg, float(quantile))


def delay_bound_at(arrival: IsaSpec, service: IssSpec, x) -> GuaranteeReport:
    """Raw direction of the delay theorem: given excess ``x``, the delay
    quantile ``h(alpha^x, [beta]^x)`` holds with probability bound ``(f (x) g)(x)``."""
    fg = bf_convolve(arrival.bounding, service.bounding)
    quantile = horizontal_deviation(arrival.curve.shift_up(x), service.curve.floor_at(x))
    return GuaranteeReport("delay", float(x), float(fg.value(x)), fg, float(quantile))


def service_deficit(arrival: IsaSpec, service: IssSpec, tau):
    """``inf_{v>=0} [beta(v) - alpha(v - tau)]`` with alpha zero-extended.

    Exact over breakpoints of beta, tau-shifted breakpoints of alpha, v=0 and
    v=tau.  Returns ``-inf`` when the service tail is slower than the arrival
    tail (the resulting bound degenerates to its maximum value).
    """
    beta, alpha = service.curve, arrival.curve
    if beta.final_slope < alpha.final_slope:
        return -INF
    cands = {0 * tau, tau}
    cands.update(beta.breakpoints())
    cands.update(tau + t for t in alpha.breakpoints())
    return min(beta.value(v) - alpha.value_zero_ext(v - tau) for v in sorted(cands) if v >= 0)


def backlog_within_delay_bound(arrival: IsaSpec, service: IssSpec, tau, x) -> GuaranteeReport:
    """Tail bound on information not yet delivered ``tau`` after time t:
    ``(f (x) g)(x + inf_v[beta(v) - alpha(v - tau)])``."""
    fg = bf_convolve(arrival.bounding, service.bounding)
    c = service_deficit(arrival, service, tau)
    if c == -INF:
        value = fg.value(0)
    else:
        value = fg.value(x + c)
    return GuaranteeReport("backlog_within_delay", float(x), float(value), fg,
                           float(max(-c, 0 * x)) if c != -INF else INF)


def impair(service: IssSpec, impairment: IsaSpec) -> IssSpec:
    """Service left after an interfering impairment process:
    ``<g (x) f, beta - alpha>`` with unclipped subtraction."""
    return IssSpec(bf_convolve(service.bounding, impairment.bounding),
                   service.curve.subtract(impairment.curve, allow_unclipped=True))


def parallel(servers: list[IssSpec]) -> IssSpec:
    """Work-conserving parallel servers behind a weighted information
    splitter: envelopes add pointwise, bounds compose by convolution.

    The envelope and the bound (the ``ExpBound`` of the summed parameters
    of the exponential bounds, ``ZeroBound`` when there are none) are sums
    taken exactly (ints and Fractions) or exactly rounded (``math.fsum``),
    so any permutation of the servers gives the same result bit for bit."""
    if not servers:
        raise ValueError("parallel needs at least one server")
    points = sorted({t for srv in servers for t in srv.curve.breakpoints()})
    segments = [
        Segment(t,
                _stable_sum([srv.curve._segment_at(t).slope for srv in servers]),
                _stable_sum([srv.curve.value(t) for srv in servers]))
        for t in points
    ]
    curve = Curve(segments)
    _closed("compose in parallel", *(srv.bounding for srv in servers))
    exps = [srv.bounding for srv in servers if not srv.bounding.is_zero]
    bounding: BoundingFunction = (ExpBound(_stable_sum([e.a for e in exps]),
                                           _stable_sum([e.b for e in exps]),
                                           _stable_sum([e.x0 for e in exps]))
                                  if exps else ZeroBound())
    return IssSpec(bounding, curve)


def _stable_sum(values):
    """Order-independent sum: exact for int/Fraction terms, fsum for floats."""
    if all(isinstance(v, (int, Fraction)) for v in values):
        return sum(values)
    return math.fsum(float(v) for v in values)


__all__ = [
    "IsaSpec",
    "IssSpec",
    "GuaranteeReport",
    "concatenate",
    "output_bound",
    "backlog_bound",
    "delay_bound",
    "delay_bound_at",
    "backlog_within_delay_bound",
    "service_deficit",
    "impair",
    "parallel",
]
