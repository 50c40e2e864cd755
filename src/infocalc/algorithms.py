"""Achievable-rate search and transmission scheduling.

``ratecal`` enumerates path subsets, applies interference impairment inside
each subset, concatenates nodes per path and combines the paths in parallel,
yielding the list of stochastically achievable service models (optionally
pruned by the dominance relation).  ``bflr`` (best-fit, largest redundancy)
greedily packs sources onto the paths of each candidate subset, fusing
same-group sources to exploit their redundancy and verifying each path with
the stochastic delay bound.  ``delivery_ratio`` is the relaxation used when
no schedule meets the delay bound: it lower-bounds the fraction of source
information delivered within the bound at a given violation probability.

Both use one greedy packer, ``_pack``, with a different path gate:
``schedule_subset`` gates on the stochastic delay bound, ``delivery_ratio``
on the fused arrival rate staying below the path's service rate.

Most of that work repeats across subsets, so every public call (``ratecal``,
``feasible_rates``, ``bflr``, ``bflr_table``, ``delivery_ratio``) builds one
``_Context`` for its (scenario, ``bounding_overrides``) pair and passes it
down.  The context memoizes, in plain dicts:

* path services, keyed by ``(path id, frozenset(active partners))``, where
  the partners of a path are the paths sharing an impairment entry with it;
  nothing else about the subset changes a path's service;
* each source's Gaussian rate and the rate-sorted source order;
* ``aggregate_information`` results, keyed by the set of source ids;
* ``marginal_redundancy_rate`` results, keyed by ``(candidate id, chosen
  ids)``, with the chosen ids in list order because the redundancy sums
  floats in that order;
* path checks, keyed by the fused source ids, the path's service key, the
  delay and the violation probability.

A context is never shared across calls and dies with the call that built
it, so every answer is the one computed without it, bit for bit and in the
same order.  The functions that take a ``ctx`` build one when given none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .bounding import ExpBound, ZeroBound, bf_convolve, bf_invert, grid_step, shift_bound
from .calculus import (
    GuaranteeReport,
    IsaSpec,
    IssSpec,
    delay_bound,
    parallel,
    service_deficit,
)
from .curves import INF, Curve
from .errors import InfiniteDeviation, SubsetLimitExceeded
from .scenario import Scenario, effective_path_service
from .sources import (
    SourceModel,
    aggregate_information,
    gaussian_arrival_curve,
    marginal_redundancy_rate,
)

SUBSET_LIMIT = 24


@dataclass(frozen=True)
class AchievableRate:
    """One subset of paths and the service it can jointly provide."""

    subset: tuple[str, ...]
    service: IssSpec


@dataclass(frozen=True)
class Schedule:
    """Feasible assignment of sources to the paths of one subset, with the
    per-path delay-bound certificates that proved it."""

    assignment: Mapping[str, str]  # source id -> path id
    subset: tuple[str, ...]
    certificates: Mapping[str, GuaranteeReport]  # path id -> delay report

    def sources_on(self, path_id: str) -> list[str]:
        return sorted(sid for sid, pid in self.assignment.items() if pid == path_id)


@dataclass(frozen=True)
class Infeasible:
    """Negative scheduling answer (a value, not a fault)."""

    reason: str = "no feasible transmission schedule"


@dataclass(frozen=True)
class RatioResult:
    """Lower bound on the information delivery ratio within a delay bound."""

    subset: tuple[str, ...]
    ratio_lower_bound: float
    violation_probability: float
    horizon: float
    undelivered_quantile: float
    clamped: bool = False
    fully_delivered_paths: tuple[str, ...] = ()
    unassigned_sources: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Per-call analysis context
# ---------------------------------------------------------------------------


class _Context:
    """Memo tables of one public call for one (scenario, overrides) pair."""

    def __init__(self, s: Scenario,
                 bounding_overrides: Mapping[str, tuple[float, float]] | None):
        self.s = s
        self.overrides = bounding_overrides
        self.partners = {pid: s.partners(pid) for pid in s.path_ids()}
        self._services: dict[tuple, IssSpec] = {}
        self._rates: dict[str, float] = {}
        self._order: tuple[SourceModel, ...] | None = None
        self._arrivals: dict[frozenset, IsaSpec] = {}
        self._redundancy: dict[tuple, float] = {}
        self._checks: dict[tuple, GuaranteeReport | None] = {}

    def service(self, active: set[str], pid: str) -> tuple[tuple, IssSpec]:
        """Service key and impaired service of ``pid`` inside ``active``."""
        key = (pid, self.partners.get(pid, frozenset()) & active)
        spec = self._services.get(key)
        if spec is None:
            spec = self._services[key] = effective_path_service(self.s, active, pid,
                                                                self.overrides)
        return key, spec

    def rate(self, src: SourceModel) -> float:
        rate = self._rates.get(src.id)
        if rate is None:
            rate = self._rates[src.id] = gaussian_arrival_curve(src).curve.final_slope
        return rate

    def order(self) -> tuple[SourceModel, ...]:
        """Sources by decreasing Gaussian rate, ties by id."""
        if self._order is None:
            self._order = tuple(sorted(self.s.sources, key=lambda src: (-self.rate(src), src.id)))
        return self._order

    def arrival(self, sources: Sequence[SourceModel]) -> IsaSpec:
        key = frozenset(src.id for src in sources)
        spec = self._arrivals.get(key)
        if spec is None:
            spec = self._arrivals[key] = aggregate_information(list(sources), self.s.spatial)
        return spec

    def next_by_redundancy(self, remaining: list[SourceModel],
                           chosen: list[SourceModel]) -> SourceModel:
        """The remaining source of largest marginal redundancy with ``chosen``."""
        chosen_ids = tuple(src.id for src in chosen)

        def redundancy(src):
            key = (src.id, chosen_ids)
            red = self._redundancy.get(key)
            if red is None:
                red = self._redundancy[key] = marginal_redundancy_rate(src, chosen,
                                                                       self.s.spatial)
            return red

        return min(remaining, key=lambda src: (-redundancy(src), -self.rate(src), src.id))

    def check(self, fused: list[SourceModel], service_key: tuple, service: IssSpec,
              p: float, delay: float) -> GuaranteeReport | None:
        key = (frozenset(src.id for src in fused), service_key, delay, p)
        if key not in self._checks:
            self._checks[key] = _path_check(self.arrival(fused), service, p, delay)
        return self._checks[key]


# ---------------------------------------------------------------------------
# RateCal
# ---------------------------------------------------------------------------


def subset_service(s: Scenario, subset: Sequence[str],
                   bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                   *, ctx: _Context | None = None) -> IssSpec:
    """Parallel composition of the subset's impaired end-to-end paths."""
    ctx = ctx or _Context(s, bounding_overrides)
    active = set(subset)
    return parallel([ctx.service(active, pid)[1] for pid in subset])


def ratecal(s: Scenario, prune: bool = False,
            bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
            *, ctx: _Context | None = None) -> list[AchievableRate]:
    """Stochastically achievable information delivery rates: one per non-empty
    path subset; with ``prune``, dominated subsets are dropped."""
    ids = s.path_ids()
    if len(ids) > SUBSET_LIMIT:
        raise SubsetLimitExceeded(f"{len(ids)} paths exceed the 2^{SUBSET_LIMIT} guard")
    ctx = ctx or _Context(s, bounding_overrides)
    rates = []
    for k in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            rates.append(AchievableRate(combo, subset_service(s, combo, bounding_overrides,
                                                              ctx=ctx)))
    if prune:
        rates = [r for r in rates
                 if not any(o is not r and dominates(o.service, r.service) for o in rates)]
    return rates


def dominates(a: IssSpec, b: IssSpec) -> bool:
    """True iff ``a`` is strictly better: curve above for all t > 0 and
    bounding below for all x.  Exponential/affine forms are compared by
    parameters; anything else falls back to a sampled comparison."""
    return _curve_strictly_above(a.curve, b.curve) and _bounding_le(a.bounding, b.bounding)


def _curve_strictly_above(a: Curve, b: Curve) -> bool:
    points = sorted(set(a.breakpoints()) | set(b.breakpoints()))
    if a.value(0) < b.value(0):
        return False
    for t in points[1:]:
        if not a.value(t) > b.value(t):
            return False
    probe = points[-1] + 1
    if not a.value(probe) > b.value(probe):
        return False
    return a.final_slope >= b.final_slope


def _bounding_le(f, g) -> bool:
    if f.is_zero:
        return True
    if g.is_zero:
        return False
    if isinstance(f, ExpBound) and isinstance(g, ExpBound):
        return f.a <= g.a and f.b <= g.b and f.x0 <= g.x0
    # sampled fallback over the configured grid
    step = grid_step()
    x_max = max(f.reach(), g.reach(), 1.0)
    n = min(int(x_max / step) + 2, 2001)
    for k in range(n):
        x = x_max * k / (n - 1)
        if f.value(x) > g.value(x) + 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# BFLR
# ---------------------------------------------------------------------------


def _path_order(s: Scenario, subset: Sequence[str]) -> list[str]:
    # ordered by standalone service rate; in-subset impaired rates would
    # reorder tied paths and break the published assignment pattern
    return sorted(subset, key=lambda pid: (-s.path(pid).standalone_rate, pid))


def _path_check(arrival, service, p: float, delay: float) -> GuaranteeReport | None:
    """Stochastic delay-bound feasibility of one path for one fused arrival set."""
    if arrival.asymptotic_rate >= service.asymptotic_rate:
        return None
    try:
        report = delay_bound(arrival, service, p)
    except InfiniteDeviation:
        return None
    return report if report.derived_quantile <= delay else None


def _pack(ctx: _Context, subset: Sequence[str],
          fits: Callable[[list[SourceModel], tuple, IssSpec], object | None],
          ) -> tuple[dict[str, str], dict[str, object], list[SourceModel]]:
    """Best-fit/largest-redundancy packing of all sources onto one subset.

    Each path, in ``_path_order``, takes the fastest remaining source below
    its rate and grows the fused set by largest marginal redundancy while
    ``fits(fused, service_key, service)`` is not None.  Returns the
    assignment, the last passing ``fits`` value per used path and the
    sources left over."""
    active = set(subset)
    remaining = list(ctx.order())
    assignment: dict[str, str] = {}
    gates: dict[str, object] = {}
    for pid in _path_order(ctx.s, subset):
        if not remaining:
            break
        key, service = ctx.service(active, pid)
        best = next((src for src in remaining
                     if ctx.rate(src) < service.asymptotic_rate), None)
        if best is None:
            continue
        chosen = [best]
        gate = fits(chosen, key, service)
        if gate is None:
            continue
        remaining.remove(best)
        while remaining:
            cand = ctx.next_by_redundancy(remaining, chosen)
            trial = fits(chosen + [cand], key, service)
            if trial is None:
                break
            chosen.append(cand)
            remaining.remove(cand)
            gate = trial
        for src in chosen:
            assignment[src.id] = pid
        gates[pid] = gate
    return assignment, gates, remaining


def schedule_subset(s: Scenario, subset: Sequence[str], delay: float, p: float,
                    bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                    *, ctx: _Context | None = None) -> Schedule | Infeasible:
    """Best-fit/largest-redundancy packing of all sources onto one subset,
    each path gated by its stochastic delay bound."""
    ctx = ctx or _Context(s, bounding_overrides)
    assignment, certificates, remaining = _pack(
        ctx, subset, lambda fused, key, service: ctx.check(fused, key, service, p, delay))
    if remaining:
        return Infeasible(f"sources left unassigned on subset {tuple(subset)}: "
                          f"{sorted(src.id for src in remaining)}")
    return Schedule(assignment, tuple(subset), certificates)


def feasible_rates(s: Scenario, prune: bool = False,
                   bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                   *, ctx: _Context | None = None) -> list[AchievableRate]:
    """RateCal output filtered to rates at or above the total arrival rate of
    the source set, sorted by decreasing rate (ties by subset id)."""
    ctx = ctx or _Context(s, bounding_overrides)
    total = ctx.arrival(s.sources).asymptotic_rate
    rates = [r for r in ratecal(s, prune, bounding_overrides, ctx=ctx)
             if r.service.asymptotic_rate >= total]
    rates.sort(key=lambda r: (-float(r.service.asymptotic_rate), r.subset))
    return rates


def bflr(s: Scenario, delay: float, p: float, prune: bool = False,
         bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
         ) -> Schedule | Infeasible:
    """Search for a feasible transmission schedule.

    Tries the achievable subsets in decreasing-rate order and returns the
    first feasible best-fit/largest-redundancy packing; ``Infeasible`` after
    all subsets have been checked.
    """
    ctx = _Context(s, bounding_overrides)
    for rate in feasible_rates(s, prune, bounding_overrides, ctx=ctx):
        result = schedule_subset(s, rate.subset, delay, p, bounding_overrides, ctx=ctx)
        if isinstance(result, Schedule):
            return result
    return Infeasible()


def bflr_table(s: Scenario, delay: float, p: float, prune: bool = False,
               bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
               ) -> list[tuple[tuple[str, ...], Schedule | Infeasible]]:
    """Per-subset scheduling outcomes for every above-rate subset (the
    published-results table enumerates these rather than stopping early)."""
    ctx = _Context(s, bounding_overrides)
    return [(rate.subset, schedule_subset(s, rate.subset, delay, p, bounding_overrides, ctx=ctx))
            for rate in feasible_rates(s, prune, bounding_overrides, ctx=ctx)]


# ---------------------------------------------------------------------------
# Delivery ratio
# ---------------------------------------------------------------------------


def delivery_ratio(s: Scenario, schedule_or_subset, delay: float, p: float, horizon: float,
                   bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                   ) -> RatioResult:
    """Lower bound on the fraction of source information delivered within
    ``delay`` seconds, violated with probability at most ``p``.

    Per path the backlog-within-delay bound is inverted at ``p``; paths whose
    plain delay quantile already meets ``delay`` contribute a Zero bound
    (they deliver fully).  Path bounds combine by convolution, and source-side
    cross-path redundancy carries to the sink unchanged, so the combined
    quantile subtracts directly from the aggregate source information.
    """
    if not 0 < p <= 1:
        raise ValueError("violation probability must lie in (0, 1]")
    ctx = _Context(s, bounding_overrides)
    if isinstance(schedule_or_subset, Schedule):
        subset = schedule_or_subset.subset
        assignment = dict(schedule_or_subset.assignment)
        leftovers = [src for src in s.sources if src.id not in assignment]
    else:
        subset = tuple(schedule_or_subset)

        def below_rate(fused, key, service):
            arrival = ctx.arrival(fused)
            return arrival if arrival.asymptotic_rate < service.asymptotic_rate else None

        assignment, _, leftovers = _pack(ctx, subset, below_rate)

    by_path: dict[str, list[SourceModel]] = {}
    for src in s.sources:
        pid = assignment.get(src.id)
        if pid is not None:
            by_path.setdefault(pid, []).append(src)

    active = set(subset)
    combined = ZeroBound()
    full_paths = []
    for pid in sorted(by_path):
        key, service = ctx.service(active, pid)
        if ctx.check(by_path[pid], key, service, p, delay) is not None:
            full_paths.append(pid)
            continue
        arrival = ctx.arrival(by_path[pid])
        c = service_deficit(arrival, service, delay)
        if c == -INF:
            # the path cannot keep up at all: count its sources as undelivered
            leftovers = leftovers + by_path[pid]
            continue
        fg = bf_convolve(arrival.bounding, service.bounding)
        combined = bf_convolve(combined, shift_bound(fg, -c))

    quantile = 0.0 if combined.is_zero else bf_invert(combined, p)
    h_total = float(ctx.arrival(s.sources).curve.value(horizon))
    # source-side cross-path redundancy carries to the sink unchanged,
    # so the aggregate envelope is the right denominator
    h_left = float(ctx.arrival(leftovers).curve.value(horizon))
    if h_total > 0:
        raw = (h_total - h_left - quantile) / h_total
    else:
        raw = 1.0 if quantile == 0 and not leftovers else 0.0
    clamped = raw < 0
    return RatioResult(subset, max(0.0, raw), p, horizon, quantile,
                       clamped=clamped,
                       fully_delivered_paths=tuple(full_paths),
                       unassigned_sources=tuple(sorted(src.id for src in leftovers)))


def calibrate_horizon(s: Scenario, subset: Sequence[str], delay: float, p: float,
                      target_ratio: float,
                      bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                      ) -> float:
    """Horizon t for which the delivery-ratio lower bound equals
    ``target_ratio`` on the given subset/delay/probability cell."""
    if not 0 < target_ratio < 1:
        raise ValueError("target ratio must lie in (0, 1)")
    probe = delivery_ratio(s, subset, delay, p, horizon=1.0,
                           bounding_overrides=bounding_overrides)
    needed = probe.undelivered_quantile / (1.0 - target_ratio)
    total_curve = aggregate_information(list(s.sources), s.spatial).curve
    t = total_curve.first_reach(needed)
    if t == INF:
        raise ValueError("target ratio unreachable: total information never reaches the required level")
    return float(t)


__all__ = [
    "AchievableRate",
    "Schedule",
    "Infeasible",
    "RatioResult",
    "subset_service",
    "ratecal",
    "dominates",
    "schedule_subset",
    "bflr",
    "bflr_table",
    "feasible_rates",
    "delivery_ratio",
    "calibrate_horizon",
    "SUBSET_LIMIT",
]
