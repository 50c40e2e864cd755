"""Achievable-rate search and transmission scheduling.

``ratecal`` enumerates path subsets, applies interference impairment inside
each subset, concatenates nodes per path and combines the paths in parallel,
yielding the list of stochastically achievable service models (optionally
pruned by the dominance relation).

Pruning does not compare every pair of subsets.  Tail bounds are
``ExpBound`` or ``ZeroBound`` only, so ``dominates(a, b)`` can only hold
when ``a``'s curve value at 0 and final slope are at least ``b``'s and
``a``'s bound at 0 is at most ``b``'s: ``_curve_strictly_above`` tests the
first at its start and the second at its end, and ``_bounding_le`` holds
for a Zero left side (value 0) and otherwise compares two exponentials by
their parameters, the value at 0 (``a``) among them.  Rounding a Fraction
or an int to float is monotone, so the three conditions still hold on
floats.  Pruning therefore filters the candidate dominators of each subset
with numpy on those three floats and lets ``dominates`` decide only those:
the kept list, and its order, are those of the all-pairs scan.  The filter
is ``_may_dominate`` on ``_filter_keys``; ``_Dominance`` applies it with
``dominates`` to a whole list, for ``ratecal`` and for the pruned ``bflr``
stream, and ``_dominators_first`` to the services of an equal-rate group.

``bflr`` (best-fit, largest redundancy) greedily packs sources onto the
paths of each candidate subset, fusing same-group sources to exploit their
redundancy and verifying each path with the stochastic delay bound.  It
tries the subsets whose rate reaches the sources' total rate by decreasing
rate and stops at the first feasible packing.  ``_best_first`` builds a
subset's service only once the sum of its paths' standalone rates is the
largest left.  That sum bounds the subset's rate from above, because
impairment only subtracts; so the order is that of building and sorting
them all.  Equal rates go with each subset after every subset that
dominates it, and otherwise by subset id (``_dominators_first``), so that
``bflr`` never chooses a dominated subset over a feasible equal-rate subset
that dominates it.  An infeasible answer still tries every subset whose
bound reaches the total rate, because the greedy packing is not monotone in
the subset.  ``SUBSET_LIMIT`` refuses the full listings (``ratecal``,
``feasible_rates``, ``bflr_table``) above 24 paths, and ``bflr`` only after
it has built 2^24 - 1 subsets.

``delivery_ratio`` is the relaxation used when no schedule meets the delay
bound: it lower-bounds the fraction of source information delivered within
the bound at a given violation probability.

Both use one greedy packer, ``_pack``, with a different path gate:
``schedule_subset`` gates on the stochastic delay bound, ``delivery_ratio``
on the fused arrival rate staying below the path's service rate.

The packer asks only for rates: the marginal redundancy rate of a
candidate, and whether a fused set's rate lies below a path's service rate.
Both are scalars (``sources.aggregate_rate``, a per-group coefficient times
a single-source rate, summed in the order the curve algebra sums final
slopes), so an arrival curve is built only where a delay bound or a
service deficit is computed.  The scalar equals the curve's final slope
bit for bit, except where the curve sum drops a last knee that changes
the slope by less than ``curves.MERGE_TOL`` of it (see
``sources._aggregate_rate``).

Most of that work repeats across subsets, so every public call (``ratecal``,
``feasible_rates``, ``bflr``, ``bflr_table``, ``delivery_ratio``,
``delivery_ratio_table``, ``calibrate_horizon``) builds one ``_Context`` for
its (scenario, ``bounding_overrides``) pair and passes it down.
``delivery_ratio_table`` answers all its subsets on one context.  Many paths
have equal services (on the ten-path benchmark scenario, 20 (path,
partners) keys give 8 services, and the 968 above-rate subsets 183
multisets of them), so the context shares work between equal services, not
only between equal keys.  It memoizes, in plain dicts:

* path services, keyed by ``(path id, frozenset(active partners))``, where
  the partners of a path are the paths sharing an impairment entry with it;
  nothing else about the subset changes a path's service;
* service ids: each path service is interned by its value, and an equal
  service shares the first one's id only when its clipping flag and the
  repr of each of its numbers match too (``_numbers``: an equal Fraction,
  int or -0.0 computes differently); everything below keys on the id,
  which stands for the value;
* subset services (``parallel``), keyed by the sorted tuple of the subset's
  service ids: ``parallel`` sums exactly, so it gives the same bits in any
  order;
* each source's Gaussian rate and the rate-sorted source order;
* ``aggregate_information`` results, keyed by the set of source ids;
* fused rates (``aggregate_rate``), keyed by the set of source ids;
* redundancy rates (``subset_redundancy_rate``), keyed by the source ids in
  list order, because the redundancy sums floats in that order; a marginal
  redundancy rate is the difference of two of them, as in
  ``marginal_redundancy_rate``;
* path checks, keyed by the fused source ids, the service id, the delay and
  the violation probability;
* packing steps (``_Context.step``), keyed by the gate (``("delay", p,
  delay)`` or ``("rate",)``), the bitmask of the sources still left over
  the source order, and the service id: one path's greedy step reads
  nothing else.

Each memo key holds everything its value depends on besides the scenario
and overrides, so sharing a context between queries changes no answer:
every answer is the one computed without it, bit for bit and in the same
order.  A context dies with the public call that built it.  It also holds
each path's standalone rate, which orders the paths of a packing and bounds
a subset's rate.  The functions that take a ``ctx`` (``subset_service``,
``ratecal``, ``schedule_subset``, ``feasible_rates``, ``delivery_ratio``)
build one when given none.  A subset that names a path twice is a
``ValidationError``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bounding import ExpBound, ZeroBound, _closed, bf_convolve, bf_invert, shift_bound
from .calculus import (
    GuaranteeReport,
    IsaSpec,
    IssSpec,
    delay_bound,
    parallel,
    service_deficit,
)
from .curves import INF, MERGE_TOL, Curve
from .errors import InfiniteDeviation, SubsetLimitExceeded, UnreachableRatio, ValidationError
from .scenario import Scenario, effective_path_service
from .sources import (
    SourceModel,
    _aggregate_rate,
    _subset_redundancy_rate,
    aggregate_information,
    gaussian_arrival_curve,
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
        self.standalone = {path.id: path.standalone_rate for path in s.paths}
        self.sources = {src.id: src for src in s.sources}
        self.specs: list[IssSpec] = []  # service id -> path service
        self._service_ids: dict[tuple, int] = {}
        self._interned: dict[IssSpec, int] = {}  # first id of each value
        self._parallels: dict[tuple[int, ...], IssSpec] = {}
        self._steps: dict[tuple, tuple[int, tuple[str, ...], object]] = {}
        self._rates: dict[str, float] = {}
        self._order: tuple[SourceModel, ...] | None = None
        self._bits: dict[str, int] = {}
        self._arrivals: dict[frozenset, IsaSpec] = {}
        self._fused: dict[frozenset, float] = {}
        self._redundancy: dict[tuple, float] = {}
        self._checks: dict[tuple, GuaranteeReport | None] = {}

    def service(self, active: set[str], pid: str) -> tuple[int, IssSpec]:
        """Service id and impaired service of ``pid`` inside ``active``.

        Paths whose services are equal as values (numbers of the same type
        and sign included) share one id, so they share compositions, delay
        checks and packing steps."""
        key = (pid, self.partners.get(pid, frozenset()) & active)
        sid = self._service_ids.get(key)
        if sid is None:
            sid = self._service_ids[key] = self._intern(
                effective_path_service(self.s, active, pid, self.overrides))
        return sid, self.specs[sid]

    def _intern(self, spec: IssSpec) -> int:
        new = len(self.specs)
        sid = self._interned.setdefault(spec, new)
        if sid != new and _numbers(self.specs[sid]) == _numbers(spec):
            return sid
        self.specs.append(spec)
        return new

    def parallel(self, sids: Sequence[int]) -> IssSpec:
        """``parallel`` of the services with these ids, memoized on their
        multiset: it gives the same bits in any order."""
        key = tuple(sorted(sids))
        spec = self._parallels.get(key)
        if spec is None:
            spec = self._parallels[key] = parallel([self.specs[sid] for sid in key])
        return spec

    def rate(self, src: SourceModel) -> float:
        rate = self._rates.get(src.id)
        if rate is None:
            rate = self._rates[src.id] = gaussian_arrival_curve(src).curve.final_slope
        return rate

    def order(self) -> tuple[SourceModel, ...]:
        """Sources by decreasing Gaussian rate, ties by id."""
        if self._order is None:
            self._order = tuple(sorted(self.s.sources, key=lambda src: (-self.rate(src), src.id)))
            self._bits = {src.id: 1 << i for i, src in enumerate(self._order)}
        return self._order

    def left_over(self, left: int) -> list[SourceModel]:
        """The sources of the bitmask ``left`` over ``order()``, in that order."""
        return [src for i, src in enumerate(self.order()) if left >> i & 1]

    def arrival(self, sources: Sequence[SourceModel]) -> IsaSpec:
        key = frozenset(src.id for src in sources)
        spec = self._arrivals.get(key)
        if spec is None:
            spec = self._arrivals[key] = aggregate_information(list(sources), self.s.spatial)
        return spec

    def fused_rate(self, sources: Sequence[SourceModel]) -> float:
        """Asymptotic rate of ``arrival(sources)``, without building it."""
        key = frozenset(src.id for src in sources)
        rate = self._fused.get(key)
        if rate is None:
            rate = self._fused[key] = _aggregate_rate(sources, self.s.spatial, self.rate)
        return rate

    def redundancy(self, ids: tuple[str, ...]) -> float:
        """``subset_redundancy_rate`` of the sources with these ids, keyed by
        the ids in list order, because it sums the single rates in that
        order."""
        red = self._redundancy.get(ids)
        if red is None:
            red = self._redundancy[ids] = _subset_redundancy_rate(
                [self.sources[sid] for sid in ids], self.s.spatial, self.rate)
        return red

    def next_by_redundancy(self, remaining: list[SourceModel],
                           chosen: list[SourceModel]) -> SourceModel:
        """The remaining source of largest marginal redundancy with ``chosen``
        (``marginal_redundancy_rate``, from memoized redundancy rates)."""
        ids = tuple(src.id for src in chosen)
        base = self.redundancy(ids)
        return min(remaining, key=lambda src: (-(self.redundancy(ids + (src.id,)) - base),
                                               -self.rate(src), src.id))

    def check(self, fused: list[SourceModel], sid: int,
              p: float, delay: float) -> GuaranteeReport | None:
        """Stochastic delay-bound certificate of service ``sid`` for one fused
        set, or None; a fused rate not below the service rate fails before
        any curve is built."""
        key = (frozenset(src.id for src in fused), sid, delay, p)
        if key not in self._checks:
            service = self.specs[sid]
            self._checks[key] = (_path_check(self.arrival(fused), service, p, delay)
                                 if self.fused_rate(fused) < service.asymptotic_rate else None)
        return self._checks[key]

    def fits(self, gate: tuple, fused: list[SourceModel], sid: int) -> object | None:
        """The gate's value for ``fused`` on service ``sid``, None when it
        fails: ``("delay", p, delay)`` is the delay certificate (``check``),
        ``("rate",)`` whether the fused rate stays below the service rate."""
        if gate[0] == "rate":
            return self.fused_rate(fused) < self.specs[sid].asymptotic_rate or None
        _, p, delay = gate
        return self.check(fused, sid, p, delay)

    def step(self, gate: tuple, left: int, sid: int) -> tuple[int, tuple[str, ...], object]:
        """One path's packing step (``_pack``), memoized: the bitmask and the
        ids, in order taken, of the sources that service ``sid`` takes from
        the bitmask ``left``, and the last passing gate value; ``(0, (),
        None)`` when it takes none."""
        key = (gate, left, sid)
        step = self._steps.get(key)
        if step is None:
            step = self._steps[key] = self._step(gate, left, sid)
        return step

    def _step(self, gate: tuple, left: int, sid: int) -> tuple[int, tuple[str, ...], object]:
        remaining = self.left_over(left)
        rate = self.specs[sid].asymptotic_rate
        best = next((src for src in remaining if self.rate(src) < rate), None)
        if best is None:
            return 0, (), None
        chosen = [best]
        value = self.fits(gate, chosen, sid)
        if value is None:
            return 0, (), None
        remaining.remove(best)
        while remaining:
            cand = self.next_by_redundancy(remaining, chosen)
            trial = self.fits(gate, chosen + [cand], sid)
            if trial is None:
                break
            chosen.append(cand)
            remaining.remove(cand)
            value = trial
        ids = tuple(src.id for src in chosen)
        return sum(map(self._bits.__getitem__, ids)), ids, value


def _numbers(spec: IssSpec) -> tuple:
    """What two equal services may still differ in: the clipping flag and,
    through the reprs, the type or sign of a number (a Fraction, an int,
    -0.0 each compute differently)."""
    bound = spec.bounding
    return (spec.curve.unclipped, repr(spec.curve.segments),
            repr(bound.params()) if isinstance(bound, ExpBound) else None)


def _active(subset: Sequence[str]) -> set[str]:
    """The paths of ``subset``; a path listed twice would count twice."""
    active = set(subset)
    if len(active) != len(subset):
        repeated = sorted(pid for pid, n in Counter(subset).items() if n > 1)
        raise ValidationError(f"path id(s) {', '.join(repeated)} repeated in subset "
                              f"{'+'.join(subset)}")
    return active


# ---------------------------------------------------------------------------
# RateCal
# ---------------------------------------------------------------------------


def subset_service(s: Scenario, subset: Sequence[str],
                   bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                   *, ctx: _Context | None = None) -> IssSpec:
    """Parallel composition of the subset's impaired end-to-end paths,
    computed once per multiset of path services on ``ctx``."""
    ctx = ctx or _Context(s, bounding_overrides)
    active = _active(subset)
    return ctx.parallel([ctx.service(active, pid)[0] for pid in subset])


def ratecal(s: Scenario, prune: bool = False,
            bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
            *, ctx: _Context | None = None) -> list[AchievableRate]:
    """Stochastically achievable information delivery rates: one per non-empty
    path subset; with ``prune``, dominated subsets are dropped."""
    ids = _listing_guard(s)
    ctx = ctx or _Context(s, bounding_overrides)
    rates = []
    for k in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            rates.append(AchievableRate(combo, subset_service(s, combo, bounding_overrides,
                                                              ctx=ctx)))
    return _undominated(rates) if prune else rates


def _listing_guard(s: Scenario) -> list[str]:
    """The path ids, when listing every subset stays within the guard."""
    ids = s.path_ids()
    if len(ids) > SUBSET_LIMIT:
        raise SubsetLimitExceeded(f"{len(ids)} paths exceed the 2^{SUBSET_LIMIT} guard")
    return ids


class _Dominance:
    """Rates and the three columns of their filter keys (``_filter_keys``);
    rows past the last rate hold NaN, which passes no filter."""

    def __init__(self, rates: Sequence[AchievableRate] = ()):
        self.rates = list(rates)
        keys = np.array([_filter_keys(r) for r in self.rates], dtype=float).reshape(-1, 3)
        self.keys = tuple(keys.T.copy())

    def add(self, rate: AchievableRate) -> int:
        """Index of ``rate``, appended."""
        n = len(self.rates)
        if n == len(self.keys[0]):
            self.keys = tuple(np.concatenate([column, np.full(max(n, 16), np.nan)])
                              for column in self.keys)
        for column, key in zip(self.keys, _filter_keys(rate)):
            column[n] = key
        self.rates.append(rate)
        return n

    def candidates(self, j: int) -> np.ndarray:
        """The indices that pass the filter as dominators of rate j (j among
        them).  One row at a time keeps memory O(n)."""
        return np.flatnonzero(_may_dominate(self.keys, [column[j] for column in self.keys]))

    def undominated(self, j: int) -> bool:
        rates, target = self.rates, self.rates[j].service
        return not any(i != j and dominates(rates[i].service, target) for i in self.candidates(j))


def _filter_keys(rate: AchievableRate) -> tuple[float, float, float]:
    service = rate.service
    return (float(service.curve.value(0)), float(service.curve.final_slope),
            float(service.bounding.value(0)))


def _may_dominate(a, b):
    """The candidate filter: whether filter keys ``a`` pass as a dominator
    of ``b``.  Elementwise on arrays."""
    return (a[0] >= b[0]) & (a[1] >= b[1]) & (a[2] <= b[2])


def _undominated(rates: Sequence[AchievableRate]) -> list[AchievableRate]:
    """The rates no other rate ``dominates``, in their given order."""
    pool = _Dominance(rates)
    return [r for j, r in enumerate(rates) if pool.undominated(j)]


def dominates(a: IssSpec, b: IssSpec) -> bool:
    """True iff ``a`` is strictly better: curve above for all t > 0 and
    bounding below for all x.  Curves are compared at their breakpoints,
    exponential bounds by their parameters."""
    return _bounding_le(a.bounding, b.bounding) and _curve_strictly_above(a.curve, b.curve)


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
    """Whether ``f <= g`` is shown at every x >= 0: always for a Zero ``f``,
    never for a Zero ``g`` under an exponential, and for two exponentials
    when each parameter of ``f`` is at most ``g``'s.  Any other bound is a
    ``TypeError``."""
    _closed("compare", f, g)
    if f.is_zero:
        return True
    if g.is_zero:
        return False
    return f.a <= g.a and f.b <= g.b and f.x0 <= g.x0


# ---------------------------------------------------------------------------
# BFLR
# ---------------------------------------------------------------------------


def _path_order(ctx: _Context, subset: Sequence[str]) -> list[str]:
    # ordered by standalone service rate; in-subset impaired rates would
    # reorder tied paths and break the published assignment pattern
    return sorted(subset, key=lambda pid: (-ctx.standalone[pid], pid))


def _path_check(arrival, service, p: float, delay: float) -> GuaranteeReport | None:
    """Stochastic delay-bound certificate of one path for one fused arrival
    set whose rate is below the service rate."""
    try:
        report = delay_bound(arrival, service, p)
    except InfiniteDeviation:
        return None
    return report if report.derived_quantile <= delay else None


def _pack(ctx: _Context, subset: Sequence[str], gate: tuple,
          ) -> tuple[dict[str, str], dict[str, object], list[SourceModel]]:
    """Best-fit/largest-redundancy packing of all sources onto one subset.

    Each path, in ``_path_order``, takes the fastest remaining source below
    its rate and grows the fused set by largest marginal redundancy while
    the gate (``_Context.fits``) holds.  A path's step depends only on the
    gate, the sources left and the path's service, so it is one memoized
    ``_Context.step``.  Returns the assignment, the last passing gate value
    per used path and the sources left over."""
    active = _active(subset)
    left = (1 << len(ctx.order())) - 1
    assignment: dict[str, str] = {}
    gates: dict[str, object] = {}
    for pid in _path_order(ctx, subset):
        if not left:
            break
        taken, ids, value = ctx.step(gate, left, ctx.service(active, pid)[0])
        if taken:
            left ^= taken
            assignment.update(dict.fromkeys(ids, pid))
            gates[pid] = value
    return assignment, gates, ctx.left_over(left)


def schedule_subset(s: Scenario, subset: Sequence[str], delay: float, p: float,
                    bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                    *, ctx: _Context | None = None) -> Schedule | Infeasible:
    """Best-fit/largest-redundancy packing of all sources onto one subset,
    each path gated by its stochastic delay bound."""
    ctx = ctx or _Context(s, bounding_overrides)
    assignment, certificates, remaining = _pack(ctx, subset, ("delay", p, delay))
    if remaining:
        return Infeasible(f"sources left unassigned on subset {tuple(subset)}: "
                          f"{sorted(src.id for src in remaining)}")
    return Schedule(assignment, tuple(subset), certificates)


def feasible_rates(s: Scenario, prune: bool = False,
                   bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                   *, ctx: _Context | None = None) -> list[AchievableRate]:
    """RateCal output filtered to rates at or above the total arrival rate of
    the source set, sorted by decreasing rate; among equal rates each subset
    comes after every subset that dominates it, and otherwise by subset id."""
    _listing_guard(s)
    return [rate for group in _best_first(ctx or _Context(s, bounding_overrides), prune)
            for rate in (group if prune else _dominators_first(group))]


def _rate_bound(standalone: Sequence[float]) -> float:
    """Upper bound on the rate of a subset whose paths have these (float)
    standalone rates: their exactly rounded sum, as ``parallel`` sums float
    rates, plus a slack (see ``_best_first``)."""
    total = math.fsum(standalone)
    return total + 4 * MERGE_TOL * max(1.0, total)


def _best_first(ctx: _Context, prune: bool) -> Iterator[list[AchievableRate]]:
    """The equal-rate groups of ``feasible_rates`` by decreasing rate, each in
    subset order, building a subset's service only once its rate bound is
    the largest left.

    Impairment only subtracts, so a subset's rate is at most the sum of its
    paths' standalone rates, summed as ``parallel`` sums them; the slack of
    ``_rate_bound`` covers a last knee that a curve merges within
    ``MERGE_TOL``, keeping the slope before it.  With the paths sorted by
    standalone rate, a subset is the set of paths it leaves out, and Lawler's
    k-best scheme expands those sets in nonincreasing bound order: each
    popped set pushes itself plus the next path (add-next) and itself with
    its last path replaced by the next (replace-with-next), neither of which
    raises the bound.  Expansion stops below the sources' total rate.

    A built subset waits in a heap keyed by ``(-float(rate), subset)`` and
    goes out once its rate is strictly above every bound not yet popped.  No
    unbuilt subset can then tie with it, so its whole equal-rate group goes
    out together: with ``prune``, the members that no built subset
    dominates (a dominator's rate is at least the dominated one's, so it has
    been built, and no two members left dominate each other); otherwise all
    members, for ``_dominators_first`` to order.

    Raises ``SubsetLimitExceeded`` before building more than
    2^``SUBSET_LIMIT`` - 1 subsets."""
    s = ctx.s
    ids = s.path_ids()
    total = ctx.arrival(s.sources).asymptotic_rate
    by_rate = sorted(ids, key=lambda pid: (ctx.standalone[pid], pid))
    standalone = [ctx.standalone[pid] for pid in by_rate]

    def push(left_out: tuple[int, ...]) -> None:
        kept = list(standalone)
        for i in reversed(left_out):
            del kept[i]
        heapq.heappush(frontier, (-_rate_bound(kept), left_out))

    frontier: list[tuple[float, tuple[int, ...]]] = []
    push(())
    built: list[tuple[float, tuple[str, ...], int, AchievableRate]] = []
    pool = _Dominance() if prune else None
    expanded = 0
    while True:
        top = -frontier[0][0] if frontier and -frontier[0][0] >= total else None
        while built and (top is None or -built[0][0] > top):
            group = [heapq.heappop(built)]
            while built and built[0][0] == group[0][0]:
                group.append(heapq.heappop(built))
            yield [rate for _, _, j, rate in group if not prune or pool.undominated(j)]
        if top is None:
            return
        left_out = heapq.heappop(frontier)[1]
        k = left_out[-1] + 1 if left_out else 0
        if k < len(by_rate):
            push(left_out + (k,))
            if left_out:
                push(left_out[:-1] + (k,))
        gone = [by_rate[i] for i in left_out]
        subset = tuple([pid for pid in ids if pid not in gone])
        if not subset:
            continue
        if expanded == 2 ** SUBSET_LIMIT - 1:
            raise SubsetLimitExceeded(f"{expanded} subsets built without an answer "
                                      f"(the 2^{SUBSET_LIMIT} guard)")
        expanded += 1
        service = subset_service(s, subset, ctx.overrides, ctx=ctx)
        if service.asymptotic_rate >= total:
            rate = AchievableRate(subset, service)
            j = pool.add(rate) if prune else -1
            heapq.heappush(built, (-float(service.asymptotic_rate), subset, j, rate))


def _dominators_first(group: list[AchievableRate]) -> list[AchievableRate]:
    """One equal-rate group, given in subset order, with each member after
    every member that dominates it and otherwise in subset order.

    Members with equal services dominate the same members, so the dominance
    tests run on one head per service.  Kahn's algorithm then emits the
    smallest subset among the members whose service no service left
    dominates; a service leaves with its last member.  A waiting service
    keeps one dominator left as its witness and looks for another only once
    that one has left, trying its filter candidates nearest value at 0
    first and each at most once."""
    services: dict[IssSpec, list[AchievableRate]] = {}
    for rate in group:
        services.setdefault(rate.service, []).append(rate)
    if len(services) == 1:
        return group
    same = list(services.values())
    heads = [rates[0].service for rates in same]
    keys = [_filter_keys(rates[0]) for rates in same]
    nearest = sorted(range(len(same)), key=lambda i: keys[i][0])

    def candidates(h: int) -> Iterator[int]:
        return (i for i in nearest if i != h and _may_dominate(keys[i], keys[h]))

    untried = [candidates(h) for h in range(len(same))]
    gone = [0] * len(same)  # members of each service already out
    waiting: dict[int, list[int]] = {}
    ready: list[tuple[tuple[str, ...], int]] = []  # (next member's subset, service)

    def settle(h: int) -> None:
        witness = next((i for i in untried[h]
                        if gone[i] < len(same[i]) and dominates(heads[i], heads[h])), None)
        if witness is None:
            heapq.heappush(ready, (same[h][0].subset, h))
        else:
            waiting.setdefault(witness, []).append(h)

    for h in range(len(same)):
        settle(h)
    order = []
    while ready:
        h = ready[0][1]
        k = gone[h]
        # no service gets ready before one leaves, so a service ready alone
        # sends all its members out at once
        gone[h] = len(same[h]) if len(ready) == 1 else k + 1
        order += same[h][k:gone[h]]
        if gone[h] < len(same[h]):
            heapq.heapreplace(ready, (same[h][gone[h]].subset, h))
        else:
            heapq.heappop(ready)
            for waiter in waiting.pop(h, ()):
                settle(waiter)
    return order


def bflr(s: Scenario, delay: float, p: float, prune: bool = False,
         bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
         ) -> Schedule | Infeasible:
    """Search for a feasible transmission schedule.

    Tries the achievable subsets in ``feasible_rates`` order and returns the
    first feasible best-fit/largest-redundancy packing; ``Infeasible`` after
    all of them have been tried.  Subsets are built best-first by the bound
    on their rate (``_best_first``), so a subset is built only when its bound
    still reaches the rate of the next subset to try: a feasible answer
    usually stops after a few subsets.  An equal-rate group is packed whole
    and put in order only when two of its members are feasible, so an
    infeasible answer never orders ties.  It still tries every subset whose
    rate reaches the sources' total rate, because the greedy packing is not
    monotone in the subset.  ``SubsetLimitExceeded`` is raised only after
    2^``SUBSET_LIMIT`` - 1 subsets were built, so a scenario of more paths
    gets an early answer.
    """
    ctx = _Context(s, bounding_overrides)
    for group in _best_first(ctx, prune):
        found = {}
        for rate in group:
            result = schedule_subset(s, rate.subset, delay, p, bounding_overrides, ctx=ctx)
            if isinstance(result, Schedule):
                found[rate.subset] = result
        if len(found) > 1 and not prune:
            group = _dominators_first(group)
        if found:
            return next(found[rate.subset] for rate in group if rate.subset in found)
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
                   *, ctx: _Context | None = None) -> RatioResult:
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
    ctx = ctx or _Context(s, bounding_overrides)
    if isinstance(schedule_or_subset, Schedule):
        subset = schedule_or_subset.subset
        assignment = dict(schedule_or_subset.assignment)
        leftovers = [src for src in s.sources if src.id not in assignment]
    else:
        subset = tuple(schedule_or_subset)
        assignment, _, leftovers = _pack(ctx, subset, ("rate",))

    by_path: dict[str, list[SourceModel]] = {}
    for src in s.sources:
        pid = assignment.get(src.id)
        if pid is not None:
            by_path.setdefault(pid, []).append(src)

    active = _active(subset)
    combined = ZeroBound()
    full_paths = []
    for pid in sorted(by_path):
        sid, service = ctx.service(active, pid)
        if ctx.check(by_path[pid], sid, p, delay) is not None:
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


def delivery_ratio_table(s: Scenario, subsets, delay: float, p: float, horizon: float,
                         bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                         ) -> list[RatioResult]:
    """``delivery_ratio`` of every subset (or ``Schedule``) in ``subsets``, in
    order, on one analysis context."""
    ctx = _Context(s, bounding_overrides)
    return [delivery_ratio(s, subset, delay, p, horizon, bounding_overrides, ctx=ctx)
            for subset in subsets]


def calibrate_horizon(s: Scenario, subset: Sequence[str], delay: float, p: float,
                      target_ratio: float,
                      bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                      ) -> float:
    """First horizon t at which ``delivery_ratio`` on the given
    subset/delay/probability cell reaches ``target_ratio``.

    The quantile q and the sources left over do not depend on the horizon,
    and the ratio is ``(H(t) - H_left(t) - q) / H(t)`` for the aggregate
    information H of all sources and H_left of those left over, so the
    ratio reaches the target where ``H - H_left/(1 - target)`` first reaches
    ``q/(1 - target)``.  With sources left over the ratio at t = 0 is 0; if
    it meets the target just after 0 (then q = 0 and both curves are linear
    up to their first knee, so the ratio is constant there), the first knee
    is returned.  Raises ``UnreachableRatio`` when no horizon reaches the
    target."""
    if not 0 < target_ratio < 1:
        raise ValueError("target ratio must lie in (0, 1)")
    ctx = _Context(s, bounding_overrides)
    probe = delivery_ratio(s, subset, delay, p, horizon=1.0, ctx=ctx)
    needed = probe.undelivered_quantile / (1.0 - target_ratio)
    total_curve = ctx.arrival(s.sources).curve
    if probe.unassigned_sources:
        left = [src for src in s.sources if src.id in probe.unassigned_sources]
        left_curve = ctx.arrival(left).curve.scale(1.0 / (1.0 - target_ratio))
        t = _first_positive_reach(total_curve, left_curve, needed)
    else:
        t = total_curve.first_reach(needed)
    if t == INF:
        raise UnreachableRatio(f"no horizon gives a delivery ratio of {target_ratio:g} on subset "
                               f"{'+'.join(subset)}, which leaves "
                               f"{', '.join(probe.unassigned_sources)} unassigned")
    return float(t)


def _first_positive_reach(f: Curve, g: Curve, y) -> float:
    """The first t > 0 with ``f(t) - g(t) >= y``; when that holds from just
    after 0, so that there is no first such t, the first breakpoint after 0;
    +inf when never reached."""
    points = sorted(set(f.breakpoints()) | set(g.breakpoints()))
    for k, t in enumerate(points):
        gap = f.value(t) - g.value(t)
        if t > 0 and gap >= y:
            return t
        slope = f._segment_at(t).slope - g._segment_at(t).slope
        if gap < y and slope > 0:
            cross = t + (y - gap) / slope
            if k + 1 == len(points) or cross <= points[k + 1]:
                return cross
    return INF


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
    "delivery_ratio_table",
    "calibrate_horizon",
    "SUBSET_LIMIT",
]
