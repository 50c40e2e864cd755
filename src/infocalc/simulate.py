"""Monte-Carlo trace oracle for the analytic tail bounds.

Generates fluid sample paths consistent with a scenario's arrival and
service models and checks empirically that the analytic delay/backlog
bounds are honored: per threshold grid point, the Wilson upper confidence
limit of the observed violation frequency must stay below the analytic
bound (evaluated with one discretization step of slack).

Arrivals follow the entropy envelopes exactly (the worst case consistent
with a deterministic arrival model).  Nodes are work-conserving
latency-rate servers.  Randomness enters through impairment processes,
sampled as a *sufficient* construction: fluid at a rate low enough to honor
the impairment's own window envelope, plus one exponential burst at a
random time whose tail decays strictly faster than the bounding function.
One process is sampled per impairment entry and applied to both endpoint
nodes (correlated interference).

Every random draw is made up front, three numbers per run and impairment
entry, in one fixed order, so a seed fixes every run.  Runs are then served
``CHUNK_RUNS`` at a time in a time-major layout: a chunk's matrices are
(steps x runs), the tandem recursion advances one contiguous row per time
step, and each chunk is reduced at once to the per-run samples the reports
read (delay, backlog, backlog within delay).  Memory is therefore
O(CHUNK_RUNS x steps) plus O(runs), whatever the run count.  Nodes before a
path's first impaired node are deterministic: they are served once per flow,
as one column, and runs pay only from the first impaired node on.  A path
with no impaired node is served once; every run gets its samples.

The delay bound curve inverts the delay quantile q(x) = h(alpha + x, [beta]^x)
(Jiang & Liu, *Stochastic Network Calculus*, 2008) in closed form.  Every
effective path service is affine, beta(t) = R t + c (rate-latency nodes,
affine impairments, affine convolutions), so on a non-overloaded path
q(x) = max(0, K + x/R), K = max (alpha(s) - c)/R - s over the segment starts
s where alpha is positive or rising (q = 0 for a zero alpha), and x = R (y - K)
is the largest level with q(x) <= y.  Each level is probed once with the real
operator and stepped down with ``math.nextafter`` until the probe holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .bounding import BoundingFunction, bf_convolve, bf_invert
from .calculus import IsaSpec, IssSpec, service_deficit
from .curves import INF, Curve, horizontal_deviation
from .errors import ConfigError
from .scenario import ImpairmentEntry, Node, Scenario, effective_path_service
from .sources import aggregate_information
from .algorithms import Schedule

WILSON_Z = 1.959963984540054  # 95% two-sided

#: runs served together; bounds the simulator's working set
CHUNK_RUNS = 1024

_MASK = (1 << 64) - 1


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of a splitmix64 stream: the documented per-run
    sub-seed derivation (run i uses output i)."""
    state = seed & _MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append((z ^ (z >> 31)) & _MASK)
    return out


@dataclass(frozen=True)
class TraceConfig:
    runs: int
    seed: int
    time_step: float = 1e-3
    horizon: float = 1.0

    def __post_init__(self):
        for name in ("runs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("time_step", "horizon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.time_step <= 0:
            raise ConfigError("time_step must be positive")
        if self.horizon < self.time_step:
            raise ConfigError("horizon must cover at least one time step")

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.time_step))


@dataclass
class TailReport:
    quantity: str  # delay | backlog | backlog_within_delay
    path_id: str
    thresholds: np.ndarray
    empirical: np.ndarray
    ci_hi: np.ndarray
    bounds: np.ndarray
    passed: bool
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["threshold,empirical,ci_hi,bound"]
        for t, e, c, b in zip(self.thresholds, self.empirical, self.ci_hi, self.bounds):
            lines.append(f"{t!r},{e!r},{c!r},{b!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "path": self.path_id,
            "passed": bool(self.passed),
            "meta": self.meta,
            "points": [
                {"threshold": float(t), "empirical": float(e), "ci_hi": float(c), "bound": float(b)}
                for t, e, c, b in zip(self.thresholds, self.empirical, self.ci_hi, self.bounds)
            ],
        }


def wilson_upper(k: np.ndarray, n: int, z: float = WILSON_Z) -> np.ndarray:
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return np.minimum(center + half, 1.0)


def _points_pass(k: np.ndarray, ci_hi: np.ndarray, bounds: np.ndarray, runs: int) -> bool:
    """CI criterion where n runs can resolve the bound; bounds below the
    k=0 Wilson floor are instead verified by zero observed violations."""
    floor = float(wilson_upper(np.zeros(1), runs)[0])
    resolvable = bounds >= floor
    ok_ci = ci_hi <= bounds + 1e-12
    ok_zero = k == 0
    return bool(np.all(np.where(resolvable, ok_ci, ok_zero)))


def _tail_report(quantity: str, path_id: str, thresholds: np.ndarray, samples: np.ndarray,
                 bounds: np.ndarray, meta: dict) -> TailReport:
    """Report of the per-run ``samples`` against the analytic ``bounds``:
    per threshold, the runs exceeding it, their frequency and its Wilson
    upper limit."""
    runs = len(samples)
    k = (samples[None, :] > thresholds[:, None]).sum(axis=1)
    ci = wilson_upper(k, runs)
    return TailReport(quantity, path_id, thresholds, k / runs, ci, bounds,
                      _points_pass(k, ci, bounds, runs), meta)


# ---------------------------------------------------------------------------
# Impairment sampling
# ---------------------------------------------------------------------------


def _impairment_params(entry: ImpairmentEntry, node: Node) -> tuple[float, float, float, float]:
    """(fluid rate, burst scale, bernoulli prob, envelope rate) of the sampled process."""
    proc = entry.process_for(node)
    a = float(entry.bounding_a)
    b = float(entry.bounding_b)
    r_env = float(proc.curve.final_slope)
    d = float(entry.latency)
    burst_scale = 0.8 * b
    bern = min(1.0, a)
    if a <= 1.0 or d <= 0:
        rate = 0.0 if a <= 1.0 else r_env
    else:
        rate = min(r_env, 0.8 * b * math.log(a) / d)
    return rate, burst_scale, bern, r_env


def _sample_impairment_increments(entry: ImpairmentEntry, node: Node, cfg: TraceConfig,
                                  rng: np.random.Generator) -> np.ndarray:
    """Per-run draws (3 x runs) of one impairment: the fluid increment per
    step, the burst size and the step the burst lands in."""
    rate, burst_scale, bern, _ = _impairment_params(entry, node)
    bursts = rng.exponential(burst_scale, size=cfg.runs)
    bursts *= rng.random(cfg.runs) < bern
    at = rng.integers(0, max(1, int(cfg.steps * 0.8)), size=cfg.runs)
    return np.stack([np.full(cfg.runs, rate * cfg.time_step), bursts, at])


def _increments(draws: np.ndarray, steps: int) -> np.ndarray:
    """Time-major increment matrix (steps x runs) of the runs in ``draws``."""
    fluid, bursts, at = draws
    inc = np.broadcast_to(fluid, (steps, len(fluid))).copy()
    inc[at.astype(np.intp), np.arange(len(fluid))] += bursts
    return inc


def impairment_excess_samples(entry: ImpairmentEntry, node: Node, cfg: TraceConfig) -> np.ndarray:
    """Per-run sup-window excess of the sampled process over its (clipped)
    arrival envelope: the empirical self-check of the impairment model."""
    rng = np.random.default_rng(splitmix64_stream(cfg.seed, 1)[0])
    inc = _increments(_sample_impairment_increments(entry, node, cfg, rng), cfg.steps)
    cum = np.concatenate([np.zeros((1, cfg.runs)), np.cumsum(inc, axis=0)])
    proc = entry.process_for(node)
    n = cum.shape[0]
    ts = np.arange(n) * cfg.time_step
    env = np.array([max(0.0, float(proc.curve.value(t))) for t in ts])
    best = np.zeros(cfg.runs)
    for u in range(n - 1):
        window = cum[u + 1:] - cum[u] - env[1:n - u][:, None]
        np.maximum(best, window.max(axis=0), out=best)
    return best


def impairment_selfcheck(entry: ImpairmentEntry, node: Node, cfg: TraceConfig) -> TailReport:
    """TailReport asserting the sampled impairment satisfies its own model,
    at 20 thresholds."""
    excess = impairment_excess_samples(entry, node, cfg)
    a, b = float(entry.bounding_a), float(entry.bounding_b)
    thresholds = np.linspace(0.0, 5.0 * b + excess.max(), 20)
    bounds = np.minimum(a * np.exp(-thresholds / b), 1.0)
    return _tail_report("impairment_excess", f"{entry.a[0]}~{entry.b[0]}", thresholds,
                        excess, bounds, {"runs": cfg.runs, "seed": cfg.seed})


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


def _cumulative(curve: Curve, ts: np.ndarray) -> np.ndarray:
    """``curve.value`` at every time of ``ts``, in float arithmetic."""
    starts, slopes, values = np.array(curve.segments, dtype=float).T
    seg = np.searchsorted(starts, ts, "right") - 1
    return values[seg] + slopes[seg] * (ts - starts[seg])


def _latency_steps(node: Node, time_step: float) -> int:
    """A node's latency in whole steps, rounded up."""
    return int(math.ceil(float(node.latency) / time_step - 1e-12))


def _serve_head(arrival_cum: np.ndarray, path_nodes: list[Node], time_step: float) -> np.ndarray:
    """Cumulative output ((steps+1),) of the unimpaired nodes ``path_nodes``
    fed the deterministic ``arrival_cum``.  It is the same in every run, so
    it is served once, as one column in plain floats, by the recursion of
    ``_serve_path`` with the same float add and min, bit for bit."""
    x = arrival_cum.tolist()
    for node in path_nodes:
        k_d = _latency_steps(node, time_step)
        full = float(node.rate) * time_step
        out = [0.0] * len(x)
        prev = 0.0  # rows before the latency stay zero
        for k in range(max(k_d, 1), len(x)):
            out[k] = prev = min(x[k - k_d], prev + full)
        x = out
    return np.array(x)


def _serve_path(arrival_cum: np.ndarray, path_nodes: list[Node],
                node_impairments: list[np.ndarray | None], runs: int,
                time_step: float) -> np.ndarray:
    """Push a fluid input ((steps+1),), the same in every run, through the
    path's tandem of latency-rate servers; returns the cumulative output of
    ``runs`` runs, time-major ((steps+1) x runs).  A node's impairment is
    its (steps x runs) increment matrix, or None for a constant capacity of
    rate x step.  ``simulate`` passes only a path's nodes from its first
    impaired one on, fed the output of the unimpaired head before them
    (``_serve_head``).

    Output at step k is min(input at k - latency, output at k-1 + capacity
    of step k-1): each step reads and writes whole contiguous rows.
    """
    steps = len(arrival_cum) - 1
    x = arrival_cum[:, None]
    for node, imp in zip(path_nodes, node_impairments):
        k_d = _latency_steps(node, time_step)
        full = float(node.rate) * time_step
        out = np.zeros((steps + 1, runs))
        k0 = max(k_d, 1)  # rows before the latency stay zero
        cap = repeat(full) if imp is None else np.maximum(full - imp, 0.0)[k0 - 1:]
        for prev, step_cap, inp, row in zip(out[k0 - 1:], cap, x[k0 - k_d:], out[k0:]):
            np.add(prev, step_cap, out=row)
            np.minimum(inp, row, out=row)
        x = out
    return x


def _delay_samples(arrival_cum: np.ndarray, out_cum: np.ndarray, k_eval: int,
                   time_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Information delay at the evaluation instant, per run of the time-major
    ``out_cum`` (censored at the remaining horizon), and the censored runs."""
    target = arrival_cum[k_eval]
    tail = out_cum[k_eval:]
    reached = tail >= target - 1e-9
    first = np.argmax(reached, axis=0).astype(float)
    never = ~reached.any(axis=0)
    first[never] = tail.shape[0]  # censored: at least the remaining horizon
    return first * time_step, never


def _samples(arrival_cum: np.ndarray, out_cum: np.ndarray, k_eval: int, k_out: int,
             time_step: float) -> np.ndarray:
    """Per run of the time-major ``out_cum``: delay, backlog, backlog within
    delay (read at ``k_out``) and censored delay (0/1), as (4 x runs)."""
    delays, censored = _delay_samples(arrival_cum, out_cum, k_eval, time_step)
    target = arrival_cum[k_eval]
    return np.stack([delays, target - out_cum[k_eval], target - out_cum[k_out], censored])


def _threshold_grid(lo: float, hi: float, n: int = 20) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _quantile(arrival: IsaSpec, service: IssSpec, x: float) -> float:
    """The delay quantile at bound level x: the horizontal deviation of the
    arrival curve raised by x from the service curve floored at x."""
    return horizontal_deviation(arrival.curve.shift_up(x), service.curve.floor_at(x))


def _delay_bound_curve(arrival: IsaSpec, service: IssSpec, fg: BoundingFunction,
                       vacuous: float, thresholds: np.ndarray, slack: float) -> np.ndarray:
    """Analytic Prob{D > y} bound ``fg(x)`` per threshold y, at the closed-form
    level x (module docstring) whose delay quantile is at most y - ``slack``;
    ``vacuous`` below the zero-level quantile, where the bound makes no claim."""
    if len(service.curve.segments) != 1:
        raise TypeError(f"delay bound curve needs an affine service, got {service.curve!r}")
    if arrival.curve.final_slope > service.curve.final_slope:
        # rate-overloaded path: no finite claim at any threshold
        return np.full_like(thresholds, vacuous)
    _, rate, offset = (float(v) for v in service.curve.segments[0])
    k = max(((float(seg.value) - offset) / rate - float(seg.start)
             for seg in arrival.curve.segments if seg.value > 0 or seg.slope > 0), default=None)
    q0 = _quantile(arrival, service, 0.0)
    out = np.empty_like(thresholds)
    for i, y in enumerate(thresholds):
        y_eff = y - slack
        if y_eff < q0:
            out[i] = vacuous
            continue
        if k is None:  # zero arrival: the quantile is 0 at every level
            out[i] = float(fg.value(INF))
            continue
        x = max(0.0, rate * (y_eff - k))
        while x > 0 and _quantile(arrival, service, x) > y_eff:
            x = math.nextafter(x, 0.0)
        out[i] = float(fg.value(x))
    return out


def simulate(s: Scenario, schedule: Schedule, cfg: TraceConfig,
             within_delay: float | None = None) -> list[TailReport]:
    """Simulate the scheduled flows and report empirical-vs-analytic tails.

    Produces a delay and a backlog report per path carrying sources (plus a
    backlog-within-delay report when ``within_delay`` is given).  Identical
    (scenario, schedule, cfg) inputs give bit-identical reports, whatever
    the chunking.  A delay report's ``meta["censored"]`` is the fraction of
    runs whose delay sample was censored at the remaining horizon.
    """
    steps = cfg.steps
    ts = np.arange(steps + 1) * cfg.time_step
    active = set(schedule.subset)
    rng = np.random.default_rng(splitmix64_stream(cfg.seed, 1)[0])

    # one sampled process per impairment entry, shared by both endpoints
    entry_draws: dict[int, np.ndarray] = {}
    for i, entry in enumerate(s.impairments):
        if entry.a[0] in active and entry.b[0] in active:
            node = s.path(entry.a[0]).nodes[entry.a[1]]
            entry_draws[i] = _sample_impairment_increments(entry, node, cfg, rng)

    k_eval = steps // 2
    k_out = k_eval
    if within_delay is not None:
        k_out = min(k_eval + int(round(within_delay / cfg.time_step)), steps)
    flows = []
    served = []  # flows with an impaired node: (arrival, head output, rest of path, samples)
    for pid in schedule.subset:
        sources = [src for src in s.sources if schedule.assignment.get(src.id) == pid]
        arrival = aggregate_information(sources, s.spatial)
        arrival_cum = _cumulative(arrival.curve, ts)
        nodes = list(s.path(pid).nodes)
        node_entries = [[i for i, entry in enumerate(s.impairments)
                         if i in entry_draws and (pid, idx) in (entry.a, entry.b)]
                        for idx in range(len(nodes))]
        first = next((idx for idx, entries in enumerate(node_entries) if entries), len(nodes))
        head_cum = _serve_head(arrival_cum, nodes[:first], cfg.time_step)
        samples = np.empty((4, cfg.runs))
        if first == len(nodes):  # no impaired node: every run has the head's samples
            samples[:] = _samples(arrival_cum, head_cum[:, None], k_eval, k_out, cfg.time_step)
        else:
            served.append((arrival_cum, head_cum, nodes[first:], node_entries[first:], samples))
        flows.append((pid, arrival, samples))

    for lo in range(0, cfg.runs, CHUNK_RUNS):
        hi = min(lo + CHUNK_RUNS, cfg.runs)
        incs = {i: _increments(draws[:, lo:hi], steps) for i, draws in entry_draws.items()}
        for arrival_cum, head_cum, nodes, node_entries, samples in served:
            node_imps = []
            for entries in node_entries:
                total = None
                for i in entries:
                    total = incs[i] if total is None else total + incs[i]
                node_imps.append(total)
            out_cum = _serve_path(head_cum, nodes, node_imps, hi - lo, cfg.time_step)
            samples[:, lo:hi] = _samples(arrival_cum, out_cum, k_eval, k_out, cfg.time_step)

    reports: list[TailReport] = []
    for pid, arrival, (delays, backlogs, bwd, censored) in flows:
        service = effective_path_service(s, active, pid)
        meta = {"runs": cfg.runs, "seed": cfg.seed, "time_step": cfg.time_step,
                "horizon": cfg.horizon, "eval_time": float(ts[k_eval]), "path": pid}

        fg = bf_convolve(arrival.bounding, service.bounding)
        vacuous = float(fg.value(-INF))  # what fg reads where it claims nothing
        # grids top out where the bound drops to the resolution of the run count
        p_floor = max(float(wilson_upper(np.zeros(1), cfg.runs)[0]), 1e-6)
        x_top = bf_invert(fg, p_floor / 2)

        # --- delay ---
        overloaded = arrival.curve.final_slope > service.curve.final_slope
        q_hint = cfg.horizon / 4 if overloaded else _quantile(arrival, service, x_top)
        thr = _threshold_grid(max(q_hint * 0.1, cfg.time_step), q_hint + 5 * cfg.time_step)
        bounds = _delay_bound_curve(arrival, service, fg, vacuous, thr, 2 * cfg.time_step)
        reports.append(_tail_report("delay", pid, thr, delays, bounds,
                                    meta | {"censored": float(censored.sum()) / cfg.runs}))

        # --- backlog, and backlog within delay ---
        # fg(x - shift), the shift the deterministic backlog tau after t,
        # -inf_v[beta(v) - alpha(v - tau)]: +inf on an overloaded path, where
        # the bound claims nothing and the grid follows the samples
        step_bits = float(service.curve.final_slope) * cfg.time_step
        tails = [("backlog", 0, backlogs, {})]
        if within_delay is not None:
            tails.append(("backlog_within_delay", within_delay, bwd,
                          {"within_delay": within_delay}))
        for quantity, tau, samples, extra in tails:
            shift = float(-service_deficit(arrival, service, tau))
            if overloaded:
                thr = _threshold_grid(step_bits, float(np.max(samples)) * 1.5 + 1.0)
            else:
                thr = _threshold_grid(max(shift * 0.25, step_bits), shift + x_top + 2 * step_bits)
            bounds = np.array([float(fg.value(x - 2 * step_bits - shift)) for x in thr])
            reports.append(_tail_report(quantity, pid, thr, samples, bounds, meta | extra))
    return reports


__all__ = [
    "TraceConfig",
    "TailReport",
    "simulate",
    "impairment_selfcheck",
    "impairment_excess_samples",
    "wilson_upper",
    "splitmix64_stream",
]
