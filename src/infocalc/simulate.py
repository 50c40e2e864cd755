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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounding import bf_convolve, bf_invert
from .calculus import IsaSpec, IssSpec, service_deficit
from .curves import INF, deconvolve, horizontal_deviation
from .errors import ConfigError, InfiniteDeviation, UnboundedDeconvolution
from .scenario import ImpairmentEntry, Node, Scenario, effective_path_service
from .sources import aggregate_information
from .algorithms import Schedule

WILSON_Z = 1.959963984540054  # 95% two-sided

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
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.time_step <= 0:
            raise ConfigError("time_step must be positive")
        if self.horizon < self.time_step:
            raise ConfigError("horizon must cover at least one time step")


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

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


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
    """Per-run cumulative-increment matrix (runs x steps) of one impairment."""
    rate, burst_scale, bern, _ = _impairment_params(entry, node)
    steps = int(round(cfg.horizon / cfg.time_step))
    inc = np.full((cfg.runs, steps), rate * cfg.time_step)
    bursts = rng.exponential(burst_scale, size=cfg.runs)
    bursts *= rng.random(cfg.runs) < bern
    at = rng.integers(0, max(1, int(steps * 0.8)), size=cfg.runs)
    inc[np.arange(cfg.runs), at] += bursts
    return inc


def impairment_excess_samples(entry: ImpairmentEntry, node: Node, cfg: TraceConfig) -> np.ndarray:
    """Per-run sup-window excess of the sampled process over its (clipped)
    arrival envelope: the empirical self-check of the impairment model."""
    rng = np.random.default_rng(splitmix64_stream(cfg.seed, 1)[0])
    inc = _sample_impairment_increments(entry, node, cfg, rng)
    cum = np.concatenate([np.zeros((cfg.runs, 1)), np.cumsum(inc, axis=1)], axis=1)
    proc = entry.process_for(node)
    n = cum.shape[1]
    ts = np.arange(n) * cfg.time_step
    env = np.array([max(0.0, float(proc.curve.value(t))) for t in ts])
    best = np.zeros(cfg.runs)
    for u in range(n - 1):
        window = cum[:, u + 1:] - cum[:, u:u + 1] - env[1:n - u][None, :]
        np.maximum(best, window.max(axis=1), out=best)
    return best


def impairment_selfcheck(entry: ImpairmentEntry, node: Node, cfg: TraceConfig,
                         n_thresholds: int = 20) -> TailReport:
    """TailReport asserting the sampled impairment satisfies its own model."""
    excess = impairment_excess_samples(entry, node, cfg)
    a, b = float(entry.bounding_a), float(entry.bounding_b)
    thresholds = np.linspace(0.0, 5.0 * b + excess.max(), n_thresholds)
    k = (excess[None, :] > thresholds[:, None]).sum(axis=1)
    emp = k / cfg.runs
    ci = wilson_upper(k, cfg.runs)
    bounds = np.minimum(a * np.exp(-thresholds / b), 1.0)
    passed = _points_pass(k, ci, bounds, cfg.runs)
    return TailReport("impairment_excess", f"{entry.a[0]}~{entry.b[0]}", thresholds,
                      emp, ci, bounds, passed, {"runs": cfg.runs, "seed": cfg.seed})


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


def _serve_path(arrival_cum: np.ndarray, path_nodes: list[Node],
                node_impairments: list[np.ndarray | None], cfg: TraceConfig) -> np.ndarray:
    """Push a deterministic fluid arrival through the path's tandem of
    latency-rate servers; returns per-run cumulative output (runs x steps+1)."""
    steps = int(round(cfg.horizon / cfg.time_step))
    runs = cfg.runs
    x = np.broadcast_to(arrival_cum, (runs, steps + 1)).copy()
    for node, imp in zip(path_nodes, node_impairments):
        k_d = int(math.ceil(float(node.latency) / cfg.time_step - 1e-12))
        delayed = np.zeros_like(x)
        if k_d < steps + 1:
            delayed[:, k_d:] = x[:, : steps + 1 - k_d]
        cap = np.full((runs, steps), float(node.rate) * cfg.time_step)
        if imp is not None:
            cap = np.maximum(cap - imp, 0.0)
        out = np.zeros_like(x)
        for k in range(steps):
            out[:, k + 1] = np.minimum(delayed[:, k + 1], out[:, k] + cap[:, k])
        x = out
    return x


def _delay_samples(arrival_cum: np.ndarray, out_cum: np.ndarray, k_eval: int,
                   cfg: TraceConfig) -> np.ndarray:
    """Information delay at the evaluation instant, per run (censored at the
    remaining horizon)."""
    target = arrival_cum[k_eval]
    tail = out_cum[:, k_eval:]
    reached = tail >= target - 1e-9
    first = np.argmax(reached, axis=1).astype(float)
    never = ~reached.any(axis=1)
    first[never] = tail.shape[1]  # censored: at least the remaining horizon
    return first * cfg.time_step


def _threshold_grid(lo: float, hi: float, n: int = 20) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _delay_bound_curve(arrival: IsaSpec, service: IssSpec, thresholds: np.ndarray,
                       slack: float) -> np.ndarray:
    """Analytic Prob{D > y} bound per threshold y (1.0 below the zero-slack
    quantile, where the delay bound makes no claim)."""
    fg = bf_convolve(arrival.bounding, service.bounding)

    def quantile(x: float) -> float:
        return horizontal_deviation(arrival.curve.shift_up(x), service.curve.floor_at(x))

    if arrival.curve.final_slope > service.curve.final_slope:
        # rate-overloaded path: no finite claim at any threshold
        return np.full_like(thresholds, max(1.0, float(fg.value(0.0))))
    q0 = quantile(0.0)
    out = np.empty_like(thresholds)
    for i, y in enumerate(thresholds):
        y_eff = y - slack
        if y_eff < q0:
            out[i] = max(1.0, float(fg.value(0.0)))
            continue
        lo, hi = 0.0, 1.0
        while quantile(hi) <= y_eff:
            hi *= 2
            if hi > 1e9:
                break
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if quantile(mid) <= y_eff:
                lo = mid
            else:
                hi = mid
        out[i] = float(fg.value(lo))
    return out


def simulate(s: Scenario, schedule: Schedule, cfg: TraceConfig,
             within_delay: float | None = None) -> list[TailReport]:
    """Simulate the scheduled flows and report empirical-vs-analytic tails.

    Produces a delay and a backlog report per path carrying sources (plus a
    backlog-within-delay report when ``within_delay`` is given).  Identical
    (scenario, schedule, cfg) inputs give bit-identical reports.
    """
    steps = int(round(cfg.horizon / cfg.time_step))
    ts = np.arange(steps + 1) * cfg.time_step
    active = set(schedule.subset)
    rng = np.random.default_rng(splitmix64_stream(cfg.seed, 1)[0])

    # one sampled process per impairment entry, shared by both endpoints
    entry_samples: dict[int, np.ndarray] = {}
    for i, entry in enumerate(s.impairments):
        if entry.a[0] in active and entry.b[0] in active:
            node = s.path(entry.a[0]).nodes[entry.a[1]]
            entry_samples[i] = _sample_impairment_increments(entry, node, cfg, rng)

    reports: list[TailReport] = []
    k_eval = steps // 2
    for pid in schedule.subset:
        sources = [src for src in s.sources if schedule.assignment.get(src.id) == pid]
        arrival = aggregate_information(sources, s.spatial)
        arrival_cum = np.array([float(arrival.curve.value(t)) for t in ts])
        path = s.path(pid)
        node_imps = []
        for idx, node in enumerate(path.nodes):
            total = None
            for i, entry in enumerate(s.impairments):
                if i in entry_samples and (pid, idx) in (entry.a, entry.b):
                    total = entry_samples[i] if total is None else total + entry_samples[i]
            node_imps.append(total)
        out_cum = _serve_path(arrival_cum, list(path.nodes), node_imps, cfg)
        service = effective_path_service(s, active, pid)
        meta = {"runs": cfg.runs, "seed": cfg.seed, "time_step": cfg.time_step,
                "horizon": cfg.horizon, "eval_time": float(ts[k_eval]), "path": pid}

        fg = bf_convolve(arrival.bounding, service.bounding)
        # grids top out where the bound drops to the resolution of the run count
        p_floor = max(float(wilson_upper(np.zeros(1), cfg.runs)[0]), 1e-6)
        x_top = bf_invert(fg, p_floor / 2)

        # --- delay ---
        delays = _delay_samples(arrival_cum, out_cum, k_eval, cfg)
        try:
            q_hint = horizontal_deviation(arrival.curve.shift_up(x_top), service.curve.floor_at(x_top))
        except InfiniteDeviation:
            q_hint = cfg.horizon / 4
        thr = _threshold_grid(max(q_hint * 0.1, cfg.time_step), q_hint + 5 * cfg.time_step)
        bounds = _delay_bound_curve(arrival, service, thr, slack=2 * cfg.time_step)
        k = (delays[None, :] > thr[:, None]).sum(axis=1)
        emp, ci = k / cfg.runs, wilson_upper(k, cfg.runs)
        reports.append(TailReport("delay", pid, thr, emp, ci, bounds,
                                  _points_pass(k, ci, bounds, cfg.runs), dict(meta)))

        # --- backlog ---
        backlogs = arrival_cum[k_eval] - out_cum[:, k_eval]
        try:
            dev = float(deconvolve(arrival.curve, service.curve).value(0))
        except UnboundedDeconvolution:
            dev = INF
        step_bits = float(service.curve.final_slope) * cfg.time_step
        if dev == INF:  # rate-overloaded path: vacuous bounds
            thr_b = _threshold_grid(step_bits, float(np.max(backlogs)) * 1.5 + 1.0)
            bounds_b = np.full_like(thr_b, max(1.0, float(fg.value(0.0))))
        else:
            thr_b = _threshold_grid(max(dev * 0.25, step_bits), dev + x_top + 2 * step_bits)
            bounds_b = np.array([float(fg.value(x - 2 * step_bits - dev)) if not fg.is_zero
                                 else (1.0 if x - 2 * step_bits < dev else 0.0) for x in thr_b])
        k = (backlogs[None, :] > thr_b[:, None]).sum(axis=1)
        emp, ci = k / cfg.runs, wilson_upper(k, cfg.runs)
        reports.append(TailReport("backlog", pid, thr_b, emp, ci, bounds_b,
                                  _points_pass(k, ci, bounds_b, cfg.runs), dict(meta)))

        # --- backlog within delay ---
        if within_delay is not None:
            k_tau = int(round(within_delay / cfg.time_step))
            k_out = min(k_eval + k_tau, steps)
            bwd = arrival_cum[k_eval] - out_cum[:, k_out]
            c = service_deficit(arrival, service, within_delay)
            shift = float(-c) if c != -INF else 0.0
            thr_w = _threshold_grid(max(shift * 0.25, step_bits), shift + x_top + 2 * step_bits)
            if c == -INF:
                bounds_w = np.full_like(thr_w, max(1.0, float(fg.value(0.0))))
            else:
                bounds_w = np.array([float(fg.value(x - 2 * step_bits + float(c))) for x in thr_w])
            k = (bwd[None, :] > thr_w[:, None]).sum(axis=1)
            emp, ci = k / cfg.runs, wilson_upper(k, cfg.runs)
            m = dict(meta)
            m["within_delay"] = within_delay
            reports.append(TailReport("backlog_within_delay", pid, thr_w, emp, ci, bounds_w,
                                      _points_pass(k, ci, bounds_w, cfg.runs), m))
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
