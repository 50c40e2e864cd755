"""Per-layer spans and counters for the traced run.

``Tracer.install()`` replaces every module-level binding of the functions in
``TARGETS``, in every loaded ``infocalc`` module, by one timing wrapper per
function, so a from-import copy is wrapped as well as the original (the
benchmark reaches the program through module attributes only).  Nothing under ``src/`` is edited;
``uninstall()`` puts the originals back.

Each call made inside a timed pass records one span: id, name, parent span
id, start and end (``time.perf_counter``).  Spans stay in memory in flat
arrays and are saved once, when the run ends.  Per-layer metrics are computed per round and
reported as the median over rounds:

* ``*_calls``: spans of that function in the round;
* ``*_ms``: summed inclusive span time of that function (no traced function
  calls itself, so no span nests inside one of the same name);
* ``cli.self_ms``: time in ``cli.main`` minus its nested traced spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

#: (module, attribute, span name)
TARGETS = [
    ("infocalc.scenario", "parse_scenario", "scenario.parse"),
    ("infocalc.scenario", "effective_path_service", "scenario.effective_service"),
    ("infocalc.algorithms", "subset_service", "algorithms.subset_service"),
    ("infocalc.algorithms", "dominates", "algorithms.dominates"),
    ("infocalc.algorithms", "feasible_rates", "algorithms.feasible_rates"),
    ("infocalc.algorithms", "schedule_subset", "algorithms.schedule_subset"),
    ("infocalc.algorithms", "delivery_ratio", "algorithms.delivery_ratio"),
    ("infocalc.calculus", "delay_bound", "calculus.delay_bound"),
    ("infocalc.calculus", "parallel", "calculus.parallel"),
    ("infocalc.calculus", "concatenate", "calculus.concatenate"),
    ("infocalc.calculus", "impair", "calculus.impair"),
    ("infocalc.calculus", "service_deficit", "calculus.service_deficit"),
    ("infocalc.curves", "convolve", "curves.convolve"),
    ("infocalc.curves", "horizontal_deviation", "curves.horizontal_deviation"),
    ("infocalc.bounding", "bf_convolve", "bounding.bf_convolve"),
    ("infocalc.bounding", "bf_invert", "bounding.bf_invert"),
    ("infocalc.sources", "aggregate_information", "sources.aggregate_information"),
    ("infocalc.sources", "marginal_redundancy_rate", "sources.marginal_redundancy"),
    ("infocalc.simulate", "simulate", "simulate.simulate"),
    ("infocalc.simulate", "_sample_impairment_increments", "simulate.sample"),
    ("infocalc.simulate", "_serve_path", "simulate.serve_path"),
    ("infocalc.simulate", "_delay_bound_curve", "simulate.bound_curves"),
    ("infocalc.cli", "main", "cli.main"),
]

#: reported metric -> (span name, "calls" | "ms")
SPAN_METRICS = {
    "scenario.parse_calls": ("scenario.parse", "calls"),
    "scenario.parse_ms": ("scenario.parse", "ms"),
    "scenario.effective_service_calls": ("scenario.effective_service", "calls"),
    "scenario.effective_service_ms": ("scenario.effective_service", "ms"),
    "algorithms.subsets_enumerated": ("algorithms.subset_service", "calls"),
    "algorithms.dominates_calls": ("algorithms.dominates", "calls"),
    "algorithms.dominates_ms": ("algorithms.dominates", "ms"),
    "algorithms.feasible_rates_calls": ("algorithms.feasible_rates", "calls"),
    "algorithms.feasible_rates_ms": ("algorithms.feasible_rates", "ms"),
    "algorithms.schedule_subset_calls": ("algorithms.schedule_subset", "calls"),
    "algorithms.schedule_subset_ms": ("algorithms.schedule_subset", "ms"),
    "algorithms.delivery_ratio_calls": ("algorithms.delivery_ratio", "calls"),
    "algorithms.delivery_ratio_ms": ("algorithms.delivery_ratio", "ms"),
    "calculus.delay_bound_calls": ("calculus.delay_bound", "calls"),
    "calculus.delay_bound_ms": ("calculus.delay_bound", "ms"),
    "calculus.parallel_calls": ("calculus.parallel", "calls"),
    "calculus.parallel_ms": ("calculus.parallel", "ms"),
    "calculus.concatenate_calls": ("calculus.concatenate", "calls"),
    "calculus.concatenate_ms": ("calculus.concatenate", "ms"),
    "calculus.impair_calls": ("calculus.impair", "calls"),
    "calculus.service_deficit_calls": ("calculus.service_deficit", "calls"),
    "curves.convolve_calls": ("curves.convolve", "calls"),
    "curves.convolve_ms": ("curves.convolve", "ms"),
    "curves.horizontal_deviation_calls": ("curves.horizontal_deviation", "calls"),
    "curves.horizontal_deviation_ms": ("curves.horizontal_deviation", "ms"),
    "bounding.bf_convolve_calls": ("bounding.bf_convolve", "calls"),
    "bounding.bf_invert_calls": ("bounding.bf_invert", "calls"),
    "sources.aggregate_information_calls": ("sources.aggregate_information", "calls"),
    "sources.aggregate_information_ms": ("sources.aggregate_information", "ms"),
    "sources.marginal_redundancy_calls": ("sources.marginal_redundancy", "calls"),
    "sources.marginal_redundancy_ms": ("sources.marginal_redundancy", "ms"),
    "simulate.sample_ms": ("simulate.sample", "ms"),
    "simulate.serve_path_ms": ("simulate.serve_path", "ms"),
    "simulate.bound_curves_ms": ("simulate.bound_curves", "ms"),
    "cli.main_calls": ("cli.main", "calls"),
}
#: metrics observed from call results rather than span arrays
OBSERVED = ("scenario.effective_service_distinct", "algorithms.schedule_subset_feasible",
            "bounding.grid_bounds_built", "simulate.matrix_mb")

METRICS = list(SPAN_METRICS) + list(OBSERVED) + ["cli.self_ms"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.next_id = 0
        self.active = False
        self.round = -1
        self.round_starts: list[int] = []
        self.observed: list[dict] = []
        self._installed: list[tuple] = []
        self._sim_sample_bytes = 0
        self._sim_serve_bytes = 0

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, observe=None):
        nid = self._name_id(name)
        stack, perf = self.stack, time.perf_counter
        rec_sid, rec_name, rec_parent = self.sid.append, self.name.append, self.parent.append
        rec_t0, rec_t1 = self.t0.append, self.t1.append
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                rec_sid(sid)
                rec_name(nid)
                rec_parent(parent)
                rec_t0(t0)
                rec_t1(t1)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def span(self, name: str):
        """Context manager recording one timed pass of the benchmark; the
        program's calls are traced only inside such a span, so set-up, input
        making and the answer checks stay out of the per-layer figures."""
        return _Span(self, self._name_id(name))

    def begin_round(self, index: int) -> None:
        self.round = index
        self.round_starts.append(self.next_id)
        self.observed.append({"distinct": set(), "feasible": 0, "grids": 0, "matrix_bytes": 0})

    # -- observers ---------------------------------------------------------

    def _obs(self) -> dict:
        return self.observed[self.round]

    def _on_effective(self, args, kwargs, out):
        pid = args[2] if len(args) > 2 else kwargs["path_id"]
        self._obs()["distinct"].add((pid, repr(out.bounding), out.curve.segments))

    def _on_schedule(self, args, kwargs, out):
        if type(out).__name__ == "Schedule":
            self._obs()["feasible"] += 1

    def _on_sample(self, args, kwargs, out):
        self._sim_sample_bytes += out.nbytes

    def _on_serve(self, args, kwargs, out):
        # the tandem loop holds four runs x steps matrices per node:
        # input, delayed input, capacity and output
        self._sim_serve_bytes = max(self._sim_serve_bytes, 4 * out.nbytes)

    def _on_simulate(self, args, kwargs, out):
        obs = self._obs()
        obs["matrix_bytes"] = max(obs["matrix_bytes"], self._sim_sample_bytes + self._sim_serve_bytes)
        self._sim_sample_bytes = self._sim_serve_bytes = 0

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        observers = {"scenario.effective_service": self._on_effective,
                     "algorithms.schedule_subset": self._on_schedule,
                     "simulate.sample": self._on_sample,
                     "simulate.serve_path": self._on_serve,
                     "simulate.simulate": self._on_simulate}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "infocalc" or n.startswith("infocalc.")) and m is not None]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, name, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapper)
        bounding = sys.modules["infocalc.bounding"]
        for cls in (bounding.GridBound, bounding.GridLowerBound):
            init = cls.__init__

            def counted(obj, *args, _init=init, **kwargs):
                if self.active:
                    self._obs()["grids"] += 1
                _init(obj, *args, **kwargs)

            self._installed.append((cls, "__init__", init))
            cls.__init__ = counted

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"sid": np.frombuffer(self.sid, dtype=np.int64),
                "name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "t0": np.frombuffer(self.t0, dtype=np.float64),
                "t1": np.frombuffer(self.t1, dtype=np.float64)}

    def metrics(self) -> dict[str, float]:
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        child = np.zeros(self.next_id + 1)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        self_time = dur - child[a["sid"]]
        round_of = np.searchsorted(np.array(self.round_starts), a["sid"], side="right") - 1
        n = len(self.names)
        per_round: dict[str, list[float]] = {m: [] for m in METRICS}
        for r in range(len(self.round_starts)):
            mask = round_of == r
            calls = np.bincount(a["name"][mask], minlength=n)
            ms = np.bincount(a["name"][mask], weights=dur[mask], minlength=n) * 1e3
            self_ms = np.bincount(a["name"][mask], weights=self_time[mask], minlength=n) * 1e3
            for metric, (span, kind) in SPAN_METRICS.items():
                k = self.names.index(span)
                per_round[metric].append(float(calls[k] if kind == "calls" else ms[k]))
            per_round["cli.self_ms"].append(float(self_ms[self.names.index("cli.main")]))
            obs = self.observed[r]
            per_round["scenario.effective_service_distinct"].append(float(len(obs["distinct"])))
            per_round["algorithms.schedule_subset_feasible"].append(float(obs["feasible"]))
            per_round["bounding.grid_bounds_built"].append(float(obs["grids"]))
            per_round["simulate.matrix_mb"].append(obs["matrix_bytes"] / 2**20)
        return {m: statistics.median(v) for m, v in per_round.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), round_starts=np.array(self.round_starts),
                            **self.arrays())


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.sid = t.next_id
        t.next_id += 1
        self.parent = t.stack[-1]
        t.stack.append(self.sid)
        t.active = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t.active = False
        t.stack.pop()
        t.sid.append(self.sid)
        t.name.append(self.nid)
        t.parent.append(self.parent)
        t.t0.append(self.start)
        t.t1.append(end)
        return False
