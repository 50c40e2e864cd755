"""Answer checks made apart from the program.

Every check here recomputes what it needs from the scenario *document* (the
JSON dict the benchmark generated) with closed forms, or tests a property
the method must have.  Nothing here calls into ``infocalc`` to obtain an
expected value; the program's answers come in as plain arguments.

Closed forms used (affine services, exponential tail bounds):

* node ``j``: service ``R_j (t - T_j)`` written as slope ``R_j`` and offset
  ``-R_j T_j``; tail bound ``a_j exp(-x/b_j)``;
* an impairment entry active on node ``j`` (its partner path is in the
  subset) subtracts slope ``r_e`` (``fraction * R_j`` or absolute) and adds
  offset ``r_e T_e``; its tail coefficients add to ``a_j`` and ``b_j``;
* a path (tandem of nodes) has the smallest node slope, the summed offsets
  and the summed tail coefficients;
* a subset (paths in parallel) sums slopes, offsets and tail coefficients.

Each check returns a list of failure messages; an empty list means the
answer passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

REL_TOL = 1e-9


def close(a, b, rel=REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Closed-form service of a subset
# ---------------------------------------------------------------------------


class Model:
    """The parts of a scenario document the closed forms need.

    ``num`` converts document numbers; pass ``Fraction`` together with a
    document holding exact values to compose without rounding."""

    def __init__(self, doc: dict, num=float):
        self.paths = {}
        self.order = []
        for p in doc["paths"]:
            self.order.append(p["id"])
            self.paths[p["id"]] = [
                (num(n["bounding"]["a"]), num(n["bounding"]["b"]),
                 num(n["beta"]["rate_bps"]), num(n["beta"]["latency_s"]))
                for n in p["nodes"]]
        self.impairments = []
        for e in doc["impairments"]:
            alpha = e["process"]["alpha"]
            frac = alpha.get("rate_fraction_of_node")
            rate = alpha.get("rate_bps")
            self.impairments.append((
                tuple(e["a"]), tuple(e["b"]),
                num(e["process"]["bounding"]["a"]), num(e["process"]["bounding"]["b"]),
                None if frac is None else num(frac), None if rate is None else num(rate),
                num(alpha["latency_s"])))
        self.sources = [(s["id"], s["group"], num(s["target_rate_bps"]),
                         num(s["delta_s"]), num(s["eta"])) for s in doc["sources"]]
        self.spatial = {g: {2: num(t["pair"]) if "pair" in t else None,
                            3: num(t["triple"]) if "triple" in t else None}
                        for g, t in doc["spatial"].items()}

    def path_service(self, pid: str, active) -> tuple:
        """(slope, offset, a, b) of path ``pid`` inside the active subset."""
        slopes, offset, a_sum, b_sum = [], 0, 0, 0
        for idx, (a, b, rate, lat) in enumerate(self.paths[pid]):
            slope, off = rate, -rate * lat
            for ea, eb, ia, ib, frac, erate, elat in self.impairments:
                for mine, partner in ((ea, eb), (eb, ea)):
                    if mine == (pid, idx) and partner[0] in active:
                        r = erate if erate is not None else frac * rate
                        slope -= r
                        off += r * elat
                        a += ia
                        b += ib
            slopes.append(slope)
            offset += off
            a_sum += a
            b_sum += b
        return min(slopes), offset, a_sum, b_sum

    def subset_service(self, subset) -> tuple:
        """(slope, offset, a, b) of the subset's paths in parallel."""
        active = set(subset)
        parts = [self.path_service(pid, active) for pid in subset]
        return tuple(sum(p[i] for p in parts) for i in range(4))

    def subsets(self):
        for k in range(1, len(self.order) + 1):
            yield from itertools.combinations(self.order, k)

    def delay_floor(self, p: float) -> float:
        """Smallest delay quantile at violation p that any path in any subset
        can give any source set: ``h(alpha + x, max(beta, x))`` is at least
        its value as s -> 0+, ``(x - offset) / rate``."""
        best = math.inf
        for subset in self.subsets():
            for pid in subset:
                slope, off, a, b = (float(v) for v in self.path_service(pid, set(subset)))
                x = 0.0 if a <= p else b * math.log(a / p)
                best = min(best, (x - off) / slope)
        return best

    # -- sources ---------------------------------------------------------

    def coefficient(self, group: str, k: int):
        if k == 1:
            return 1
        return self.spatial[group][k]

    def groups(self, source_ids) -> dict:
        by_group: dict[str, list] = {}
        for sid, group, rate, delta, eta in self.sources:
            if sid in source_ids:
                by_group.setdefault(group, []).append((rate, delta, eta))
        return by_group

    def arrival(self, source_ids) -> tuple:
        """(first-segment slope, knee time, long-term slope) of the fused
        arrival envelope of the given sources.  A calibrated Gaussian source
        of long-term rate r has first slope ``r + log2(1/q)/(2 delta)`` with
        ``q = 1 - exp(-2/eta)``; a group of k carries ``coeff(k)`` times one
        source; groups add."""
        first, last, knee = 0.0, 0.0, None
        for group, members in self.groups(source_ids).items():
            rate, delta, eta = members[0]
            c = float(self.coefficient(group, len(members)))
            q = -math.expm1(-2.0 / float(eta))
            first += c * (float(rate) + math.log2(1.0 / q) / (2.0 * float(delta)))
            last += c * float(rate)
            knee = float(delta) if knee is None else knee
            if knee != float(delta):
                raise ValueError("closed form assumes one sampling interval per scenario")
        return first, (knee or 0.0), last

    def total_rate(self) -> float:
        return self.arrival({s[0] for s in self.sources})[2]

    def delay_quantile(self, source_ids, pid: str, active, p: float) -> float:
        """Delay quantile at violation p of the given sources on path ``pid``:
        ``h(alpha + x, max(beta, x))`` with ``x = b ln(a/p)``; for a
        two-segment concave arrival the sup sits at 0+ or at the knee."""
        slope, off, a, b = self.path_service(pid, active)
        slope, off, a, b = float(slope), float(off), float(a), float(b)
        x = 0.0 if a <= p else b * math.log(a / p)
        first, knee, _ = self.arrival(source_ids)
        at_zero = (x - off) / slope
        at_knee = (first * knee + x - off) / slope - knee
        return max(at_zero, at_knee, 0.0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _spec_params(service) -> tuple | None:
    """(slope, offset, a, b, x0) of a single-segment affine service with an
    exponential bound, read off the program's value; None otherwise."""
    segs = service.curve.segments
    bnd = service.bounding
    if len(segs) != 1 or segs[0].start != 0 or not hasattr(bnd, "params"):
        return None
    a, b, x0 = bnd.params()
    return (segs[0].slope, segs[0].value, a, b, x0)


def check_service(model: Model, subset, service) -> list[str]:
    got = _spec_params(service)
    want = model.subset_service(subset)
    tag = "+".join(subset)
    if got is None:
        return [f"{tag}: service is not affine with an exponential bound"]
    if got[4] != 0:
        return [f"{tag}: bound offset {got[4]} != 0"]
    names = ("rate", "offset", "a", "b")
    return [f"{tag}: {n} {g!r} != closed form {w!r}"
            for n, g, w in zip(names, got[:4], want) if not close(g, w)]


def check_ratecal(model: Model, rates) -> list[str]:
    """Every subset once, in enumeration order, each matching the closed form."""
    errors = []
    expected = list(model.subsets())
    got = [r.subset for r in rates]
    if got != expected:
        errors.append(f"ratecal lists {len(got)} subsets, expected all {len(expected)} in order")
    for r in rates:
        errors += check_service(model, r.subset, r.service)
    return errors


def _params(service) -> tuple:
    """(slope, offset, a, b) of a service ``check_service`` has accepted."""
    return _spec_params(service)[:4]


def dominated(k: tuple, d: tuple) -> bool:
    """Affine/exponential dominance: k's curve strictly above d's for every
    t > 0 and k's tail bound at or below d's for every x."""
    ks, kv, ka, kb = k
    ds, dv, da, db = d
    above = ks >= ds and kv >= dv and (ks, kv) != (ds, dv)
    return above and ka <= da and kb <= db


def check_prune(all_rates, kept) -> list[str]:
    """Pruning keeps exactly the subsets no other subset dominates; every
    dropped subset is dominated by a kept one."""
    params = {r.subset: _params(r.service) for r in all_rates}
    kept_set = [r.subset for r in kept]
    kept_lookup = set(kept_set)
    errors = []
    if kept_set != [r.subset for r in all_rates if r.subset in kept_lookup]:
        errors.append("pruned list is not in enumeration order")
    for r in kept:
        if not all(close(u, v) for u, v in zip(_params(r.service), params[r.subset])):
            errors.append(f"{'+'.join(r.subset)}: pruned service differs from plain")
    kept_params = [params[s] for s in kept_set]
    for subset, mine in params.items():
        if subset in kept_lookup:
            if any(dominated(o, mine) for o in params.values()):
                errors.append(f"kept {'+'.join(subset)} is dominated")
        elif not any(dominated(o, mine) for o in kept_params):
            errors.append(f"dropped {'+'.join(subset)} is dominated by no kept subset")
    return errors


def above_rate_subsets(model: Model) -> tuple[set, set]:
    """Subsets whose closed-form rate reaches the total arrival rate, and
    those within rounding of it (either answer is right for these)."""
    total = model.total_rate()
    above, borderline = set(), set()
    for s in model.subsets():
        rate = float(model.subset_service(s)[0])
        if close(rate, total):
            borderline.add(s)
        elif rate > total:
            above.add(s)
    return above, borderline


def check_schedule(model: Model, schedule, delay: float, p: float) -> list[str]:
    """Each source exactly once on a path of the subset; one certificate per
    loaded path, equal to the closed-form delay quantile and within delay."""
    errors = []
    subset = tuple(schedule.subset)
    tag = "+".join(subset)
    ids = [s[0] for s in model.sources]
    if sorted(schedule.assignment) != sorted(ids):
        missing = sorted(set(ids) - set(schedule.assignment))
        extra = sorted(set(schedule.assignment) - set(ids))
        errors.append(f"{tag}: assignment misses {missing} / adds {extra}")
    loaded = {}
    for sid, pid in schedule.assignment.items():
        if pid not in subset:
            errors.append(f"{tag}: source {sid} on path {pid} outside the subset")
        loaded.setdefault(pid, set()).add(sid)
    if set(schedule.certificates) != set(loaded):
        errors.append(f"{tag}: certificates for {sorted(schedule.certificates)}, "
                      f"loaded paths {sorted(loaded)}")
    for pid, sids in loaded.items():
        cert = schedule.certificates.get(pid)
        if cert is None:
            continue
        want = model.delay_quantile(sids, pid, set(subset), p)
        if not close(cert.derived_quantile, want, 1e-7):
            errors.append(f"{tag}/{pid}: quantile {cert.derived_quantile!r} != closed form {want!r}")
        if not cert.derived_quantile <= delay:
            errors.append(f"{tag}/{pid}: quantile {cert.derived_quantile} exceeds delay {delay}")
    return errors


def check_table(model: Model, table, delay: float, p: float, is_schedule) -> list[str]:
    """One entry per above-rate subset, by decreasing rate; every schedule valid."""
    errors = []
    got = [subset for subset, _ in table]
    above, borderline = above_rate_subsets(model)
    if len(set(got)) != len(got) or set(got) - borderline != above:
        errors.append(f"table covers {len(got)} subsets, closed form gives {len(above)} above-rate subsets")
    rates = [float(model.subset_service(s)[0]) for s in got]
    if any(r2 > r1 and not close(r1, r2) for r1, r2 in zip(rates, rates[1:])):
        errors.append("table is not in decreasing-rate order")
    for subset, result in table:
        if is_schedule(result):
            if tuple(result.subset) != tuple(subset):
                errors.append(f"{'+'.join(subset)}: schedule for {result.subset}")
            errors += check_schedule(model, result, delay, p)
    return errors


def check_bflr_matches_table(result, table, is_schedule, kept=None) -> list[str]:
    """bflr returns the first feasible entry of the table (restricted to the
    pruned subsets when ``kept`` is given)."""
    first = next((r for s, r in table if is_schedule(r) and (kept is None or s in kept)), None)
    if first is None:
        return [] if not is_schedule(result) else ["bflr found a schedule the table does not"]
    if not is_schedule(result):
        return [f"bflr answered infeasible; table has a schedule on {first.subset}"]
    if tuple(result.subset) != tuple(first.subset) or dict(result.assignment) != dict(first.assignment):
        return [f"bflr chose {result.subset}, table's first feasible is {first.subset}"]
    return []


def check_ratios(cells: dict, calibrated: tuple | None = None,
                 target: float | None = None) -> list[str]:
    """``cells`` maps (subset, tau, p) to the ratio; every ratio in [0, 1] and
    non-decreasing in p; the calibrated cell hits its target."""
    errors = []
    for key, ratio in cells.items():
        if not (0.0 <= ratio <= 1.0) or math.isnan(ratio):
            errors.append(f"ratio {ratio} outside [0, 1] at {key}")
    for (subset, tau, p), ratio in cells.items():
        for (s2, t2, p2), r2 in cells.items():
            if s2 == subset and t2 == tau and p2 > p and r2 < ratio:
                errors.append(f"ratio drops from {ratio} to {r2} as p grows {p}->{p2} at {subset}")
    if calibrated is not None and abs(cells[calibrated] - target) > 1e-6:
        errors.append(f"calibrated cell {calibrated} gives {cells[calibrated]}, target {target}")
    return errors


def check_reports(reports, expected_paths) -> list[str]:
    """Every tail report passed, with its 20 thresholds, for every loaded path."""
    errors = []
    seen = {(r.quantity, r.path_id) for r in reports}
    for pid in expected_paths:
        for quantity in ("delay", "backlog", "backlog_within_delay"):
            if (quantity, pid) not in seen:
                errors.append(f"no {quantity} report for {pid}")
    for r in reports:
        if not r.passed:
            errors.append(f"{r.quantity} report on {r.path_id} failed")
        if len(r.thresholds) != 20:
            errors.append(f"{r.quantity} report on {r.path_id} has {len(r.thresholds)} thresholds")
    return errors


def check_identical(first: str, second: str, what: str) -> list[str]:
    return [] if first == second else [f"repeated seeded {what} differs"]


def check_exit(argv, code: int, want: int) -> list[str]:
    return [] if code == want else [f"`{' '.join(argv)}` exited {code}, library says {want}"]


def fault_fixed(code, stderr: str, raised) -> bool:
    """A known-fault command counts as mended once it exits 1 with a single
    ``error:`` line and no traceback."""
    lines = stderr.strip().splitlines()
    return (raised is None and code == 1 and len(lines) == 1
            and lines[0].startswith("error:") and "Traceback" not in stderr)


# ---------------------------------------------------------------------------
# The published case study
# ---------------------------------------------------------------------------

R = Fraction(8000)
D = Fraction(3, 400)

#: the paper's per-path table (a, slope, offset); the impaired L3/L4 rows
#: are the published 5/6 values the composition rules do not give
PAPER_TABLE1 = {
    ("L1", False): (1, R, -R * D), ("L2", False): (2, R, -2 * R * D),
    ("L3", False): (3, R, -3 * R * D), ("L4", False): (4, R, -4 * R * D),
    ("L1", True): (5, Fraction(4, 5) * R, -Fraction(4, 5) * R * D),
    ("L2", True): (6, Fraction(4, 5) * R, -Fraction(9, 5) * R * D),
    ("L3", True): (5, Fraction(2, 3) * R, -Fraction(8, 3) * R * D),
    ("L4", True): (6, Fraction(2, 3) * R, -Fraction(11, 3) * R * D),
}
PARTNER = {"L1": "L2", "L2": "L1", "L3": "L4", "L4": "L3"}

#: the paper's five subsets above the 16.78 kbit/s total, with (a, slope, offset)
PAPER_COMBOS = {
    ("L1", "L2", "L3"): (14, Fraction(13, 5) * R, -Fraction(28, 5) * R * D),
    ("L1", "L2", "L4"): (15, Fraction(13, 5) * R, -Fraction(33, 5) * R * D),
    ("L1", "L3", "L4"): (12, Fraction(7, 3) * R, -Fraction(22, 3) * R * D),
    ("L2", "L3", "L4"): (13, Fraction(7, 3) * R, -Fraction(25, 3) * R * D),
    ("L1", "L2", "L3", "L4"): (22, Fraction(44, 15) * R, -Fraction(134, 15) * R * D),
}
PAPER_TOTAL_KBPS = 16.78

#: Table 2: (p, delay) -> subset -> feasible; the L1+L2+L3+L4 column is the
#: documented divergence and is not compared
PAPER_TABLE2 = {
    (0.001, 0.035): {"L1+L2+L3": True, "L1+L2+L4": True, "L1+L3+L4": False, "L2+L3+L4": False},
    (0.001, 0.045): {"L1+L2+L3": True, "L1+L2+L4": True, "L1+L3+L4": False, "L2+L3+L4": False},
    (0.0001, 0.035): {"L1+L2+L3": True, "L1+L2+L4": False, "L1+L3+L4": False, "L2+L3+L4": False},
    (0.0001, 0.045): {"L1+L2+L3": True, "L1+L2+L4": True, "L1+L3+L4": False, "L2+L3+L4": False},
}

#: Table 3 published percentages at tau = 15 ms; (subset, p) -> percent
PAPER_TABLE3_15MS = {
    (("L1", "L2", "L3"), 0.10): 56.4, (("L1", "L2", "L3"), 0.15): 59.7,
    (("L1", "L2", "L4"), 0.10): 50.6, (("L1", "L2", "L4"), 0.15): 53.9,
}
CALIBRATION = (("L1", "L2", "L3"), 0.015, 0.15, 0.597)


def exact_case_study_doc() -> dict:
    """The case study's parameters as exact rationals (the paper's values)."""
    node = {"bounding": {"a": 1, "b": 1}, "beta": {"rate_bps": R, "latency_s": D}}
    paths = [{"id": f"L{k}", "nodes": [dict(node, id=f"L{k}.{j}") for j in range(k)]}
             for k in (1, 2, 3, 4)]

    def entry(a, b, ab, frac):
        return {"a": list(a), "b": list(b), "process": {
            "bounding": {"a": ab, "b": ab},
            "alpha": {"rate_fraction_of_node": frac, "latency_s": D}}}

    return {"paths": paths, "sources": [], "spatial": {},
            "impairments": [entry(("L1", 0), ("L2", 0), 4, Fraction(1, 5)),
                            entry(("L3", 1), ("L4", 1), 3, Fraction(1, 3))]}


def check_table1(path_services: dict) -> list[str]:
    """``path_services`` maps (path, impaired) to the program's service on
    the exact-rational case study.  The rule-derived Fractions must match
    exactly; all rows but the impaired L3/L4 must match the paper."""
    model = Model(exact_case_study_doc(), num=lambda v: v)
    errors = []
    for (pid, impaired), service in path_services.items():
        active = {pid, PARTNER[pid]} if impaired else {pid}
        slope, off, a, b = model.path_service(pid, active)
        got = _spec_params(service)
        if got is None or got[:4] != (slope, off, a, b) or got[4] != 0:
            errors.append(f"{pid} impaired={impaired}: {got} != exact {(slope, off, a, b)}")
        paper = PAPER_TABLE1[(pid, impaired)]
        if pid in ("L3", "L4") and impaired:
            if (a, slope, off) == paper:
                errors.append(f"{pid}: composition unexpectedly matches the published 5/6 row")
        elif (a, slope, off) != paper or a != b:
            errors.append(f"{pid} impaired={impaired}: rules give {(a, slope, off)}, paper {paper}")
    return errors


def check_combos(rates_with_paper_table1, total_rate: float) -> list[str]:
    errors = []
    got = {r.subset: _params(r.service) for r in rates_with_paper_table1}
    if set(got) != set(PAPER_COMBOS):
        errors.append(f"above-rate subsets {sorted(got)} != paper {sorted(PAPER_COMBOS)}")
    for subset, (a, slope, off) in PAPER_COMBOS.items():
        if subset in got:
            s, v, ga, gb = got[subset]
            if not (close(s, float(slope)) and close(v, float(off)) and ga == a and gb == a):
                errors.append(f"{'+'.join(subset)}: {got[subset]} != paper {(a, slope, off)}")
    if round(total_rate / 1000.0, 2) != PAPER_TOTAL_KBPS or not close(total_rate, 3 * 2.4 * 2330.0):
        errors.append(f"total rate {total_rate} != paper {PAPER_TOTAL_KBPS} kbit/s")
    return errors


def check_table2(tables: dict, is_schedule) -> list[str]:
    """``tables`` maps (p, delay) to bflr_table output."""
    errors = []
    for cell, expected in PAPER_TABLE2.items():
        got = {"+".join(s): is_schedule(r) for s, r in tables[cell]}
        for subset, feasible in expected.items():
            if got.get(subset) != feasible:
                errors.append(f"Table 2 {subset} at p={cell[0]}, D={cell[1]}: "
                              f"{got.get(subset)} != paper {feasible}")
        sched = dict(tables[cell]).get(("L1", "L2", "L3"))
        if is_schedule(sched):
            for g, pid in ((1, "L1"), (2, "L2"), (3, "L3")):
                if sched.sources_on(pid) != [f"A{g}.1", f"A{g}.2", f"A{g}.3"]:
                    errors.append(f"Table 2 L1+L2+L3 at {cell}: {pid} carries {sched.sources_on(pid)}")
    return errors


def check_table3(cells: dict) -> list[str]:
    """``cells`` maps (subset, tau, p) to the ratio for the 12-cell grid."""
    errors = []
    for (subset, p), pct in PAPER_TABLE3_15MS.items():
        got = cells[(subset, 0.015, p)] * 100.0
        if abs(got - pct) > 3.0:
            errors.append(f"Table 3 {'+'.join(subset)} p={p} 15 ms: {got:.2f}% vs paper {pct}%")
    subset, tau, p, target = CALIBRATION
    errors += check_ratios(cells, (subset, tau, p), target)
    return errors
