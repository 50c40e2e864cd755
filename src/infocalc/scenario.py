"""Scenario data model and JSON ingestion.

A scenario bundles information sources (with their spatial-redundancy
model), node-disjoint transport paths of latency-rate nodes with exponential
tail bounds, and pairwise impairment entries that model inter-path
transmission interference.  Documents are strict JSON: the field names below
are normative and unknown keys are rejected.

Top-level keys: ``units``, ``sources``, ``spatial``, ``paths``,
``impairments``.  See ``data/case_study.json`` for a complete example.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Mapping

from .bounding import ExpBound
from .calculus import IsaSpec, IssSpec, concatenate, impair
from .curves import Curve
from .errors import SchemaError, ValidationError
from .sources import SourceModel, SpatialModel, calibrate_sigma2

_SPATIAL_SIZES = {"pair": 2, "triple": 3}
_SIZE_NAMES = {v: k for k, v in _SPATIAL_SIZES.items()}


@dataclass(frozen=True)
class Node:
    id: str
    bounding_a: float
    bounding_b: float
    rate: float
    latency: float

    @property
    def service(self) -> IssSpec:
        return IssSpec(ExpBound(self.bounding_a, self.bounding_b),
                       Curve.rate_latency(self.rate, self.latency))


@dataclass(frozen=True)
class Path:
    id: str
    nodes: tuple[Node, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValidationError(f"path {self.id}: at least one node required")

    @property
    def standalone_rate(self) -> float:
        return float(min(n.rate for n in self.nodes))


@dataclass(frozen=True)
class ImpairmentEntry:
    a: tuple[str, int]  # (path id, node index)
    b: tuple[str, int]
    bounding_a: float
    bounding_b: float
    # rate given either as a fraction of the endpoint node's rate or absolute
    rate_fraction: float | None
    rate: float | None
    latency: float

    def rate_for(self, node: Node) -> float:
        """The rate this process takes from ``node``."""
        return self.rate if self.rate is not None else self.rate_fraction * node.rate

    def process_for(self, node: Node) -> IsaSpec:
        return IsaSpec(ExpBound(self.bounding_a, self.bounding_b),
                       Curve.rate_latency(self.rate_for(node), self.latency))


@dataclass(frozen=True)
class Scenario:
    sources: tuple[SourceModel, ...]
    spatial: SpatialModel
    paths: tuple[Path, ...]
    impairments: tuple[ImpairmentEntry, ...]
    units: Mapping[str, str] = field(default_factory=lambda: {"time": "seconds", "information": "bits"})
    # raw per-source rate spec, kept for bit-identical round-trips
    source_rate_specs: Mapping[str, tuple[str, float]] = field(default_factory=dict)

    def path(self, path_id: str) -> Path:
        for p in self.paths:
            if p.id == path_id:
                return p
        raise ValidationError(f"unknown path '{path_id}'")

    def path_ids(self) -> list[str]:
        return [p.id for p in self.paths]

    def partners(self, path_id: str) -> frozenset[str]:
        """Paths sharing an impairment entry with ``path_id``: the only paths
        whose presence in a subset changes its effective service."""
        return frozenset(other[0] for e in self.impairments
                         for mine, other in ((e.a, e.b), (e.b, e.a)) if mine[0] == path_id)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _expect(obj, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - keys
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")


def _num(obj, key: str, where: str, required: bool = True):
    if key not in obj:
        if required:
            raise SchemaError(f"{where}: missing field '{key}'")
        return None
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}.{key}: expected a number, got {type(v).__name__}")
    if not -sys.float_info.max <= v <= sys.float_info.max:  # NaN, infinities, huge ints
        raise SchemaError(f"{where}.{key}: expected a finite number")
    return float(v)


def _nonneg(obj, key: str, where: str, positive: bool = False, required: bool = True):
    """A ``_num`` field that must be at least 0 (above 0 with ``positive``)."""
    v = _num(obj, key, where, required)
    if v is not None and (v <= 0 if positive else v < 0):
        raise ValidationError(f"{where}.{key}: must be {'positive' if positive else 'non-negative'}, "
                              f"got {v:g}")
    return v


def _str(obj, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing field '{key}'")
    v = obj[key]
    if not isinstance(v, str):
        raise SchemaError(f"{where}.{key}: expected a string, got {type(v).__name__}")
    return v


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    _expect(doc, {"units", "sources", "spatial", "paths", "impairments"}, "document")

    units = doc.get("units")
    if units is None:
        raise SchemaError("document: missing field 'units'")
    _expect(units, {"time", "information"}, "units")
    if _str(units, "time", "units") != "seconds" or _str(units, "information", "units") != "bits":
        raise ValidationError("units: only time=seconds, information=bits are supported")

    sources: list[SourceModel] = []
    rate_specs: dict[str, tuple[str, float]] = {}
    for i, s in enumerate(doc.get("sources", [])):
        where = f"sources[{i}]"
        _expect(s, {"id", "sigma2", "target_rate_bps", "eta", "delta_s", "group"}, where)
        sid = _str(s, "id", where)
        eta = _num(s, "eta", where)
        delta = _num(s, "delta_s", where)
        group = _str(s, "group", where)
        sigma2 = _num(s, "sigma2", where, required=False)
        target = _num(s, "target_rate_bps", where, required=False)
        if (sigma2 is None) == (target is None):
            raise SchemaError(f"{where}: exactly one of 'sigma2' or 'target_rate_bps' required")
        if sigma2 is None:
            if eta <= 0 or delta <= 0:
                raise ValidationError(f"{where}: eta and delta_s must be positive")
            try:
                sigma2 = calibrate_sigma2(target, delta, eta)
            except ValueError as exc:
                raise ValidationError(f"{where}.target_rate_bps: {exc}") from None
            rate_specs[sid] = ("target_rate_bps", target)
        else:
            rate_specs[sid] = ("sigma2", sigma2)
        try:
            sources.append(SourceModel(sid, sigma2, eta, delta, group))
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    if len({s.id for s in sources}) != len(sources):
        raise ValidationError("sources: duplicate source ids")

    spatial_doc = doc.get("spatial", {})
    if not isinstance(spatial_doc, dict):
        raise SchemaError("spatial: expected an object")
    coeffs: dict[str, dict[int, float]] = {}
    for group, table in spatial_doc.items():
        _expect(table, set(_SPATIAL_SIZES), f"spatial.{group}")
        coeffs[group] = {_SPATIAL_SIZES[k]: _num(table, k, f"spatial.{group}") for k in table}
    try:
        spatial = SpatialModel(coeffs)
    except ValueError as exc:
        raise ValidationError(f"spatial: {exc}") from None
    members: dict[str, int] = {}
    for src in sources:
        members[src.group_id] = members.get(src.group_id, 0) + 1
    for group, k in members.items():
        for size in range(2, k + 1):
            if size not in coeffs.get(group, {}):
                name = _SIZE_NAMES.get(size)
                raise ValidationError(
                    f"spatial.{group}: missing field '{name}' for the {k} sources of group {group}"
                    if name else
                    f"sources: group {group} has {k} members; spatial tables cover at most "
                    f"{max(_SPATIAL_SIZES.values())}")

    paths: list[Path] = []
    if not isinstance(doc.get("paths"), list):
        raise SchemaError("paths: expected a list")
    for i, p in enumerate(doc["paths"]):
        where = f"paths[{i}]"
        _expect(p, {"id", "nodes"}, where)
        pid = _str(p, "id", where)
        nodes = []
        if not isinstance(p.get("nodes"), list) or not p["nodes"]:
            raise ValidationError(f"{where}: at least one node required")
        for j, n in enumerate(p["nodes"]):
            nwhere = f"{where}.nodes[{j}]"
            _expect(n, {"id", "bounding", "beta"}, nwhere)
            nid = _str(n, "id", nwhere)
            bnd = n.get("bounding")
            _expect(bnd, {"a", "b"}, f"{nwhere}.bounding")
            beta = n.get("beta")
            _expect(beta, {"rate_bps", "latency_s"}, f"{nwhere}.beta")
            nodes.append(Node(nid, _nonneg(bnd, "a", f"{nwhere}.bounding"),
                              _nonneg(bnd, "b", f"{nwhere}.bounding", positive=True),
                              _nonneg(beta, "rate_bps", f"{nwhere}.beta"),
                              _nonneg(beta, "latency_s", f"{nwhere}.beta")))
        paths.append(Path(pid, tuple(nodes)))
    if not paths:
        raise ValidationError("paths: at least one path required")
    if len({p.id for p in paths}) != len(paths):
        raise ValidationError("paths: duplicate path ids")
    node_ids = [n.id for p in paths for n in p.nodes]
    if len(set(node_ids)) != len(node_ids):
        raise ValidationError("paths must be node-disjoint: duplicate node id across paths")

    impairments: list[ImpairmentEntry] = []
    by_id = {p.id: p for p in paths}
    # (path id, node index) -> node rate left after the impairments so far,
    # subtracted in the order effective_path_service subtracts them
    left: dict[tuple[str, int], float] = {}
    for i, e in enumerate(doc.get("impairments", [])):
        where = f"impairments[{i}]"
        _expect(e, {"a", "b", "process"}, where)
        ends = []
        for side in ("a", "b"):
            ref = e.get(side)
            if (not isinstance(ref, list) or len(ref) != 2
                    or not isinstance(ref[0], str) or not isinstance(ref[1], int)):
                raise SchemaError(f"{where}.{side}: expected [path_id, node_index]")
            ends.append((ref[0], ref[1]))
        proc = e.get("process")
        _expect(proc, {"bounding", "alpha"}, f"{where}.process")
        bnd = proc.get("bounding")
        _expect(bnd, {"a", "b"}, f"{where}.process.bounding")
        alpha = proc.get("alpha")
        _expect(alpha, {"rate_fraction_of_node", "rate_bps", "latency_s"}, f"{where}.process.alpha")
        frac = _nonneg(alpha, "rate_fraction_of_node", f"{where}.process.alpha", required=False)
        if frac is not None and frac > 1:
            raise ValidationError(f"{where}.process.alpha.rate_fraction_of_node: must be at most 1, "
                                  f"got {frac:g}")
        rate = _nonneg(alpha, "rate_bps", f"{where}.process.alpha", required=False)
        if (frac is None) == (rate is None):
            raise SchemaError(
                f"{where}.process.alpha: exactly one of 'rate_fraction_of_node' or 'rate_bps' required")
        entry = ImpairmentEntry(tuple(ends[0]), tuple(ends[1]),
                                _nonneg(bnd, "a", f"{where}.process.bounding"),
                                _nonneg(bnd, "b", f"{where}.process.bounding", positive=True),
                                frac, rate, _nonneg(alpha, "latency_s", f"{where}.process.alpha"))
        if entry.a[0] == entry.b[0]:
            raise ValidationError(f"{where}: impairment endpoints must be on distinct paths")
        for pid, idx in (entry.a, entry.b):
            if pid not in by_id:
                raise ValidationError(f"{where}: unknown path '{pid}'")
            if not 0 <= idx < len(by_id[pid].nodes):
                raise ValidationError(f"{where}: node index {idx} out of range for path {pid}")
            node = by_id[pid].nodes[idx]
            left[pid, idx] = left.get((pid, idx), node.rate) - entry.rate_for(node)
            if left[pid, idx] < 0:
                key = "rate_fraction_of_node" if frac is not None else "rate_bps"
                raise ValidationError(f"{where}.process.alpha.{key}: impairments take more than "
                                      f"the {node.rate:g} bit/s of node {node.id}")
        impairments.append(entry)

    return Scenario(tuple(sources), spatial, tuple(paths), tuple(impairments),
                    units={"time": "seconds", "information": "bits"},
                    source_rate_specs=rate_specs)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def serialize_scenario(s: Scenario) -> str:
    """Canonical JSON form; ``parse(serialize(x))`` returns an equal scenario
    and serializing again is byte-identical."""
    doc = {
        "units": dict(s.units),
        "sources": [],
        "spatial": {},
        "paths": [],
        "impairments": [],
    }
    for src in s.sources:
        kind, value = s.source_rate_specs.get(src.id, ("sigma2", src.sigma2))
        doc["sources"].append({
            "id": src.id, kind: value, "eta": src.eta, "delta_s": src.delta,
            "group": src.group_id,
        })
    for group in sorted(s.spatial.coefficients):
        doc["spatial"][group] = {
            _SIZE_NAMES[k]: v for k, v in sorted(s.spatial.coefficients[group].items())
        }
    for p in s.paths:
        doc["paths"].append({
            "id": p.id,
            "nodes": [{"id": n.id, "bounding": {"a": n.bounding_a, "b": n.bounding_b},
                       "beta": {"rate_bps": n.rate, "latency_s": n.latency}} for n in p.nodes],
        })
    for e in s.impairments:
        alpha = {"latency_s": e.latency}
        if e.rate_fraction is not None:
            alpha["rate_fraction_of_node"] = e.rate_fraction
        else:
            alpha["rate_bps"] = e.rate
        doc["impairments"].append({
            "a": list(e.a), "b": list(e.b),
            "process": {"bounding": {"a": e.bounding_a, "b": e.bounding_b}, "alpha": alpha},
        })
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Effective service
# ---------------------------------------------------------------------------


def effective_path_service(s: Scenario, active: set[str], path_id: str,
                           bounding_overrides: Mapping[str, tuple[float, float]] | None = None,
                           ) -> IssSpec:
    """End-to-end service of ``path_id`` inside the active subset.

    Every node is impaired once per impairment entry whose partner path is
    also active (interference needs both parties transmitting), then the
    nodes are concatenated.  ``bounding_overrides`` replaces the bounding of
    an impaired path by explicit ``(a, b)`` coefficients (used to inject the
    published per-path table values for comparison).
    """
    if path_id not in active:
        raise ValueError(f"path {path_id} is not in the active subset")
    path = s.path(path_id)
    impaired = False
    servers = []
    for idx, node in enumerate(path.nodes):
        srv = node.service
        for entry in s.impairments:
            for mine, partner in ((entry.a, entry.b), (entry.b, entry.a)):
                if mine == (path_id, idx) and partner[0] in active:
                    srv = impair(srv, entry.process_for(node))
                    impaired = True
        servers.append(srv)
    spec = concatenate(servers)
    if impaired and bounding_overrides and path_id in bounding_overrides:
        a, b = bounding_overrides[path_id]
        spec = IssSpec(ExpBound(a, b), spec.curve)
    return spec


# ---------------------------------------------------------------------------
# Bundled case study
# ---------------------------------------------------------------------------

CASE_STUDY_RATE = 8000.0          # per-node information service rate, bits/s
CASE_STUDY_HOP_DELAY = 0.0075     # per-hop latency, seconds
CASE_STUDY_SOURCE_RATE = 2330.0   # long-term per-source information rate, bits/s

#: published per-path bounding values for the impaired L3/L4 rows of the
#: bundled case study; injected by the --paper-table1 flag for comparison
#: with the rule-consistent composition (which yields 6e^-x/6 and 7e^-x/7).
PAPER_TABLE1_BOUNDINGS: dict[str, tuple[float, float]] = {"L3": (5.0, 5.0), "L4": (6.0, 6.0)}


def case_study_path() -> str:
    """Filesystem path of the bundled case-study document."""
    return str(resources.files("infocalc.data").joinpath("case_study.json"))


def case_study_scenario(exact: bool = False) -> Scenario:
    """The bundled nine-source, four-path scenario.

    ``exact=True`` builds the path curves with Fraction coefficients so that
    per-path table reproduction can be asserted with zero tolerance.
    """
    r = Fraction(8000) if exact else CASE_STUDY_RATE
    d = Fraction(3, 400) if exact else CASE_STUDY_HOP_DELAY
    sources = tuple(
        SourceModel(f"A{g}.{i}", calibrate_sigma2(CASE_STUDY_SOURCE_RATE, 0.1, 100.0),
                    100.0, 0.1, f"{g}")
        for g in (1, 2, 3) for i in (1, 2, 3)
    )
    spatial = SpatialModel({f"{g}": {2: 1.8, 3: 2.4} for g in (1, 2, 3)})
    paths = tuple(
        Path(f"L{k}", tuple(Node(f"L{k}.{j}", 1 if exact else 1.0, 1 if exact else 1.0, r, d)
                            for j in range(k)))
        for k in (1, 2, 3, 4)
    )
    one_fifth = Fraction(1, 5) if exact else 0.2
    one_third = Fraction(1, 3) if exact else 1.0 / 3.0
    impairments = (
        ImpairmentEntry(("L1", 0), ("L2", 0), 4 if exact else 4.0, 4 if exact else 4.0,
                        one_fifth, None, d),
        ImpairmentEntry(("L3", 1), ("L4", 1), 3 if exact else 3.0, 3 if exact else 3.0,
                        one_third, None, d),
    )
    rate_specs = {s.id: ("target_rate_bps", CASE_STUDY_SOURCE_RATE) for s in sources}
    return Scenario(sources, spatial, paths, impairments, source_rate_specs=rate_specs)


__all__ = [
    "Node",
    "Path",
    "ImpairmentEntry",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "serialize_scenario",
    "effective_path_service",
    "case_study_scenario",
    "case_study_path",
    "PAPER_TABLE1_BOUNDINGS",
    "CASE_STUDY_RATE",
    "CASE_STUDY_HOP_DELAY",
    "CASE_STUDY_SOURCE_RATE",
]
