"""Scenario schema: parsing, validation, round-trips, effective service."""

import itertools
import json
import re

import numpy as np
import pytest

from conftest import np_eval, perfbench_workloads, random_scenario
from infocalc.bounding import ExpBound, bf_convolve
from infocalc.calculus import IssSpec
from infocalc.curves import Curve, convolve
from infocalc.errors import SchemaError, ValidationError
from infocalc.scenario import (
    CASE_STUDY_RATE,
    PAPER_TABLE1_BOUNDINGS,
    ImpairmentEntry,
    Node,
    Path,
    Scenario,
    case_study_path,
    case_study_scenario,
    effective_path_service,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from infocalc.sources import SpatialModel

R, D = 8000.0, 0.0075


def minimal_doc():
    return {
        "units": {"time": "seconds", "information": "bits"},
        "sources": [{"id": "A", "target_rate_bps": 1000.0, "eta": 100.0,
                     "delta_s": 0.1, "group": "g"}],
        "spatial": {"g": {"pair": 1.8, "triple": 2.4}},
        "paths": [{"id": "P1", "nodes": [{"id": "n1", "bounding": {"a": 1.0, "b": 1.0},
                                          "beta": {"rate_bps": 8000.0, "latency_s": 0.0075}}]}],
        "impairments": [],
    }


def case_study_document():
    with open(case_study_path(), encoding="utf-8") as fh:
        return json.load(fh)


def set_field(doc, field: str, value) -> None:
    """Set a dotted/indexed field such as ``paths[0].nodes[0].beta.rate_bps``."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", field)]
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = value


class TestParse:
    def test_bundled_case_study(self):
        s = load_scenario(case_study_path())
        assert len(s.sources) == 9
        assert len({src.group_id for src in s.sources}) == 3
        assert [len(p.nodes) for p in s.paths] == [1, 2, 3, 4]
        assert len(s.impairments) == 2

    def test_duplicate_node_across_paths_rejected(self):
        doc = minimal_doc()
        doc["paths"].append({"id": "P2", "nodes": [{"id": "n1", "bounding": {"a": 1.0, "b": 1.0},
                                                    "beta": {"rate_bps": 1.0, "latency_s": 0.0}}]})
        with pytest.raises(ValidationError, match="node-disjoint"):
            parse_scenario(json.dumps(doc))

    def test_empty_paths_rejected(self):
        doc = minimal_doc()
        doc["paths"] = []
        with pytest.raises(ValidationError, match="at least one path"):
            parse_scenario(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            parse_scenario(json.dumps(doc))

    def test_unknown_nested_key_rejected(self):
        doc = minimal_doc()
        doc["paths"][0]["nodes"][0]["beta"]["jitter"] = 1.0
        with pytest.raises(SchemaError, match="jitter"):
            parse_scenario(json.dumps(doc))

    def test_missing_field_has_context(self):
        doc = minimal_doc()
        del doc["sources"][0]["eta"]
        with pytest.raises(SchemaError, match=r"sources\[0\].*eta"):
            parse_scenario(json.dumps(doc))

    def test_wrong_type_rejected(self):
        doc = minimal_doc()
        doc["sources"][0]["eta"] = "fast"
        with pytest.raises(SchemaError, match="eta"):
            parse_scenario(json.dumps(doc))

    def test_sigma_and_rate_mutually_exclusive(self):
        doc = minimal_doc()
        doc["sources"][0]["sigma2"] = 1.0
        with pytest.raises(SchemaError, match="exactly one"):
            parse_scenario(json.dumps(doc))

    def test_impairment_must_span_two_paths(self):
        doc = minimal_doc()
        doc["impairments"] = [{"a": ["P1", 0], "b": ["P1", 0],
                               "process": {"bounding": {"a": 1.0, "b": 1.0},
                                           "alpha": {"rate_bps": 10.0, "latency_s": 0.0}}}]
        with pytest.raises(ValidationError, match="distinct paths"):
            parse_scenario(json.dumps(doc))

    def test_impairment_index_range_checked(self):
        doc = minimal_doc()
        doc["paths"].append({"id": "P2", "nodes": [{"id": "n2", "bounding": {"a": 1.0, "b": 1.0},
                                                    "beta": {"rate_bps": 1.0, "latency_s": 0.0}}]})
        doc["impairments"] = [{"a": ["P1", 5], "b": ["P2", 0],
                               "process": {"bounding": {"a": 1.0, "b": 1.0},
                                           "alpha": {"rate_bps": 10.0, "latency_s": 0.0}}}]
        with pytest.raises(ValidationError, match="out of range"):
            parse_scenario(json.dumps(doc))

    def test_invalid_json_reports_location(self):
        with pytest.raises(SchemaError, match="line"):
            parse_scenario("{not json}")

    def test_spatial_coefficient_validation(self):
        doc = minimal_doc()
        doc["spatial"]["g"]["pair"] = 2.5
        with pytest.raises(ValidationError):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_rejected(self, constant):
        text = json.dumps(minimal_doc()).replace('"rate_bps": 8000.0', f'"rate_bps": {constant}')
        with pytest.raises(SchemaError, match=r"paths\[0\]\.nodes\[0\]\.beta\.rate_bps.*finite"):
            parse_scenario(text)

    def test_unrepresentable_target_rate_rejected(self):
        doc = minimal_doc()
        doc["sources"][0]["target_rate_bps"] = 7200.0  # 1440 bits per sample at delta 0.1 s
        with pytest.raises(ValidationError, match=r"sources\[0\]\.target_rate_bps"):
            parse_scenario(json.dumps(doc))

    def test_group_larger_than_spatial_table_rejected(self):
        doc = minimal_doc()
        doc["sources"] += [dict(doc["sources"][0], id=f"A{k}") for k in range(2, 5)]
        with pytest.raises(ValidationError, match="group g has 4 members"):
            parse_scenario(json.dumps(doc))

    def test_group_without_its_size_coefficient_rejected(self):
        doc = minimal_doc()
        doc["sources"].append(dict(doc["sources"][0], id="A2"))
        del doc["spatial"]["g"]["pair"]
        with pytest.raises(ValidationError, match=r"spatial\.g: missing field 'pair'"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("paths[0].nodes[0].beta.rate_bps", -8000.0),
        ("paths[0].nodes[0].beta.latency_s", -0.0075),
        ("paths[1].nodes[0].bounding.a", -1.0),
        ("paths[1].nodes[0].bounding.b", 0.0),
        ("paths[1].nodes[0].bounding.b", -1.0),
        ("impairments[0].process.alpha.rate_fraction_of_node", -0.2),
        ("impairments[0].process.alpha.latency_s", -0.0075),
        ("impairments[1].process.bounding.a", -3.0),
        ("impairments[1].process.bounding.b", 0.0),
        ("impairments[0].process.alpha.rate_fraction_of_node", 1.5),
        ("impairments[0].process.alpha.rate_bps", 1e9),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        doc = case_study_document()
        if field.endswith("alpha.rate_bps"):  # an impairment gives its rate in one form only
            doc["impairments"][0]["process"]["alpha"].pop("rate_fraction_of_node")
        set_field(doc, field, value)
        with pytest.raises(ValidationError, match=re.escape(field)):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("field", [
        "paths[0].nodes[0].beta.rate_bps",
        "paths[0].nodes[0].beta.latency_s",
        "paths[1].nodes[0].bounding.a",
        "impairments[0].process.alpha.rate_fraction_of_node",
        "impairments[0].process.alpha.latency_s",
    ])
    def test_zero_rate_latency_and_coefficient_accepted(self, field):
        doc = case_study_document()
        set_field(doc, field, 0.0)
        parse_scenario(json.dumps(doc))


    def test_impairments_summing_above_node_rate_rejected(self):
        # each takes at most the node's rate, but together L1.0 loses 1.2 of it
        doc = case_study_document()
        extra = json.loads(json.dumps(doc["impairments"][0]))
        extra["b"] = ["L3", 0]
        extra["process"]["alpha"]["rate_fraction_of_node"] = 1.0
        doc["impairments"].append(extra)
        with pytest.raises(ValidationError,
                           match=re.escape("impairments[2].process.alpha.rate_fraction_of_node")):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("impairments[0].process.alpha.rate_fraction_of_node", 1.0),
        ("impairments[0].process.alpha.rate_bps", R),
    ])
    def test_impairment_taking_the_whole_node_accepted(self, field, value):
        doc = case_study_document()
        doc["impairments"][0]["process"]["alpha"].pop("rate_fraction_of_node")
        set_field(doc, field, value)
        s = parse_scenario(json.dumps(doc))
        impaired = effective_path_service(s, {"L1", "L2"}, "L1")
        assert impaired.curve.final_slope == 0.0


class TestRoundTrip:
    def test_serialize_parse_serialize_identical(self):
        text = serialize_scenario(case_study_scenario())
        again = serialize_scenario(parse_scenario(text))
        assert text == again

    def test_bundled_file_is_canonical(self):
        with open(case_study_path()) as fh:
            text = fh.read()
        assert serialize_scenario(parse_scenario(text)) + "\n" == text

    def test_sigma2_spec_survives(self):
        doc = minimal_doc()
        doc["sources"][0] = {"id": "A", "sigma2": 2.5, "eta": 100.0, "delta_s": 0.1, "group": "g"}
        text = json.dumps(doc)
        s = parse_scenario(text)
        assert '"sigma2": 2.5' in serialize_scenario(s)

    def test_random_scenarios_roundtrip(self):
        import numpy as np

        from conftest import random_scenario

        rng = np.random.default_rng(31337)
        for _ in range(25):
            text = serialize_scenario(random_scenario(rng))
            assert serialize_scenario(parse_scenario(text)) == text


class TestEffectiveService:
    def test_partner_inactive_means_unimpaired(self, case_study):
        spec = effective_path_service(case_study, {"L1", "L2", "L3"}, "L3")
        assert spec.bounding.params() == (3.0, 3.0, 0.0)
        assert float(spec.curve.final_slope) == pytest.approx(R)
        assert float(spec.curve.value(0)) == pytest.approx(-3 * R * D)

    def test_mutual_impairment_active(self, case_study):
        spec = effective_path_service(case_study, {"L1", "L2"}, "L1")
        assert spec.bounding.params() == (5.0, 5.0, 0.0)
        assert float(spec.curve.final_slope) == pytest.approx(0.8 * R)
        assert float(spec.curve.value(0)) == pytest.approx(-0.8 * R * D)

    def test_alone_means_no_interference(self, case_study):
        spec = effective_path_service(case_study, {"L1"}, "L1")
        assert spec.bounding.params() == (1.0, 1.0, 0.0)
        assert float(spec.curve.value(0)) == pytest.approx(-R * D)

    def test_unrelated_path_changes_nothing(self, case_study):
        a = effective_path_service(case_study, {"L1", "L3"}, "L1")
        b = effective_path_service(case_study, {"L1"}, "L1")
        assert a.curve == b.curve and a.bounding == b.bounding

    def test_deactivating_partner_never_lowers_service(self, case_study):
        # compared on the clipped view: the unclipped tails cross below zero,
        # where a service curve promises nothing anyway
        with_partner = effective_path_service(case_study, {"L1", "L2"}, "L1")
        without = effective_path_service(case_study, {"L1"}, "L1")
        ts = np.linspace(0, 0.2, 50)
        assert np.all(np_eval(without.curve.floor_at(0.0), ts)
                      >= np_eval(with_partner.curve.floor_at(0.0), ts) - 1e-9)
        for x in np.linspace(0, 30, 20):
            assert without.bounding.value(x) <= with_partner.bounding.value(x) + 1e-12

    def test_rule_consistent_impaired_l3_l4(self, case_study):
        l3 = effective_path_service(case_study, {"L3", "L4"}, "L3")
        l4 = effective_path_service(case_study, {"L3", "L4"}, "L4")
        assert l3.bounding.params() == (6.0, 6.0, 0.0)
        assert l4.bounding.params() == (7.0, 7.0, 0.0)

    def test_paper_table_override(self, case_study):
        l3 = effective_path_service(case_study, {"L3", "L4"}, "L3",
                                    bounding_overrides=PAPER_TABLE1_BOUNDINGS)
        assert l3.bounding.params() == (5.0, 5.0, 0)
        # override only applies when the path is actually impaired
        alone = effective_path_service(case_study, {"L3"}, "L3",
                                       bounding_overrides=PAPER_TABLE1_BOUNDINGS)
        assert alone.bounding.params() == (3.0, 3.0, 0.0)

    def test_queried_path_must_be_active(self, case_study):
        with pytest.raises(ValueError):
            effective_path_service(case_study, {"L1"}, "L2")

    def test_absolute_rate_impairment(self):
        doc = minimal_doc()
        doc["paths"].append({"id": "P2", "nodes": [{"id": "n2", "bounding": {"a": 1.0, "b": 1.0},
                                                    "beta": {"rate_bps": 8000.0, "latency_s": 0.0075}}]})
        doc["impairments"] = [{"a": ["P1", 0], "b": ["P2", 0],
                               "process": {"bounding": {"a": 4.0, "b": 4.0},
                                           "alpha": {"rate_bps": 1600.0, "latency_s": 0.0075}}}]
        s = parse_scenario(json.dumps(doc))
        spec = effective_path_service(s, {"P1", "P2"}, "P1")
        assert spec.bounding.params() == (5.0, 5.0, 0.0)
        assert float(spec.curve.final_slope) == pytest.approx(6400.0)
        assert serialize_scenario(parse_scenario(serialize_scenario(s))) == serialize_scenario(s)


def reference_effective_path_service(s, active, path_id, bounding_overrides=None):
    """The effective service through the general curve algebra: a
    rate-latency ``Curve`` per node and impairment process, ``Curve.subtract``
    per active entry and ``curves.convolve`` per further node."""
    impaired = False
    servers = []
    for idx, node in enumerate(s.path(path_id).nodes):
        bounding = ExpBound(node.bounding_a, node.bounding_b)
        curve = Curve.rate_latency(node.rate, node.latency)
        for entry in s.impairments:
            for mine, partner in ((entry.a, entry.b), (entry.b, entry.a)):
                if mine == (path_id, idx) and partner[0] in active:
                    process = entry.process_for(node)
                    bounding = bf_convolve(bounding, process.bounding)
                    curve = curve.subtract(process.curve)
                    impaired = True
        servers.append((bounding, curve))
    bounding, curve = servers[0]
    for node_bounding, node_curve in servers[1:]:
        curve = convolve(curve, node_curve)
        bounding = bf_convolve(bounding, node_bounding)
    if impaired and bounding_overrides and path_id in bounding_overrides:
        bounding = ExpBound(*bounding_overrides[path_id])
    return IssSpec(bounding, curve)


def degenerate_scenario(rng: np.random.Generator) -> Scenario:
    """Three paths whose nodes have zero rates or latencies (-0.0 offsets)
    and whose entries take zero fractions, zero absolute rates or the whole
    node, at zero or positive latencies."""
    pick = lambda xs: xs[int(rng.integers(len(xs)))]  # noqa: E731
    paths = tuple(Path(f"P{p}", tuple(
        Node(f"P{p}.n{j}", pick([0.0, 1.0]), 1.0, pick([0.0, 4000.0, 8000.0]), pick([0.0, 0.005]))
        for j in range(int(rng.integers(1, 4))))) for p in range(3))
    entries = []
    for i, j in ((0, 1), (1, 2), (0, 2)):
        a = (f"P{i}", int(rng.integers(len(paths[i].nodes))))
        b = (f"P{j}", int(rng.integers(len(paths[j].nodes))))
        if a in {e.a for e in entries} | {e.b for e in entries}:
            continue  # one entry per node, so no node loses more than its rate
        frac, rate = pick([(0.0, None), (0.25, None), (1.0, None), (None, 0.0)])
        entries.append(ImpairmentEntry(a, b, 1.0, 2.0, frac, rate, pick([0.0, 0.0075])))
    return Scenario((), SpatialModel({}), paths, tuple(entries))


def service_scenarios():
    """(name, scenario) of every family the closed-form services must match."""
    wl = perfbench_workloads()
    yield "case study", case_study_scenario()
    yield "case study exact", case_study_scenario(exact=True)
    for k in (4, 8, 10):
        yield f"kpath{k}", parse_scenario(json.dumps(wl.kpath_doc(k)))
    rng = np.random.default_rng(2024)
    for i in range(60):
        yield f"random{i}", random_scenario(rng)
    rng = np.random.default_rng([903, 2, 4])
    for k in range(wl.RandomFamily.batch):
        yield f"random_doc 903/4/{k}", parse_scenario(json.dumps(
            wl.random_doc(rng, *wl.RandomFamily.shape(k))))
    rng = np.random.default_rng(5)
    for i in range(30):
        yield f"degenerate{i}", degenerate_scenario(rng)


def test_effective_service_prints_as_the_curve_algebra():
    keys = 0
    for name, s in service_scenarios():
        for pid in s.path_ids():
            mates = sorted(s.partners(pid))
            for some in itertools.chain.from_iterable(
                    itertools.combinations(mates, k) for k in range(len(mates) + 1)):
                for overrides in (None, PAPER_TABLE1_BOUNDINGS):
                    active = {pid, *some}
                    got = effective_path_service(s, active, pid, overrides)
                    want = reference_effective_path_service(s, active, pid, overrides)
                    # the segments' repr tells a Fraction from an int or a float
                    assert (repr((got.bounding.params(), got.curve.segments))
                            == repr((want.bounding.params(), want.curve.segments))), \
                        (name, pid, some, overrides)
                    keys += 1
    assert keys > 600


def test_standalone_rate_is_bottleneck():
    s = case_study_scenario()
    assert s.path("L2").standalone_rate == pytest.approx(CASE_STUDY_RATE)
