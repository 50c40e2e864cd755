"""CLI surface: commands, formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_bounding_a
import infocalc
from infocalc.cli import main
from infocalc.scenario import case_study_path, serialize_scenario


@pytest.fixture()
def scenario_file():
    return case_study_path()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRateCal:
    def test_lists_all_fifteen_subsets(self, capsys, scenario_file):
        code, out, _ = run(capsys, "ratecal", scenario_file)
        assert code == 0
        assert "15 achievable service rate(s)" in out
        for combo in ("L1+L2+L3", "L1+L2+L4", "L1+L3+L4", "L2+L3+L4", "L1+L2+L3+L4"):
            assert combo in out

    def test_json_roundtrips(self, capsys, scenario_file):
        code, out, _ = run(capsys, "ratecal", scenario_file, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 15
        combo = next(r for r in rows if r["subset"] == "L1+L2+L3")
        assert combo["rate_bps"] == pytest.approx(20800.0)

    def test_prune_reduces(self, capsys, scenario_file):
        _, out_full, _ = run(capsys, "ratecal", scenario_file, "--format", "json")
        _, out_pruned, _ = run(capsys, "ratecal", scenario_file, "--prune", "--format", "json")
        assert len(json.loads(out_pruned)) <= len(json.loads(out_full))

    def test_paper_table1_changes_combos(self, capsys, scenario_file):
        _, out, _ = run(capsys, "ratecal", scenario_file, "--paper-table1", "--format", "json")
        rows = {r["subset"]: r for r in json.loads(out)}
        assert rows["L1+L3+L4"]["bounding"].startswith("12*exp(-x/12)")
        assert rows["L1+L2+L3+L4"]["bounding"].startswith("22*exp(-x/22)")


class TestBflr:
    def test_table2_first_block(self, capsys, scenario_file):
        code, out, _ = run(capsys, "bflr", scenario_file, "--delay-ms", "35",
                           "--violation", "0.001")
        assert code == 0
        assert "feasible schedule on L1+L2+L3" in out
        assert "L1: A1.1, A1.2, A1.3" in out
        assert "L2: A2.1, A2.2, A2.3" in out
        assert "L3: A3.1, A3.2, A3.3" in out

    def test_infeasible_exit_code(self, capsys, scenario_file):
        code, out, _ = run(capsys, "bflr", scenario_file, "--delay-ms", "5",
                           "--violation", "0.001")
        assert code == 2
        assert "INFEASIBLE" in out

    def test_schema_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("{}")
        code, _, err = run(capsys, "bflr", str(bad), "--delay-ms", "35",
                           "--violation", "0.001")
        assert code == 1
        assert "SchemaError" in err

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "bflr", "/nonexistent.json", "--delay-ms", "35",
                           "--violation", "0.001")
        assert code == 1

    def test_all_subsets_table(self, capsys, scenario_file):
        code, out, _ = run(capsys, "bflr", scenario_file, "--delay-ms", "35",
                           "--violation", "0.0001", "--all-subsets")
        assert code == 0
        assert "L1+L2+L3 " in out or "L1+L2+L3" in out
        assert "X" in out  # some subsets infeasible at 0.01%/35ms

    def test_all_subsets_csv_with_mixed_rows(self, capsys, scenario_file, tmp_path):
        # the case study's first row is infeasible, and with a fast fifth
        # path the first rows are feasible: either way every row is printed
        # under one header holding every column
        doc = json.loads(Path(scenario_file).read_text())
        fast = json.loads(json.dumps(doc["paths"][0]))
        fast["id"], fast["nodes"][0]["id"] = "L5", "L5.0"
        fast["nodes"][0]["beta"]["rate_bps"] = 40000.0
        doc["paths"].append(fast)
        five = tmp_path / "five_paths.json"
        five.write_text(json.dumps(doc))
        for path, rows in [(scenario_file, 5), (str(five), 21)]:
            code, out, err = run(capsys, "bflr", path, "--delay-ms", "35", "--violation",
                                 "0.001", "--all-subsets", "--format", "csv")
            lines = out.splitlines()
            assert code == 0 and err == ""
            assert lines[0] == "subset,feasible,assignment,delay_quantiles_s"
            assert len(lines) == rows + 1
            assert "L1+L2+L3+L4,False,None," in lines

    def test_csv_dict_cells_parse(self, capsys, scenario_file):
        # the assignment and delay-quantile cells hold commas: each is one
        # quoted JSON cell, equal to the JSON output's
        args = ("bflr", scenario_file, "--delay-ms", "35", "--violation", "0.001",
                "--all-subsets")
        _, out, _ = run(capsys, *args, "--format", "csv")
        _, out_json, _ = run(capsys, *args, "--format", "json")
        header, *rows = csv.reader(io.StringIO(out))
        assert [len(row) for row in rows] == [len(header)] * len(rows)
        for row, expected in zip(rows, json.loads(out_json), strict=True):
            cells = dict(zip(header, row))
            for key in ("assignment", "delay_quantiles_s"):
                if isinstance(expected.get(key), dict):
                    assert json.loads(cells[key]) == expected[key]

    def test_deterministic_output(self, capsys, scenario_file):
        _, out1, _ = run(capsys, "bflr", scenario_file, "--delay-ms", "35",
                         "--violation", "0.001", "--format", "json")
        _, out2, _ = run(capsys, "bflr", scenario_file, "--delay-ms", "35",
                         "--violation", "0.001", "--format", "json")
        assert out1 == out2


class TestRatio:
    def test_requires_horizon_or_calibrate(self, capsys, scenario_file):
        code, _, err = run(capsys, "ratio", scenario_file, "--delay-ms", "15",
                           "--violation", "0.1")
        assert code == 1
        assert "horizon" in err

    def test_fixed_horizon(self, capsys, scenario_file):
        code, out, _ = run(capsys, "ratio", scenario_file, "--delay-ms", "15",
                           "--violation", "0.1", "--horizon-ms", "47",
                           "--subset", "L1+L2+L3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["subset"] == "L1+L2+L3"
        assert 0.0 <= rows[0]["ratio_lower_bound"] <= 1.0

    def test_calibration_mode(self, capsys, scenario_file):
        code, out, err = run(capsys, "ratio", scenario_file, "--delay-ms", "15",
                             "--violation", "0.15", "--calibrate", "59.7",
                             "--subset", "L1+L2+L3", "--format", "json")
        assert code == 0
        assert "calibrated horizon" in err
        rows = json.loads(out)
        assert rows[0]["ratio_lower_bound"] == pytest.approx(0.597, abs=1e-6)

    def test_calibration_with_unassigned_sources(self, capsys, scenario_file):
        code, out, _ = run(capsys, "ratio", scenario_file, "--delay-ms", "15",
                           "--violation", "0.15", "--calibrate", "30",
                           "--subset", "L1+L2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["ratio_lower_bound"] == pytest.approx(0.30, abs=1e-6)

    @pytest.mark.parametrize("subset", ["L1+L1", "L1+L2+L1"])
    @pytest.mark.parametrize("horizon", [("--horizon-ms", "60"), ("--calibrate", "30")],
                             ids=["horizon", "calibrate"])
    def test_repeated_path_id(self, capsys, scenario_file, subset, horizon):
        # a repeated path counted twice printed 0.0% for L1+L1 and 20.6% for L1+L2+L1
        code, out, err = run(capsys, "ratio", scenario_file, "--delay-ms", "15",
                             "--violation", "0.15", *horizon, "--subset", subset)
        assert_one_error_line(code, err)
        assert "ValidationError" in err and "L1 repeated" in err
        assert out == ""

    def test_calibration_without_an_above_rate_subset(self, capsys, scenario_file, tmp_path):
        # twice the source rates: no subset reaches the total, so there is
        # no first subset to calibrate on
        doc = json.loads(Path(scenario_file).read_text(encoding="utf-8"))
        for src in doc["sources"]:
            src["target_rate_bps"] *= 2
        heavy = tmp_path / "heavy.json"
        heavy.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "ratio", str(heavy), "--delay-ms", "15",
                             "--violation", "0.15", "--calibrate", "50")
        assert_one_error_line(code, err)
        assert "--subset" in err
        assert out == ""

    def test_unreachable_calibration_exit_code(self, capsys, scenario_file):
        code, out, err = run(capsys, "ratio", scenario_file, "--delay-ms", "15",
                             "--violation", "0.15", "--calibrate", "99.99", "--subset", "L1")
        assert_one_error_line(code, err)
        assert "UnreachableRatio" in err
        assert out == ""


class TestSimulate:
    def test_small_run_passes(self, capsys, scenario_file):
        code, out, _ = run(capsys, "simulate", scenario_file, "--delay-ms", "45",
                           "--violation", "0.001", "--runs", "200", "--seed", "3",
                           "--horizon-ms", "300")
        assert code == 0
        assert "PASS" in out

    def test_bounding_a_below_one_passes(self, capsys, case_study, tmp_path):
        # with every bounding a at 0.01 the backlog bounds read 0.02 below the
        # deterministic backlog unless they claim nothing there
        scenario_file = tmp_path / "low_a.json"
        scenario_file.write_text(serialize_scenario(with_bounding_a(case_study, 0.01)))
        code, out, _ = run(capsys, "simulate", str(scenario_file), "--delay-ms", "45",
                           "--violation", "0.001", "--runs", "2000", "--seed", "3")
        assert code == 0
        assert "FAIL" not in out

    def test_csv_output(self, capsys, scenario_file):
        code, out, _ = run(capsys, "simulate", scenario_file, "--delay-ms", "45",
                           "--violation", "0.001", "--runs", "100", "--seed", "3",
                           "--horizon-ms", "200", "--format", "csv")
        assert code == 0
        assert "threshold,empirical,ci_hi,bound" in out

    def test_json_deterministic(self, capsys, scenario_file):
        args = ("simulate", scenario_file, "--delay-ms", "45", "--violation", "0.001",
                "--runs", "100", "--seed", "3", "--horizon-ms", "200", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)


class TestCurve:
    def test_path_in_subset(self, capsys, scenario_file):
        code, out, _ = run(capsys, "curve", scenario_file, "--what", "path:L1@L1+L2",
                           "--points", "3", "--t-max", "0.01")
        assert code == 0
        assert "5*exp(-x/5)" in out

    def test_source_and_total(self, capsys, scenario_file):
        code, out, _ = run(capsys, "curve", scenario_file, "--what", "source:A1.1",
                           "--points", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)[-1]["value_bits"] > 0
        code, out, _ = run(capsys, "curve", scenario_file, "--what", "total",
                           "--points", "3", "--format", "json")
        assert code == 0

    def test_unknown_selector(self, capsys, scenario_file):
        code, _, err = run(capsys, "curve", scenario_file, "--what", "bogus:thing")
        assert code == 1
        assert "selector" in err


class TestIdlePaths:
    @pytest.fixture()
    def one_group_file(self, scenario_file, tmp_path):
        # three sources fit on the fastest path, so the other paths stay idle
        with open(scenario_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["sources"] = [src for src in doc["sources"] if src["group"] == "1"]
        path = tmp_path / "one_group.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("extra", [(), ("--all-subsets",), ("--format", "json")])
    def test_idle_path_printed_without_quantile(self, capsys, one_group_file, extra):
        code, out, err = run(capsys, "bflr", one_group_file, "--delay-ms", "35",
                             "--violation", "0.001", *extra)
        assert code == 0, err
        if "--format" in extra:
            row = json.loads(out)[0]
            idle = [pid for pid, srcs in row["assignment"].items() if not srcs]
            assert idle and not set(idle) & set(row["delay_quantiles_s"])
        else:
            idle_lines = [line for line in out.splitlines() if "(idle)" in line]
            assert idle_lines
            assert not any("quantile" in line for line in idle_lines)


def assert_one_error_line(code, err):
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestBadArguments:
    @pytest.mark.parametrize("violation", ["1.5", "0", "-0.1", "nan"])
    @pytest.mark.parametrize("command,extra", [
        ("bflr", ()),
        ("ratio", ("--horizon-ms", "47", "--subset", "L1+L2+L3")),
        ("simulate", ("--runs", "10")),
    ])
    def test_violation_outside_unit_interval(self, capsys, scenario_file, command, extra,
                                             violation):
        code, out, err = run(capsys, command, scenario_file, "--delay-ms", "35",
                             "--violation", violation, *extra)
        assert_one_error_line(code, err)
        assert "--violation" in err
        assert out == ""

    @pytest.mark.parametrize("command,option,value", [
        ("bflr", "--delay-ms", "nan"),
        ("bflr", "--delay-ms", "-5"),
        ("bflr", "--delay-ms", "0"),
        ("bflr", "--delay-ms", "inf"),
        ("ratio", "--horizon-ms", "nan"),
        ("ratio", "--horizon-ms", "-47"),
        ("ratio", "--calibrate", "150"),
        ("ratio", "--calibrate", "100"),
        ("ratio", "--calibrate", "0"),
        ("ratio", "--calibrate", "nan"),
        ("simulate", "--step-ms", "nan"),
        ("simulate", "--step-ms", "0"),
        ("simulate", "--horizon-ms", "inf"),
        ("curve", "--t-max", "nan"),
        ("curve", "--t-max", "-0.5"),
    ])
    def test_float_option_out_of_range(self, capsys, scenario_file, command, option, value):
        valid = {
            "bflr": ("--delay-ms", "35", "--violation", "0.001"),
            "ratio": ("--delay-ms", "15", "--violation", "0.15", "--horizon-ms", "47",
                      "--subset", "L1+L2+L3"),
            "simulate": ("--delay-ms", "45", "--violation", "0.001", "--runs", "10"),
            "curve": ("--what", "total"),
        }[command]
        # the later occurrence of an option wins
        code, out, err = run(capsys, command, scenario_file, *valid, option, value)
        assert_one_error_line(code, err)
        assert option in err
        assert out == ""

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_too_few_curve_points(self, capsys, scenario_file, points):
        code, _, err = run(capsys, "curve", scenario_file, "--what", "total",
                           "--points", points)
        assert_one_error_line(code, err)
        assert "--points" in err

    @pytest.mark.parametrize("what,needle", [
        ("source:NOPE", "NOPE"),
        ("group:NOPE", "NOPE"),
        ("path:L9", "L9"),
        ("path:L1@L1+L9", "L9"),
    ])
    def test_unknown_curve_ids(self, capsys, scenario_file, what, needle):
        code, _, err = run(capsys, "curve", scenario_file, "--what", what)
        assert_one_error_line(code, err)
        assert needle in err

    @pytest.mark.parametrize("argv", [
        ("bflr", "--delay-ms", "35", "--violation", "0.001", "--bogus"),
        ("bflr", "--delay-ms", "abc", "--violation", "0.001"),
        ("bflr", "--delay-ms", "35"),
        ("ratio", "--delay-ms", "15", "--violation", "0.15", "--horizon-ms", "47",
         "--format", "xml"),
    ], ids=["unknown_option", "unparsable_value", "missing_option", "bad_choice"])
    def test_usage_error_is_exit_1(self, capsys, scenario_file, argv):
        # argparse's own exit 2 would read as INFEASIBLE
        code, out, err = run(capsys, argv[0], scenario_file, *argv[1:])
        assert_one_error_line(code, err)
        assert out == ""

    def test_missing_command_is_exit_1(self, capsys):
        code, out, err = run(capsys)
        assert_one_error_line(code, err)
        assert "command" in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bflr", "--help"])
        assert exc.value.code == 0
        assert "--delay-ms" in capsys.readouterr().out

    def test_non_finite_scenario_field(self, capsys, scenario_file, tmp_path):
        with open(scenario_file, encoding="utf-8") as fh:
            text = fh.read()
        bad = tmp_path / "nan_rate.json"
        bad.write_text(text.replace('"rate_bps": 8000.0', '"rate_bps": NaN', 1))
        code, _, err = run(capsys, "bflr", str(bad), "--delay-ms", "35", "--violation", "0.001")
        assert_one_error_line(code, err)
        assert "rate_bps" in err


#: numeric node, impairment and source fields of the bundled case study
FUZZ_FIELDS = [
    ("paths", 0, "nodes", 0, "beta", "rate_bps"),
    ("paths", 3, "nodes", 1, "beta", "rate_bps"),
    ("paths", 1, "nodes", 1, "beta", "latency_s"),
    ("paths", 2, "nodes", 0, "bounding", "a"),
    ("paths", 3, "nodes", 2, "bounding", "b"),
    ("impairments", 0, "process", "alpha", "rate_fraction_of_node"),
    ("impairments", 1, "process", "alpha", "latency_s"),
    ("impairments", 0, "process", "bounding", "a"),
    ("impairments", 1, "process", "bounding", "b"),
    ("sources", 0, "target_rate_bps"),
    ("sources", 4, "eta"),
    ("sources", 8, "delta_s"),
]
#: zero, negative, above the 8000 bit/s node rate (or a fraction above 1), huge
FUZZ_VALUES = st.sampled_from([0.0, -1.0, -8000.0, 5e-324, 1.5, 9000.0, 1e9, 1e300]) | st.floats()


def assert_fails_cleanly(argv, note):
    """``main(argv)`` answers (exit 0 or 2) or fails with exit 1, with no
    traceback and no NaN in its output."""
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main fails the test with its traceback
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), note
    assert "Traceback" not in err.getvalue()
    assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), note


@settings(max_examples=50, deadline=None, derandomize=True)
@given(mutations=st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS), FUZZ_VALUES),
                          min_size=1, max_size=3))
def test_mutated_case_study_fails_cleanly(tmp_path_factory, mutations):
    doc = json.loads(Path(case_study_path()).read_text(encoding="utf-8"))
    for field, value in mutations:
        obj = doc
        for key in field[:-1]:
            obj = obj[key]
        obj[field[-1]] = value
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["ratecal", str(path), "--prune"],
                 ["bflr", str(path), "--delay-ms", "35", "--violation", "0.001"]):
        assert_fails_cleanly(argv, (argv[0], mutations))


#: in range, out of range, non-finite, unparsable and empty option values
FUZZ_OPTION_VALUES = st.sampled_from(["15", "35", "0.15", "1e-3", "60", "59.7", "0", "-1", "1.5",
                                      "100", "nan", "inf", "1e999", "abc", ""])
FUZZ_OPTIONS = ["--delay-ms", "--violation", "--horizon-ms", "--calibrate", "--format"]
#: path ids: known, unknown, empty, wrong case, padded
FUZZ_SUBSETS = st.lists(st.sampled_from(["L1", "L2", "L3", "L4", "L9", "", "l1", " L1"]),
                        min_size=1, max_size=4).map("+".join)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(["ratio", "bflr"]),
       options=st.lists(st.tuples(st.sampled_from(FUZZ_OPTIONS), FUZZ_OPTION_VALUES),
                        max_size=3),
       subsets=st.lists(FUZZ_SUBSETS, max_size=3))
def test_mutated_argv_fails_cleanly(command, options, subsets):
    # a valid question, then options that override it and --subset strings
    # (unknown, repeated and empty ids; bflr takes no --subset at all)
    valid = {"ratio": ["--delay-ms", "15", "--violation", "0.15", "--horizon-ms", "60"],
             "bflr": ["--delay-ms", "35", "--violation", "0.001"]}[command]
    argv = [command, case_study_path(), *valid]
    for option, value in options:
        argv += [option, value]
    for subset in subsets:
        argv += ["--subset", subset]
    assert_fails_cleanly(argv, argv)


def _subprocess_env():
    env = dict(os.environ)
    src = str(Path(infocalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestSubprocess:
    def test_closed_stdout_is_not_a_traceback(self, scenario_file):
        # far more output than a pipe buffers, so writing fails once the reader closes
        proc = subprocess.Popen([sys.executable, "-m", "infocalc.cli", "curve", scenario_file,
                                 "--what", "total", "--points", "20000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_subprocess_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
        assert first.startswith(b"total:")
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert code == 1

    def test_case_study_script(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_case_study.py"
        proc = subprocess.run([sys.executable, str(script), "--skip-simulation"],
                              capture_output=True, text=True, env=_subprocess_env(),
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        impaired = {"L1": "<5*exp(-x/5), 6400*t - 48 bits>",
                    "L2": "<6*exp(-x/6), 6400*t - 108 bits>",
                    "L3": "<6*exp(-x/6), 5333.33*t - 160 bits>",
                    "L4": "<7*exp(-x/7), 5333.33*t - 220 bits>"}
        for pid, row in impaired.items():
            i = next(k for k, line in enumerate(lines) if line.startswith(f"  {pid}: w/o impairment"))
            assert lines[i + 1] == f"      w/  impairment {row}"
