"""The comparison table of tools/check_times.py and the value comparison of
tools/output_digest.py, on synthetic runs and check lists, and the unrun
statements of tools/traffic.py on a small slice of the benchmark's inputs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_times():
    return _tool("check_times")


@pytest.fixture(scope="module")
def output_digest():
    return _tool("output_digest")


def _runs(x_values, y_values):
    return [{"x": x, "y": y} for x, y in zip(x_values, y_values, strict=True)]


def test_rows_give_each_trees_spread_and_mark_only_moves_within_the_noise(check_times):
    # x moves by 1 ms against A's IQR of 2 (noise); y moves by 10 (an effect)
    runs_a = _runs([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 11.0, 12.0, 13.0, 14.0])
    runs_b = _runs([2.0, 3.0, 4.0, 5.0, 9.0], [20.0, 21.0, 22.0, 23.0, 24.0])
    header, x, y, total, legend = check_times.table(runs_a, runs_b)
    assert header.split() == ["check", "A", "ms", "A", "IQR", "B", "ms", "B", "IQR", "B/A"]
    assert x.split() == ["x", "3.00", "2.00", "4.00", "2.00", "1.33", "~"]
    assert y.split() == ["y", "12.00", "2.00", "22.00", "2.00", "1.83"]
    # totals 11..19 against 22, 24, 26, 28, 33
    assert total.split() == ["total", "15.00", "4.00", "26.00", "4.00", "1.73"]
    assert legend.startswith("~ :")


def test_a_median_difference_equal_to_the_iqr_is_noise_and_a_lone_run_has_none(check_times):
    edge = check_times.table(_runs([1.0, 2.0, 3.0], [0.0] * 3), _runs([3.0, 3.0, 5.0], [0.0] * 3))
    assert edge[1].split()[-1] == "~"  # |3 - 2| == IQR 1
    lone = check_times.table([{"x": 1.0}], [{"x": 1.5}])
    assert lone[1].split() == ["x", "1.00", "0.00", "1.50", "0.00", "1.50"]


def test_a_check_missing_from_a_run_counts_as_zero_and_a_zero_median_has_no_ratio(check_times):
    runs_a = [{"x": 0.0, "y": 1.0}, {"x": 0.0}, {"x": 0.0, "y": 1.0}]
    runs_b = [{"x": 1.0, "y": 1.0}] * 3
    _, x, y, _, _ = check_times.table(runs_a, runs_b)
    assert x.split() == ["x", "0.00", "0.00", "1.00", "0.00", "-"]
    assert y.split() == ["y", "1.00", "0.50", "1.00", "0.00", "1.00", "~"]


def _check(name, expected=0.0, observed=1e-12, tolerance=1e-10, passed=True):
    return {"name": name, "expected": expected, "observed": observed,
            "tolerance": tolerance, "passed": passed}


def test_value_changes_name_a_loosened_tolerance_as_well_as_a_moved_value(output_digest):
    old = [_check("a"), _check("b"), _check("c"), _check("d")]
    new = [_check("a"), _check("b", tolerance=1e-6), _check("c", observed=2e-12),
           _check("d", expected=1.0, observed=None, passed=False)]
    assert output_digest.value_changes(old, new) == [
        ("b", "tolerance", 1e-10, 1e-6),
        ("c", "observed", 1e-12, 2e-12),
        ("d", "expected", 0.0, 1.0),
        ("d", "observed", 1e-12, None),
        ("d", "passed", True, False),
    ]


def test_value_changes_ignore_wall_times_and_errors(output_digest):
    old = [dict(_check("a"), ms=1.0)]
    new = [dict(_check("a"), ms=2.0, error="ValueError: x")]
    assert output_digest.value_changes(old, new) == []


def test_statements_own_their_headers_and_skip_docstrings(tmp_path):
    traffic = _tool("traffic")
    source = 'def f(x):\n    """doc"""\n    if x:\n        return (\n            x)\n    return 0\n'
    found = traffic.statements(source)
    assert [(list(own), scope, line) for own, scope, line in found] == [
        ([1], "", 1), ([3], "f", 3), ([4, 5], "f", 4), ([6], "f", 6)]


def test_traffic_reports_what_a_small_slice_of_the_benchmark_never_runs():
    # both verify levels, one request of each kind and one sweep per axis
    tool = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"
    done = subprocess.run([sys.executable, str(tool), "--requests", "8", "--sweeps", "5", "--json"],
                          capture_output=True, text=True, check=True, timeout=120)
    modules = json.loads(done.stdout)["modules"]
    assert [u for u in modules["params"]["unrun"] if u["scope"] == "reduce"] == []
    assert "reduce" not in modules["params"]["whole"]
    assert modules["fock"]["whole"]["displaced_thermal_density"] == sum(
        u["scope"] == "displaced_thermal_density" for u in modules["fock"]["unrun"]) > 0
