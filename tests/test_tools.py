"""The comparison table and gain verdict of tools/check_times.py, the value comparison of
tools/output_digest.py, on synthetic runs and check lists, the unrun
statements of tools/traffic.py on a small slice of the benchmark's inputs, and
a guard that src keeps no public name that only the tests call."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    path = _ROOT / "tools" / f"{name}.py"
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


@pytest.mark.parametrize("pairs, wins, holds", [(10, 9, True), (20, 18, True), (20, 17, False)])
def test_a_gain_needs_b_lower_in_nine_tenths_of_the_pairs(check_times, pairs, wins, holds):
    # A's IQR is 0, so the win share alone decides: exactly 0.9 holds, 0.85 fails
    verdict = check_times.gain_verdict([10.0] * pairs, [5.0] * wins + [11.0] * (pairs - wins))
    assert verdict[0] is holds
    assert f"lower in {wins} of {pairs} pairs" in verdict[1]
    assert verdict[1].endswith("no gain by the 9/10-and-IQR rule") is not holds


def test_a_tied_pair_counts_for_neither_tree(check_times):
    assert check_times.gain_verdict([10.0] * 10, [5.0] * 9 + [10.0])[0]
    # two ties leave B lower in 8 of 10, short of nine tenths
    assert not check_times.gain_verdict([10.0] * 10, [5.0] * 8 + [10.0] * 2)[0]


def test_a_median_gain_equal_to_the_iqr_is_no_gain(check_times):
    totals_a = [9.0, 10.0, 11.0, 12.0, 13.0] * 2  # median 11, IQR 12 - 10 = 2
    assert not check_times.gain_verdict(totals_a, [t - 2.0 for t in totals_a])[0]
    assert check_times.gain_verdict(totals_a, [t - 2.5 for t in totals_a])[0]


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
    tool = _ROOT / "tools" / "traffic.py"
    done = subprocess.run([sys.executable, str(tool), "--requests", "8", "--sweeps", "5", "--json"],
                          capture_output=True, text=True, check=True, timeout=120)
    modules = json.loads(done.stdout)["modules"]
    assert [u for u in modules["params"]["unrun"] if u["scope"] == "reduce"] == []
    assert "reduce" not in modules["params"]["whole"]
    # the oracle's never-run functions are the Schroedinger-picture chain that
    # bench/spans.TRACED names, kept as the tests' reference for fock._score
    assert set(modules["fock"]["whole"]) == {
        "FockDensity.__new__", "FockDensity.trace", "_apply_shift_kraus", "_check_trace",
        "_attenuator_weights", "_heterodyne_kernel", "apply_attenuator", "apply_filter",
        "apply_heterodyne_mp", "apply_two_mode_squeezer"}


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    # a public top-level def or class of src/ampurify is named as an identifier by
    # the program, the demos, the tools or the benchmark, named by string in
    # bench/spans.py (TRACED), or exported in ampurify.__all__
    import ampurify

    used = set(ampurify.__all__)
    for folder in ("src", "demos", "tools", "bench"):
        for path in (_ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
    spans = ast.parse((_ROOT / "bench" / "spans.py").read_text())
    used.update(node.value for node in ast.walk(spans)
                if isinstance(node, ast.Constant) and isinstance(node.value, str))
    unused = [f"{path.stem}.{node.name}"
              for path in sorted((_ROOT / "src" / "ampurify").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert unused == []
