import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import numpy as np

import ampurify
from ampurify import formulas, params
from ampurify._lazy import lazy
from ampurify.cli import CSV_HEADER, build_parser, main
from ampurify.verify import CheckResult, VerifyReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_worked_point(capsys):
    code, payload = run_json(capsys, "eval", "--lambda", "1", "--mu", "1", "--g", "2")
    assert code == 0
    fid = payload["result"]["fidelities"]
    assert fid["det"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert fid["prob"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert fid["cft"] == pytest.approx(3.0 / 11.0, abs=1e-12)
    assert payload["tool"] == "ampurify"
    assert payload["params"]["g_prime"] == 2.0


@pytest.mark.parametrize("g", ["0.8", "2", "4"])
def test_eval_json_keeps_the_record_keys_in_their_order(capsys, g):
    # an attenuating, an identity and an amplifying point
    code, payload = run_json(capsys, "eval", "--lambda", "1", "--mu", "1", "--g", g)
    assert code == 0
    result = payload["result"]
    assert list(result["fidelities"]) == ["cft", "det", "prob"]
    assert list(result["tuning"]) == ["cos_theta", "cosh_r", "y", "z"]


def test_eval_reduces_multimode_gain(capsys):
    code, payload = run_json(
        capsys, "eval", "--lambda", "2", "--mu", "1", "--g", "1", "--n", "2", "--m", "1"
    )
    assert code == 0
    assert payload["params"]["g_prime"] == pytest.approx(0.70711, abs=5e-6)
    assert payload["params"]["lambda_prime"] == 1.0


def test_eval_pure_input_is_perfect_at_unit_gain(capsys):
    code, payload = run_json(capsys, "eval", "--lambda", "1", "--mu", "1e15", "--g", "1")
    assert code == 0
    assert payload["result"]["fidelities"]["prob"] == pytest.approx(1.0, abs=1e-9)
    assert payload["result"]["photons"]["pure_input"] is True


def test_eval_table_lists_the_reduced_parameters(capsys):
    code, out, _ = run_cli(capsys, "eval", "--lambda", "1", "--mu", "1", "--g", "2")
    assert code == 0
    assert "lambda'=1 mu=1 g'=2" in out
    assert "det=0.33333 prob=0.33333 cft=0.27273" in out


def test_eval_attenuates_between_unit_and_passive_filter_gain(capsys):
    # 1 < g' = 1.5 < S/N_C = 3: the beamsplitter at cos theta = 0.5 gives 0.4,
    # above the classical threshold 16/43 = 0.37209
    code, out, _ = run_cli(capsys, "eval", "--lambda", "1", "--mu", "0.5", "--g", "1.5")
    assert code == 0
    assert "regime: DetAttenuate+ProbAmplify" in out
    assert "det=0.4 prob=0.4 cft=0.37209" in out
    assert "cos_theta=0.5" in out


def test_eval_rejects_nonpositive_rates(capsys):
    code, _, err = run_cli(capsys, "eval", "--lambda", "-1", "--mu", "1", "--g", "2")
    assert code == 3
    assert "domain error" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    return header, rows


def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--axis", "g", "--start", "1", "--stop", "4",
        "--steps", "7", "--lambda", "1", "--mu", "1", "--out", str(out),
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == CSV_HEADER
    assert len(rows) == 7
    for row in rows:
        g, det, prob = float(row[1]), float(row[2]), float(row[3])
        if g >= 3.0:
            assert det == prob
    # from g' = S/N_C on the beamsplitter reads its passive setting
    assert [row[8] for row in rows[2:]] == ["1"] * 5


def test_sweep_deamplification_rows_keep_det_equal_prob(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--axis", "g", "--start", "0.1", "--stop", "1",
        "--steps", "5", "--lambda", "1", "--mu", "1", "--out", str(out),
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert all(row[2] == row[3] for row in rows)
    assert all(row[6] == "1" for row in rows)  # the squeezer stays off
    assert all(row[5] == "DetAttenuate+ProbAmplify" for row in rows)


def test_sweep_two_steps_gives_two_rows(tmp_path, capsys):
    out = tmp_path / "two.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--axis", "g", "--start", "1", "--stop", "4",
        "--steps", "2", "--lambda", "1", "--mu", "1", "--out", str(out),
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert len(rows) == 2
    assert [float(r[0]) for r in rows] == [1.0, 4.0]


def test_sweep_rows_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--axis", "mu", "--start", "0.5", "--stop", "2",
            "--steps", "9", "--lambda", "1", "--g", "1.7"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_mirrors_the_rows(capsys):
    code, payload = run_json(
        capsys, "sweep", "--axis", "g", "--start", "1", "--stop", "2",
        "--steps", "3", "--lambda", "1", "--mu", "1",
    )
    assert code == 0
    rows = payload["result"]["rows"]
    assert [r["axis_value"] for r in rows] == [1.0, 1.5, 2.0]
    assert rows[1]["f_prob"] == pytest.approx(8.0 / 17.0, abs=1e-12)
    assert rows[1]["f_det"] == rows[1]["f_prob"]
    assert rows[1]["cos_theta"] == 0.75


def test_sweep_over_input_copies_takes_integer_grid(tmp_path, capsys):
    out = tmp_path / "n.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--axis", "n", "--start", "1", "--stop", "4",
        "--steps", "4", "--lambda", "2", "--mu", "1", "--g", "2", "--out", str(out),
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
    assert float(rows[3][1]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_prints_every_tuning_cell_in_every_regime(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--axis", "g", "--start", "0.5", "--stop", "4",
        "--steps", "15", "--lambda", "1", "--mu", "1", "--out", str(out), "--json",
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert {row[5].split("+")[0] for row in rows} == {"DetAttenuate", "DetIdentity", "DetAmplify"}
    assert all(cell != "" for row in rows for cell in row)
    assert all(v is not None for row in json.loads(stdout)["result"]["rows"] for v in row.values())


@pytest.mark.parametrize("axis, fixed, flags", [
    ("g", ["--lambda", "1", "--mu", "0.5"], {"lambda": 1.0, "mu": 0.5, "g": None, "n": 1, "m": 1}),
    ("lambda", ["--mu", "0.5", "--g", "2", "--n", "3"],
     {"lambda": None, "mu": 0.5, "g": 2.0, "n": 3, "m": 1}),
    ("mu", ["--lambda", "1", "--g", "2", "--m", "2"],
     {"lambda": 1.0, "mu": None, "g": 2.0, "n": 1, "m": 2}),
    ("n", ["--lambda", "1", "--mu", "0.5", "--g", "2", "--m", "2"],
     {"lambda": 1.0, "mu": 0.5, "g": 2.0, "n": None, "m": 2}),
    ("m", ["--lambda", "1", "--mu", "0.5", "--g", "2"],
     {"lambda": 1.0, "mu": 0.5, "g": 2.0, "n": 1, "m": None}),
])
def test_sweep_params_are_the_flags_with_the_swept_one_null(capsys, axis, fixed, flags):
    code, payload = run_json(capsys, "sweep", "--axis", axis, "--start", "2", "--stop", "4",
                             "--steps", "3", *fixed)
    assert code == 0
    assert payload["params"] == {**flags, "axis": axis, "start": 2.0, "stop": 4.0, "steps": 3}


@pytest.mark.parametrize("sink", ["--json", "--out"])
def test_sweep_checks_its_fixed_flags_in_both_sinks(tmp_path, capsys, sink):
    path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--axis", "g", "--start", "1", "--stop", "2",
                             "--steps", "3", "--lambda", "-1", "--mu", "1",
                             *([sink, str(path)] if sink == "--out" else [sink]))
    assert (code, out) == (3, "")
    assert err == "domain error: lam must be finite and > 0, got -1.0\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # sweeping an axis that is also fixed
        ["sweep", "--axis", "g", "--start", "1", "--stop", "2", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--g", "2", "--json"],
        # missing a fixed flag
        ["sweep", "--axis", "g", "--start", "1", "--stop", "2", "--steps", "3",
         "--lambda", "1", "--json"],
        # inverted interval
        ["sweep", "--axis", "g", "--start", "2", "--stop", "1", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--json"],
        # too few steps
        ["sweep", "--axis", "g", "--start", "1", "--stop", "2", "--steps", "1",
         "--lambda", "1", "--mu", "1", "--json"],
        # integer axis off the integer grid
        ["sweep", "--axis", "n", "--start", "1", "--stop", "4", "--steps", "5",
         "--lambda", "1", "--mu", "1", "--g", "2", "--json"],
        # no sink at all
        ["sweep", "--axis", "g", "--start", "1", "--stop", "2", "--steps", "3",
         "--lambda", "1", "--mu", "1"],
        # too many steps, rejected before any grid is built
        ["sweep", "--axis", "g", "--start", "1", "--stop", "2", "--steps", "1000001",
         "--lambda", "1", "--mu", "1", "--json"],
        # integer axis over a grid that overflows to inf and nan
        ["sweep", "--axis", "n", "--start", "1", "--stop", "inf", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--g", "2", "--json"],
        # float axis to inf, where linspace would make 0 * inf = nan
        ["sweep", "--axis", "g", "--start", "1", "--stop", "inf", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--json"],
        # a nan bound
        ["sweep", "--axis", "g", "--start=nan", "--stop", "2", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--json"],
        # finite bounds whose span overflows, on a float and an integer axis
        ["sweep", "--axis", "g", "--start=-1e308", "--stop", "1e308", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--json"],
        ["sweep", "--axis", "n", "--start=-1e308", "--stop", "1e308", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--g", "2", "--json"],
    ],
)
def test_sweep_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err


def test_sweep_step_bound_has_its_own_message(capsys):
    argv = ["sweep", "--axis", "g", "--start", "1", "--stop", "2", "--lambda", "1", "--mu", "1"]
    _, _, err = run_cli(capsys, *argv, "--steps", "1000001", "--json")
    assert err == "usage error: sweep takes at most 1000000 steps, got 1000001\n"
    _, _, err = run_cli(capsys, *argv, "--steps", "1", "--json")
    assert err == "usage error: sweep needs steps >= 2, got 1\n"


@pytest.mark.parametrize("axis, fixed", [("g", []), ("n", ["--g", "2"])])
@pytest.mark.parametrize("start, stop", [("1", "inf"), ("-inf", "2"), ("nan", "2")])
def test_sweep_non_finite_bounds_have_their_own_message(capsys, axis, fixed, start, stop):
    code, out, err = run_cli(capsys, "sweep", "--axis", axis, f"--start={start}",
                             f"--stop={stop}", "--steps", "3", "--lambda", "1", "--mu", "1",
                             *fixed, "--json")
    assert (code, out) == (2, "")
    assert err == (f"usage error: sweep needs finite start and stop, "
                   f"got [{float(start)!r}, {float(stop)!r}]\n")


@pytest.mark.parametrize("axis, fixed", [("g", []), ("n", ["--g", "2"])])
def test_sweep_overflowing_span_names_both_flags(capsys, axis, fixed):
    code, out, err = run_cli(capsys, "sweep", "--axis", axis, "--start=-1e308",
                             "--stop", "1e308", "--steps", "3", "--lambda", "1", "--mu", "1",
                             *fixed, "--json")
    assert (code, out) == (2, "")
    assert err == ("usage error: sweep needs a finite span --stop - --start, "
                   "got 1e+308 - -1e+308 = inf\n")


def test_parser_is_built_once_and_keeps_no_flags_between_calls(capsys):
    assert build_parser() is build_parser()
    task = ("--lambda", "1", "--mu", "1", "--g", "2")
    code, out, _ = run_cli(capsys, "regimes", *task, "--json")
    assert code == 0 and out.startswith("{")
    code, out, _ = run_cli(capsys, "regimes", *task)
    assert code == 0 and not out.startswith("{")


def test_sweep_unwritable_output_exits_four(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "g", "--start", "1", "--stop", "2",
        "--steps", "3", "--lambda", "1", "--mu", "1",
        "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 4
    assert "i/o error" in err


@pytest.mark.parametrize(
    "argv",
    [
        # every landmark is +inf at lambda' = 1e300, mu = 1e-300; the text
        # view passes the same finiteness gate as the JSON one
        ["regimes", "--lambda", "1e300", "--mu", "1e-300", "--g", "1"],
        ["regimes", "--lambda", "1e300", "--mu", "1e-300", "--g", "1", "--json"],
        # photon numbers near 1e400 overflow the bookkeeping of both protocols
        ["photons", "--mode", "det", "--lambda", "1", "--mu", "1", "--g", "1e200", "--json"],
        ["photons", "--mode", "prob", "--lambda", "1", "--mu", "1", "--g", "1e200", "--json"],
    ],
)
def test_non_finite_results_exit_three(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: ")


@pytest.mark.parametrize(
    "argv, field",
    [
        (["regimes", "--lambda", "1e300", "--mu", "1e-300", "--g", "1"], "result.det_threshold"),
        (["photons", "--mode", "det", "--lambda", "1", "--mu", "1", "--g", "1e200"],
         "result.n_single_out"),
        # the amplify regime runs the deterministic squeezer, whose photons overflow
        (["photons", "--mode", "prob", "--lambda", "1", "--mu", "1", "--g", "1e200"],
         "result.n_single_out"),
    ],
)
def test_non_finite_result_names_its_field_alike_in_text_and_json(capsys, argv, field):
    text_code, text_out, text_err = run_cli(capsys, *argv)
    json_code, json_out, json_err = run_cli(capsys, *argv, "--json")
    assert text_code == json_code == 3
    assert text_out == json_out == ""
    assert text_err == json_err == f"domain error: result is not finite: {field} = inf\n"


def test_non_finite_sweep_row_writes_no_csv(tmp_path, capsys, monkeypatch):
    # no closed form yields a non-finite row any more, so plant one in the
    # columns, past their own checks: both sinks pass the same gate, before
    # anything is written
    columns = formulas.columns
    monkeypatch.setattr(
        "ampurify.formulas.columns",
        lambda *a, **k: {**columns(*a, **k), "f_det": np.full(3, math.inf)},
    )
    out_path = tmp_path / "rows.csv"
    argv = ["sweep", "--axis", "g", "--start", "1", "--stop", "2", "--steps", "3",
            "--lambda", "1", "--mu", "1"]
    for sink in (["--out", str(out_path)], ["--json"]):
        code, out, err = run_cli(capsys, *argv, *sink)
        assert code == 3
        assert out == ""
        assert err == "domain error: result is not finite: result.rows[0].f_det = inf\n"
        assert not out_path.exists()


def test_overflowing_gain_evaluates_to_zero_fidelity(capsys):
    # g'^2 = 1e400 is not representable, but every fidelity is: it underflows to 0
    code, payload = run_json(capsys, "eval", "--lambda", "1", "--mu", "1", "--g", "1e200")
    assert code == 0
    assert payload["result"]["regime"] == "DetAmplify+ProbPlateau"
    assert payload["result"]["fidelities"] == {"det": 0.0, "prob": 0.0, "cft": 0.0}
    code, payload = run_json(capsys, "sweep", "--axis", "g", "--start", "1", "--stop", "1e200",
                             "--steps", "3", "--lambda", "1", "--mu", "1")
    assert code == 0
    last = payload["result"]["rows"][-1]
    assert last["g_prime"] == 1e200
    assert last["f_det"] == last["f_prob"] == last["f_cft"] == 0.0


def test_tiny_rates_and_gain_are_perfect(capsys):
    # N_C = N_T = 1e200 and g' = 1e-200: the filter value is 1/(1 + 5e-201) = 1
    # and y = g'/(S/N_C) = 5e-201 stays a normal float
    code, payload = run_json(capsys, "eval", "--lambda", "1e-200", "--mu", "1e-200",
                             "--g", "1e-200")
    assert code == 0
    assert payload["result"]["regime"] == "DetAttenuate+ProbAmplify"
    assert payload["result"]["fidelities"] == {"det": 1.0, "prob": 1.0, "cft": 1.0}
    assert payload["result"]["tuning"]["y"] == 5e-201


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_huge_signal_collapses_the_landmarks_onto_unit_gain(capsys, json_flag):
    # N_C = 1e300: every landmark is 1, so g' = 2 amplifies and prob = det
    argv = ["eval", "--lambda", "1e-300", "--mu", "1", "--g", "2", *json_flag]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if json_flag:
        result = json.loads(out)["result"]
        assert result["thresholds"] == {"det": 1.0, "prob": 1.0}
        assert result["regime"] == "DetAmplify+ProbPlateau"
        assert result["fidelities"]["det"] == result["fidelities"]["prob"] == 0.125
    else:
        assert "filter plateau 1)" in out
        assert "regime: DetAmplify+ProbPlateau" in out
        assert "det=0.125 prob=0.125" in out
    code, _, _ = run_cli(capsys, "regimes", "--lambda", "1e-300", "--mu", "1", "--g", "2",
                         *json_flag)
    assert code == 0


def test_unknown_axis_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--axis", "q", "--start", "1", "--stop", "2", "--steps", "3",
              "--lambda", "1", "--mu", "1", "--json"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# photons
# ---------------------------------------------------------------------------


def test_photons_det_worked_ratio(capsys):
    code, payload = run_json(
        capsys, "photons", "--mode", "det", "--lambda", "0.5", "--mu", "2", "--g", "2"
    )
    assert code == 0
    assert payload["result"]["n_single_out"] == pytest.approx(47.0 / 49.0, abs=1e-12)


def test_photons_prob_passive_filter_reports_no_change(capsys):
    note = "note: no change (passive filter, y = 1)"
    code, out, _ = run_cli(
        capsys, "photons", "--mode", "prob", "--lambda", "1", "--mu", "1", "--g", "2"
    )
    assert code == 0
    assert note in out.splitlines()
    # y = 1 in the amplify regime too, but there the squeezer adds noise: 0.5 -> 47/49
    code, out, _ = run_cli(
        capsys, "photons", "--mode", "prob", "--lambda", "0.5", "--mu", "2", "--g", "2"
    )
    assert code == 0
    assert note not in out.splitlines()


def test_photons_det_below_threshold_reports_identity(capsys):
    code, out, _ = run_cli(
        capsys, "photons", "--mode", "det", "--lambda", "1", "--mu", "1", "--g", "2.5"
    )
    assert code == 0
    assert "identity channel" in out


def test_photons_det_attenuator_purifies(capsys):
    # cos theta = 1/2 at lambda = 1, mu = 0.5, g = 1.5: N_single 2 -> 0.5
    code, payload = run_json(
        capsys, "photons", "--mode", "det", "--lambda", "1", "--mu", "0.5", "--g", "1.5"
    )
    assert code == 0
    result = payload["result"]
    assert result["n_single"] == 2.0
    assert result["n_single_out"] == pytest.approx(0.5, abs=1e-15)
    assert result["notes"] == ["net purification (N'_single < N_single)"]


def test_photons_prob_below_unit_gain_filters(capsys):
    code, payload = run_json(
        capsys, "photons", "--mode", "prob", "--lambda", "1", "--mu", "1", "--g", "0.5"
    )
    assert code == 0
    assert payload["result"]["y"] == pytest.approx(0.25, abs=1e-15)
    assert any("net purification" in n for n in payload["result"]["notes"])


def test_photons_subunit_filter_flags_net_purification(capsys):
    # g' = 1.2 sits below the passive-filter gain, so y < 1 and noise drops
    code, payload = run_json(
        capsys, "photons", "--mode", "prob", "--lambda", "1", "--mu", "1", "--g", "1.2"
    )
    assert code == 0
    assert payload["result"]["y"] < 1.0
    assert any("net purification" in n for n in payload["result"]["notes"])


# ---------------------------------------------------------------------------
# regimes / verify
# ---------------------------------------------------------------------------


def test_regimes_lists_ordered_landmarks(capsys):
    code, payload = run_json(capsys, "regimes", "--lambda", "1", "--mu", "1", "--g", "2")
    assert code == 0
    res = payload["result"]
    assert res["unit_gain"] == 1.0
    assert res["passive_filter_gain"] == pytest.approx(2.0, abs=1e-12)
    assert res["prob_threshold"] == pytest.approx(math.sqrt(6.0), abs=1e-12)
    assert res["det_threshold"] == pytest.approx(3.0, abs=1e-12)
    assert (
        res["unit_gain"] < res["passive_filter_gain"]
        < res["prob_threshold"] < res["det_threshold"]
    )


def test_verify_fast_passes_and_repeats_identically(capsys):
    code1, out1, err1 = run_cli(capsys, "verify", "--level", "fast", "--seed", "7")
    code2, out2, err2 = run_cli(capsys, "verify", "--level", "fast", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks passed" in out1
    # wall-clock noise is quarantined on stderr
    assert "timings" in err1 and "timings" in err2


def test_verify_exit_five_on_any_failure(capsys, monkeypatch):
    bad = VerifyReport(
        level="fast", seed=7, dim=64,
        checks=[CheckResult("synthetic", 1.0, 2.0, 1e-9, False, False, 0.1)],
    )
    monkeypatch.setattr("ampurify.verify.run_suite", lambda **kw: bad)
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 5
    assert "FAIL" in out


def test_verify_non_finite_value_fails_its_check_and_exits_five(capsys, monkeypatch):
    # Python's max(0.0, nan) is 0.0: every fold must let the NaN through
    monkeypatch.setattr(formulas, "prob_fidelity", lambda ens: math.nan)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    code, out, err = run_cli(capsys, "verify", "--level", "fast", "--json")
    assert code == 5
    checks = json.loads(out, parse_constant=reject)["result"]["checks"]
    failed = [c for c in checks if not c["passed"]]
    assert [c["name"] for c in failed] == [
        "prob_branches_join_at_plateau",
        "det_prob_coincide_up_to_passive_filter_gain",
        "det_prob_coincide_past_threshold",
        "prob_beats_det_inside_window_shortfall",
        "prob_det_tangent_at_passive_filter_gain",
        "bound_edge_matches_prob",
        "fock_filter_approaches_prob",
    ]
    assert failed[-1]["expected"] is None and failed[-1]["error"] == "expected is not finite: nan"
    assert all(c["observed"] is None for c in failed[:-1])
    assert all(c["error"] == "observed is not finite: nan" for c in failed[:-1])
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 5
    assert out.splitlines()[-1] == f"{len(checks) - 7}/{len(checks)} checks passed"


# ---------------------------------------------------------------------------
# text view against --json
# ---------------------------------------------------------------------------


def _digest_points():
    path = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.POINTS


#: a number in the text view; digits inside formulas such as (S+1) are not
_NUMBER = re.compile(r"(?<![\w+(])\d+(?:\.\d+)?(?:e[+-]\d+)?")
_PURE_NOTE = "note: mu at or above the pure-input sentinel; input treated as pure"


def _shown_values(command, params, result):
    """The JSON values the text view of ``command`` shows, in text order."""
    if command == "eval":
        return (
            [params[k] for k in ("lambda", "mu", "g", "n", "m", "lambda_prime", "mu", "g_prime")]
            + [result["thresholds"]["det"], result["thresholds"]["prob"]]
            + [result["fidelities"][k] for k in ("det", "prob", "cft")]
            + [result["tuning"][k] for k in ("cosh_r", "y", "cos_theta", "z")]
            + [result["photons"][k] for k in ("n_c", "n_t", "s")]
        )
    if command == "regimes":
        return [params["lambda_prime"], params["mu"], params["g_prime"]] + [
            result[k]
            for k in ("unit_gain", "passive_filter_gain", "prob_threshold", "det_threshold")
        ]
    filter_rows = [result["y"], result["n_single"], result["n_t_out"]] if "y" in result else []
    return filter_rows + [result[k] for k in ("n_single", "n_total", "n_single_out", "n_total_out")]


@pytest.mark.parametrize("sub", ["eval", "regimes", "photons --mode det", "photons --mode prob"])
@pytest.mark.parametrize("point", _digest_points())
def test_text_and_json_print_the_same_numbers(capsys, sub, point):
    argv = sub.split() + point.split()
    code, text, _ = run_cli(capsys, *argv)
    json_code, out, _ = run_cli(capsys, *argv, "--json")
    if code == json_code == 3:
        pytest.skip("domain error in both forms")
    assert code == json_code == 0
    payload = json.loads(out)
    params, result = payload["params"], payload["result"]

    lines = text.splitlines()
    notes = [line for line in lines if line.startswith("note: ")]
    shown = _NUMBER.findall("\n".join(line for line in lines if line not in notes))
    values = _shown_values(argv[0], params, result)
    assert shown == [format(float(v), ".5g") for v in values]

    if "regime" in result:
        assert result["regime"] in text
    pure = result.get("pure_input", result.get("photons", {}).get("pure_input"))
    assert notes == [f"note: {n}" for n in result.get("notes", [])] + ([_PURE_NOTE] if pure else [])


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------


#: the oracle layer the package registers lazily (``ampurify.__init__``)
_ORACLES = ("scalaropt", "gaussian", "fock", "bounds", "verify")
#: a point every point command answers, with both reductions non-trivial
_POINT = "--lambda 0.7 --mu 2 --g 1.3 --n 2 --m 3"


def _fresh(probe):
    """stdout lines of ``probe`` run in a fresh interpreter on this tree's ``src``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    prelude = f"ROOT, ORACLES, POINT = {root!r}, {_ORACLES!r}, {_POINT.split()!r}\n"
    done = subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(probe)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_cli_import_needs_numpy_only_and_loads_every_traced_module():
    # bench/spans.py wraps functions of these modules right after importing the CLI
    probe = (
        "import sys, ampurify.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print([m for m in ('fock', 'bounds', 'verify', 'gaussian', 'scalaropt') "
        "if 'ampurify.' + m not in sys.modules])"
    )
    assert _fresh(probe) == ["[]", "[]"]


def test_point_commands_execute_neither_numpy_nor_the_oracle_layer():
    # type(), not an attribute read: reading one would execute the module
    assert _fresh("""
        import contextlib, io, sys, types
        import ampurify.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            for sub in ("eval", "regimes", "photons --mode det", "photons --mode prob"):
                for form in ([], ["--json"]):
                    assert cli.main(sub.split() + POINT + form) == 0, (sub, form)
        print("numpy._core" in sys.modules)
        print([m for m in ORACLES if type(sys.modules["ampurify." + m]) is types.ModuleType])
        print([m for m in ("dataclasses", "inspect") if m in sys.modules])
        with contextlib.redirect_stdout(io.StringIO()):
            sweep = "sweep --axis g --start 0.5 --stop 3 --steps 5 --lambda 1 --mu 2 --json"
            codes = [cli.main(sweep.split()), cli.main(["verify", "--level", "fast"])]
        print(codes)
    """) == ["False", "[]", "[]", "[0, 0]"]


def test_the_gaussian_closed_form_runs_on_plain_math():
    # so a point command can score a Gaussian channel without numpy or dataclasses
    assert _fresh("""
        import sys
        from ampurify.gaussian import GaussianChannel, avg_fidelity_gaussian
        from ampurify.params import NoisyEnsemble
        print(avg_fidelity_gaussian(NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.identity()))
        print([m for m in ("numpy._core", "dataclasses", "inspect") if m in sys.modules])
    """) == [repr(1.0 / 3.0), "[]"]


#: the scalar bounds at a point of each branch of the bound minimum, called
#: directly and through the package, as a certificate would call them
_CAPS = """
    import sys, types
    import ampurify
    from ampurify.gaussian import FilterSpec
    from ampurify.params import NoisyEnsemble
    caps = []
    for point in ((1.0, 1.0, 1.5), (1.0, 1.0, 2.5), (0.5, 2.0, 0.8), (2.0, 0.5, 9.0)):
        ens = NoisyEnsemble(*point)
        w = ampurify.bounds.coeffs(ens, 0.5 * ampurify.bounds.kappa_prime(ens))
        caps += [ampurify.bounds.kappa_star(ens), *ampurify.bounds.minimize_det_bound(ens),
                 *ampurify.minimize_det_bound(ens), ampurify.bounds.prob_via_kappa_prime(ens),
                 ampurify.det_limit(w), ampurify.bounds.det_limit_finite_p(w, 16),
                 ampurify.bounds.filter_deficit_bound(ens, FilterSpec(10, 0.75))]
    print(repr(caps))
    print([m for m in ("numpy._core", "dataclasses", "inspect") if m in sys.modules])
    print(type(sys.modules["ampurify.fock"]) is types.ModuleType)
"""


def test_the_scalar_bounds_run_on_plain_math():
    # so a point command can print the det and prob caps without numpy or the oracle
    plain = _fresh(_CAPS)
    assert plain[1:] == ["[]", "False"]
    assert plain[0] == _fresh("import numpy, ampurify.verify\n" + textwrap.dedent(_CAPS))[0]


def test_importing_verify_executes_the_whole_oracle_layer_before_run_suite():
    # were the lazy modules bound as package attributes, verify's own
    # ``from . import bounds, fock`` would take them unexecuted, and they
    # would execute inside the timed run_suite; neither numpy.random (5.8 MB
    # resident) nor numpy.polynomial (about 4 ms), which the checked-in
    # 48-node rule spares, may load at all, at either level
    assert _fresh("""
        import sys, types
        import ampurify.cli
        import ampurify.verify
        names = ["ampurify." + m for m in ORACLES] + ["numpy"]
        print([n for n in names if type(sys.modules.get(n)) is not types.ModuleType])
        print("numpy.polynomial" in sys.modules)
        before = set(sys.modules)
        report = ampurify.verify.run_suite(level="fast", seed=7)
        print(report.all_passed, sorted(set(sys.modules) - before))
        report = ampurify.verify.run_suite(level="full", seed=7)
        print(report.all_passed, [m for m in ("numpy.random", "numpy.polynomial")
                                  if m in sys.modules])
    """) == ["[]", "False", "True []", "True []"]


def test_bench_tracer_wraps_every_traced_function_after_the_cli_import():
    assert _fresh("""
        import contextlib, importlib.util, io, os, sys
        spec = importlib.util.spec_from_file_location(
            "spans", os.path.join(ROOT, "bench", "spans.py"))
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        import ampurify.cli
        tracer = spans.Tracer()
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [ampurify.cli.main(["eval"] + POINT),
                     ampurify.cli.main(["verify", "--level", "fast"])]
        print(codes)
        print([f"{m}.{f}" for m, f in spans.TRACED
               if not callable(getattr(sys.modules["ampurify." + m], f, None))])
        seen = {tracer.names[span[0]] for span in tracer.spans}
        print(sorted({"cli.main", "formulas.fidelity_report", "fock.avg_fidelity_numeric",
                      "verify.run_suite"} - seen))
    """) == ["[0, 0]", "[]", "[]"]


@pytest.mark.parametrize("x", [3, 2.5, True, np.float64(2.5), np.int64(3), np.bool_(True),
                               np.array(2.5), np.array([1.0, 2.0])], ids=repr)
def test_is_column_classifies_as_isinstance_ndarray(x):
    assert params._is_column(x) == isinstance(x, np.ndarray)


def test_public_api_resolves_through_the_lazy_layer():
    from ampurify import bounds, fock

    assert ampurify.det_limit is bounds.det_limit
    assert ampurify.minimize_det_bound is bounds.minimize_det_bound
    assert callable(fock.avg_fidelity_numeric) and callable(ampurify.verify.run_suite)
    assert ampurify.__all__ == [
        "AmpurifyError", "DomainError", "MultimodeTask", "NoisyEnsemble",
        "NonConvergentError", "RootError", "TruncationError", "ValidityError",
        "cft", "classify", "det_fidelity", "det_limit", "det_upper_bound",
        "fidelity_report", "kappa_star", "minimize_det_bound", "photon_book",
        "photon_output_det", "photon_output_prob", "prob_fidelity", "reduce",
        "thresholds", "tune", "__version__",
    ]
    assert all(hasattr(ampurify, name) for name in ampurify.__all__)
    with pytest.raises(AttributeError):
        ampurify.no_such_name  # noqa: B018


def test_lazy_rejects_a_missing_module():
    with pytest.raises(ModuleNotFoundError):
        lazy("no_such_module")
    assert "no_such_module" not in sys.modules
