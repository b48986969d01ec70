import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from ampurify.cli import CSV_HEADER, main
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
    # out-of-regime tuning cells are empty strings, never placeholders
    assert rows[2][8] == "1"  # g' = S/N_C: the beamsplitter's last setting
    assert all(row[8] == "" for row in rows[3:])


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
    ],
)
def test_sweep_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "usage error" in err


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
        # g'^2 overflows in the closed forms
        ["eval", "--lambda", "1", "--mu", "1", "--g", "1e200"],
        ["sweep", "--axis", "g", "--start", "1", "--stop", "1e200", "--steps", "3",
         "--lambda", "1", "--mu", "1", "--json"],
        # ... and in the photon bookkeeping of both protocols
        ["photons", "--mode", "det", "--lambda", "1", "--mu", "1", "--g", "1e200", "--json"],
        ["photons", "--mode", "prob", "--lambda", "1", "--mu", "1", "--g", "1e200", "--json"],
    ],
)
def test_non_finite_results_exit_three(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: ")


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
    code, out, _ = run_cli(
        capsys, "photons", "--mode", "prob", "--lambda", "1", "--mu", "1", "--g", "2"
    )
    assert code == 0
    assert "no change" in out


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
    monkeypatch.setattr("ampurify.cli.verify.run_suite", lambda **kw: bad)
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 5
    assert "FAIL" in out


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
    assert shown == [format(float(v), ".5g") for v in values if v is not None]
    for key, value in result.get("tuning", {}).items():
        if value is None:
            assert f"{key}=-" in text

    if "regime" in result:
        assert result["regime"] in text
    pure = result.get("pure_input", result.get("photons", {}).get("pure_input"))
    assert notes == [f"note: {n}" for n in result.get("notes", [])] + ([_PURE_NOTE] if pure else [])
