import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from ampurify import verify
from ampurify.errors import DomainError
from ampurify.verify import run_suite

FAST_ROSTER = [
    "det_branches_join_at_threshold",
    "prob_branches_join_at_plateau",
    "det_branches_join_at_passive_filter_gain",
    "det_prob_coincide_up_to_passive_filter_gain",
    "det_prob_coincide_past_threshold",
    "prob_beats_det_inside_window_shortfall",
    "prob_det_tangent_at_passive_filter_gain",
    "quantum_beats_classical_shortfall",
    "cft_worked_point_thermal",
    "det_worked_point_identity_branch",
    "gaussian_channel_noise_laws",
    "squeezer_scan_attains_det",
    "squeezer_scan_argmax_matches_tuning",
    "attenuator_scan_attains_det",
    "attenuator_scan_argmax_matches_tuning",
    "heterodyne_scan_attains_cft",
    "heterodyne_scan_argmax_matches_tuning",
    "photon_output_det_worked_ratio",
    "photon_output_prob_passive_filter",
    "circulant_eigs_match_dense_det",
    "root_worked_point_y_plus",
    "kappa_star_matches_search",
    "minimized_bound_matches_det",
    "bound_edge_matches_prob",
    "det_limit_matches_finite_product",
    "filter_deficit_terms_worked_point",
    "filter_pole_rejected",
    "fock_identity_matches_closed_form",
    "fock_amplifier_adds_quantum_noise",
    "fock_attenuator_scales_amplitude",
    "fock_filter_approaches_prob",
]

FULL_ROSTER = [
    "oracle_squeezer_grid_max_dev",
    "oracle_identity_grid_max_dev",
    "oracle_attenuator_attains_det",
    "oracle_filter_sweep_monotone_shortfall",
    "oracle_filter_terminal_value",
    "oracle_filter_deficit_within_bound_shortfall",
    "oracle_heterodyne_worked_points",
    "finite_p_deviation_monotone_shortfall",
    "finite_p_terminal_envelope_shortfall",
    "cft_norm_check_points",
    "gaussian_matches_fock_channels",
    "angular_grid_agrees_with_radial",
    "filtered_thermal_nbar_fit",
]


def _names(table):
    return [name for _, *results in table for name, _ in results]


@pytest.fixture(scope="module")
def fast_report():
    return run_suite(level="fast", seed=7, dim=64)


def test_fast_suite_is_clean(fast_report):
    failed = [c.name for c in fast_report.checks if not c.passed]
    assert fast_report.all_passed, f"failing checks: {failed}"


def test_fast_suite_has_a_stable_check_roster(fast_report):
    names = [c.name for c in fast_report.checks]
    assert len(names) == len(set(names)), "duplicate check names"
    assert "det_branches_join_at_threshold" in names
    assert "prob_det_tangent_at_passive_filter_gain" in names
    assert "fock_identity_matches_closed_form" in names


def test_rendered_output_is_deterministic(fast_report):
    again = run_suite(level="fast", seed=7, dim=64)
    assert fast_report.render() == again.render()
    assert json.dumps(fast_report.to_json_dict()) == json.dumps(again.to_json_dict())


def test_json_dict_carries_no_wall_times(fast_report):
    payload = json.dumps(fast_report.to_json_dict())
    assert "wall_time" not in payload
    # but the timing side channel still exists per check
    assert all(c.wall_time_ms >= 0.0 for c in fast_report.checks)


def test_render_counts_match(fast_report):
    lines = fast_report.render().splitlines()
    assert lines[-1] == f"{len(fast_report.checks)}/{len(fast_report.checks)} checks passed"


def test_bad_level_rejected():
    with pytest.raises(DomainError):
        run_suite(level="exhaustive")


def test_undersized_cutoff_rejected():
    with pytest.raises(DomainError):
        run_suite(level="fast", dim=16)


@pytest.mark.parametrize("name", _names(verify.FAST_CHECKS))
def test_each_fast_check_passes(fast_report, name):
    (check,) = [c for c in fast_report.checks if c.name == name]
    assert check.passed, check


def test_check_tables_pin_the_ordered_roster():
    # read from the tables, so the full level is not run
    assert _names(verify.FAST_CHECKS) == FAST_ROSTER
    assert _names(verify.FULL_CHECKS) == FULL_ROSTER
    everything = FAST_ROSTER + FULL_ROSTER
    assert len(everything) == len(set(everything)) == 44


def test_crashed_check_fails_with_its_exception(monkeypatch):
    def boom(seed, dim):
        raise ValueError("boom")

    crashing = (
        (boom, ("synthetic_crash", 1e-9)),
        (boom, ("synthetic_group_a", 1e-9), ("synthetic_group_b", 0.0)),
    )
    monkeypatch.setattr(verify, "FAST_CHECKS", crashing + verify.FAST_CHECKS)
    report = run_suite(level="fast", seed=7, dim=64)
    crashed = report.checks[:3]
    assert [c.name for c in crashed] == [
        "synthetic_crash", "synthetic_group_a", "synthetic_group_b"
    ]
    for check in crashed:
        assert not check.passed
        assert "ValueError: boom" in check.error
    assert all(c.passed and c.error is None for c in report.checks[3:])
    assert not report.all_passed
    payload = json.dumps(report.to_json_dict(), allow_nan=False)
    first = json.loads(payload)["checks"][0]
    assert first["observed"] is None and first["error"] == "ValueError: boom"
    assert "error" not in json.loads(payload)["checks"][3]
    fail_line = report.render().splitlines()[1]
    assert fail_line.startswith("FAIL synthetic_crash")
    assert fail_line.endswith("error: ValueError: boom")


def test_traced_functions_still_resolve():
    # the benchmark's per-layer trace wraps these by name and would silently
    # lose a layer if a refactor renamed one
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, function in spans.TRACED:
        target = getattr(importlib.import_module(f"ampurify.{module}"), function, None)
        assert callable(target), f"ampurify.{module}.{function}"
