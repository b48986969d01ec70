import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ampurify import bounds, fock, verify
from ampurify.errors import DomainError
from ampurify.params import NoisyEnsemble
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


def test_fast_suite_passes_at_the_least_cutoff():
    # the identity check scores at 48 levels or more, where the prior's tail is 2e-9
    assert run_suite("fast", dim=32).all_passed


def test_oversized_cutoff_rejected():
    with pytest.raises(DomainError, match=r"\[32, 128\]"):
        run_suite(level="fast", dim=129)


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_a_seed_that_is_not_a_non_negative_integer_is_rejected(seed):
    # -1 failed the spectral check inside the report, 2.5 was reported as seed 2,
    # and True, an int subclass, as seed 1
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        run_suite(level="fast", seed=seed)


@pytest.mark.parametrize("dim", [64.5, 64.0, "64", None, True])
def test_a_dim_that_is_not_an_integer_is_rejected(dim):
    # 64.5 and 64.0 gave a report labelled dim 64 with three failed Fock checks,
    # and "64" raised a bare TypeError from the range comparison
    with pytest.raises(DomainError, match="dim must be an integer >= 32"):
        run_suite(level="fast", dim=dim)


@pytest.mark.parametrize("dim", [32, 48, 64, 96, 128])
def test_the_filtered_thermal_law_reads_the_prediction_bit_for_bit(dim):
    # the per-level ratios of a filtered thermal diagonal are exactly geometric
    expected, observed = verify._check_filtered_nbar_fit(7, dim)
    assert observed == expected == 3.5714285714285716


def test_the_circulant_triples_are_the_standard_library_stream():
    # pinned literals: a change of generator or of draw order fails here
    draws = verify._circulant_draws(7)
    assert len(draws) == 100
    assert draws[0] == (4, 0.8156844022168822, 2.6910042738994515, 0.5216360750032853,
                        0.5322938038760203)
    assert {row[0] for row in draws} == {2, 3, 4, 5, 6, 7, 8}
    assert all(0.25 <= x < 4.0 for row in draws for x in row[1:4])
    assert all(0.05 <= row[4] < 0.95 for row in draws)


def test_the_circulant_check_holds_over_a_hundred_seeds():
    worst = max(verify._check_circulant_dense(seed, 64)[1] for seed in range(100))
    assert worst < 1e-10


@pytest.mark.parametrize("name", _names(verify.FAST_CHECKS))
def test_each_fast_check_passes(fast_report, name):
    (check,) = [c for c in fast_report.checks if c.name == name]
    assert check.passed, check


def test_full_suite_is_clean_and_the_same_with_a_cold_and_a_warm_cache():
    for cached in (fock.prior_states, fock._laguerre_rule, fock._log_factorials,
                   fock._row_coefficients, bounds._sector_scatter):
        cached.cache_clear()
    cold = run_suite(level="full", seed=7, dim=64)
    # the oracle's averages and the norm check share one radial rule
    assert fock._laguerre_rule.cache_info().currsize == 1
    warm = run_suite(level="full", seed=7, dim=64)
    failed = [c.name for c in cold.checks if not c.passed]
    assert cold.all_passed, f"failing checks: {failed}"
    assert [c.name for c in cold.checks] == FAST_ROSTER + FULL_ROSTER
    assert cold.to_json_dict() == warm.to_json_dict()


def test_a_full_suite_builds_no_prior_stack_of_more_than_30_nodes(monkeypatch):
    # the default 48-node rule's stack keeps the 30 nodes whose tail outweighs 2^-70
    sizes = []
    prior_states = fock.prior_states

    def recorded(*args):
        stack = prior_states(*args)
        sizes.append(stack[0].size)
        return stack

    monkeypatch.setattr(fock, "prior_states", recorded)
    assert run_suite(level="full", seed=7, dim=64).all_passed
    assert sizes and max(sizes) <= 30


#: one name of each check entry that averages over the oracle's radial rule
_ORACLE_CHECKS = {"fock_identity_matches_closed_form", "fock_filter_approaches_prob",
                  "oracle_squeezer_grid_max_dev", "oracle_attenuator_attains_det",
                  "oracle_filter_terminal_value", "oracle_heterodyne_worked_points",
                  "gaussian_matches_fock_channels", "angular_grid_agrees_with_radial"}


def _oracle_values() -> np.ndarray:
    entries = [entry for entry in verify.FAST_CHECKS + verify.FULL_CHECKS
               if _ORACLE_CHECKS & {name for name, _ in entry[1:]}]
    assert len(entries) == len(_ORACLE_CHECKS)
    return np.concatenate([np.ravel(np.array(entry[0](7, 64), dtype=float))
                           for entry in entries])


def test_oracle_rules_are_converged_at_the_verify_points(monkeypatch):
    # the radial term of the oracle's error budget: the shipped rule against 96 nodes
    shipped = _oracle_values()
    monkeypatch.setattr(fock, "avg_fidelity_numeric",
                        functools.partial(fock.avg_fidelity_numeric, radial_nodes=96))
    assert np.abs(shipped - _oracle_values()).max() <= 1e-12


def test_cft_norm_rule_is_converged_at_the_verify_points(monkeypatch):
    # the points of cft_norm_check_points
    ensembles = [NoisyEnsemble(*p) for p in ((1.0, 1.0, 1.5), (0.5, 2.0, 1.5), (1.0, 0.5, 2.0))]
    assert fock._RADIAL_NODES == 48
    shipped = np.array([bounds.cft_norm_check(e)[0] for e in ensembles])
    monkeypatch.setattr(fock, "_RADIAL_NODES", 128)
    finer = np.array([bounds.cft_norm_check(e)[0] for e in ensembles])
    assert np.abs(shipped / finer - 1.0).max() <= 1e-12


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


_BUILDERS = ("apply_two_mode_squeezer", "apply_attenuator", "apply_filter",
             "apply_heterodyne_mp", "_apply_shift_kraus", "displaced_thermal_density")


@pytest.mark.parametrize("level", ["fast", "full"])
def test_suite_calls_no_schroedinger_picture_builder(monkeypatch, level):
    # verify reads its channel checks off weights, scorers and diagonals; the
    # builders stay as the tests' reference
    calls = []

    def counted(name, builder):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return builder(*args, **kwargs)
        return wrapper

    for name in _BUILDERS:
        monkeypatch.setattr(fock, name, counted(name, getattr(fock, name)))
    assert run_suite(level=level, seed=7, dim=64).all_passed
    assert calls == []


@pytest.mark.parametrize("level", ["fast", "full"])
def test_cold_suite_imports_no_module(level):
    # a submodule imported on first use (np.unique pulls in numpy.ma, about
    # 15 ms) would cost every cold verify call its import; and no record of
    # the package needs dataclasses
    probe = ("import sys\n"
             "from ampurify.verify import run_suite\n"
             "before = set(sys.modules)\n"
             f"assert run_suite({level!r}).all_passed\n"
             "print(sorted(set(sys.modules) - before))\n"
             "print('dataclasses' in sys.modules)\n")
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "False"]


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
