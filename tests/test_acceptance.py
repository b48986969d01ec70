"""Acceptance suite: one test per contract criterion, in contract order.

Each test re-derives its expectation independently of the library paths it
exercises (truncated Fock-space numerics against closed forms, dense linear
algebra against spectral shortcuts, subprocess runs against byte-level
determinism), so a pass/fail line here is a statement about the physics and
the interfaces, not about internal consistency alone.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ampurify import bounds, fock, formulas
from ampurify.gaussian import FilterSpec, GaussianChannel
from ampurify.params import PURE_MU_SENTINEL, NoisyEnsemble, photon_book, thresholds

N_C_GRID = (0.5, 1.0, 2.0)
N_T_GRID = (0.25, 0.5, 1.0)


def _ens_from_photons(n_c, n_t, g):
    return NoisyEnsemble(lambda_prime=1.0 / n_c, mu=1.0 / n_t, g_prime=g)


def _gain_points(n_c, n_t):
    thr = thresholds(_ens_from_photons(n_c, n_t, 1.0))[0]
    return thr, (thr, thr + 0.5, 2.0 * thr)


def test_criterion_01_squeezer_oracle_matches_deterministic_optimum():
    """Two-mode-squeezer numerics reproduce the amplifier-branch closed form
    to 1e-4 across the photon-number grid, within the 30 s budget."""
    t0 = time.monotonic()
    worst = 0.0
    for n_c in N_C_GRID:
        for n_t in N_T_GRID:
            _, gains = _gain_points(n_c, n_t)
            for g in gains:
                ens = _ens_from_photons(n_c, n_t, g)
                r = math.acosh(formulas.tune(ens).cosh_r)
                numeric = fock.avg_fidelity_numeric(
                    ens, GaussianChannel.amplifier(r), dim=64, radial_nodes=80
                )
                worst = max(worst, abs(numeric - formulas.det_fidelity(ens)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-4, f"worst oracle deviation {worst:.3e}"
    assert elapsed < 30.0, f"squeezer oracle took {elapsed:.1f}s"


def test_criterion_02_identity_oracle_matches_passive_closed_form():
    """Doing nothing scores 1/((g'-1)^2 N_C + N_T + 1); the Fock oracle
    agrees to 1e-6, including the worked point 1/3 at unit rates, g' = 2."""
    for n_c in N_C_GRID:
        for n_t in N_T_GRID:
            for g in (1.0, 1.2):
                ens = _ens_from_photons(n_c, n_t, g)
                numeric = fock.avg_fidelity_numeric(
                    ens, GaussianChannel.identity(), dim=64, radial_nodes=80
                )
                closed = 1.0 / ((g - 1.0) ** 2 * n_c + n_t + 1.0)
                assert abs(numeric - closed) <= 1e-6, (n_c, n_t, g)
    worked = fock.avg_fidelity_numeric(
        NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.identity(), dim=64, radial_nodes=80
    )
    assert abs(worked - 1.0 / 3.0) <= 1e-6


def test_criterion_03_rank_k_filter_converges_inside_certified_brackets():
    """The heralded filter at its tuned ratio climbs monotonically in the
    cut K, lands within 1e-3 of the probabilistic optimum by K = 40, and
    every observed deficit respects the geometric error bracket."""
    t0 = time.monotonic()
    ens = NoisyEnsemble(1.0, 1.0, 1.5)
    y = formulas.tune(ens).y
    assert y == pytest.approx(0.75, abs=1e-15)
    target = formulas.prob_fidelity(ens)

    specs = [FilterSpec(k_cut=k, y=y) for k in (5, 10, 20, 40)]
    values = [fock.avg_fidelity_numeric(ens, spec, dim=64, radial_nodes=96) for spec in specs]
    assert all(hi > lo for lo, hi in zip(values, values[1:])), values
    assert abs(values[-1] - 0.470588) <= 1e-3
    for spec, value in zip(specs, values):
        deficit = target - value
        assert deficit <= bounds.filter_deficit_bound(ens, spec) + 1e-6, spec
    assert time.monotonic() - t0 < 60.0


def test_criterion_04_heterodyne_oracle_matches_classical_threshold():
    """Measure-and-prepare numerics at the optimal re-preparation scale meet
    the classical threshold closed form: 2/3 for a pure input at unit gain,
    3/11 at unit rates and g' = 2, both to 1e-4."""
    for lam, mu, g, expected in (
        (1.0, PURE_MU_SENTINEL, 1.0, 2.0 / 3.0),
        (1.0, 1.0, 2.0, 3.0 / 11.0),
    ):
        ens = NoisyEnsemble(lam, mu, g)
        z = formulas.tune(ens).z
        numeric = fock.avg_fidelity_numeric(
            ens,
            GaussianChannel.heterodyne(z),
            dim=64,
            radial_nodes=80,
        )
        assert abs(numeric - formulas.cft(ens)) <= 1e-4
        assert abs(numeric - expected) <= 1e-4


def test_criterion_05_quantum_strictly_beats_classical_on_dense_grid():
    """On the 5x5x5 grid over N_C, N_T, g' the deterministic optimum, and
    with it the heralded one, exceeds the classical threshold by at least
    1e-6 everywhere, with no branch singled out."""
    for n_c in np.linspace(0.25, 2.0, 5):
        for n_t in np.linspace(0.0, 1.0, 5):
            mu = PURE_MU_SENTINEL if n_t == 0.0 else 1.0 / n_t
            for g in np.linspace(0.5, 3.0, 5):
                ens = NoisyEnsemble(1.0 / n_c, mu, float(g))
                assert formulas.det_fidelity(ens) - formulas.cft(ens) >= 1e-6, (
                    n_c, n_t, float(g)
                )


def test_criterion_06_probabilistic_advantage_opens_and_closes_exactly():
    """Between the passive-filter gain S/N_C and the amplify threshold the
    heralded optimum is strictly better at sampled gains; at or beyond the
    threshold, and at or below S/N_C, the two coincide to 1e-12."""
    for n_c in N_C_GRID:
        for n_t in N_T_GRID:
            thr, beyond = _gain_points(n_c, n_t)
            tangency = (n_c + n_t) / n_c
            for frac in (0.15, 0.62, 0.9):
                g = tangency + frac * (thr - tangency)
                ens = _ens_from_photons(n_c, n_t, g)
                gap = formulas.prob_fidelity(ens) - formulas.det_fidelity(ens)
                assert gap > 0.0, (n_c, n_t, g)
            for g in (thr, 1.5 * thr, 3.0 * thr):
                ens = _ens_from_photons(n_c, n_t, g)
                gap = formulas.prob_fidelity(ens) - formulas.det_fidelity(ens)
                assert abs(gap) <= 1e-12, (n_c, n_t, g)
            for g in (0.5, 1.0, 0.5 * (1.0 + tangency), tangency):
                ens = _ens_from_photons(n_c, n_t, g)
                rep = formulas.fidelity_report(ens)
                assert abs(rep.prob - rep.det) <= 1e-12, (n_c, n_t, g)


def test_criterion_07_closed_forms_are_continuous_across_every_branch_join():
    """The attenuating and identity deterministic branches agree at the
    passive-filter gain S/N_C, the identity and amplifying ones at the
    amplify threshold, and both probabilistic branches at the plateau
    threshold, all to 1e-12."""
    for n_c in N_C_GRID:
        for n_t in N_T_GRID:
            ens1 = _ens_from_photons(n_c, n_t, 1.0)
            det_thr, prob_thr = thresholds(ens1)
            book = photon_book(ens1)
            s, n_tilde = book.total, book.n_t + 1.0

            amplifier = (s + 1.0) / (det_thr**2 * n_c * n_tilde)
            passive = 1.0 / ((det_thr - 1.0) ** 2 * n_c + n_tilde)
            assert abs(amplifier - passive) <= 1e-12

            plateau = (s + 1.0) / (prob_thr**2 * n_c * n_tilde)
            filtered = s / (s + prob_thr**2 * n_c * n_t)
            assert abs(plateau - filtered) <= 1e-12

            tangency = s / n_c
            attenuator = s / (s + tangency**2 * n_c * n_t)
            identity = 1.0 / ((tangency - 1.0) ** 2 * n_c + n_tilde)
            assert abs(attenuator - identity) <= 1e-12


def test_criterion_08_determinant_machinery_certifies_the_optimum():
    """Circulant determinants factorised through the roots match dense ones;
    their p-th-root sequence converges monotonically onto the closed-form
    limit; the bound's numerical minimiser agrees with the closed-form ansatz
    parameter to 1e-8 and its minimum reproduces the deterministic optimum
    to 1e-12."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        size = int(rng.integers(2, 9))
        ens = NoisyEnsemble(*rng.uniform(0.25, 4.0, 3))
        w = bounds.coeffs(ens, rng.uniform(0.05, 0.95) * bounds.kappa_prime(ens))
        via_roots = bounds.det_limit_finite_p(w, size) ** size
        via_dense = float(np.linalg.det(bounds.circulant_dense(w.a, w.b, w.c, size)))
        assert abs(via_roots - via_dense) <= 1e-10 * abs(via_dense)

    for n_c in N_C_GRID:
        for n_t in N_T_GRID:
            thr, gains = _gain_points(n_c, n_t)
            for g in gains:
                ens = _ens_from_photons(n_c, n_t, g)

                # finite-p approach to the limit, with the wide-envelope
                # caveat at the far corners where y+ crowds 1
                w = bounds.coeffs(ens, 0.5 * bounds.kappa_prime(ens))
                limit = bounds.det_limit(w)
                devs = [
                    abs(bounds.det_limit_finite_p(w, p) - limit) / limit
                    for p in (4, 8, 16, 32, 64)
                ]
                assert all(hi <= lo + 1e-12 for lo, hi in zip(devs, devs[1:]))
                envelope = 2e-2 if g == 2.0 * thr else 1e-3
                assert devs[-1] <= envelope, (n_c, n_t, g, devs[-1])

                kappa_num, value = bounds.minimize_det_bound(ens)
                assert abs(kappa_num - bounds.kappa_star(ens)) <= 1e-8
                assert abs(value - formulas.det_fidelity(ens)) <= 1e-12


def test_criterion_09_photon_bookkeeping_matches_channel_algebra():
    """Channel occupation laws hold to 1e-12; the worked amplifier point
    gives 47/49 noise photons out; a rank-40 filter reshapes a unit thermal
    state into the geometric law of ratio y^2 nbar/(nbar + 1), whose
    occupation is the predicted one."""
    # a channel (s, nbar) maps amplitude amp to s amp and occupation n to s^2 (n + nbar + 1) - 1
    amp = 0.7 + 0.2j
    for nbar in (0.0, 0.5, 1.0, 3.0):
        for r in (0.0, 0.3, 1.1):
            s, added = GaussianChannel.amplifier(r)
            ch, sh = math.cosh(r), math.sinh(r)
            assert abs(s * s * (nbar + added + 1.0) - 1.0 - (ch * ch * nbar + sh * sh)) <= 1e-12
            assert abs(s * amp - ch * amp) <= 1e-12
        for theta in (0.0, 0.6, 1.2):
            s, added = GaussianChannel.attenuator(theta)
            c = math.cos(theta)
            assert abs(s * s * (nbar + added + 1.0) - 1.0 - c * c * nbar) <= 1e-12
            assert abs(s * amp - c * amp) <= 1e-12

    from ampurify.params import MultimodeTask

    _, single = formulas.photon_output_det(MultimodeTask(lam=0.5, mu=2.0, g=2.0))
    assert abs(single - 47.0 / 49.0) <= 1e-12

    nbar, y = 1.0, 1.25
    rho = fock.FockDensity(64, fock._displaced_thermal_stack(np.array([0.0]), nbar, 64)[0])
    diag = np.diag(fock.apply_filter(rho, FilterSpec(k_cut=40, y=y)).mat).real
    ratio = y * y * nbar / (nbar + 1.0)
    assert np.abs(diag[1:41] / diag[:40] - ratio).max() <= 1e-12
    assert abs(ratio / (1.0 - ratio) - 3.5714285714285716) <= 1e-12


def test_criterion_10_fast_verification_is_clean_fast_and_reproducible():
    """`verify --level fast` exits 0 with every check passing, finishes well
    inside 60 s, and two runs with the same seed emit identical bytes."""
    cmd = [
        sys.executable, "-m", "ampurify",
        "verify", "--level", "fast", "--seed", "7", "--json",
    ]
    # the child does not inherit pytest's pythonpath, so hand it this checkout's src
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    t0 = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, timeout=120, env=env)
    elapsed = time.monotonic() - t0
    second = subprocess.run(cmd, capture_output=True, timeout=120, env=env)

    assert first.returncode == 0, first.stdout.decode() + first.stderr.decode()
    assert second.returncode == 0
    assert elapsed < 60.0, f"fast verification took {elapsed:.1f}s"
    assert first.stdout == second.stdout

    report = json.loads(first.stdout)
    checks = report["result"]["checks"]
    assert checks and all(c["passed"] for c in checks)
