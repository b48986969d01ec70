"""Self-verification suite behind the ``verify`` subcommand.

Every closed form in the package is cross-checked against an independent
route: worked values frozen from hand derivations, golden-section scans of
one-parameter protocols, random-matrix spectral identities, and (at the
``full`` level) the truncated Fock-space oracle grids.

The checks live in two tables, ``FAST_CHECKS`` and ``FULL_CHECKS``; the
``full`` level runs both.  An entry is a function of the run's
``(seed, dim)`` followed by the ``(name, tolerance)`` of each result it
reports: one ``(expected, observed)`` pair, or for a grouped entry one pair
per name from a single shared computation.  ``run_suite`` runs a table in
order; a result passes when |expected - observed| <= tolerance.  Results
ending in ``_shortfall`` are one-sided: they report how far a required
margin was undershot, which must be exactly zero.

A function that raises fails each of its results and records the exception
in ``CheckResult.error``.  Wall times (a group's charged to its first
result) are kept out of ``render`` and ``to_json_dict``, so repeated runs
with the same arguments produce byte-identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds, fock, formulas
from .errors import DomainError, NonConvergentError
from .gaussian import (
    ChannelKind,
    ChannelParam,
    DisplacedThermal,
    apply_gaussian,
    avg_fidelity_gaussian,
)
from .params import MultimodeTask, NoisyEnsemble, passive_filter_gain, photon_book, thresholds
from .scalaropt import golden_section_min

#: (lambda', mu) pairs for the scalar property checks
_LAM_MU = tuple((lam, mu) for lam in (0.5, 1.0, 2.0) for mu in (0.5, 1.0, 2.0))

#: fractions of the advantage window S/N_C < g' < (S+1)/N_C sampled by the
#: advantage check
_WINDOW_FRACTIONS = (0.15, 0.62, 0.9)

#: smallest margin the one-sided advantage and quantum-vs-classical checks
#: accept before they report a shortfall
_MARGIN_FLOOR = 1e-6

#: oracle grid of the full level: photon numbers, with gain rungs taken
#: relative to each point's deterministic threshold
_ORACLE_N_C = (0.5, 1.0, 2.0)
_ORACLE_N_T = (0.25, 0.5, 1.0)

Pair = tuple[float, float]


@dataclass(frozen=True)
class CheckResult:
    """One named verification result.

    ``passed`` means |expected - observed| <= tolerance; ``relative`` is
    always False and stays for the report format.  ``wall_time_ms`` is never
    rendered into the deterministic outputs.  ``error`` holds
    ``"<ExcType>: <message>"`` when the check function raised, else None.
    """

    name: str
    expected: float
    observed: float
    tolerance: float
    relative: bool
    passed: bool
    wall_time_ms: float
    error: str | None = None


@dataclass
class VerifyReport:
    """Outcome of a verification run at one level."""

    level: str
    seed: int
    dim: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        """JSON payload; deliberately excludes timings for reproducibility.

        A crashed check carries its ``error`` and a null ``observed``, so the
        payload holds no non-standard NaN token for it.
        """
        return {
            "level": self.level,
            "seed": self.seed,
            "dim": self.dim,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "observed": None if c.error else c.observed,
                    "tolerance": c.tolerance,
                    "relative": c.relative,
                    "passed": c.passed,
                    **({"error": c.error} if c.error else {}),
                }
                for c in self.checks
            ],
        }

    def render(self) -> str:
        """Human-readable scorecard; byte-identical across repeated runs."""
        lines = [f"verification level={self.level} seed={self.seed} dim={self.dim}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            error = f" error: {c.error}" if c.error else ""
            lines.append(
                f"{status} {c.name:<44} expected={c.expected:<22.16g} "
                f"observed={c.observed:<22.16g} tol={c.tolerance:.3g}{error}"
            )
        n_pass = sum(c.passed for c in self.checks)
        lines.append(f"{n_pass}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def render_timings(self) -> str:
        """Per-check wall times; meant for stderr, not for comparison."""
        lines = ["check timings (ms):"]
        for c in self.checks:
            lines.append(f"  {c.name:<44} {c.wall_time_ms:9.2f}")
        lines.append(f"  {'total':<44} {sum(c.wall_time_ms for c in self.checks):9.2f}")
        return "\n".join(lines)


def _ens(lam: float, mu: float, g: float) -> NoisyEnsemble:
    return NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=g)


def _scan_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    x, fx = golden_section_min(lambda u: -f(u), lo, hi, tol=1e-12)
    return x, -fx


# ---------------------------------------------------------------------------
# fast checks: closed forms against independent scalar routes
# ---------------------------------------------------------------------------


def _check_det_branch_join(seed: int, dim: int) -> Pair:
    worst = 0.0
    for lam, mu in _LAM_MU:
        book = photon_book(_ens(lam, mu, 1.0))
        s = book.total
        g = (s + 1.0) / book.n_c
        amplify = (s + 1.0) / (g * g * book.n_c * book.n_t_tilde)
        identity = 1.0 / ((g - 1.0) ** 2 * book.n_c + book.n_t_tilde)
        worst = max(worst, abs(amplify - identity))
    return 0.0, worst


def _check_prob_branch_join(seed: int, dim: int) -> Pair:
    worst = 0.0
    for lam, mu in _LAM_MU:
        book = photon_book(_ens(lam, mu, 1.0))
        s = book.total
        g = math.sqrt(s * (s + 1.0)) / book.n_c
        plateau = (s + 1.0) / (g * g * book.n_c * book.n_t_tilde)
        filtered = s / (s + g * g * book.n_c * book.n_t)
        worst = max(worst, abs(plateau - filtered))
    return 0.0, worst


def _check_attenuate_branch(seed: int, dim: int) -> tuple[Pair, Pair]:
    # the attenuating branch meets the identity one at S/N_C, and below it the
    # heralded optimum is no better (at S/N_C itself see _check_tangency_point)
    worst_join = worst_gap = 0.0
    for lam, mu in _LAM_MU:
        book = photon_book(_ens(lam, mu, 1.0))
        tangency = book.total / book.n_c
        attenuate = (lam + mu) / (lam + mu + tangency**2)
        identity = 1.0 / ((tangency - 1.0) ** 2 * book.n_c + book.n_t_tilde)
        worst_join = max(worst_join, abs(attenuate - identity))
        for g in (0.1, 0.5, 1.0, 0.5 * (1.0 + tangency)):
            ens = _ens(lam, mu, g)
            worst_gap = max(
                worst_gap, abs(formulas.prob_fidelity(ens) - formulas.det_fidelity(ens))
            )
    return (0.0, worst_join), (0.0, worst_gap)


def _check_det_prob_coincide(seed: int, dim: int) -> Pair:
    worst = 0.0
    for lam, mu in _LAM_MU:
        det_thr, _ = thresholds(_ens(lam, mu, 1.0))
        for g in (det_thr, 1.5 * det_thr, 3.0 * det_thr):
            ens = _ens(lam, mu, g)
            worst = max(
                worst, abs(formulas.prob_fidelity(ens) - formulas.det_fidelity(ens))
            )
    return 0.0, worst


def _check_advantage_window(seed: int, dim: int) -> Pair:
    min_gap = math.inf
    for lam, mu in _LAM_MU:
        ens1 = _ens(lam, mu, 1.0)
        det_thr, _ = thresholds(ens1)
        tangency = passive_filter_gain(ens1)
        for frac in _WINDOW_FRACTIONS:
            g = tangency + frac * (det_thr - tangency)
            ens = _ens(lam, mu, g)
            min_gap = min(
                min_gap, formulas.prob_fidelity(ens) - formulas.det_fidelity(ens)
            )
    return 0.0, max(0.0, _MARGIN_FLOOR - min_gap)


def _check_tangency_point(seed: int, dim: int) -> Pair:
    # the probabilistic advantage gap has a double root where the tuned
    # filter turns passive: g' = S/N_C, the left edge of the window
    worst = 0.0
    for lam, mu in _LAM_MU:
        ens = _ens(lam, mu, passive_filter_gain(_ens(lam, mu, 1.0)))
        worst = max(worst, abs(formulas.prob_fidelity(ens) - formulas.det_fidelity(ens)))
    return 0.0, worst


def _check_quantum_beats_classical(seed: int, dim: int) -> Pair:
    min_margin = math.inf
    for lam, mu in _LAM_MU:
        for g in (0.5, 0.9, 1.0, 1.4, 2.0, 3.0):
            ens = _ens(lam, mu, g)
            min_margin = min(min_margin, formulas.det_fidelity(ens) - formulas.cft(ens))
    return 0.0, max(0.0, _MARGIN_FLOOR - min_margin)


def _check_gaussian_noise_laws(seed: int, dim: int) -> Pair:
    worst = 0.0
    for nbar in (0.0, 0.5, 1.0, 3.0):
        state = DisplacedThermal(amp=0.7 + 0.2j, nbar=nbar)
        for r in (0.0, 0.3, 1.1):
            out = apply_gaussian(state, ChannelParam(ChannelKind.TWO_MODE_SQUEEZE, r))
            ch, sh2 = math.cosh(r), math.sinh(r) ** 2
            worst = max(worst, abs(out.nbar - (ch * ch * nbar + sh2)))
            worst = max(worst, abs(out.amp - ch * state.amp))
        for theta in (0.0, 0.6, 1.2):
            out = apply_gaussian(state, ChannelParam(ChannelKind.ATTENUATE, theta))
            c = math.cos(theta)
            worst = max(worst, abs(out.nbar - c * c * nbar))
            worst = max(worst, abs(out.amp - c * state.amp))
    return 0.0, worst


_SQUEEZE_SCAN = ((1.0, 1.0, 3.5), (0.5, 0.5, 2.5), (2.0, 2.0, 9.0))
_ATTEN_SCAN = ((1.0, 1.0, 0.7), (0.5, 0.5, 0.9), (2.0, 2.0, 0.4), (1.0, 0.5, 1.5))
_MP_SCAN = ((1.0, 1.0, 2.0), (0.5, 2.0, 0.8), (2.0, 0.5, 1.5))


def _check_squeezer_scan(seed: int, dim: int) -> tuple[Pair, Pair]:
    # one scan per point feeds both the attained value and the argmax
    worst_value = worst_arg = 0.0
    for lam, mu, g in _SQUEEZE_SCAN:
        ens = _ens(lam, mu, g)
        target = formulas.det_fidelity(ens)
        r_star = math.acosh(formulas.tune(ens).cosh_r)
        r_num, best = _scan_max(
            lambda r, e=ens: avg_fidelity_gaussian(
                e, ChannelParam(ChannelKind.TWO_MODE_SQUEEZE, r)
            ),
            0.0,
            2.0 * r_star + 1.0,
        )
        worst_value = max(worst_value, abs(best - target) / target)
        worst_arg = max(worst_arg, abs(math.cosh(r_num) - math.cosh(r_star)))
    return (0.0, worst_value), (0.0, worst_arg)


def _check_attenuator_scan(seed: int, dim: int) -> tuple[Pair, Pair]:
    worst_value = worst_arg = 0.0
    for lam, mu, g in _ATTEN_SCAN:
        ens = _ens(lam, mu, g)
        target = formulas.det_fidelity(ens)
        theta_num, best = _scan_max(
            lambda th, e=ens: avg_fidelity_gaussian(
                e, ChannelParam(ChannelKind.ATTENUATE, th)
            ),
            0.0,
            math.pi / 2.0,
        )
        worst_value = max(worst_value, abs(best - target) / target)
        worst_arg = max(worst_arg, abs(math.cos(theta_num) - formulas.tune(ens).cos_theta))
    return (0.0, worst_value), (0.0, worst_arg)


def _check_mp_scan(seed: int, dim: int) -> tuple[Pair, Pair]:
    worst_value = worst_arg = 0.0
    for lam, mu, g in _MP_SCAN:
        ens = _ens(lam, mu, g)
        target = formulas.cft(ens)
        z_num, best = _scan_max(
            lambda z, e=ens: avg_fidelity_gaussian(e, ChannelParam(ChannelKind.MEASURE_PREPARE, z)),
            1e-9,
            2.0 * g + 1.0,
        )
        worst_value = max(worst_value, abs(best - target) / target)
        worst_arg = max(worst_arg, abs(z_num - formulas.tune(ens).z))
    return (0.0, worst_value), (0.0, worst_arg)


def _check_photon_det_worked(seed: int, dim: int) -> Pair:
    task = MultimodeTask(lam=0.5, mu=2.0, g=2.0)
    _, n_single = formulas.photon_output_det(task)
    return 47.0 / 49.0, n_single


def _check_photon_prob_passive(seed: int, dim: int) -> Pair:
    worst = 0.0
    for lam, mu in _LAM_MU:
        task = MultimodeTask(lam=lam, mu=mu, g=1.2)
        n_t_out, _, _ = formulas.photon_output_prob(task, 1.0)
        worst = max(worst, abs(n_t_out - 1.0 / mu))
    return 0.0, worst


def _check_circulant_dense(seed: int, dim: int) -> Pair:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        triple = bounds.CirculantTriple(
            diag=float(rng.uniform(4.0, 8.0)),
            sup=float(rng.uniform(0.25, 1.5)),
            sub=float(rng.uniform(0.25, 1.5)),
            size=size,
        )
        prod = complex(np.prod(bounds.circulant_eigs(triple)))
        det = float(np.linalg.det(bounds.circulant_dense(triple)))
        worst = max(worst, abs(prod.real - det) / max(abs(det), 1e-300))
        worst = max(worst, abs(prod.imag) / max(abs(det), 1e-300))
    return 0.0, worst


def _check_root_worked_point(seed: int, dim: int) -> Pair:
    w = bounds.coeffs(_ens(1.0, 1.0, 1.0), 0.5)
    return 2.25, w.y_plus


def _check_det_bound_minimum(seed: int, dim: int) -> tuple[Pair, Pair]:
    # one minimisation per point feeds both the minimiser and the minimum;
    # the gains cover all three branches of the deterministic optimum
    worst_kappa = worst_value = 0.0
    for lam, mu in _LAM_MU:
        ens1 = _ens(lam, mu, 1.0)
        det_thr, _ = thresholds(ens1)
        tangency = passive_filter_gain(ens1)
        gains = (0.5, 0.5 * (1.0 + tangency), tangency, 0.5 * (tangency + det_thr),
                 det_thr, det_thr + 0.5, 2.0 * det_thr)
        for g in gains:
            ens = _ens(lam, mu, g)
            k_num, f_num = bounds.minimize_det_bound(ens)
            worst_kappa = max(worst_kappa, abs(k_num - bounds.kappa_star(ens)))
            worst_value = max(worst_value, abs(f_num - formulas.det_fidelity(ens)))
    return (0.0, worst_kappa), (0.0, worst_value)


def _check_bound_edge_prob(seed: int, dim: int) -> Pair:
    worst = 0.0
    for lam, mu in _LAM_MU:
        ens1 = _ens(lam, mu, 1.0)
        _, prob_thr = thresholds(ens1)
        for g in (1.1, 0.6 * prob_thr + 0.4, prob_thr, prob_thr + 1.0):
            ens = _ens(lam, mu, g)
            worst = max(
                worst,
                abs(bounds.prob_via_kappa_prime(ens) - formulas.prob_fidelity(ens)),
            )
    return 0.0, worst


def _check_det_limit_finite_product(seed: int, dim: int) -> Pair:
    ens = _ens(1.0, 1.0, 2.5)
    w = bounds.coeffs(ens, 0.25)
    limit = bounds.det_limit(w)
    finite = bounds.det_limit_finite_p(w, 64)
    return 0.0, abs(finite - limit) / limit


def _check_deficit_terms_worked(seed: int, dim: int) -> Pair:
    _, e2 = bounds.amp_convergence_terms(_ens(1.0, 1.0, 1.5), 0.75, 10)
    return 0.375**11, e2


def _check_filter_pole_rejected(seed: int, dim: int) -> Pair:
    try:
        bounds.amp_convergence_terms(_ens(1.0, 1.0, 2.5), 1.5, 10)
    except NonConvergentError:
        return 1.0, 1.0
    return 1.0, 0.0


def _check_fock_identity(seed: int, dim: int) -> Pair:
    ens = _ens(1.0, 1.0, 2.0)
    value = fock.avg_fidelity_numeric(
        ens, fock.ShiftKraus.identity(dim), dim=dim, radial_nodes=80
    )
    return 1.0 / 3.0, value


def _check_fock_amplifier_noise(seed: int, dim: int) -> Pair:
    cutoff = 24
    vac = np.zeros((cutoff, cutoff), dtype=complex)
    vac[0, 0] = 1.0
    out = fock.apply_two_mode_squeezer(fock.FockDensity(cutoff, vac), 0.5, dim_anc=48)
    n_mean = float(np.real(np.diag(out.mat) @ np.arange(out.dim)))
    return math.sinh(0.5) ** 2, n_mean


def _check_fock_attenuator_amp(seed: int, dim: int) -> Pair:
    dim = max(dim, 48)
    theta, amp = 0.6, 1.2
    ket = fock.coherent_ket(amp, dim)
    out = fock.apply_attenuator(fock.FockDensity(dim, np.outer(ket, ket.conj())), theta)
    target = fock.coherent_ket(math.cos(theta) * amp, dim)
    overlap = float(np.real(target.conj() @ (out.mat @ target)))
    return 1.0, overlap


def _check_fock_filter_prob(seed: int, dim: int) -> Pair:
    ens = _ens(1.0, 1.0, 1.5)
    y = formulas.tune(ens).y
    value = fock.avg_fidelity_numeric(
        ens,
        fock.ShiftKraus.filter(fock.FilterSpec(k_cut=30, y=y), dim),
        dim=dim,
        radial_nodes=80,
        probabilistic=True,
    )
    return formulas.prob_fidelity(ens), value


FAST_CHECKS = (
    (_check_det_branch_join, ("det_branches_join_at_threshold", 1e-12)),
    (_check_prob_branch_join, ("prob_branches_join_at_plateau", 1e-12)),
    (
        _check_attenuate_branch,
        ("det_branches_join_at_passive_filter_gain", 1e-12),
        ("det_prob_coincide_up_to_passive_filter_gain", 1e-12),
    ),
    (_check_det_prob_coincide, ("det_prob_coincide_past_threshold", 1e-12)),
    (_check_advantage_window, ("prob_beats_det_inside_window_shortfall", 0.0)),
    (_check_tangency_point, ("prob_det_tangent_at_passive_filter_gain", 1e-13)),
    (_check_quantum_beats_classical, ("quantum_beats_classical_shortfall", 0.0)),
    (
        lambda seed, dim: (3.0 / 11.0, formulas.cft(_ens(1.0, 1.0, 2.0))),
        ("cft_worked_point_thermal", 1e-13),
    ),
    (
        lambda seed, dim: (1.0 / 3.0, formulas.det_fidelity(_ens(1.0, 1.0, 2.0))),
        ("det_worked_point_identity_branch", 1e-13),
    ),
    (_check_gaussian_noise_laws, ("gaussian_channel_noise_laws", 1e-12)),
    (
        _check_squeezer_scan,
        ("squeezer_scan_attains_det", 1e-9),
        ("squeezer_scan_argmax_matches_tuning", 1e-6),
    ),
    (
        _check_attenuator_scan,
        ("attenuator_scan_attains_det", 1e-9),
        ("attenuator_scan_argmax_matches_tuning", 1e-6),
    ),
    (
        _check_mp_scan,
        ("heterodyne_scan_attains_cft", 1e-9),
        ("heterodyne_scan_argmax_matches_tuning", 1e-6),
    ),
    (_check_photon_det_worked, ("photon_output_det_worked_ratio", 1e-12)),
    (_check_photon_prob_passive, ("photon_output_prob_passive_filter", 1e-12)),
    (_check_circulant_dense, ("circulant_eigs_match_dense_det", 1e-10)),
    (_check_root_worked_point, ("root_worked_point_y_plus", 1e-12)),
    (
        _check_det_bound_minimum,
        ("kappa_star_matches_search", 1e-8),
        ("minimized_bound_matches_det", 1e-12),
    ),
    (_check_bound_edge_prob, ("bound_edge_matches_prob", 1e-12)),
    (_check_det_limit_finite_product, ("det_limit_matches_finite_product", 1e-3)),
    (_check_deficit_terms_worked, ("filter_deficit_terms_worked_point", 1e-15)),
    (_check_filter_pole_rejected, ("filter_pole_rejected", 0.0)),
    (_check_fock_identity, ("fock_identity_matches_closed_form", 1e-6)),
    (_check_fock_amplifier_noise, ("fock_amplifier_adds_quantum_noise", 1e-10)),
    (_check_fock_attenuator_amp, ("fock_attenuator_scales_amplitude", 1e-9)),
    (_check_fock_filter_prob, ("fock_filter_approaches_prob", 1e-5)),
)


# ---------------------------------------------------------------------------
# full checks: oracle grids and convergence envelopes
# ---------------------------------------------------------------------------


def _check_oracle_squeezer(seed: int, dim: int) -> Pair:
    worst = 0.0
    for n_c in _ORACLE_N_C:
        for n_t in _ORACLE_N_T:
            det_thr, _ = thresholds(_ens(1.0 / n_c, 1.0 / n_t, 1.0))
            for g in (det_thr, det_thr + 0.5, 2.0 * det_thr):
                ens = _ens(1.0 / n_c, 1.0 / n_t, g)
                r = math.acosh(formulas.tune(ens).cosh_r)
                value = fock.avg_fidelity_numeric(
                    ens,
                    fock.ShiftKraus.squeezer(r, 64, dim_anc=64),
                    dim=64,
                    radial_nodes=80,
                )
                worst = max(worst, abs(value - formulas.det_fidelity(ens)))
    return 0.0, worst


def _check_oracle_identity(seed: int, dim: int) -> Pair:
    worst = 0.0
    for n_c in _ORACLE_N_C:
        for n_t in _ORACLE_N_T:
            for g in (1.0, 1.2):
                ens = _ens(1.0 / n_c, 1.0 / n_t, g)
                value = fock.avg_fidelity_numeric(
                    ens, fock.ShiftKraus.identity(64), dim=64, radial_nodes=80
                )
                closed = 1.0 / ((g - 1.0) ** 2 * n_c + n_t + 1.0)
                worst = max(worst, abs(value - closed))
    return 0.0, worst


def _check_oracle_attenuator(seed: int, dim: int) -> Pair:
    # inside (1, S/N_C) the tuned beamsplitter attains the deterministic optimum
    ens = _ens(1.0, 0.5, 1.5)
    theta = math.acos(formulas.tune(ens).cos_theta)
    value = fock.avg_fidelity_numeric(
        ens, fock.ShiftKraus.attenuator(theta, 64), dim=64, radial_nodes=80
    )
    return formulas.det_fidelity(ens), value


def _check_filter_sweep(seed: int, dim: int) -> tuple[Pair, Pair, Pair]:
    ens = _ens(1.0, 1.0, 1.5)
    y = formulas.tune(ens).y
    cuts = [5, 10, 20, 40]
    cutoff = max(dim, 64)
    values = [
        fock.avg_fidelity_numeric(
            ens,
            fock.ShiftKraus.filter(fock.FilterSpec(k_cut=k, y=y), cutoff),
            dim=cutoff,
            radial_nodes=96,
            probabilistic=True,
        )
        for k in cuts
    ]
    target = formulas.prob_fidelity(ens)
    monotone = 0.0
    for lo, hi in zip(values, values[1:]):
        monotone = max(monotone, lo - hi)
    envelope = 0.0
    for k, val in zip(cuts, values):
        bound = bounds.filter_deficit_bound(ens, y, k)
        envelope = max(envelope, abs(target - val) - bound - 1e-6)
    return (0.0, monotone), (target, values[-1]), (0.0, max(0.0, envelope))


def _check_oracle_heterodyne(seed: int, dim: int) -> Pair:
    grid = fock.QuadratureGrid.polar(radial_nodes=96, angular_nodes=64)
    worst = 0.0
    for lam, mu, g in ((1.0, 1e12, 1.0), (1.0, 1.0, 2.0)):
        ens = _ens(lam, mu, g)
        z = formulas.tune(ens).z
        value = fock.avg_fidelity_numeric(
            ens,
            fock.Heterodyne(z, grid),
            dim=max(dim, 64),
            radial_nodes=80,
        )
        worst = max(worst, abs(value - formulas.cft(ens)))
    return 0.0, worst


def _check_finite_p_trend(seed: int, dim: int) -> tuple[Pair, Pair]:
    rungs = (4, 8, 16, 32, 64)
    monotone = 0.0
    envelope = 0.0
    for lam, mu in ((1.0, 1.0), (2.0, 4.0), (0.5, 1.0)):
        ens1 = _ens(lam, mu, 1.0)
        det_thr, _ = thresholds(ens1)
        for g, env in ((det_thr, 1e-3), (det_thr + 0.5, 1e-3), (2.0 * det_thr, 2e-2)):
            ens = _ens(lam, mu, g)
            kappa = 0.5 * bounds.kappa_prime(ens)
            w = bounds.coeffs(ens, kappa)
            limit = bounds.det_limit(w)
            devs = [
                abs(bounds.det_limit_finite_p(w, p) - limit) / limit for p in rungs
            ]
            for lo, hi in zip(devs, devs[1:]):
                monotone = max(monotone, hi - lo - 1e-12)
            envelope = max(envelope, devs[-1] - env)
    return (0.0, max(0.0, monotone)), (0.0, max(0.0, envelope))


def _check_cft_norm_points(seed: int, dim: int) -> Pair:
    worst = 0.0
    for lam, mu, g in ((1.0, 1.0, 1.5), (0.5, 2.0, 1.5), (1.0, 0.5, 2.0)):
        ens = _ens(lam, mu, g)
        numeric, closed = bounds.cft_norm_check(ens)
        worst = max(worst, abs(numeric - closed) / closed)
    return 0.0, worst


def _check_gaussian_vs_fock(seed: int, dim: int) -> Pair:
    worst = 0.0
    pairs = (
        (_ens(1.0, 1.0, 2.0), ChannelParam(ChannelKind.TWO_MODE_SQUEEZE, 0.6)),
        (_ens(0.5, 2.0, 1.3), ChannelParam(ChannelKind.TWO_MODE_SQUEEZE, 0.3)),
        (_ens(1.0, 0.5, 0.8), ChannelParam(ChannelKind.ATTENUATE, 0.5)),
    )
    cutoff = max(dim, 64)
    for ens, ch in pairs:
        closed = avg_fidelity_gaussian(ens, ch)
        if ch.kind is ChannelKind.TWO_MODE_SQUEEZE:
            channel = fock.ShiftKraus.squeezer(ch.value, cutoff, dim_anc=64)
        else:
            channel = fock.ShiftKraus.attenuator(ch.value, cutoff)
        value = fock.avg_fidelity_numeric(ens, channel, dim=cutoff, radial_nodes=80)
        worst = max(worst, abs(value - closed))
    return 0.0, worst


def _check_angular_reduction(seed: int, dim: int) -> Pair:
    ens = _ens(1.0, 1.0, 1.3)
    identity = fock.ShiftKraus.identity(dim)
    radial = fock.avg_fidelity_numeric(ens, identity, dim=dim, radial_nodes=64)
    polar = fock.avg_fidelity_numeric(
        ens, identity, dim=dim, radial_nodes=64, angular_nodes=12
    )
    return radial, polar


def _check_filtered_nbar_fit(seed: int, dim: int) -> Pair:
    nbar, y, k_cut = 1.0, 1.25, 40
    diag = np.diag(fock._thermal_diag(nbar, max(dim, 64))).astype(complex)
    rho = fock.FockDensity(max(dim, 64), diag)
    filtered = fock.apply_filter(rho, fock.FilterSpec(k_cut=k_cut, y=y))
    fitted = fock.fit_thermal_nbar(filtered)
    mu = 1.0 / nbar
    target = nbar * y * y * mu / (1.0 + mu - y * y)
    return target, fitted


FULL_CHECKS = (
    (_check_oracle_squeezer, ("oracle_squeezer_grid_max_dev", 1e-4)),
    (_check_oracle_identity, ("oracle_identity_grid_max_dev", 1e-6)),
    (_check_oracle_attenuator, ("oracle_attenuator_attains_det", 1e-6)),
    (
        _check_filter_sweep,
        ("oracle_filter_sweep_monotone_shortfall", 0.0),
        ("oracle_filter_terminal_value", 1e-3),
        ("oracle_filter_deficit_within_bound_shortfall", 0.0),
    ),
    (_check_oracle_heterodyne, ("oracle_heterodyne_worked_points", 1e-4)),
    (
        _check_finite_p_trend,
        ("finite_p_deviation_monotone_shortfall", 0.0),
        ("finite_p_terminal_envelope_shortfall", 0.0),
    ),
    (_check_cft_norm_points, ("cft_norm_check_points", 1e-3)),
    (_check_gaussian_vs_fock, ("gaussian_matches_fock_channels", 1e-5)),
    (_check_angular_reduction, ("angular_grid_agrees_with_radial", 1e-8)),
    (_check_filtered_nbar_fit, ("filtered_thermal_nbar_fit", 1e-3)),
)


def run_suite(level: str = "fast", seed: int = 7, dim: int = 64) -> VerifyReport:
    """Run the verification suite and return its report.

    level : 'fast' runs the closed-form cross-checks and compact Fock
            smoke tests; 'full' appends the oracle grids, the filter and
            determinant convergence envelopes, and the norm-check points.
    seed  : seeds the random-triple spectral check (and nothing else), so
            a fixed seed makes the whole report reproducible bit for bit.
    dim   : Fock cutoff for the compact numeric checks; the oracle grids
            pin their own cutoffs and ignore it.  Must be >= 32.
    """
    if level not in ("fast", "full"):
        raise DomainError(f"verification level must be 'fast' or 'full', got {level!r}")
    if dim < 32:
        raise DomainError(f"verification needs dim >= 32, got {dim!r}")
    report = VerifyReport(level=level, seed=int(seed), dim=int(dim))
    table = FAST_CHECKS + FULL_CHECKS if level == "full" else FAST_CHECKS
    for fn, *results in table:
        t0 = time.perf_counter()
        error = None
        try:
            out = fn(seed, dim)
            pairs = [(float(e), float(o)) for e, o in ((out,) if len(results) == 1 else out)]
        except Exception as exc:
            # a crashed check is a failed check, not a crashed suite; NaN never
            # satisfies the tolerance comparison below
            error = f"{type(exc).__name__}: {exc}"
            pairs = [(0.0, math.nan)] * len(results)
        ms = (time.perf_counter() - t0) * 1e3
        for (name, tolerance), (expected, observed) in zip(results, pairs, strict=True):
            passed = bool(abs(expected - observed) <= tolerance)
            report.checks.append(
                CheckResult(name, expected, observed, tolerance, False, passed, ms, error)
            )
            ms = 0.0  # a grouped check's time is charged to its first result
    return report
