"""Self-verification suite behind the ``verify`` subcommand.

Every closed form in the package is cross-checked against an independent
route: worked values frozen from hand derivations, golden-section scans of
one-parameter protocols, the determinant factorisation at seeded bound
points, and (at the ``full`` level) the truncated Fock-space oracle grids.

The checks live in two tables, ``FAST_CHECKS`` and ``FULL_CHECKS``; the
``full`` level runs both.  An entry is a function of the run's
``(seed, dim)`` followed by the ``(name, tolerance)`` of each result it
reports: one ``(expected, observed)`` pair, or for a grouped entry one pair
per name from a single shared computation.  ``run_suite`` runs a table in
order; a result passes when |expected - observed| <= tolerance.  Results
ending in ``_shortfall`` are one-sided: they report how far a required
margin was undershot, which must be exactly zero.

Most closed-form entries are one reducer (``_gap``, ``_join``,
``_shortfall``) over ``_grid``, the ensembles at each (lambda', mu) of
``_LAM_MU`` and at gains read off its landmarks; the oracle points fold
through ``_oracle_gap``.  Every worst-case fold is a numpy reduction, which
keeps a NaN where Python's ``max(0.0, nan)`` would drop it.

A function that raises fails each of its results and records the exception
in ``CheckResult.error``; a non-finite expected or observed value fails its
result too, named in ``error`` and written to JSON as null.  Wall times (a
group's charged to its first result) are kept out of ``render`` and
``to_json_dict``, so repeated runs with the same arguments produce
byte-identical reports.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import bounds, fock, formulas
from .errors import DomainError, NonConvergentError
from .gaussian import FilterSpec, GaussianChannel, avg_fidelity_gaussian
from .params import MultimodeTask, NoisyEnsemble, _landmarks, _require_int
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
#: relative to each point's deterministic threshold.  (lambda', mu) = (1, 1)
#: comes first, where the fast level's last check leaves its prior stack
_ORACLE_N_C = (1.0, 0.5, 2.0)
_ORACLE_N_T = (1.0, 0.25, 0.5)

#: Fock cutoff of the oracle grids, and the least one of the other oracle checks
_ORACLE_DIM = 64

Pair = tuple[float, float]
Rule = Callable[[NoisyEnsemble], float]


class CheckResult(NamedTuple):
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


class VerifyReport(NamedTuple):
    """Outcome of a verification run at one level."""

    level: str
    seed: int
    dim: int
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        """JSON payload; deliberately excludes timings for reproducibility.

        A non-finite ``expected`` or ``observed`` (a crashed check's among
        them) is written as null, so the payload holds no non-standard
        NaN or Infinity token.
        """
        return {
            "level": self.level,
            "seed": self.seed,
            "dim": self.dim,
            "all_passed": self.all_passed,
            "checks": [
                {
                    "name": c.name,
                    "expected": _finite_or_none(c.expected),
                    "observed": _finite_or_none(c.observed),
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


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _ens(lam: float, mu: float, g: float) -> NoisyEnsemble:
    return NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=g)


# ---------------------------------------------------------------------------
# fast checks: closed forms against independent scalar routes
# ---------------------------------------------------------------------------


def _grid(gains: Callable[[float, float, float], tuple]) -> list[NoisyEnsemble]:
    """The ensembles at every (lambda', mu) of ``_LAM_MU``, at each gain of
    ``gains(s, p, a)`` of the landmarks there: s = S/N_C, p the filter
    plateau, a the amplify threshold."""
    return [_ens(lam, mu, g) for lam, mu in _LAM_MU for g in gains(*_landmarks(lam, mu))]


def _gap(lhs: Rule, rhs: Rule, gains: Callable) -> Pair:
    """(0, max |lhs - rhs|) over ``_grid(gains)``."""
    return 0.0, np.max([abs(lhs(e) - rhs(e)) for e in _grid(gains)])


def _shortfall(lhs: Rule, rhs: Rule, gains: Callable) -> Pair:
    """(0, how far min (lhs - rhs) over ``_grid(gains)`` falls short of
    ``_MARGIN_FLOOR``), which is 0 when lhs beats rhs by the floor everywhere."""
    return 0.0, np.maximum(0.0, _MARGIN_FLOOR - np.min([lhs(e) - rhs(e) for e in _grid(gains)]))


def _join(f: Rule, gains: Callable) -> Pair:
    """``_gap`` of f one float below each gain against one float above it,
    where two neighbouring branches of f meet."""
    def nudged(toward: float) -> Rule:
        return lambda e: f(_ens(e.lambda_prime, e.mu, math.nextafter(e.g_prime, toward)))
    return _gap(nudged(0.0), nudged(math.inf), gains)


def _check_gaussian_noise_laws(seed: int, dim: int) -> Pair:
    # the Schrodinger law n -> s^2 (n + nbar + 1) - 1 of each channel's (s, nbar)
    devs = []
    for n in (0.0, 0.5, 1.0, 3.0):
        for r in (0.0, 0.3, 1.1):
            s, nbar = GaussianChannel.amplifier(r)
            ch, sh = math.cosh(r), math.sinh(r)
            devs += [abs(s * s * (n + nbar + 1.0) - 1.0 - (ch * ch * n + sh * sh)), abs(s - ch)]
        for theta in (0.0, 0.6, 1.2):
            s, nbar = GaussianChannel.attenuator(theta)
            c = math.cos(theta)
            devs += [abs(s * s * (n + nbar + 1.0) - 1.0 - c * c * n), abs(s - c)]
    return 0.0, np.max(devs)


_SQUEEZE_SCAN = ((1.0, 1.0, 3.5), (0.5, 0.5, 2.5), (2.0, 2.0, 9.0))
_ATTEN_SCAN = ((1.0, 1.0, 0.7), (0.5, 0.5, 0.9), (2.0, 2.0, 0.4), (1.0, 0.5, 1.5))
_MP_SCAN = ((1.0, 1.0, 2.0), (0.5, 2.0, 0.8), (2.0, 0.5, 1.5))


def _scan_check(channel: Callable[[float], GaussianChannel], points: tuple, optimum: Rule,
                interval: Callable, setting: Callable, tuned: Callable) -> tuple[Pair, Pair]:
    """One golden-section scan of the Gaussian protocol ``channel(x)`` over ``interval(ens)``
    per point: its maximum against ``optimum`` (relative), ``setting`` at its argmax
    against ``tuned``."""
    devs = []
    for lam, mu, g in points:
        ens = _ens(lam, mu, g)
        target = optimum(ens)
        x_num, neg_best = golden_section_min(
            lambda x, e=ens: -avg_fidelity_gaussian(e, channel(x)), *interval(ens),
            tol=1e-12)
        devs.append((abs(-neg_best - target) / target, abs(setting(x_num) - tuned(ens))))
    value, arg = np.max(devs, axis=0)
    return (0.0, value), (0.0, arg)


def _check_squeezer_scan(seed: int, dim: int) -> tuple[Pair, Pair]:
    return _scan_check(GaussianChannel.amplifier, _SQUEEZE_SCAN, formulas.det_fidelity,
                       lambda e: (0.0, 2.0 * math.acosh(formulas.tune(e).cosh_r) + 1.0),
                       math.cosh, lambda e: math.cosh(math.acosh(formulas.tune(e).cosh_r)))


def _check_attenuator_scan(seed: int, dim: int) -> tuple[Pair, Pair]:
    return _scan_check(GaussianChannel.attenuator, _ATTEN_SCAN, formulas.det_fidelity,
                       lambda e: (0.0, math.pi / 2.0), math.cos,
                       lambda e: formulas.tune(e).cos_theta)


def _check_mp_scan(seed: int, dim: int) -> tuple[Pair, Pair]:
    return _scan_check(GaussianChannel.heterodyne, _MP_SCAN, formulas.cft,
                       lambda e: (1e-9, 2.0 * e.g_prime + 1.0), lambda z: z,
                       lambda e: formulas.tune(e).z)


def _check_photon_det_worked(seed: int, dim: int) -> Pair:
    task = MultimodeTask(lam=0.5, mu=2.0, g=2.0)
    _, n_single = formulas.photon_output_det(task)
    return 47.0 / 49.0, n_single


def _circulant_draws(seed: int) -> list[tuple[int, float, float, float, float]]:
    """100 rows (size, lambda', mu, g', kappa/kappa'), drawn in that order from
    random() alone: the one stream Python keeps the same for a seed across
    versions."""
    u = random.Random(seed).random
    return [(2 + int(7 * u()), 0.25 + 3.75 * u(), 0.25 + 3.75 * u(), 0.25 + 3.75 * u(),
             0.05 + 0.9 * u()) for _ in range(100)]


def _check_circulant_dense(seed: int, dim: int) -> Pair:
    # the paper's factorisation of det M_p through the roots, at the seeded
    # bound points, against the dense determinant one batch per size
    batches = {}
    for size, lam, mu, g, frac in _circulant_draws(seed):
        ens = _ens(lam, mu, g)
        batches.setdefault(size, []).append(bounds.coeffs(ens, frac * bounds.kappa_prime(ens)))
    devs = []
    for size, ws in batches.items():
        roots = np.array([bounds.det_limit_finite_p(w, size) ** size for w in ws])
        a, b, c = np.array([(w.a, w.b, w.c) for w in ws]).T
        det = np.linalg.det(bounds.circulant_dense(a, b, c, size))
        devs.append(np.abs(roots - det) / np.abs(det))
    return 0.0, np.max(np.concatenate(devs))


def _check_root_worked_point(seed: int, dim: int) -> Pair:
    w = bounds.coeffs(_ens(1.0, 1.0, 1.0), 0.5)
    return 2.25, w.y_plus


def _det_bound_gains(s: float, p: float, a: float) -> tuple[float, ...]:
    """Gains of the det-bound minimum check: all three branches of the
    deterministic optimum."""
    return 0.5, 0.5 * (1.0 + s), s, 0.5 * (s + a), a, a + 0.5, 2.0 * a


def _check_det_bound_minimum(seed: int, dim: int) -> tuple[Pair, Pair]:
    # one minimisation per point feeds both the minimiser and the minimum
    devs = []
    for ens in _grid(_det_bound_gains):
        k_num, f_num = bounds.minimize_det_bound(ens)
        devs.append((abs(k_num - bounds.kappa_star(ens)), abs(f_num - formulas.det_fidelity(ens))))
    kappa, value = np.max(devs, axis=0)
    return (0.0, kappa), (0.0, value)


def _check_det_limit_finite_product(seed: int, dim: int) -> Pair:
    ens = _ens(1.0, 1.0, 2.5)
    w = bounds.coeffs(ens, 0.25)
    limit = bounds.det_limit(w)
    finite = bounds.det_limit_finite_p(w, 64)
    return 0.0, abs(finite - limit) / limit


def _check_deficit_terms_worked(seed: int, dim: int) -> Pair:
    _, e2 = bounds.amp_convergence_terms(_ens(1.0, 1.0, 1.5), FilterSpec(10, 0.75))
    return 0.375**11, e2


def _check_filter_pole_rejected(seed: int, dim: int) -> Pair:
    try:
        bounds.amp_convergence_terms(_ens(1.0, 1.0, 2.5), FilterSpec(10, 1.5))
    except NonConvergentError:
        return 1.0, 1.0
    return 1.0, 0.0


def _check_fock_identity(seed: int, dim: int) -> Pair:
    # the cutoff moves this score by 1.25e-6 at 32 levels, past its tolerance, and 2e-9 at 48
    dim = max(dim, 48)
    ens = _ens(1.0, 1.0, 2.0)
    return 1.0 / 3.0, fock.avg_fidelity_numeric(ens, GaussianChannel.identity(), dim=dim)


def _check_fock_amplifier_noise(seed: int, dim: int) -> Pair:
    # amplified vacuum leaves k photons with probability W[0, k]^2
    w = fock._squeezer_weights(0.5, 1, 48)[0]
    return math.sinh(0.5) * math.sinh(0.5), float((w * w) @ np.arange(w.size))


def _check_fock_attenuator_amp(seed: int, dim: int) -> Pair:
    # |1.2><1.2| scored as a one-state stack against its attenuated amplitude
    ket = fock.coherent_ket(1.2, max(dim, 48))
    fid, _ = fock._score(GaussianChannel.attenuator(0.6), np.outer(ket, ket)[None],
                         np.array([math.cos(0.6) * 1.2]))
    return 1.0, float(fid[0])


def _check_fock_filter_prob(seed: int, dim: int) -> Pair:
    ens = _ens(1.0, 1.0, 1.5)
    y = formulas.tune(ens).y
    value = fock.avg_fidelity_numeric(ens, FilterSpec(k_cut=30, y=y), dim=dim)
    return formulas.prob_fidelity(ens), value


# entries look functions up when they run, so a patched formulas function is checked
FAST_CHECKS = (
    (lambda *_: _join(formulas.det_fidelity, lambda s, p, a: (a,)),
     ("det_branches_join_at_threshold", 1e-12)),
    (lambda *_: _join(formulas.prob_fidelity, lambda s, p, a: (p,)),
     ("prob_branches_join_at_plateau", 1e-12)),
    # the attenuating branch meets the identity one at S/N_C, and below it the
    # heralded optimum is no better (at S/N_C itself see the tangency entry)
    (lambda *_: _join(formulas.det_fidelity, lambda s, p, a: (s,)),
     ("det_branches_join_at_passive_filter_gain", 1e-12)),
    (lambda *_: _gap(formulas.prob_fidelity, formulas.det_fidelity,
                     lambda s, p, a: (0.1, 0.5, 1.0, 0.5 * (1.0 + s))),
     ("det_prob_coincide_up_to_passive_filter_gain", 1e-12)),
    (lambda *_: _gap(formulas.prob_fidelity, formulas.det_fidelity,
                     lambda s, p, a: (a, 1.5 * a, 3.0 * a)),
     ("det_prob_coincide_past_threshold", 1e-12)),
    (lambda *_: _shortfall(formulas.prob_fidelity, formulas.det_fidelity,
                           lambda s, p, a: [s + f * (a - s) for f in _WINDOW_FRACTIONS]),
     ("prob_beats_det_inside_window_shortfall", 0.0)),
    # the probabilistic advantage gap has a double root where the tuned
    # filter turns passive: g' = S/N_C, the left edge of the window
    (lambda *_: _gap(formulas.prob_fidelity, formulas.det_fidelity, lambda s, p, a: (s,)),
     ("prob_det_tangent_at_passive_filter_gain", 1e-13)),
    (lambda *_: _shortfall(formulas.det_fidelity, formulas.cft,
                           lambda *_: (0.5, 0.9, 1.0, 1.4, 2.0, 3.0)),
     ("quantum_beats_classical_shortfall", 0.0)),
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
    (lambda *_: _gap(lambda e: formulas.photon_output_prob(
        MultimodeTask(e.lambda_prime, e.mu, e.g_prime), 1.0)[0], lambda e: 1.0 / e.mu,
        lambda *_: (1.2,)),
     ("photon_output_prob_passive_filter", 1e-12)),
    (_check_circulant_dense, ("circulant_eigs_match_dense_det", 1e-10)),
    (_check_root_worked_point, ("root_worked_point_y_plus", 1e-12)),
    (
        _check_det_bound_minimum,
        ("kappa_star_matches_search", 1e-8),
        ("minimized_bound_matches_det", 1e-12),
    ),
    (lambda *_: _gap(bounds.prob_via_kappa_prime, formulas.prob_fidelity,
                     lambda s, p, a: (1.1, 0.6 * p + 0.4, p, p + 1.0)),
     ("bound_edge_matches_prob", 1e-12)),
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


def _oracle_gap(points: Iterable, dim: int) -> Pair:
    """(0, max |avg_fidelity_numeric - closed|) over (ensemble, channel,
    closed) points, at cutoff dim on the oracle's default radial rule."""
    return 0.0, np.max([
        abs(fock.avg_fidelity_numeric(ens, channel, dim=dim) - closed)
        for ens, channel, closed in points
    ])


def _check_oracle_grid(seed: int, dim: int) -> tuple[Pair, Pair]:
    # the tuned squeezer and the identity, scored on the same prior states
    # (fock.prior_states keeps them between consecutive calls)
    squeezer, identity, unit = [], [], GaussianChannel.identity()
    for n_c in _ORACLE_N_C:
        for n_t in _ORACLE_N_T:
            lam, mu = 1.0 / n_c, 1.0 / n_t
            a = _landmarks(lam, mu)[2]
            amplified = [_ens(lam, mu, g) for g in (a, a + 0.5, 2.0 * a)]
            squeezer.append(_oracle_gap(
                ((e, GaussianChannel.amplifier(math.acosh(formulas.tune(e).cosh_r)),
                  formulas.det_fidelity(e)) for e in amplified), _ORACLE_DIM)[1])
            unamplified = [_ens(lam, mu, 1.0), _ens(lam, mu, 1.2)]
            identity.append(_oracle_gap(
                ((e, unit, avg_fidelity_gaussian(e, unit)) for e in unamplified), _ORACLE_DIM)[1])
    return (0.0, np.max(squeezer)), (0.0, np.max(identity))


def _check_oracle_attenuator(seed: int, dim: int) -> Pair:
    # inside (1, S/N_C) the tuned beamsplitter attains the deterministic optimum
    ens = _ens(1.0, 0.5, 1.5)
    channel = GaussianChannel.attenuator(math.acos(formulas.tune(ens).cos_theta))
    return formulas.det_fidelity(ens), fock.avg_fidelity_numeric(ens, channel, dim=_ORACLE_DIM)


def _check_filter_sweep(seed: int, dim: int) -> tuple[Pair, Pair, Pair]:
    ens = _ens(1.0, 1.0, 1.5)
    y = formulas.tune(ens).y
    specs = [FilterSpec(k_cut=k, y=y) for k in (5, 10, 20, 40)]
    cutoff = max(dim, _ORACLE_DIM)
    values = [fock.avg_fidelity_numeric(ens, spec, dim=cutoff) for spec in specs]
    target = formulas.prob_fidelity(ens)
    monotone = np.max([0.0] + [lo - hi for lo, hi in zip(values, values[1:])])
    envelope = np.max([0.0] + [abs(target - val) - bounds.filter_deficit_bound(ens, spec) - 1e-6
                               for spec, val in zip(specs, values)])
    return (0.0, monotone), (target, values[-1]), (0.0, envelope)


def _check_oracle_heterodyne(seed: int, dim: int) -> Pair:
    # (1, 1) first, on the stack the filter sweep leaves
    points = ((ens, GaussianChannel.heterodyne(formulas.tune(ens).z), formulas.cft(ens))
              for ens in (_ens(1.0, 1.0, 2.0), _ens(1.0, 1e12, 1.0)))
    return _oracle_gap(points, max(dim, _ORACLE_DIM))


def _check_finite_p_trend(seed: int, dim: int) -> tuple[Pair, Pair]:
    rungs = (4, 8, 16, 32, 64)
    rises, excess = [0.0], [0.0]
    for lam, mu in ((1.0, 1.0), (2.0, 4.0), (0.5, 1.0)):
        a = _landmarks(lam, mu)[2]
        for g, env in ((a, 1e-3), (a + 0.5, 1e-3), (2.0 * a, 2e-2)):
            ens = _ens(lam, mu, g)
            kappa = 0.5 * bounds.kappa_prime(ens)
            w = bounds.coeffs(ens, kappa)
            limit = bounds.det_limit(w)
            devs = [
                abs(bounds.det_limit_finite_p(w, p) - limit) / limit for p in rungs
            ]
            rises += [hi - lo - 1e-12 for lo, hi in zip(devs, devs[1:])]
            excess.append(devs[-1] - env)
    return (0.0, np.max(rises)), (0.0, np.max(excess))


def _check_cft_norm_points(seed: int, dim: int) -> Pair:
    checks = (bounds.cft_norm_check(_ens(lam, mu, g))
              for lam, mu, g in ((1.0, 1.0, 1.5), (0.5, 2.0, 1.5), (1.0, 0.5, 2.0)))
    return 0.0, np.max([abs(numeric - closed) / closed for numeric, closed in checks])


def _check_gaussian_vs_fock(seed: int, dim: int) -> Pair:
    # (1, 1) last, so that the angular check next reuses its stack
    pairs = (
        (_ens(0.5, 2.0, 1.3), GaussianChannel.amplifier(0.3)),
        (_ens(1.0, 0.5, 0.8), GaussianChannel.attenuator(0.5)),
        (_ens(1.0, 1.0, 2.0), GaussianChannel.amplifier(0.6)),
    )
    return _oracle_gap(((ens, ch, avg_fidelity_gaussian(ens, ch)) for ens, ch in pairs),
                       max(dim, _ORACLE_DIM))


def _check_angular_reduction(seed: int, dim: int) -> Pair:
    ens = _ens(1.0, 1.0, 1.3)
    identity = GaussianChannel.identity()
    radial = fock.avg_fidelity_numeric(ens, identity, dim=dim)
    polar = fock.avg_fidelity_numeric(ens, identity, dim=dim, angular_nodes=12)
    return radial, polar


def _check_filtered_nbar_fit(seed: int, dim: int) -> Pair:
    nbar, y, k_cut = 1.0, 1.25, 40
    cutoff = max(dim, _ORACLE_DIM)
    q = fock._filter_diagonal(FilterSpec(k_cut=k_cut, y=y), cutoff)
    filtered = q * fock._thermal_diag(nbar, cutoff) * q
    # a geometric law of ratio r has occupation r/(1 - r), read level by level
    r = filtered[1 : k_cut + 1] / filtered[:k_cut]
    observed = float(np.mean(r / (1.0 - r)))
    return formulas.photon_output_prob(MultimodeTask(1.0, 1.0 / nbar, 1.0), y)[0], observed


FULL_CHECKS = (
    (
        _check_oracle_grid,
        ("oracle_squeezer_grid_max_dev", 1e-7),
        ("oracle_identity_grid_max_dev", 1e-6),
    ),
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
    (_check_cft_norm_points, ("cft_norm_check_points", 1e-10)),
    (_check_gaussian_vs_fock, ("gaussian_matches_fock_channels", 1e-5)),
    (_check_angular_reduction, ("angular_grid_agrees_with_radial", 1e-8)),
    (_check_filtered_nbar_fit, ("filtered_thermal_nbar_fit", 1e-3)),
)


def run_suite(level: str = "fast", seed: int = 7, dim: int = 64) -> VerifyReport:
    """Run the verification suite and return its report.

    level : 'fast' runs the closed-form cross-checks and compact Fock
            smoke tests; 'full' appends the oracle grids, the filter and
            determinant convergence envelopes, and the norm-check points.
    seed  : seeds the 100 bound points of the circulant factorisation
            check (and nothing else), so a fixed seed makes the whole report
            reproducible bit for bit.  A bool is not a seed.  The points
            come from ``random.Random(seed).random()``, a
            stream Python keeps the same for a seed across versions (numpy
            makes no such promise for its generators), so the report does
            not move with the interpreter or numpy version.
    dim   : Fock cutoff for the compact numeric checks, and for the oracle
            checks that raise it to at least ``_ORACLE_DIM``; the squeezer,
            identity and attenuator grids pin it.  Must be an integer in
            [32, 128], where the prior stack is exact above its floor.
    """
    if level not in ("fast", "full"):
        raise DomainError(f"verification level must be 'fast' or 'full', got {level!r}")
    _require_int("dim", dim, 32)
    if dim > 128:
        raise DomainError(f"verification needs an integer dim in [32, 128], got {dim!r}")
    _require_int("seed", seed, 0)
    report = VerifyReport(level=level, seed=seed, dim=dim, checks=[])
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
            # a non-finite value fails the comparison below and is named here
            value_error = error or next((f"{label} is not finite: {value!r}" for label, value in
                                         zip(("expected", "observed"), (expected, observed))
                                         if not math.isfinite(value)), None)
            passed = bool(abs(expected - observed) <= tolerance)
            report.checks.append(
                CheckResult(name, expected, observed, tolerance, False, passed, ms, value_error)
            )
            ms = 0.0  # a grouped check's time is charged to its first result
    return report
