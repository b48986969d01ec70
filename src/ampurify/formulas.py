"""Optimal-fidelity closed forms, channel tuning rules and photon bookkeeping.

All formulas act on the reduced ensemble (lambda', mu, g') and are written in
mean-photon variables

    N_C = 1/lambda',  N_T = 1/mu,  Ntilde_T = N_T + 1,  S = N_C + N_T.

Three protocol families are covered: the deterministic optimum (a two-mode
squeezer on the bright mode), the probabilistic optimum (noiseless-amplifier
filter followed by the squeezer), and pure purification for g' <= 1 (a
beamsplitter).  The classical benchmark ``cft`` is the best
measure-and-prepare value and holds for every gain.

Deterministic and probabilistic optima are only defined for g' >= 1; below
that the purification formula applies and the report helper switches over
automatically.  Requesting a formula outside its gain range raises
DomainError rather than silently returning the other branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .params import (
    MultimodeTask,
    NoisyEnsemble,
    photon_book,
    reduce,
    thresholds,
)

#: slack used by the report-level ordering checks
_ORDER_TOL = 1e-12


def det_fidelity(ens: NoisyEnsemble) -> float:
    """Best deterministic average fidelity for g' >= 1.

    Above the gain threshold (S+1)/N_C the optimal squeezer amplifies and

        F = (S + 1) / (g'^2 N_C Ntilde_T);

    below it amplification does not pay, the squeezer stays at cosh r = 1 and

        F = 1 / ((g'-1)^2 N_C + Ntilde_T).

    The two branches agree at the threshold.
    """
    if ens.g_prime < 1.0:
        raise DomainError(
            f"deterministic optimum needs g' >= 1, got {ens.g_prime!r}; "
            "use puri_fidelity below unit gain"
        )
    book = photon_book(ens)
    s, g = book.total, ens.g_prime
    if g >= thresholds(ens)[0]:
        return (s + 1.0) / (g * g * book.n_c * book.n_t_tilde)
    return 1.0 / ((g - 1.0) ** 2 * book.n_c + book.n_t_tilde)


def prob_fidelity(ens: NoisyEnsemble) -> float:
    """Best probabilistic average fidelity (ratio form) for g' >= 1.

    Up to the filter plateau at sqrt(S(S+1))/N_C,

        F = S / (S + g'^2 N_C N_T),

    beyond it the filter saturates and F matches the amplifying branch of
    the deterministic optimum, (S+1)/(g'^2 N_C Ntilde_T).
    """
    if ens.g_prime < 1.0:
        raise DomainError(
            f"probabilistic optimum needs g' >= 1, got {ens.g_prime!r}; "
            "use puri_fidelity below unit gain"
        )
    book = photon_book(ens)
    s, g = book.total, ens.g_prime
    if g >= thresholds(ens)[1]:
        return (s + 1.0) / (g * g * book.n_c * book.n_t_tilde)
    return s / (s + g * g * book.n_c * book.n_t)


def puri_fidelity(ens: NoisyEnsemble) -> float:
    """Best average fidelity for g' <= 1 (purification regime).

    Achieved deterministically by a beamsplitter; filtering adds nothing:

        F = S / (S + g'^2 N_C N_T)  =  (lambda' + mu) / (lambda' + mu + g'^2).
    """
    if ens.g_prime > 1.0:
        raise DomainError(
            f"purification formula needs g' <= 1, got {ens.g_prime!r}"
        )
    lam, mu = ens.lambda_prime, ens.mu
    return (lam + mu) / (lam + mu + ens.g_prime**2)


def cft(ens: NoisyEnsemble) -> float:
    """Classical (measure-and-prepare) fidelity threshold, any gain.

        F = c1 / (c1 + g'^2),   c1 = (N_C + Ntilde_T) / (N_C Ntilde_T),

    saturated by heterodyne detection plus coherent re-preparation with
    amplitude scale g' N_C / (S + 1).
    """
    book = photon_book(ens)
    c1 = (book.n_c + book.n_t_tilde) / (book.n_c * book.n_t_tilde)
    return c1 / (c1 + ens.g_prime**2)


@dataclass(frozen=True)
class TuningReport:
    """Optimal channel parameters for a reduced ensemble.

    Fields are populated only in the regime where the respective device is
    part of the optimal protocol (both sides at g' = 1 exactly):

    cosh_r    : squeezer gain, g' >= 1 (clamped at 1 below the amplify threshold)
    y         : filter transmissivity ratio, g' >= 1; y = 1 on the plateau
    cos_theta : beamsplitter transmission, g' <= 1
    z         : heterodyne re-preparation scale of the classical benchmark
    plateau   : True when g' has reached the deterministic threshold, where
                the filter confers no advantage and y is reported as 1
    """

    cosh_r: float | None
    y: float | None
    cos_theta: float | None
    z: float
    plateau: bool

    def __post_init__(self) -> None:
        if self.cosh_r is not None and not self.cosh_r >= 1.0:
            raise DomainError(f"cosh_r must be >= 1, got {self.cosh_r!r}")
        if self.y is not None and not self.y > 0.0:
            raise DomainError(f"y must be > 0, got {self.y!r}")
        if self.cos_theta is not None and not 0.0 < self.cos_theta <= 1.0:
            raise DomainError(f"cos_theta must be in (0, 1], got {self.cos_theta!r}")
        if not self.z > 0.0:
            raise DomainError(f"z must be > 0, got {self.z!r}")


def tune(ens: NoisyEnsemble) -> TuningReport:
    """Optimal device settings for each protocol family.

        cosh r    = max(1, g' N_C / (S + 1))
        y         = g' N_C / S          for 1 <= g' <= sqrt(S(S+1))/N_C
                  = (S + 1) / (g' N_C)  up to (S+1)/N_C
                  = 1                   beyond (plateau)
        cos theta = min(1, g' / (1 + N_T/N_C))
        z         = g' N_C / (S + 1)

    The y rule is continuous across both joins.  Note y < 1 whenever
    N_T > (g' - 1) N_C: the optimal filter then *suppresses* large Fock
    components rather than amplifying.
    """
    if ens.g_prime <= 0.0:
        raise DomainError("tuning undefined for zero gain")
    book = photon_book(ens)
    s, g = book.total, ens.g_prime
    det_thr, prob_thr = thresholds(ens)
    z = g * book.n_c / (s + 1.0)

    cosh_r: float | None = None
    y: float | None = None
    cos_theta: float | None = None
    plateau = False
    if g >= 1.0:
        cosh_r = max(1.0, z)
        if g >= det_thr:
            y = 1.0
            plateau = True
        elif g >= prob_thr:
            y = (s + 1.0) / (g * book.n_c)
        else:
            y = g * book.n_c / s
    if g <= 1.0:
        cos_theta = min(1.0, g / (1.0 + book.n_t / book.n_c))
    return TuningReport(cosh_r=cosh_r, y=y, cos_theta=cos_theta, z=z, plateau=plateau)


@dataclass(frozen=True)
class FidelityReport:
    """The three headline fidelities of a reduced ensemble.

    det and prob fall back to the purification value for g' <= 1.  Basic
    ordering (prob >= det, everything in [0, 1]) is checked on construction.
    """

    det: float
    prob: float
    cft: float

    def __post_init__(self) -> None:
        for name in ("det", "prob", "cft"):
            value = getattr(self, name)
            if not -_ORDER_TOL <= value <= 1.0 + _ORDER_TOL:
                raise DomainError(f"{name} fidelity out of [0, 1]: {value!r}")
        if self.prob < self.det - _ORDER_TOL:
            raise DomainError(
                f"fidelity ordering violated: prob {self.prob!r} < det {self.det!r}"
            )


def fidelity_report(ens: NoisyEnsemble) -> FidelityReport:
    """Evaluate det/prob/cft in the regime-appropriate way."""
    if ens.g_prime <= 1.0:
        det = prob = puri_fidelity(ens)
    else:
        det = det_fidelity(ens)
        prob = prob_fidelity(ens)
    threshold = cft(ens)
    report = FidelityReport(det=det, prob=prob, cft=threshold)
    # The squeezer-family deterministic formula is the true optimum only for
    # g' >= S/N_C (or trivially g' <= 1); in the window between, a plain
    # attenuator beats it and may even dip below the classical threshold, so
    # the quantum-beats-classical check is restricted to where it must hold.
    book = photon_book(ens)
    g = ens.g_prime
    if (g <= 1.0 or g >= book.total / book.n_c) and det < threshold - _ORDER_TOL:
        raise DomainError(
            f"fidelity ordering violated: det {det!r} < cft {threshold!r}"
        )
    return report


def photon_output_det(task: MultimodeTask) -> tuple[float, float]:
    """Mean thermal photon numbers after the deterministic protocol.

    Returns (n_total_out, n_single_out): total over the M output modes and
    per single output mode, counting noise photons (signal excluded).  The
    bright mode carries cosh^2(r) (N_single + 1) - 1 photons after squeezing
    and is split evenly over M outputs; below the amplify threshold the
    protocol is passive and the input noise N_single is merely redistributed.
    """
    ens = reduce(task)
    if ens.g_prime < 1.0:
        raise DomainError(f"deterministic protocol needs g' >= 1, got {ens.g_prime!r}")
    n_single_in = photon_book(ens).n_t
    cosh_r = tune(ens).cosh_r
    if cosh_r <= 1.0:
        return n_single_in, n_single_in / task.m_out
    bright = cosh_r**2 * (n_single_in + 1.0) - 1.0
    return bright, bright / task.m_out


def photon_output_prob(task: MultimodeTask, y: float) -> tuple[float, float, float]:
    """Mean thermal photon numbers after the probabilistic protocol.

    Returns (n_t_out, n_total_out, n_single_out).  n_t_out is the
    post-filter thermal occupation for filter ratio y,

        N_T' = N_T y^2 mu / (1 + mu - y^2),

    which has a pole at y^2 = 1 + mu (the filtered state stops being
    normalisable); beyond the pole a DomainError is raised.  n_total_out /
    n_single_out evaluate the full protocol at its *tuned* filter setting
    and likewise raise when the tuned protocol sits outside its validity
    region.  Note n_t_out < N_T whenever y < 1 (the filter then purifies).
    """
    ens = reduce(task)
    mu = ens.mu
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"filter ratio y must be finite and > 0, got {y!r}")
    if y * y >= 1.0 + mu:
        raise DomainError(
            f"filter ratio y = {y!r} at or beyond the pole sqrt(1 + mu); "
            "the filtered ensemble is not normalisable"
        )
    book = photon_book(ens)
    n_t = book.n_t
    n_t_out = n_t * y * y * mu / (1.0 + mu - y * y)

    n_single_in = n_t
    n_c = book.n_c
    g, n, m = task.g, task.n_in, task.m_out
    denom = (1.0 + mu) * (n_c + n_single_in) ** 2 - (g * n_c) ** 2 * m / n
    if denom <= 0.0:
        raise DomainError(
            "tuned probabilistic protocol outside its validity region: "
            f"(1 + mu)(N_C + N_single)^2 <= g^2 N_C^2 M/N for task {task!r}"
        )
    n_single_out = n_single_in * mu * (g * n_c) ** 2 / (n * denom)
    return n_t_out, m * n_single_out, n_single_out
