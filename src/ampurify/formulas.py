"""Optimal-fidelity closed forms, channel tuning rules and photon bookkeeping.

All formulas act on the reduced ensemble (lambda', mu, g') and are written in
mean-photon variables

    N_C = 1/lambda',  N_T = 1/mu,  Ntilde_T = N_T + 1,  S = N_C + N_T.

Three optima are covered, each for every gain g' > 0.  The deterministic
optimum is a Gaussian channel on the bright mode: a beamsplitter that
attenuates up to the passive-filter gain S/N_C, the identity up to the
amplify threshold (S+1)/N_C, and a two-mode squeezer beyond.  The
probabilistic optimum is a noiseless-amplifier filter followed by the
squeezer.  The classical benchmark ``cft`` is the best measure-and-prepare
value.  Branches are picked by ``params.classify`` alone, so the printed
regime always names the branch behind the printed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .params import (
    MultimodeTask,
    NoisyEnsemble,
    RegimeTag,
    classify,
    photon_book,
    reduce,
)

#: slack used by the report-level ordering checks
_ORDER_TOL = 1e-12


def _filter_value(ens: NoisyEnsemble) -> float:
    """S / (S + g'^2 N_C N_T), the value of the tuned filter below its plateau
    and of the attenuator up to S/N_C, written in lambda', mu so that
    N_C N_T cannot overflow."""
    lam, mu = ens.lambda_prime, ens.mu
    return (lam + mu) / (lam + mu + ens.g_prime * ens.g_prime)


def _squeezer_value(ens: NoisyEnsemble) -> float:
    """(S + 1) / (g'^2 N_C Ntilde_T), the value of the optimal squeezer from
    the amplify threshold on, where the filter has long saturated."""
    book = photon_book(ens)
    g = ens.g_prime
    return (book.total + 1.0) / (g * g * book.n_c * book.n_t_tilde)


def det_fidelity(ens: NoisyEnsemble) -> float:
    """Best deterministic average fidelity.

    Up to the passive-filter gain S/N_C a beamsplitter at
    cos theta = g' N_C / S attenuates, and

        F = S / (S + g'^2 N_C N_T)  =  (lambda' + mu) / (lambda' + mu + g'^2);

    up to the amplify threshold (S+1)/N_C leaving the bright mode alone is
    optimal, and

        F = 1 / ((g'-1)^2 N_C + Ntilde_T);

    beyond it the optimal squeezer amplifies, and

        F = (S + 1) / (g'^2 N_C Ntilde_T).

    Neighbouring branches agree at their join.
    """
    tag = classify(ens).tag
    if tag is RegimeTag.DET_ATTENUATE:
        return _filter_value(ens)
    if tag is RegimeTag.DET_AMPLIFY:
        return _squeezer_value(ens)
    book = photon_book(ens)
    return 1.0 / ((ens.g_prime - 1.0) ** 2 * book.n_c + book.n_t_tilde)


def prob_fidelity(ens: NoisyEnsemble) -> float:
    """Best probabilistic average fidelity (ratio form).

    Up to the filter plateau at sqrt(S(S+1))/N_C,

        F = S / (S + g'^2 N_C N_T),

    beyond it the filter saturates and F matches the amplifying branch of
    the deterministic optimum, (S+1)/(g'^2 N_C Ntilde_T).  Up to S/N_C the
    tuned filter does not amplify (y <= 1) and F equals the deterministic
    optimum.
    """
    if classify(ens).prob_tag is RegimeTag.PROB_PLATEAU:
        return _squeezer_value(ens)
    return _filter_value(ens)


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

    cosh_r    : squeezer gain, clamped at 1 below the amplify threshold
    y         : filter transmissivity ratio; y = 1 on the plateau
    cos_theta : beamsplitter transmission, set only up to the passive-filter
                gain S/N_C, where the attenuator is the deterministic optimum
    z         : heterodyne re-preparation scale of the classical benchmark
    plateau   : True when g' has reached the deterministic threshold, where
                the filter confers no advantage and y is reported as 1
    """

    cosh_r: float
    y: float
    cos_theta: float | None
    z: float
    plateau: bool

    def __post_init__(self) -> None:
        if not self.cosh_r >= 1.0:
            raise DomainError(f"cosh_r must be >= 1, got {self.cosh_r!r}")
        if not self.y > 0.0:
            raise DomainError(f"y must be > 0, got {self.y!r}")
        if self.cos_theta is not None and not 0.0 < self.cos_theta <= 1.0:
            raise DomainError(f"cos_theta must be in (0, 1], got {self.cos_theta!r}")
        if not self.z > 0.0:
            raise DomainError(f"z must be > 0, got {self.z!r}")


def tune(ens: NoisyEnsemble) -> TuningReport:
    """Optimal device settings for each protocol family.

        cosh r    = max(1, g' N_C / (S + 1))
        y         = g' N_C / S          up to sqrt(S(S+1))/N_C
                  = (S + 1) / (g' N_C)  up to (S+1)/N_C
                  = 1                   beyond (plateau)
        cos theta = g' N_C / S          up to S/N_C
        z         = g' N_C / (S + 1)

    The y rule is continuous across both joins.  Note y < 1 below S/N_C:
    the optimal filter then *suppresses* large Fock components rather than
    amplifying, and y equals the beamsplitter's cos theta.
    """
    if ens.g_prime <= 0.0:
        raise DomainError("tuning undefined for zero gain")
    book = photon_book(ens)
    s, g = book.total, ens.g_prime
    regime = classify(ens)
    z = g * book.n_c / (s + 1.0)
    passive = g * book.n_c / s
    plateau = regime.tag is RegimeTag.DET_AMPLIFY
    if plateau:
        y = 1.0
    elif regime.prob_tag is RegimeTag.PROB_PLATEAU:
        y = (s + 1.0) / (g * book.n_c)
    else:
        y = passive
    cos_theta = min(1.0, passive) if regime.tag is RegimeTag.DET_ATTENUATE else None
    return TuningReport(cosh_r=max(1.0, z), y=y, cos_theta=cos_theta, z=z, plateau=plateau)


@dataclass(frozen=True)
class FidelityReport:
    """The three headline fidelities of a reduced ensemble.

    The ordering 0 <= cft <= det <= prob <= 1 is checked on construction,
    to a slack of 1e-12, at every gain.
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
        if self.det < self.cft - _ORDER_TOL:
            raise DomainError(
                f"fidelity ordering violated: det {self.det!r} < cft {self.cft!r}"
            )


def fidelity_report(ens: NoisyEnsemble) -> FidelityReport:
    """Evaluate det/prob/cft; the report checks their ordering."""
    return FidelityReport(det=det_fidelity(ens), prob=prob_fidelity(ens), cft=cft(ens))


def photon_output_det(task: MultimodeTask) -> tuple[float, float]:
    """Mean thermal photon numbers after the deterministic protocol.

    Returns (n_total_out, n_single_out): total over the M output modes and
    per single output mode, counting noise photons (signal excluded).  The
    bright mode carries cos^2(theta) N_single photons behind the attenuating
    beamsplitter, N_single when the channel is the identity, and
    cosh^2(r) (N_single + 1) - 1 after squeezing; it is split evenly over
    the M outputs.
    """
    ens = reduce(task)
    n_single_in = photon_book(ens).n_t
    tuning = tune(ens)
    if tuning.cos_theta is not None:
        bright = tuning.cos_theta**2 * n_single_in
    elif tuning.cosh_r > 1.0:
        bright = tuning.cosh_r**2 * (n_single_in + 1.0) - 1.0
    else:
        bright = n_single_in
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
