"""Task parameters and the reduction to an effective single-mode problem.

A task: N identical noisy coherent states rho_{mu,alpha} (a coherent state
|alpha> blurred by mu-parametrised thermal noise, nbar = 1/mu), with alpha
drawn from the Gaussian prior p_lambda(alpha) = lambda * exp(-lambda|alpha|^2)
(density w.r.t. d^2alpha / pi), are to be turned into M copies of |g alpha>.

A passive linear network losslessly concentrates the N-copy signal into one
bright mode, and splitting the single-mode result over M modes divides the
gain by sqrt(M).  Every optimum therefore depends only on the reduced triple

    lambda' = lambda / N,    mu' = mu,    g' = g * sqrt(M / N).

Photon bookkeeping uses mean photon numbers N_C = 1/lambda' (signal),
N_T = 1/mu (thermal per mode) and the convenience Ntilde_T = N_T + 1.

Three gain landmarks, all >= 1 and in this order, split every g' > 0 into
regimes: the passive-filter gain S/N_C, the filter plateau sqrt(S(S+1))/N_C
and the amplify threshold (S+1)/N_C, with S = N_C + N_T.  ``classify`` is
the one place that compares g' with them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError

#: mu at or above this value is reported as an effectively pure input
#: (N_T <= 1e-12); the closed forms need no special-casing, the constant
#: only feeds informational flags.
PURE_MU_SENTINEL = 1e12


def _require_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class MultimodeTask:
    """An N-copy-in, M-copy-out amplification task.

    lam    : prior concentration lambda > 0 (mean signal photons N/lam in total)
    mu     : thermal-noise parameter > 0, nbar = 1/mu per input mode
    g      : target amplitude gain > 0
    n_in   : number of identical input copies N >= 1
    m_out  : number of requested output copies M >= 1
    """

    lam: float
    mu: float
    g: float
    n_in: int = 1
    m_out: int = 1

    def __post_init__(self) -> None:
        _require_finite_positive("lam", self.lam)
        _require_finite_positive("mu", self.mu)
        _require_finite_positive("g", self.g)
        for name in ("n_in", "m_out"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise DomainError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class NoisyEnsemble:
    """Reduced single-mode ensemble: prior lambda', noise mu, gain g'."""

    lambda_prime: float
    mu: float
    g_prime: float

    def __post_init__(self) -> None:
        _require_finite_positive("lambda_prime", self.lambda_prime)
        _require_finite_positive("mu", self.mu)
        if not (math.isfinite(self.g_prime) and self.g_prime >= 0.0):
            raise DomainError(f"g_prime must be finite and >= 0, got {self.g_prime!r}")


class PhotonBook(NamedTuple):
    """Mean photon numbers of the reduced ensemble."""

    n_c: float        # signal photons 1/lambda'
    n_t: float        # thermal photons per mode 1/mu
    n_t_tilde: float  # N_T + 1

    @property
    def total(self) -> float:
        """S = N_C + N_T, the bright-mode mean photon number scale."""
        return self.n_c + self.n_t


class RegimeTag(enum.Enum):
    """Operating regimes of the reduced task.

    The deterministic side attenuates up to the passive-filter gain
    (N_C + N_T)/N_C, leaves the bright mode alone up to the amplify
    threshold (N_C + N_T + 1)/N_C and squeezes beyond it; the probabilistic
    side splits at sqrt((N_C+N_T+1)(N_C+N_T))/N_C where the filter plateaus.
    """

    DET_ATTENUATE = "DetAttenuate"
    DET_IDENTITY = "DetIdentity"
    DET_AMPLIFY = "DetAmplify"
    PROB_AMPLIFY = "ProbAmplify"
    PROB_PLATEAU = "ProbPlateau"


class Regime(NamedTuple):
    """Classification of a reduced ensemble.

    ``tag`` is the deterministic-side label (DetAttenuate / DetIdentity /
    DetAmplify); ``prob_tag`` the probabilistic-side one.
    """

    tag: RegimeTag
    prob_tag: RegimeTag


def reduce(task: MultimodeTask) -> NoisyEnsemble:
    """Collapse an N-to-M task onto its single-mode equivalent."""
    return NoisyEnsemble(
        lambda_prime=task.lam / task.n_in,
        mu=task.mu,
        g_prime=task.g * math.sqrt(task.m_out / task.n_in),
    )


def photon_book(ens: NoisyEnsemble) -> PhotonBook:
    n_t = 1.0 / ens.mu
    return PhotonBook(n_c=1.0 / ens.lambda_prime, n_t=n_t, n_t_tilde=n_t + 1.0)


def _landmarks(ens: NoisyEnsemble) -> tuple[float, float, float]:
    """(S/N_C, sqrt(S(S+1))/N_C, (S+1)/N_C), in increasing order."""
    book = photon_book(ens)
    s = book.total
    tangency = s / book.n_c
    return tangency, tangency * math.sqrt(1.0 + 1.0 / s), (s + 1.0) / book.n_c


def thresholds(ens: NoisyEnsemble) -> tuple[float, float]:
    """(deterministic, probabilistic) gain thresholds of the reduced task.

    det  = (N_C + N_T + 1) / N_C : above it deterministic amplification
           beats doing nothing, and the probabilistic advantage closes.
    prob = sqrt((N_C + N_T + 1)(N_C + N_T)) / N_C : above it the optimal
           filter saturates (geometric mean of det threshold and S/N_C).
           It is evaluated as S/N_C sqrt(1 + 1/S), which cannot overflow
           where S(S+1) would.
    """
    _, prob, det = _landmarks(ens)
    return det, prob


def passive_filter_gain(ens: NoisyEnsemble) -> float:
    """S/N_C, where the tuned filter is passive (y = 1) and the optimal
    deterministic beamsplitter stops attenuating (cos theta = 1)."""
    return _landmarks(ens)[0]


def classify(ens: NoisyEnsemble) -> Regime:
    """Tag the ensemble's operating regime.

    The thresholds use the >= convention and the passive-filter gain the <=
    one, so S/N_C itself attenuates (at cos theta = 1).  The closed forms
    agree at every join, so the choice only names the branch.
    """
    tangency, prob_thr, det_thr = _landmarks(ens)
    g = ens.g_prime
    if g >= det_thr:
        tag = RegimeTag.DET_AMPLIFY
    elif g <= tangency:
        tag = RegimeTag.DET_ATTENUATE
    else:
        tag = RegimeTag.DET_IDENTITY
    prob_tag = RegimeTag.PROB_PLATEAU if g >= prob_thr else RegimeTag.PROB_AMPLIFY
    return Regime(tag=tag, prob_tag=prob_tag)


def is_pure_input(ens: NoisyEnsemble) -> bool:
    """True when mu is at or beyond the pure-input sentinel."""
    return ens.mu >= PURE_MU_SENTINEL
