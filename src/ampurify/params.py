"""Task parameters and the reduction to an effective single-mode problem.

A task: N identical noisy coherent states rho_{mu,alpha} (a coherent state
|alpha> blurred by mu-parametrised thermal noise, nbar = 1/mu), with alpha
drawn from the Gaussian prior p_lambda(alpha) = lambda * exp(-lambda|alpha|^2)
(density w.r.t. d^2alpha / pi), are to be turned into M copies of |g alpha>.

A passive linear network concentrates the N-copy signal, without loss, into one
bright mode, and splitting the single-mode result over M modes divides the
gain by sqrt(M).  Every optimum therefore depends only on the reduced triple

    lambda' = lambda / N,    mu' = mu,    g' = g * sqrt(M / N).

Photon bookkeeping (``photon_book``) uses mean photon numbers N_C =
1/lambda' (signal), N_T = 1/mu (thermal per mode), Ntilde_T = N_T + 1 and
S = N_C + N_T; the closed forms never go through it.

Three gain landmarks, all >= 1 and in this order, split every g' > 0 into
regimes; they are written in lambda', mu, so no photon number has to be
representable: the passive-filter gain S/N_C = 1 + lambda'/mu, the filter
plateau sqrt(S(S+1))/N_C = S/N_C sqrt(1 + 1/S) with 1/S = 1/(1/lambda' +
1/mu), and the amplify threshold (S+1)/N_C = 1 + lambda'/mu + lambda'.
``_regime_codes`` is the one place that compares g' with them.  Like
``reduce``'s arithmetic it is array-generic: floats in, Python floats out;
numpy columns in, columns out, bit for bit alike.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from ._lazy import lazy
from .errors import DomainError

np = lazy("numpy")  # executed by the first column, never by a Python number

#: mu at or above this value is reported as an effectively pure input
#: (N_T <= 1e-12); the closed forms need no special-casing, the constant
#: only feeds informational flags.
PURE_MU_SENTINEL = 1e12


def _is_column(x) -> bool:  # isinstance(x, np.ndarray); a Python number leaves np unexecuted
    return not isinstance(x, (int, float)) and isinstance(x, np.ndarray)


def _sqrt(x):  # np.sqrt of a column; math.sqrt of a float, which stays a Python float
    return np.sqrt(x) if _is_column(x) else math.sqrt(x)


def _finite_positive(value):  # 0 < value < inf, row by row over a column; NaN fails
    return (value > 0.0) & (value < math.inf)


def _require_finite_positive(name: str, value: float) -> None:
    if not _finite_positive(value):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


def _require_int(name: str, value: int, lo: int) -> None:  # bool, an int subclass, is not one
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise DomainError(f"{name} must be an integer >= {lo}, got {value!r}")


class _Validated:
    """Mixin for a validated NamedTuple record, whose own ``__new__`` raises
    DomainError on an invalid field.  A plain NamedTuple's ``_make``, and the
    ``_replace`` that calls it, build the tuple without ``__new__``; here both
    go through it, so no construction path skips a check.  Assigning a field
    raises AttributeError, as on every tuple."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _MultimodeTaskFields(NamedTuple):
    lam: float
    mu: float
    g: float
    n_in: int = 1
    m_out: int = 1


class MultimodeTask(_Validated, _MultimodeTaskFields):
    """An N-copy-in, M-copy-out amplification task.

    lam    : prior concentration lambda > 0 (mean signal photons N/lam in total)
    mu     : thermal-noise parameter > 0, nbar = 1/mu per input mode
    g      : target amplitude gain > 0
    n_in   : number of identical input copies N >= 1
    m_out  : number of requested output copies M >= 1
    """

    __slots__ = ()

    def __new__(cls, lam: float, mu: float, g: float, n_in: int = 1, m_out: int = 1):
        _require_finite_positive("lam", lam)
        _require_finite_positive("mu", mu)
        _require_finite_positive("g", g)
        _require_int("n_in", n_in, 1)
        _require_int("m_out", m_out, 1)
        return super().__new__(cls, lam, mu, g, n_in, m_out)


class _NoisyEnsembleFields(NamedTuple):
    lambda_prime: float
    mu: float
    g_prime: float


class NoisyEnsemble(_Validated, _NoisyEnsembleFields):
    """Reduced single-mode ensemble: prior lambda', noise mu, gain g'."""

    __slots__ = ()

    def __new__(cls, lambda_prime: float, mu: float, g_prime: float):
        _require_finite_positive("lambda_prime", lambda_prime)
        _require_finite_positive("mu", mu)
        if not (math.isfinite(g_prime) and g_prime >= 0.0):
            raise DomainError(f"g_prime must be finite and >= 0, got {g_prime!r}")
        return super().__new__(cls, lambda_prime, mu, g_prime)


class PhotonBook(NamedTuple):
    """Mean photon numbers of the reduced ensemble."""

    n_c: float  # signal photons 1/lambda'
    n_t: float  # thermal photons per mode 1/mu

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


#: every Regime, in the order of the index ``_regime_codes`` returns
REGIMES = tuple(Regime(tag, prob_tag)
                for tag in (RegimeTag.DET_ATTENUATE, RegimeTag.DET_IDENTITY, RegimeTag.DET_AMPLIFY)
                for prob_tag in (RegimeTag.PROB_AMPLIFY, RegimeTag.PROB_PLATEAU))


def _reduced(lam, g, n_in, m_out):  # (lambda', g') = (lambda/N, g sqrt(M/N))
    return lam / n_in, g * _sqrt(m_out / n_in)


def reduce(task: MultimodeTask) -> NoisyEnsemble:
    """Collapse an N-to-M task onto its single-mode equivalent."""
    lambda_prime, g_prime = _reduced(task.lam, task.g, task.n_in, task.m_out)
    return NoisyEnsemble(lambda_prime=lambda_prime, mu=task.mu, g_prime=g_prime)


def photon_book(ens: NoisyEnsemble) -> PhotonBook:
    return PhotonBook(n_c=1.0 / ens.lambda_prime, n_t=1.0 / ens.mu)


def _landmarks(lam, mu):
    """(S/N_C, sqrt(S(S+1))/N_C, (S+1)/N_C) at lambda', mu, in increasing order."""
    passive = 1.0 + lam / mu
    inv_s = 1.0 / (1.0 / lam + 1.0 / mu)
    return passive, passive * _sqrt(1.0 + inv_s), passive + lam


def _regime_codes(g, landmarks):
    """(det, plateau, index into REGIMES) of g' against ``_landmarks``; det is
    0, 1, 2 where the optimum attenuates, is the identity, amplifies.  The
    thresholds take >= and S/N_C <=; amplifying implies the plateau and
    attenuating excludes it even where landmarks merge.  No ~ (int on a bool)."""
    passive, prob_thr, det_thr = landmarks
    amplify = g >= det_thr
    attenuate = (g <= passive) & (g < det_thr)
    det, plateau = 1 + amplify - attenuate, amplify | (g > passive) & (g >= prob_thr)
    return det, plateau, 2 * det + plateau


def thresholds(ens: NoisyEnsemble) -> tuple[float, float]:
    """(deterministic, probabilistic) gain thresholds of the reduced task.

    det  = (S + 1)/N_C = 1 + lambda'/mu + lambda' : above it deterministic
           amplification beats doing nothing, and the probabilistic
           advantage closes.
    prob = sqrt(S(S+1))/N_C = S/N_C sqrt(1 + 1/S) : above it the optimal
           filter saturates (geometric mean of det threshold and S/N_C).
    """
    _, prob, det = _landmarks(ens.lambda_prime, ens.mu)
    return det, prob


def passive_filter_gain(ens: NoisyEnsemble) -> float:
    """S/N_C = 1 + lambda'/mu, where the tuned filter is passive (y = 1) and
    the optimal deterministic beamsplitter stops attenuating (cos theta = 1)."""
    return _landmarks(ens.lambda_prime, ens.mu)[0]


def classify(ens: NoisyEnsemble) -> Regime:
    """Tag the ensemble's operating regime by ``_regime_codes``.  The closed
    forms agree at every join, so det == prob whenever the label says so."""
    return REGIMES[_regime_codes(ens.g_prime, _landmarks(ens.lambda_prime, ens.mu))[2]]


def is_pure_input(ens: NoisyEnsemble) -> bool:
    """True when mu is at or beyond the pure-input sentinel."""
    return ens.mu >= PURE_MU_SENTINEL
