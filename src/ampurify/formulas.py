"""Optimal-fidelity closed forms, channel tuning rules and photon bookkeeping.

Every optimum depends only on the reduced triple (lambda', mu, g') and is
written once in those variables, so no photon number or g'^2 can overflow
where the result is representable.  With N_C = 1/lambda', N_T = 1/mu,
Ntilde_T = N_T + 1 and S = N_C + N_T, the one shared constant is
c1 = (S + 1)/(N_C Ntilde_T) = lambda' + mu/(mu + 1).

Three optima are covered, each for every gain g' > 0.  The deterministic
optimum is a Gaussian channel on the bright mode: a beamsplitter that
attenuates up to the passive-filter gain S/N_C, the identity up to the
amplify threshold (S+1)/N_C, and a two-mode squeezer beyond.  The
probabilistic optimum is a noiseless-amplifier filter followed by the
squeezer.  The classical benchmark ``cft`` is the best measure-and-prepare
value.  Branches are picked by the regime codes of ``params`` alone, so
the printed regime always names the branch behind the printed value.  The
branch values and tuning rules are array-generic: the scalar API evaluates
the picked branch on floats, ``columns`` every branch over a whole sweep.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._lazy import lazy
from .errors import DomainError
from .params import (
    MultimodeTask,
    NoisyEnsemble,
    _Validated,
    _finite_positive,
    _is_column,
    _landmarks,
    _reduced,
    _regime_codes,
    photon_book,
    reduce,
)

np = lazy("numpy")
#: slack of the report-level checks: absolute on the range, relative on the order
_ORDER_TOL = 1e-12


def _pick(code, branches, *args):
    """``branches[code](*args)``; over a column of codes, every branch, row by row."""
    if _is_column(code):
        return np.choose(code, [branch(*args) for branch in branches])
    return branches[code](*args)


def _where(cond, a, b):
    """``a if cond else b``, row by row over a column ``cond``."""
    return np.where(cond, a, b) if _is_column(cond) else (a if cond else b)


def _c1(lam, mu):
    """c1 = (S + 1)/(N_C Ntilde_T) = lambda' + mu/(mu + 1)."""
    return lam + mu / (mu + 1.0)


def _filter_value(lam, mu, g):
    """S/(S + g'^2 N_C N_T) = 1/(1 + g'^2/(lambda' + mu)), the value of the
    tuned filter below its plateau and of the attenuator up to S/N_C."""
    return 1.0 / (1.0 + g * (g / (lam + mu)))


def _identity_value(lam, mu, g):  # 1/((g'-1)^2/lambda' + 1/mu + 1), see det_fidelity
    d = g - 1.0
    return 1.0 / (d * (d / lam) + 1.0 / mu + 1.0)


def _squeezer_value(lam, mu, g):
    """(S + 1)/(g'^2 N_C Ntilde_T) = c1/g'^2, the optimal squeezer's value
    from the amplify threshold on, where the filter has long saturated."""
    return _c1(lam, mu) / g / g


def _cft_value(lam, mu, g):  # c1/(c1 + g'^2), see cft
    return 1.0 / (1.0 + g * (g / _c1(lam, mu)))


#: the branch of F_det at det code 0, 1, 2, and of F_prob off and on the plateau
_DET_BRANCHES = (_filter_value, _identity_value, _squeezer_value)
_PROB_BRANCHES = (_filter_value, _squeezer_value)


def _codes(ens: NoisyEnsemble):
    return _regime_codes(ens.g_prime, _landmarks(ens.lambda_prime, ens.mu))


def det_fidelity(ens: NoisyEnsemble) -> float:
    """Best deterministic average fidelity.

    Up to the passive-filter gain S/N_C a beamsplitter at
    cos theta = g'/(S/N_C) attenuates, and

        F = S/(S + g'^2 N_C N_T)      = 1/(1 + g'^2/(lambda' + mu));

    up to the amplify threshold (S+1)/N_C leaving the bright mode alone is
    optimal, and

        F = 1/((g'-1)^2 N_C + Ntilde_T) = 1/((g'-1)^2/lambda' + 1/mu + 1);

    beyond it the optimal squeezer amplifies, and

        F = (S + 1)/(g'^2 N_C Ntilde_T) = c1/g'^2.

    Neighbouring branches agree at their join.
    """
    return _pick(_codes(ens)[0], _DET_BRANCHES, ens.lambda_prime, ens.mu, ens.g_prime)


def prob_fidelity(ens: NoisyEnsemble) -> float:
    """Best probabilistic average fidelity (ratio form).

    Up to the filter plateau at sqrt(S(S+1))/N_C,

        F = S/(S + g'^2 N_C N_T) = 1/(1 + g'^2/(lambda' + mu)),

    beyond it the filter saturates and F matches the amplifying branch of
    the deterministic optimum, c1/g'^2.  Up to S/N_C the tuned filter does
    not amplify (y <= 1) and F equals the deterministic optimum.
    """
    return _pick(_codes(ens)[1], _PROB_BRANCHES, ens.lambda_prime, ens.mu, ens.g_prime)


def cft(ens: NoisyEnsemble) -> float:
    """Classical (measure-and-prepare) fidelity threshold, any gain.

        F = c1/(c1 + g'^2) = 1/(1 + g'^2/c1),

    saturated by heterodyne detection plus coherent re-preparation with
    amplitude scale z = g'/((S+1)/N_C).
    """
    return _cft_value(ens.lambda_prime, ens.mu, ens.g_prime)


class _TuningReportFields(NamedTuple):
    cosh_r: float
    y: float
    cos_theta: float
    z: float


class TuningReport(_Validated, _TuningReportFields):
    """Optimal channel parameters for a reduced ensemble.  A device outside
    its regime reads its passive setting, 1.

    cosh_r    : squeezer gain, 1 below the amplify threshold
    y         : filter transmissivity ratio: g'/(S/N_C) below the filter
                plateau, ((S+1)/N_C)/g' on it, 1 from the amplify threshold on
    cos_theta : beamsplitter transmission, 1 from the passive-filter gain
                S/N_C on, where the attenuator stops being the optimum
    z         : heterodyne re-preparation scale of the classical benchmark
    """

    __slots__ = ()

    def __new__(cls, cosh_r: float, y: float, cos_theta: float, z: float):
        if not cosh_r >= 1.0:
            raise DomainError(f"cosh_r must be >= 1, got {cosh_r!r}")
        if not y > 0.0:
            raise DomainError(f"y must be > 0, got {y!r}")
        if not 0.0 < cos_theta <= 1.0:
            raise DomainError(f"cos_theta must be in (0, 1], got {cos_theta!r}")
        if not z > 0.0:
            raise DomainError(f"z must be > 0, got {z!r}")
        return super().__new__(cls, cosh_r, y, cos_theta, z)


def _tuning(g, landmarks, det, plateau):
    """(cosh_r, y, cos_theta, z) at gain g' > 0 (see ``tune``)."""
    passive, _, amplify = landmarks
    ratio, z = g / passive, g / amplify
    y = _where(det == 2, 1.0, _where(plateau, amplify / g, ratio))
    return _where(z > 1.0, z, 1.0), y, _where(det == 0, ratio, 1.0), z


def tune(ens: NoisyEnsemble) -> TuningReport:
    """Optimal device settings for each protocol family, read off the
    landmarks S/N_C and (S+1)/N_C of ``params``.

        cosh r    = max(1, z)
        y         = g'/(S/N_C)          up to sqrt(S(S+1))/N_C
                  = ((S+1)/N_C)/g'      up to (S+1)/N_C
                  = 1                   from (S+1)/N_C on
        cos theta = g'/(S/N_C)          up to S/N_C
                  = 1                   beyond
        z         = g'/((S+1)/N_C)

    A device outside its regime reads its passive setting, 1: the identity
    is the beamsplitter at theta = 0 and the squeezer at r = 0.  The y rule
    is continuous across both joins.  Note y < 1 below S/N_C: the optimal
    filter then *suppresses* large Fock components rather than amplifying,
    and y equals the beamsplitter's cos theta, which cannot exceed 1 there:
    g' <= S/N_C bounds the rounded quotient too.
    """
    g = ens.g_prime
    if g <= 0.0:
        raise DomainError("tuning undefined for zero gain")
    landmarks = _landmarks(ens.lambda_prime, ens.mu)
    det, plateau, _ = _regime_codes(g, landmarks)
    return TuningReport(*_tuning(g, landmarks, det, plateau))


class _FidelityReportFields(NamedTuple):
    det: float
    prob: float
    cft: float


class FidelityReport(_Validated, _FidelityReportFields):
    """The three headline fidelities of a reduced ensemble.

    The ordering 0 <= cft <= det <= prob <= 1 is checked on construction,
    at every gain: the range to an absolute slack of 1e-12, each inequality
    between two fidelities to a relative one, so it holds below 1e-12 too.
    """

    __slots__ = ()

    def __new__(cls, det: float, prob: float, cft: float):
        for name, value in (("det", det), ("prob", prob), ("cft", cft)):
            if not -_ORDER_TOL <= value <= 1.0 + _ORDER_TOL:
                raise DomainError(f"{name} fidelity out of [0, 1]: {value!r}")
        if prob < det - _ORDER_TOL * det:
            raise DomainError(f"fidelity ordering violated: prob {prob!r} < det {det!r}")
        if det < cft - _ORDER_TOL * cft:
            raise DomainError(f"fidelity ordering violated: det {det!r} < cft {cft!r}")
        return super().__new__(cls, det, prob, cft)


def fidelity_report(ens: NoisyEnsemble) -> FidelityReport:
    """Evaluate det/prob/cft; the report checks their ordering."""
    return FidelityReport(det=det_fidelity(ens), prob=prob_fidelity(ens), cft=cft(ens))


def columns(lam, mu, g, n_in, m_out) -> dict:
    """Every sweep field, keyed like a sweep row, by the scalar API's code: the
    task fields as numbers, one a numpy column.  Every branch runs on every row
    (call it under ``np.errstate``); ``regime`` indexes ``params.REGIMES``.
    ``valid`` asks mu, lambda', g' finite and positive, ``FidelityReport``'s
    checks with its slack and z, cos_theta (so y) > 0: it is false exactly
    where a check fails."""
    lam_p, g_p = _reduced(lam, g, n_in, m_out)
    landmarks = _landmarks(lam_p, mu)
    det, plateau, regime = _regime_codes(g_p, landmarks)
    f_det = _pick(det, _DET_BRANCHES, lam_p, mu, g_p)
    f_prob, f_cft = _pick(plateau, _PROB_BRANCHES, lam_p, mu, g_p), _cft_value(lam_p, mu, g_p)
    cosh_r, y, cos_theta, z = _tuning(g_p, landmarks, det, plateau)
    valid = (_finite_positive(mu) & _finite_positive(lam_p) & _finite_positive(g_p)
             & (f_prob >= f_det - _ORDER_TOL * f_det) & (f_det >= f_cft - _ORDER_TOL * f_cft)
             & (z > 0.0) & (cos_theta > 0.0))
    for f in (f_det, f_prob, f_cft):
        valid = valid & (-_ORDER_TOL <= f) & (f <= 1.0 + _ORDER_TOL)
    names = "g_prime f_det f_prob f_cft regime cosh_r y cos_theta z valid".split()
    return dict(zip(names, np.broadcast_arrays(
        g_p, f_det, f_prob, f_cft, regime, cosh_r, y, cos_theta, z, valid)))


def photon_output_det(task: MultimodeTask) -> tuple[float, float]:
    """Mean thermal photon numbers after the deterministic protocol.

    Returns (n_total_out, n_single_out): total over the M output modes and
    per single output mode, counting noise photons (signal excluded).  The
    bright mode carries cosh^2(r) (N_single + 1) - 1 photons after squeezing
    and cos^2(theta) N_single otherwise, which is N_single for the identity
    (cos theta = 1); it is split evenly over the M outputs.
    """
    ens = reduce(task)
    n_single_in = photon_book(ens).n_t
    tuning = tune(ens)
    if tuning.cosh_r > 1.0:
        bright = tuning.cosh_r * tuning.cosh_r * (n_single_in + 1.0) - 1.0
    else:
        bright = tuning.cos_theta * tuning.cos_theta * n_single_in
    return bright, bright / task.m_out


def _filtered_n_t(mu, y):
    """N_T' = N_T y^2 mu/((1 - y)(1 + y) + mu), the thermal occupation behind
    the filter at ratio y; its pole at y^2 = 1 + mu (where the filtered state
    stops being normalisable) and beyond raise a DomainError."""
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"filter ratio y must be finite and > 0, got {y!r}")
    if y * y >= 1.0 + mu:
        raise DomainError(
            f"filter ratio y = {y!r} at or beyond the pole sqrt(1 + mu); "
            "the filtered ensemble is not normalisable"
        )
    return 1.0 / mu * y * y * mu / ((1.0 - y) * (1.0 + y) + mu)


def photon_output_prob(task: MultimodeTask, y: float) -> tuple[float, float, float]:
    """Mean thermal photon numbers after the probabilistic protocol.

    Returns (n_t_out, n_total_out, n_single_out).  n_t_out is the
    post-filter thermal occupation N_T' at filter ratio y (``_filtered_n_t``);
    N_T' < N_T whenever y < 1 (the filter then purifies) and N_T' = N_T at
    y = 1.  n_total_out / n_single_out are the tuned protocol's, from the
    same law: below the amplify threshold (cosh r = 1) the bright mode
    carries N_T' at ``tune``'s y, split evenly over the M outputs as in
    ``photon_output_det``; beyond it the filter is passive (y = 1), the
    protocol is the deterministic squeezer and its totals are
    ``photon_output_det``'s.
    """
    ens = reduce(task)
    n_t_out = _filtered_n_t(ens.mu, y)
    tuning = tune(ens)
    if tuning.cosh_r > 1.0:
        return (n_t_out, *photon_output_det(task))
    bright = _filtered_n_t(ens.mu, tuning.y)
    return n_t_out, bright, bright / task.m_out
