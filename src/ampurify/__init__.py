"""Optimal amplification and purification of noisy coherent-state ensembles.

Closed-form optimal fidelities (deterministic, probabilistic, and
classical) for Gaussian-modulated displaced thermal states, together with
a truncated Fock-space oracle and the operator-norm bound machinery that
certifies the closed forms.
"""

from .bounds import det_limit, det_upper_bound, kappa_star, minimize_det_bound
from .errors import (
    AmpurifyError,
    DomainError,
    NonConvergentError,
    QuadratureError,
    RootError,
    TruncationError,
    ValidityError,
)
from .formulas import (
    cft,
    det_fidelity,
    fidelity_report,
    photon_output_det,
    photon_output_prob,
    prob_fidelity,
    tune,
)
from .params import (
    MultimodeTask,
    NoisyEnsemble,
    classify,
    photon_book,
    reduce,
    thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "AmpurifyError",
    "DomainError",
    "MultimodeTask",
    "NoisyEnsemble",
    "NonConvergentError",
    "QuadratureError",
    "RootError",
    "TruncationError",
    "ValidityError",
    "cft",
    "classify",
    "det_fidelity",
    "det_limit",
    "det_upper_bound",
    "fidelity_report",
    "kappa_star",
    "minimize_det_bound",
    "photon_book",
    "photon_output_det",
    "photon_output_prob",
    "prob_fidelity",
    "reduce",
    "thresholds",
    "tune",
    "__version__",
]
