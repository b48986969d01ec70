"""Optimal amplification and purification of noisy coherent-state ensembles.

Closed-form optimal fidelities (deterministic, probabilistic, and
classical) for Gaussian-modulated displaced thermal states, together with
a truncated Fock-space oracle and the operator-norm bound machinery that
certifies the closed forms.  Numpy and that oracle layer execute on first use.
"""

import importlib

from ._lazy import lazy
from .errors import (
    AmpurifyError,
    DomainError,
    NonConvergentError,
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

_ORACLES = ("scalaropt", "gaussian", "fock", "bounds", "verify")
for _name in _ORACLES:  # registered, not bound: a from-import must execute it
    lazy(f"{__name__}.{_name}")
del _name


def __getattr__(name: str):
    """The oracle modules and the bounds names, executed on first access."""
    if name in _ORACLES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in ("det_limit", "det_upper_bound", "kappa_star", "minimize_det_bound"):
        return getattr(importlib.import_module(f"{__name__}.bounds"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AmpurifyError",
    "DomainError",
    "MultimodeTask",
    "NoisyEnsemble",
    "NonConvergentError",
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
