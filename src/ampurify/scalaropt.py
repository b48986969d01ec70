"""Derivative-free scalar minimisation (golden-section search)."""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0   # 1/phi
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section_min(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Minimise a unimodal f on [lo, hi]; returns (x_min, f(x_min)).

    tol is the absolute bracket width at which the search stops; the
    returned point is the bracket midpoint.  A bracket end that is not
    finite is a DomainError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"bracket ends must be finite, got [{lo!r}, {hi!r}]")
    if hi < lo:
        lo, hi = hi, lo
    h = hi - lo
    if h <= tol:
        x = 0.5 * (lo + hi)
        return x, f(x)
    n_steps = int(math.ceil(math.log(tol / h) / math.log(INV_PHI)))
    c = lo + INV_PHI2 * h
    d = lo + INV_PHI * h
    fc, fd = f(c), f(d)
    for _ in range(n_steps):
        if fc < fd:
            hi, d, fd = d, c, fc
            h *= INV_PHI
            c = lo + INV_PHI2 * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h *= INV_PHI
            d = lo + INV_PHI * h
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)
