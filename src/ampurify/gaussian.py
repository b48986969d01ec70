"""Closed-form calculus for displaced thermal states under one-parameter
phase-insensitive Gaussian channels.

A state is the pair (amp, nbar): rho = D(amp) rho_th(nbar) D(amp)^dagger with
rho_th the thermal state of mean photon number nbar.  Every channel here maps
amp -> s amp and nbar -> s^2 (nbar + before) + after, with (s, before, after)

    TwoModeSqueeze(r):  (cosh r, 0, sinh^2 r)  a -> cosh(r) a + sinh(r) b^dag
    Attenuate(theta):   (cos theta, 0, 0)      a -> cos(theta) a + sin(theta) b
    MeasurePrepare(z):  (z, 1, 0)              heterodyne, then prepare |z beta>
    Identity:           (1, 0, 0)

(b a vacuum ancilla, traced out; heterodyne adds one vacuum unit before the
re-preparation scales it), so displaced thermal states stay displaced
thermal, which is what makes the averaged fidelity a one-line Gaussian
integral.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .params import NoisyEnsemble


@dataclass(frozen=True)
class DisplacedThermal:
    """Displacement amplitude and thermal occupation of a Gaussian state."""

    amp: complex
    nbar: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nbar) and self.nbar >= 0.0):
            raise DomainError(f"nbar must be finite and >= 0, got {self.nbar!r}")
        if not (math.isfinite(abs(complex(self.amp)))):
            raise DomainError("amp must be finite")


class ChannelKind(enum.Enum):
    TWO_MODE_SQUEEZE = "TwoModeSqueeze"
    ATTENUATE = "Attenuate"
    MEASURE_PREPARE = "MeasurePrepare"
    IDENTITY = "Identity"


@dataclass(frozen=True)
class ChannelParam:
    """A channel tag plus its single real parameter.

    value is the squeeze parameter r >= 0, the beamsplitter angle
    theta in [0, pi/2], the re-preparation scale z >= 0, or ignored for
    Identity.
    """

    kind: ChannelKind
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in (ChannelKind.TWO_MODE_SQUEEZE, ChannelKind.MEASURE_PREPARE):
            if not (math.isfinite(self.value) and self.value >= 0.0):
                raise DomainError(f"{self.kind.value} parameter must be >= 0, got {self.value!r}")
        elif self.kind is ChannelKind.ATTENUATE:
            if not (0.0 <= self.value <= math.pi / 2.0):
                raise DomainError(
                    f"attenuation angle must be in [0, pi/2], got {self.value!r}"
                )


def apply_gaussian(state: DisplacedThermal, ch: ChannelParam) -> DisplacedThermal:
    """Push a displaced thermal state through a channel, in closed form."""
    v = ch.value
    s, before, after = 1.0, 0.0, 0.0  # Identity
    if ch.kind is ChannelKind.TWO_MODE_SQUEEZE:
        s, before, after = math.cosh(v), 0.0, math.sinh(v) ** 2
    elif ch.kind is ChannelKind.ATTENUATE:
        s, before, after = math.cos(v), 0.0, 0.0
    elif ch.kind is ChannelKind.MEASURE_PREPARE:
        s, before, after = v, 1.0, 0.0
    return DisplacedThermal(amp=s * state.amp, nbar=s * s * (state.nbar + before) + after)


def coherent_overlap(state: DisplacedThermal, target_amp: complex) -> float:
    """<beta| rho |beta> for a displaced thermal rho and coherent |beta>.

    Equals exp(-|beta - amp|^2 / (nbar + 1)) / (nbar + 1).
    """
    d = abs(complex(target_amp) - complex(state.amp))
    return math.exp(-d * d / (state.nbar + 1.0)) / (state.nbar + 1.0)


def avg_fidelity_gaussian(ens: NoisyEnsemble, ch: ChannelParam) -> float:
    """Prior-averaged fidelity of a one-parameter Gaussian protocol.

    Averaging coherent_overlap(applied state, g' alpha) over the Gaussian
    prior gives

        F = lambda' / (lambda' (nbar_out + 1) + (g' - s)^2)

    with s the channel's amplitude scale and nbar_out its output occupation
    on the thermal input nbar = 1/mu.  For the squeezer this is
    lambda' mu / (lambda'(mu+1) cosh^2 r + mu (g' - cosh r)^2); measure and
    prepare at z = g' N_C/(S + 1) attains the classical threshold cft.
    """
    out = apply_gaussian(DisplacedThermal(amp=1.0, nbar=1.0 / ens.mu), ch)
    s = out.amp.real
    lam = ens.lambda_prime
    return lam / (lam * (out.nbar + 1.0) + (ens.g_prime - s) ** 2)
