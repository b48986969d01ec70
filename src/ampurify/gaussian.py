"""The paper's protocols as channel descriptions, and the prior-averaged
fidelity of the deterministic ones in closed form.

A deterministic protocol is a one-mode phase-insensitive Gaussian channel,
the pair (s, nbar) of ``GaussianChannel``: s scales every amplitude, and
nbar is the occupation of its adjoint's displaced thermal output.  It takes
a displaced thermal state of amplitude amp and occupation n to s amp and
s^2 (n + nbar + 1) - 1 (the Schrodinger picture):

    identity():        (1, 0)                    n -> n
    attenuator(theta): (cos theta, tan^2 theta)  n -> cos^2 theta n
    amplifier(r):      (cosh r, 0)               n -> cosh^2 r n + sinh^2 r
    heterodyne(z):     (z, 1/z^2)                n -> z^2 (n + 1)

so displaced thermal states stay displaced thermal, and the average is a
one-line Gaussian integral.  The heralded protocol is the rank-K filter
``FilterSpec``, which ``fock`` scores and ``bounds`` brackets.  The module
runs on plain ``math``, so neither costs a point command a numpy import.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .params import NoisyEnsemble, _Validated, _require_int

#: below this scale a Gaussian channel of nbar > 0 takes its s -> 0 limit, the
#: vacuum output, where s^2 nbar = 1: the heterodyne's nbar = 1/z^2 is infinite there
_SMALL_Z = 1e-20


class GaussianChannel(NamedTuple):
    """Phase-insensitive Gaussian channel of scale s (amp -> s amp), described
    by its adjoint, which maps the projector on a target |t> to the displaced
    thermal state D(t/s) rho_th(nbar) D(t/s)^dag / s^2.  Build it with one of
    the four constructors, which check their parameter; those of nbar > 0
    have (1 + nbar) s^2 -> 1 as s -> 0, where the output is vacuum."""

    scale: float
    nbar: float

    @classmethod
    def identity(cls) -> "GaussianChannel":
        """The channel that does nothing."""
        return cls(1.0, 0.0)

    @classmethod
    def attenuator(cls, theta: float) -> "GaussianChannel":
        """Beamsplitter of angle theta against a vacuum ancilla: the Husimi
        function of its adjoint, <b|Phi^dag(|t><t|)|b> = |<t|b cos theta>|^2 =
        e^(-|t - b cos theta|^2), is that of s = cos theta, nbar = tan^2 theta."""
        if not 0.0 <= theta <= math.pi / 2.0:
            raise DomainError(f"theta must be in [0, pi/2], got {theta!r}")
        tan = math.tan(theta)
        return cls(math.cos(theta), tan * tan)

    @classmethod
    def amplifier(cls, r: float) -> "GaussianChannel":
        """Amplifier of gain cosh^2 r: the two-mode squeezer exp(r(a^dag b^dag - a b))
        on a vacuum ancilla, traced out.  Its adjoint rescales a coherent projector,
        |t><t| -> |t/cosh r><t/cosh r| / cosh^2 r: s = cosh r and nbar = 0.
        An r whose cosh r overflows a float is a DomainError."""
        if not (math.isfinite(r) and r >= 0.0):
            raise DomainError(f"squeeze parameter must be >= 0, got {r!r}")
        try:
            return cls(math.cosh(r), 0.0)
        except OverflowError:
            raise DomainError(f"squeeze parameter r = {r!r} overflows cosh r") from None

    @classmethod
    def heterodyne(cls, z: float) -> "GaussianChannel":
        """Heterodyne measure-and-prepare channel, rho -> integral (d^2 beta / pi)
        <beta|rho|beta> |z beta><z beta|.  Its adjoint, integral (d^2 beta / pi)
        e^(-|t - z beta|^2) |beta><beta|, has s = z and nbar = 1/z^2 (infinite
        below ``_SMALL_Z``)."""
        if not (math.isfinite(z) and z >= 0.0):
            raise DomainError(f"re-preparation scale z must be >= 0, got {z!r}")
        return cls(z, 1.0 / (z * z) if z >= _SMALL_Z else math.inf)


class _FilterSpecFields(NamedTuple):
    k_cut: int
    y: float


class FilterSpec(_Validated, _FilterSpecFields):
    """Diagonal filter sum_{n <= k_cut} y^n |n><n|, scaled to unit norm: its
    largest coefficient, at n = k_cut for y >= 1 and at n = 0 for y < 1, is 1,
    so it is a contraction, as a heralded operation must be.  The scale does
    not move a filter average, which is in the ratio form."""

    __slots__ = ()

    def __new__(cls, k_cut: int, y: float):
        _require_int("k_cut", k_cut, 0)
        if not (math.isfinite(y) and y > 0.0):
            raise DomainError(f"y must be finite and > 0, got {y!r}")
        return super().__new__(cls, k_cut, y)


def avg_fidelity_gaussian(ens: NoisyEnsemble, channel: GaussianChannel) -> float:
    """Prior-averaged fidelity of a Gaussian protocol.

    Averaging the overlap <g' alpha| rho_out |g' alpha> =
    exp(-|g' alpha - s alpha|^2 / (nbar_out + 1)) / (nbar_out + 1) of the
    output, nbar_out + 1 = s^2 (1/mu + 1) + s^2 nbar on the thermal input
    1/mu, over the Gaussian prior gives

        F = lambda' / (lambda' (s^2 (1/mu + 1) + s^2 nbar) + (g' - s)^2),

    with s^2 nbar = 1 below ``_SMALL_Z``, and 0 where nbar = 0 even if s^2
    overflows.  For the
    squeezer this is lambda' mu / (lambda'(mu+1) cosh^2 r + mu (g' - cosh r)^2);
    measure and prepare at z = g' N_C/(S + 1) attains the classical threshold
    cft.  The squares are products, so a term past the float range is inf
    and F is 0, within 1e-300 of its exact value.
    """
    s, nbar = channel
    added = 1.0 if s < _SMALL_Z else s * s * nbar if nbar else 0.0
    lam, miss = ens.lambda_prime, ens.g_prime - s
    return lam / (lam * (s * s * (1.0 / ens.mu + 1.0) + added) + miss * miss)
