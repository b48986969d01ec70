"""Truncated Fock-space brute-force oracle.

Everything works on dense numpy matrices in the number basis {|0>, ...,
|dim-1>}.  Every channel but the heterodyne measure-and-prepare is diagonal
up to a photon-number shift, with Kraus operators
A_k = sum_n W[n, k] |n + shift k><n| applied by ``_apply_shift_kraus``: the
two-mode squeezer has shift +1, the beamsplitter -1 and the diagonal filter
0 (one weight column).  Squeezer and beamsplitter weights come from the
sectors their generators conserve (n_a - n_b resp. n_a + n_b): each sector
column is the exponential of a truncated antisymmetric tridiagonal
(``_sector_column``), which is exactly orthogonal, so probability never
leaks; the only approximation relative to the infinite-dimensional channel
is the reflecting boundary at the sector cutoff, controlled by the energy
preconditions.

Prior averages reduce to a radial integral: every state, channel and target
in the protocols is phase covariant, so the 2-D Gaussian prior integral
collapses to the Gauss-Laguerre rule of ``prior_nodes`` in
t = lambda'|alpha|^2 (an optional angular grid re-checks this numerically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
# scipy.special before scipy.linalg: the other order measured ~50 ms slower
# on a cold `import ampurify.cli` (numpy 2.4, scipy 1.17)
from scipy.special import gammaincc, gammaln, roots_laguerre
import scipy.linalg

from .errors import DomainError, QuadratureError, TruncationError
from .params import NoisyEnsemble

#: quadrature weights below this are skipped (they underflow any integrand)
_WEIGHT_FLOOR = 1e-280


@dataclass(eq=False)
class FockDensity:
    """A (possibly sub-normalised) density matrix at Fock cutoff ``dim``."""

    dim: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        if self.mat.shape != (self.dim, self.dim):
            raise DomainError(
                f"matrix shape {self.mat.shape} does not match dim {self.dim}"
            )

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclass(frozen=True)
class FilterSpec:
    """Diagonal filter sum_{n <= k_cut} y^(n - k_cut) |n><n|.

    For y >= 1 every coefficient is <= 1 (trace non-increasing); for y < 1
    the normalisation puts the largest coefficient y^(-k_cut) at n = 0, which
    is harmless for ratio-form fidelities (they are scale invariant).
    """

    k_cut: int
    y: float

    def __post_init__(self) -> None:
        if not isinstance(self.k_cut, int) or self.k_cut < 0:
            raise DomainError(f"k_cut must be an integer >= 0, got {self.k_cut!r}")
        if not (math.isfinite(self.y) and self.y > 0.0):
            raise DomainError(f"y must be finite and > 0, got {self.y!r}")


def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights, less those weighing at most _WEIGHT_FLOOR."""
    t, w = roots_laguerre(nodes)
    keep = w > _WEIGHT_FLOOR
    return t[keep], w[keep]


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Polar grid: Gauss-Laguerre in t = |beta|^2 times uniform angles."""

    radial_t: np.ndarray = field(repr=False)
    radial_w: np.ndarray = field(repr=False)
    n_angles: int

    @classmethod
    def polar(cls, radial_nodes: int = 80, angular_nodes: int = 32) -> "QuadratureGrid":
        if radial_nodes < 1 or angular_nodes < 1:
            raise DomainError("quadrature grid needs at least one node per axis")
        t, w = _laguerre_rule(radial_nodes)
        return cls(radial_t=t, radial_w=w, n_angles=angular_nodes)


def _coherent_ket_raw(amp: complex, dim: int) -> np.ndarray:
    """Truncated coherent vector for any amplitude.

    Components are assembled from log magnitudes, so amplitudes far beyond
    the cutoff underflow to zero entries instead of overflowing partial
    products (the exact limit of the truncated series).
    """
    a = complex(amp)
    mod = abs(a)
    ket = np.zeros(dim, dtype=complex)
    if mod == 0.0:
        ket[0] = 1.0
        return ket
    n = np.arange(dim)
    logmag = -0.5 * mod * mod + n * math.log(mod) - 0.5 * gammaln(n + 1.0)
    ket[:] = np.exp(logmag)
    phi = math.atan2(a.imag, a.real)
    if phi != 0.0:
        ket *= np.exp(1j * phi * n)
    return ket


def coherent_ket(amp: complex, dim: int) -> np.ndarray:
    """|amp> truncated to dim levels; requires |amp|^2 <= dim/4.

    Under that energy margin the missing Poisson tail is far below 1e-10
    for the cutoffs used here (dim >= 64).
    """
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim!r}")
    if abs(amp) ** 2 > dim / 4.0:
        raise TruncationError(
            f"|amp|^2 = {abs(amp)**2:.3g} exceeds dim/4 = {dim / 4.0:.3g}"
        )
    return _coherent_ket_raw(amp, dim)


@lru_cache(maxsize=8)
def _displacement_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # eigendecomposition of the Hermitian i(a - a^dag); reused for every
    # displacement amplitude at this cutoff
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    h = 1j * (a - a.conj().T)
    w, v = np.linalg.eigh(h)
    return w, v


def _displacement(amp: complex, dim: int) -> np.ndarray:
    """Truncated displacement operator exp(amp a^dag - conj(amp) a)."""
    w, v = _displacement_basis(dim)
    mod = abs(complex(amp))
    d = (v * np.exp(1j * mod * w)) @ v.conj().T
    phi = math.atan2(complex(amp).imag, complex(amp).real)
    if phi != 0.0:
        ph = np.exp(1j * phi * np.arange(dim))
        d = ph[:, None] * d * ph.conj()[None, :]
    return d


def _thermal_diag(nbar: float, dim: int) -> np.ndarray:
    """Thermal occupation probabilities for nbar > 0."""
    q = nbar / (nbar + 1.0)
    return np.exp(np.arange(dim) * math.log(q)) / (nbar + 1.0)


def _displaced_thermal_raw(amp: complex, nbar: float, dim: int) -> np.ndarray:
    if nbar == 0.0:
        k = _coherent_ket_raw(amp, dim)
        return np.outer(k, k.conj())
    d = _displacement(amp, dim)
    return (d * _thermal_diag(nbar, dim)) @ d.conj().T


def displaced_thermal_density(amp: complex, nbar: float, dim: int) -> FockDensity:
    """D(amp) rho_th(nbar) D(amp)^dag at cutoff dim.

    Requires |amp|^2 + nbar <= dim/4 so that the state actually fits; the
    construction is rejected if the realised trace strays from 1.
    """
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise DomainError(f"nbar must be finite and >= 0, got {nbar!r}")
    if abs(amp) ** 2 + nbar > dim / 4.0:
        raise TruncationError(
            f"|amp|^2 + nbar = {abs(amp)**2 + nbar:.3g} exceeds dim/4 = {dim / 4.0:.3g}"
        )
    mat = _displaced_thermal_raw(amp, nbar, dim)
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > 1e-8:
        raise TruncationError(f"displaced thermal trace {tr!r} deviates from 1")
    return FockDensity(dim, mat)


def _sector_column(couplings: np.ndarray, angle: float) -> np.ndarray:
    """First column of exp(angle G), G the antisymmetric tridiagonal with
    G[j+1, j] = couplings[j] = -G[j, j+1]."""
    gen = np.diag(couplings, -1) - np.diag(couplings, 1)
    return scipy.linalg.expm(angle * gen)[:, 0]


def _apply_shift_kraus(
    rho: FockDensity, weights: np.ndarray, shift: int, dim_out: int
) -> FockDensity:
    """sum_k A_k rho A_k^dag with A_k = sum_n W[n, k] |n + shift k><n|; levels
    mapped outside [0, dim_out) are dropped (the beamsplitter's n < k, of
    zero weight)."""
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for k in range(weights.shape[1]):
        lo = max(0, -shift * k)
        hi = min(rho.dim, dim_out - shift * k)
        a = lo + shift * k
        col = weights[lo:hi, k]
        out[a : a + hi - lo, a : a + hi - lo] += (
            col[:, None] * rho.mat[lo:hi, lo:hi] * col[None, :]
        )
    return FockDensity(dim_out, out)


@lru_cache(maxsize=64)
def _squeezer_weights(r: float, n_levels: int, dim_anc: int) -> np.ndarray:
    """Amplitudes <n+k, k| exp(r(a^dag b^dag - a b)) |n, 0> as W[n, k].

    The generator conserves n_a - n_b, so level n evolves inside the sector
    {|n+k, k>} with couplings sqrt((n+k+1)(k+1)).
    """
    W = np.zeros((n_levels, dim_anc))
    k = np.arange(1.0, dim_anc)
    for n in range(n_levels):
        W[n] = _sector_column(np.sqrt((n + k) * k), r)
    return W


def apply_two_mode_squeezer(rho: FockDensity, r: float, dim_anc: int = 64) -> FockDensity:
    """Quantum-limited amplifier: couple to a vacuum ancilla with
    exp(r(a^dag b^dag - a b)) and trace the ancilla out.

    The output cutoff grows to rho.dim + dim_anc - 1 to hold the amplified
    energy; dim_anc should comfortably exceed the amplified photon spread
    (the sector exponentials reflect at the ancilla cutoff).
    """
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"squeeze parameter must be >= 0, got {r!r}")
    if dim_anc < 2:
        raise DomainError(f"dim_anc must be >= 2, got {dim_anc!r}")
    if r == 0.0:
        return FockDensity(rho.dim, rho.mat.copy())
    weights = _squeezer_weights(float(r), rho.dim, dim_anc)
    out = _apply_shift_kraus(rho, weights, 1, rho.dim + dim_anc - 1)
    tr_in, tr_out = rho.trace(), out.trace()
    if abs(tr_out - tr_in) > 1e-6:
        raise TruncationError(
            f"squeezer lost trace: {tr_in!r} -> {tr_out!r}; increase dim_anc"
        )
    return out


@lru_cache(maxsize=64)
def _attenuator_weights(theta: float, n_levels: int) -> np.ndarray:
    """Amplitudes <n-k, k| exp(theta(a^dag b - b^dag a)) |n, 0> as W[n, k].

    Here n_a + n_b is conserved: sectors are finite regardless of cutoff, so
    the beamsplitter needs no ancilla headroom at all.  The sector generator
    is the transpose of the squeezer's form, hence the angle -theta.
    """
    W = np.zeros((n_levels, n_levels))
    for n in range(n_levels):
        j = np.arange(1.0, n + 1)
        W[n, : n + 1] = _sector_column(np.sqrt(j * (n - j + 1.0)), -theta)
    return W


def apply_attenuator(rho: FockDensity, theta: float) -> FockDensity:
    """Beamsplitter of angle theta against a vacuum ancilla (amp -> cos(theta) amp)."""
    if not 0.0 <= theta <= math.pi / 2.0:
        raise DomainError(f"theta must be in [0, pi/2], got {theta!r}")
    if theta == 0.0:
        return FockDensity(rho.dim, rho.mat.copy())
    return _apply_shift_kraus(rho, _attenuator_weights(float(theta), rho.dim), -1, rho.dim)


def apply_filter(rho: FockDensity, f: FilterSpec) -> FockDensity:
    """Apply the diagonal filter: Q rho Q^dag with Q = y^(-K) sum y^n |n><n|."""
    if f.k_cut >= rho.dim:
        raise DomainError(
            f"filter rank k_cut = {f.k_cut} must be below the cutoff dim = {rho.dim}"
        )
    n = np.arange(rho.dim)
    coeff = np.where(n <= f.k_cut, f.y ** (n - float(f.k_cut)), 0.0)
    return _apply_shift_kraus(rho, coeff[:, None], 0, rho.dim)


def apply_heterodyne_mp(rho: FockDensity, z: float, grid: QuadratureGrid) -> FockDensity:
    """Heterodyne measure-and-prepare channel.

        rho -> integral (d^2 beta / pi) <beta|rho|beta> |z beta><z beta|

    evaluated on the polar grid.  The Husimi factor is computed as
    u^dag rho u with the *unnormalised* coherent rows u_n = beta^n/sqrt(n!),
    absorbing exp(-|beta|^2) into the Gauss-Laguerre weight, so nothing
    overflows.

    Trace conservation is enforced to 1e-6 plus the grid's angular aliasing
    allowance: an n_angles-point angular rule cannot separate Fock
    coherences whose index distance is a multiple of n_angles, and each such
    coherence enters the output trace with weight at most 1, so the
    allowance is the summed magnitude of those far coherences in the input
    (zero for states narrower than the angular grid).
    """
    if not (math.isfinite(z) and z >= 0.0):
        raise DomainError(f"re-preparation scale z must be >= 0, got {z!r}")
    dim = rho.dim
    tail = float(gammaincc(dim, grid.radial_t[-1]))
    if tail > 1e-8:
        raise QuadratureError(
            f"radial grid covers the Husimi support to tail mass {tail:.3g} > 1e-8"
        )
    t, w = grid.radial_t, grid.radial_w
    n_ang = grid.n_angles
    angles = 2.0 * math.pi * np.arange(n_ang) / n_ang

    n = np.arange(dim)
    half_lg = 0.5 * gammaln(n + 1.0)
    phases = np.exp(1j * np.outer(n, angles))                    # dim x A
    log_t = np.log(t)
    u_base = np.exp(0.5 * n[:, None] * log_t[None, :] - half_lg[:, None])  # dim x R
    u_all = (u_base[:, :, None] * phases[:, None, :]).reshape(dim, -1)

    husimi = np.einsum("nk,nk->k", u_all.conj(), rho.mat @ u_all).real

    if z == 0.0:
        k_base = np.zeros((dim, t.size))
        k_base[0] = 1.0
    else:
        zt = z * z * t
        k_base = np.exp(
            -0.5 * zt[None, :] + 0.5 * n[:, None] * np.log(zt)[None, :] - half_lg[:, None]
        )
    k_all = (k_base[:, :, None] * phases[:, None, :]).reshape(dim, -1)

    coeff = husimi * np.repeat(w / n_ang, n_ang)
    out = (k_all * coeff[None, :]) @ k_all.conj().T

    tr_in, tr_out = rho.trace(), float(np.trace(out).real)
    allowance = 0.0
    for d in range(n_ang, dim, n_ang):
        allowance += 2.0 * float(np.abs(np.diagonal(rho.mat, offset=d)).sum())
    if abs(tr_out - tr_in) > 1e-6 + allowance:
        raise TruncationError(
            f"measure-and-prepare lost trace: {tr_in!r} -> {tr_out!r}; "
            "increase dim or the grid"
        )
    return FockDensity(dim, out)


def prior_nodes(lambda_prime: float, radial_nodes: int) -> Iterator[tuple[float, float]]:
    """Gauss-Laguerre rule for the Gaussian prior as (|alpha|, weight) pairs.

    Substituting t = lambda'|alpha|^2 turns the prior average of a phase
    covariant integrand into sum_i w_i f(sqrt(t_i / lambda')).  Nodes whose
    weight is at or below _WEIGHT_FLOOR are skipped.
    """
    for t, w in zip(*_laguerre_rule(radial_nodes)):
        yield math.sqrt(t / lambda_prime), w


def avg_fidelity_numeric(
    ens: NoisyEnsemble,
    channel: Callable[[FockDensity], FockDensity],
    dim: int = 64,
    radial_nodes: int = 80,
    *,
    probabilistic: bool = False,
    angular_nodes: int | None = None,
) -> float:
    """Gaussian-prior average fidelity of an arbitrary Fock-space channel.

    For each radial node t, the input D(alpha) rho_th D^dag with
    alpha = sqrt(t / lambda') is pushed through ``channel`` and projected on
    the target |g' alpha>.  The caller declares the channel phase covariant,
    which justifies the radial-only reduction; pass ``angular_nodes`` to
    re-check that numerically with a full polar grid.

    probabilistic=True returns the ratio form: prior-averaged numerator over
    prior-averaged success weight (output trace), matching how heralded
    filter protocols are scored.
    """
    if dim < 2 or radial_nodes < 2:
        raise DomainError("need dim >= 2 and radial_nodes >= 2")
    nbar = 1.0 / ens.mu
    if angular_nodes:
        phases = np.exp(2j * math.pi * np.arange(angular_nodes) / angular_nodes)
    else:
        phases = np.array([1.0 + 0.0j])
    num = 0.0
    den = 0.0
    for radius, w in prior_nodes(ens.lambda_prime, radial_nodes):
        f_avg = 0.0
        p_avg = 0.0
        for ph in phases:
            alpha = radius * ph
            rho_out = channel(FockDensity(dim, _displaced_thermal_raw(alpha, nbar, dim)))
            target = _coherent_ket_raw(ens.g_prime * alpha, rho_out.dim)
            f_avg += float(np.real(target.conj() @ (rho_out.mat @ target)))
            p_avg += rho_out.trace() if probabilistic else 1.0
        num += w * f_avg / phases.size
        den += w * p_avg / phases.size
    return num / den if probabilistic else num


def fit_thermal_nbar(rho: FockDensity) -> float:
    """Occupation of the geometric law best fitting rho's diagonal.

    Least-squares fit of log p_n against n (exact whenever the diagonal is
    exactly geometric, e.g. thermal states and filtered thermal states, even
    when truncated).  Raises DomainError if the diagonal does not decay.
    """
    p = np.real(np.diag(rho.mat))
    keep = p > 1e-300
    n = np.arange(rho.dim)[keep]
    if n.size < 2:
        raise DomainError("need at least two occupied levels to fit a thermal law")
    slope = np.polyfit(n, np.log(p[keep]), 1)[0]
    q = math.exp(slope)
    if q >= 1.0:
        raise DomainError(f"diagonal is not a decaying geometric law (ratio {q:.6g})")
    return q / (1.0 - q)
