"""Truncated Fock-space brute-force oracle.

Everything works on dense numpy matrices in the number basis {|0>, ...,
|dim-1>}.  A channel is a description, of one of two kinds:

* ``ShiftKraus(weights, shift, dim_out)``: diagonal up to a photon-number
  shift, with Kraus operators A_k = sum_n W[n, k] |n + shift k><n|.  The
  two-mode squeezer has shift +1, the beamsplitter -1, and the diagonal
  filter and the identity 0 (one weight column).  Weights come from the
  sectors the generators conserve: a beamsplitter sector is finite, with a
  binomial closed form; a squeezer sector column is an exactly orthogonal
  truncated exponential, so the only approximation is the reflecting
  boundary at the ancilla cutoff, controlled by the energy preconditions.
* ``Heterodyne(z, grid)``: the measure-and-prepare benchmark, a Husimi
  sample on a polar grid re-prepared as the coherent state |z beta>.

``avg_fidelity_numeric`` scores a description in the adjoint picture and
never builds the output state: <t|A_k rho A_k^dag|t> = v_k^dag rho v_k with
v_k = A_k^dag |t>, and the heterodyne score is sum_j c_j(rho) |<t|z beta_j>|^2
over coherent rows built once per call.  The output trace (the heralding
weight, and every trace guard) comes from the same pieces.  The ``apply_*``
functions build the output state from the same description, for callers
that need the state itself.

Every displacement and squeezer-sector exponential is ``_exp_tridiagonal``
over a cached eigenbasis: one real (batched) product per amplitude or
squeeze parameter.  Displaced states of real amplitude are real matrices.

Prior averages reduce to a radial integral: every state, channel and target
in the protocols is phase covariant, so the 2-D Gaussian prior integral
collapses to the Gauss-Laguerre rule of ``prior_nodes`` in
t = lambda'|alpha|^2 (an optional angular grid re-checks this numerically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np
# imported here rather than on first use: numpy loads numpy.polynomial lazily
from numpy.polynomial.laguerre import laggauss

from .errors import DomainError, QuadratureError, TruncationError
from .params import NoisyEnsemble

#: quadrature weights below this are skipped (they underflow any integrand)
_WEIGHT_FLOOR = 1e-280

#: (input state matrix, target amplitude) -> (<t|out|t>, output trace)
_Scorer = Callable[[np.ndarray, complex], tuple[float, float]]


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


@lru_cache(maxsize=8)
def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights, less those weighing at most _WEIGHT_FLOOR."""
    t, w = laggauss(nodes)
    keep = w > _WEIGHT_FLOOR
    return t[keep], w[keep]


@lru_cache(maxsize=8)
def _log_factorials(size: int) -> np.ndarray:
    """log(n!) for n < size."""
    return np.array([math.lgamma(n + 1.0) for n in range(size)])


def _poisson_cdf(dim: int, t: float) -> float:
    """P(N < dim) for N ~ Poisson(t), the regularised upper incomplete gamma
    Q(dim, t): the mass of the coherent state at |beta|^2 = t below the cutoff."""
    return float(np.exp(np.arange(dim) * math.log(t) - t - _log_factorials(dim)).sum())


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
    """Truncated coherent vector for any amplitude (real for a real one).

    Components are assembled from log magnitudes, so amplitudes far beyond
    the cutoff underflow to zero entries instead of overflowing partial
    products (the exact limit of the truncated series).
    """
    a = complex(amp)
    mod = abs(a)
    n = np.arange(dim)
    if mod == 0.0:
        return (n == 0).astype(float)
    ket = np.exp(-0.5 * mod * mod + n * math.log(mod) - 0.5 * _log_factorials(dim))
    phi = math.atan2(a.imag, a.real)
    if phi != 0.0:
        ket = ket * np.exp(1j * phi * n)
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


def _tridiagonal_eigh(couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric tridiagonal T[j, j+1] = T[j+1, j] =
    couplings[..., j], batched over any leading axes."""
    size = couplings.shape[-1] + 1
    t = np.zeros(couplings.shape[:-1] + (size, size))
    j = np.arange(size - 1)
    t[..., j + 1, j] = t[..., j, j + 1] = couplings
    return np.linalg.eigh(t)


def _exp_tridiagonal(basis: tuple[np.ndarray, np.ndarray], angle: float,
                     cols: slice = slice(None)) -> np.ndarray:
    """Columns ``cols`` of exp(angle G), G antisymmetric tridiagonal with
    G[j+1, j] = c_j = -G[j, j+1], from the eigenpairs (w, V) of the symmetric
    T with the same couplings (batched like ``basis``).

    G = -i S T S^-1 with S = diag(i^j), and T is bipartite: cos(angle T)
    fills the even diagonals and sin(angle T) the odd ones, so
    exp(angle G)[m, n] = (-1)^floor((m - n)/2) (V diag(cos + sin)(angle w) V^T)[m, n].
    """
    w, v = basis
    m = np.arange(w.shape[-1])
    sign = 1.0 - 2.0 * ((m[:, None] - m[cols][None, :]) // 2 % 2)
    spectral = v * (np.cos(angle * w) + np.sin(angle * w))[..., None, :]
    return sign * (spectral @ np.swapaxes(v[..., cols, :], -1, -2))


@lru_cache(maxsize=8)
def _displacement_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # a^dag - a couples |k-1> and |k> with sqrt(k); reused for every amplitude
    return _tridiagonal_eigh(np.sqrt(np.arange(1.0, dim)))


@lru_cache(maxsize=8)
def _squeezer_basis(n_levels: int, dim_anc: int) -> tuple[np.ndarray, np.ndarray]:
    # sector n of a^dag b^dag - a b: |n+k-1, k-1> -> |n+k, k> with sqrt((n+k)k)
    k = np.arange(1.0, dim_anc)
    return _tridiagonal_eigh(np.sqrt((np.arange(n_levels)[:, None] + k) * k))


def _thermal_diag(nbar: float, dim: int) -> np.ndarray:
    """Thermal occupation probabilities for nbar > 0."""
    q = nbar / (nbar + 1.0)
    return np.exp(np.arange(dim) * math.log(q)) / (nbar + 1.0)


def _displaced_thermal_raw(amp: complex, nbar: float, dim: int) -> np.ndarray:
    """D(amp) rho_th(nbar) D(amp)^dag, real for a real amplitude: the state at
    |amp|, rotated by the phase of amp."""
    if nbar == 0.0:
        k = _coherent_ket_raw(amp, dim)
        return np.outer(k, k.conj())
    a = complex(amp)
    d = _exp_tridiagonal(_displacement_basis(dim), abs(a))
    rho = (d * _thermal_diag(nbar, dim)) @ d.T
    phi = math.atan2(a.imag, a.real)
    if phi != 0.0:
        ph = np.exp(1j * phi * np.arange(dim))
        rho = ph[:, None] * rho * ph.conj()[None, :]
    return rho


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


@dataclass(frozen=True, eq=False)
class ShiftKraus:
    """Channel rho -> sum_k A_k rho A_k^dag, A_k = sum_n W[n, k] |n + shift k><n|.

    ``weights`` holds W with one row per input level; levels mapped outside
    [0, dim_out) are dropped (the beamsplitter's n < k, of zero weight).
    ``lossless`` declares the channel trace preserving: an output trace off
    the input trace by more than 1e-6 raises TruncationError (the squeezer's
    ancilla-headroom guard).
    """

    weights: np.ndarray = field(repr=False)
    shift: int
    dim_out: int
    lossless: bool = False

    @classmethod
    def identity(cls, dim: int) -> "ShiftKraus":
        """The channel that does nothing, at cutoff dim."""
        return cls(np.ones((dim, 1)), 0, dim)

    @classmethod
    def squeezer(cls, r: float, dim: int, dim_anc: int = 64) -> "ShiftKraus":
        """Quantum-limited amplifier: couple to a vacuum ancilla with
        exp(r(a^dag b^dag - a b)) and trace the ancilla out.

        W[n, k] = <n+k, k|exp(...)|n, 0> comes from the sector {|n+k, k>} of
        conserved n_a - n_b, all sectors in one batched product.  The output
        cutoff grows to dim + dim_anc - 1 to hold the amplified energy;
        dim_anc should comfortably exceed the amplified photon spread (the
        sector exponentials reflect at the ancilla cutoff).
        """
        if not (math.isfinite(r) and r >= 0.0):
            raise DomainError(f"squeeze parameter must be >= 0, got {r!r}")
        if dim_anc < 2:
            raise DomainError(f"dim_anc must be >= 2, got {dim_anc!r}")
        if r == 0.0:
            return cls.identity(dim)
        weights = _exp_tridiagonal(_squeezer_basis(dim, dim_anc), r, slice(0, 1))[..., 0]
        return cls(weights, 1, dim + dim_anc - 1, True)

    @classmethod
    def attenuator(cls, theta: float, dim: int) -> "ShiftKraus":
        """Beamsplitter of angle theta against a vacuum ancilla (amp -> cos(theta) amp).

        n_a + n_b is conserved, so every sector is finite and
        W[n, k] = <n-k, k|exp(...)|n, 0> = (-1)^k sqrt(C(n, k)) cos^(n-k) sin^k.
        """
        if not 0.0 <= theta <= math.pi / 2.0:
            raise DomainError(f"theta must be in [0, pi/2], got {theta!r}")
        if theta == 0.0:
            return cls.identity(dim)
        n, k = np.ogrid[:dim, :dim]
        n_k = np.maximum(n - k, 0)
        lf = _log_factorials(dim)
        terms = (-1.0) ** k * np.exp(0.5 * (lf[n] - lf[k] - lf[n_k])) * (
            math.cos(theta) ** n_k * math.sin(theta) ** k)
        return cls(np.tril(terms), -1, dim)  # k <= n

    @classmethod
    def filter(cls, f: FilterSpec, dim: int) -> "ShiftKraus":
        """The diagonal filter Q = y^(-K) sum_{n <= K} y^n |n><n|."""
        if f.k_cut >= dim:
            raise DomainError(
                f"filter rank k_cut = {f.k_cut} must be below the cutoff dim = {dim}"
            )
        n = np.arange(dim)
        return cls(np.where(n <= f.k_cut, f.y ** (n - float(f.k_cut)), 0.0)[:, None], 0, dim)

    @cached_property
    def _kept(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W with dropped levels zeroed, output level of each entry, and the
        per-input-level output weight sum_k |W[n, k]|^2)."""
        n = np.arange(self.weights.shape[0])[:, None]
        level = n + self.shift * np.arange(self.weights.shape[1])[None, :]
        inside = (level >= 0) & (level < self.dim_out)
        kept = np.where(inside, self.weights, 0.0)
        return kept, np.where(inside, level, 0), (np.abs(kept) ** 2).sum(axis=1)

    def _check_trace(self, tr_in: float, tr_out: float) -> None:
        if self.lossless and abs(tr_out - tr_in) > 1e-6:
            raise TruncationError(
                f"lossless channel lost trace: {tr_in!r} -> {tr_out!r}; increase dim_anc"
            )

    def _scorer(self, dim: int) -> _Scorer:
        if self.weights.shape[0] != dim:
            raise DomainError(
                f"channel built for {self.weights.shape[0]} input levels, got dim {dim}"
            )
        kept, level, out_weight = self._kept
        kept_conj = kept.conj()

        def score(rho: np.ndarray, target: complex) -> tuple[float, float]:
            # column k of v is A_k^dag |t>, so <t|A_k rho A_k^dag|t> = v_k^dag rho v_k
            v = kept_conj * _coherent_ket_raw(target, self.dim_out)[level]
            tr_out = float(np.real(np.diag(rho)) @ out_weight)
            self._check_trace(float(np.trace(rho).real), tr_out)
            return float(np.vdot(v, rho @ v).real), tr_out

        return score


def _apply_shift_kraus(rho: FockDensity, ch: ShiftKraus) -> FockDensity:
    """The output state sum_k A_k rho A_k^dag of a shift-Kraus channel."""
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in range(ch.weights.shape[1]):
        lo = max(0, -ch.shift * k)
        hi = min(rho.dim, ch.dim_out - ch.shift * k)
        a = lo + ch.shift * k
        col = ch.weights[lo:hi, k]
        out[a : a + hi - lo, a : a + hi - lo] += (
            col[:, None] * rho.mat[lo:hi, lo:hi] * col[None, :].conj()
        )
    res = FockDensity(ch.dim_out, out)
    ch._check_trace(rho.trace(), res.trace())
    return res


def apply_two_mode_squeezer(rho: FockDensity, r: float, dim_anc: int = 64) -> FockDensity:
    """Output state of ``ShiftKraus.squeezer``."""
    return _apply_shift_kraus(rho, ShiftKraus.squeezer(r, rho.dim, dim_anc))


def apply_attenuator(rho: FockDensity, theta: float) -> FockDensity:
    """Output state of ``ShiftKraus.attenuator``."""
    return _apply_shift_kraus(rho, ShiftKraus.attenuator(theta, rho.dim))


def apply_filter(rho: FockDensity, f: FilterSpec) -> FockDensity:
    """Output state of ``ShiftKraus.filter``: Q rho Q^dag."""
    return _apply_shift_kraus(rho, ShiftKraus.filter(f, rho.dim))


@dataclass(frozen=True, eq=False)
class Heterodyne:
    """Heterodyne measure-and-prepare channel.

        rho -> integral (d^2 beta / pi) <beta|rho|beta> |z beta><z beta|

    evaluated on the polar ``grid``.  The Husimi factor is u^dag rho u with
    the *unnormalised* coherent rows u_n = beta^n/sqrt(n!), absorbing
    exp(-|beta|^2) into the Gauss-Laguerre weight, so nothing overflows.
    In the adjoint picture the fidelity against a target |t> is
    sum_j c_j(rho) |<t|z beta_j>|^2 and the output trace sum_j c_j(rho), with
    c_j the quadrature-weighted Husimi factor at node j.

    Trace conservation is enforced to 1e-6 plus the grid's angular aliasing
    allowance: an n_angles-point angular rule cannot separate Fock
    coherences whose index distance is a multiple of n_angles, and each such
    coherence enters the output trace with weight at most 1, so the
    allowance is the summed magnitude of those far coherences in the input
    (zero for states narrower than the angular grid).
    """

    z: float
    grid: QuadratureGrid

    def __post_init__(self) -> None:
        if not (math.isfinite(self.z) and self.z >= 0.0):
            raise DomainError(f"re-preparation scale z must be >= 0, got {self.z!r}")

    def _rows(self, dim: int) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
        """The state-independent part at cutoff dim, for the grid nodes j:
        the map rho -> c_j (the Husimi factor at beta_j times its quadrature
        weight) and the re-prepared kets |z beta_j>, one column each.

        With beta = sqrt(t) e^(i phi), the Husimi factor is summed diagonal
        by diagonal, sum_d e^(i d phi) sum_m rho[m, m+d] u_m(t) u_(m+d)(t),
        which is u^dag rho u for the coherent row u_n = beta^n/sqrt(n!) at
        a fraction of the cost.
        """
        tail = _poisson_cdf(dim, float(self.grid.radial_t[-1]))
        if tail > 1e-8:
            raise QuadratureError(
                f"radial grid covers the Husimi support to tail mass {tail:.3g} > 1e-8"
            )
        t, w = self.grid.radial_t, self.grid.radial_w
        n_ang = self.grid.n_angles
        angles = 2.0 * math.pi * np.arange(n_ang) / n_ang
        quad_w = np.repeat(w / n_ang, n_ang)

        n = np.arange(dim)
        # u_n(t), unnormalised: exp(-t) sits in the Gauss-Laguerre weight
        u_base = np.exp(0.5 * np.outer(n, np.log(t)) - 0.5 * _log_factorials(dim)[:, None])
        offsets = np.arange(1 - dim, dim)
        col = n[None, :] + offsets[:, None]                           # D x dim
        inside = (col >= 0) & (col < dim)
        col = np.where(inside, col, 0)
        uu = np.where(inside[:, :, None], u_base[None, :, :] * u_base[col, :], 0.0)
        spin = np.exp(1j * np.outer(offsets, angles))                 # D x A
        spin_re, spin_im = np.ascontiguousarray(spin.real), np.ascontiguousarray(spin.imag)

        def weights(rho: np.ndarray) -> np.ndarray:
            diag = np.where(inside, rho[n[None, :], col], 0.0)        # rho[m, m + d]
            s_re = np.matmul(diag.real[:, None, :], uu)[:, 0, :]
            s_im = np.matmul(diag.imag[:, None, :], uu)[:, 0, :]
            return (s_re.T @ spin_re - s_im.T @ spin_im).ravel() * quad_w

        k_base = np.stack([_coherent_ket_raw(self.z * math.sqrt(ti), dim) for ti in t], axis=1)
        phases = np.exp(1j * np.outer(n, angles))                    # dim x A
        return weights, (k_base[:, :, None] * phases[:, None, :]).reshape(dim, -1)

    def _check_trace(self, rho: np.ndarray, tr_out: float) -> None:
        tr_in = float(np.trace(rho).real)
        n_ang = self.grid.n_angles
        allowance = 0.0
        for d in range(n_ang, rho.shape[0], n_ang):
            allowance += 2.0 * float(np.abs(np.diagonal(rho, offset=d)).sum())
        if abs(tr_out - tr_in) > 1e-6 + allowance:
            raise TruncationError(
                f"measure-and-prepare lost trace: {tr_in!r} -> {tr_out!r}; "
                "increase dim or the grid"
            )

    def _scorer(self, dim: int) -> _Scorer:
        husimi_weights, k_all = self._rows(dim)
        k_norm2 = np.einsum("nk,nk->k", k_all.conj(), k_all).real

        def score(rho: np.ndarray, target: complex) -> tuple[float, float]:
            c = husimi_weights(rho)
            tr_out = float(c @ k_norm2)
            self._check_trace(rho, tr_out)
            overlap = _coherent_ket_raw(target, dim).conj() @ k_all
            return float(c @ (overlap.real ** 2 + overlap.imag ** 2)), tr_out

        return score


def apply_heterodyne_mp(rho: FockDensity, z: float, grid: QuadratureGrid) -> FockDensity:
    """Output state of ``Heterodyne(z, grid)``."""
    ch = Heterodyne(z, grid)
    husimi_weights, k_all = ch._rows(rho.dim)
    c = husimi_weights(rho.mat)
    out = FockDensity(rho.dim, (k_all * c[None, :]) @ k_all.conj().T)
    ch._check_trace(rho.mat, out.trace())
    return out


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
    channel: ShiftKraus | Heterodyne,
    dim: int = 64,
    radial_nodes: int = 80,
    *,
    probabilistic: bool = False,
    angular_nodes: int | None = None,
) -> float:
    """Gaussian-prior average fidelity of a described Fock-space channel.

    For each radial node t, the input D(alpha) rho_th D^dag with
    alpha = sqrt(t / lambda') is scored against the target |g' alpha> in the
    adjoint picture, without building the output state (see ``ShiftKraus``
    and ``Heterodyne``).  Both channel kinds are phase covariant, which
    justifies the radial-only reduction; pass ``angular_nodes`` to re-check
    that numerically with a full polar grid.

    probabilistic=True returns the ratio form: prior-averaged numerator over
    prior-averaged success weight (output trace), matching how heralded
    filter protocols are scored.
    """
    if dim < 2 or radial_nodes < 2:
        raise DomainError("need dim >= 2 and radial_nodes >= 2")
    score = channel._scorer(dim)
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
            fid, trace = score(_displaced_thermal_raw(alpha, nbar, dim), ens.g_prime * alpha)
            f_avg += fid
            p_avg += trace if probabilistic else 1.0
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
