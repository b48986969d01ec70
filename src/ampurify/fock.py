"""Truncated Fock-space brute-force oracle.

Everything works on dense numpy matrices in the number basis {|0>, ...,
|dim-1>}, and every state and channel comes from its closed form, so every
entry inside the cutoff is exact.  A channel is a description, of one of
two kinds from ``gaussian``: the deterministic ``GaussianChannel(scale,
nbar)``, shared with the closed forms, and the heralded diagonal filter
``FilterSpec(k_cut, y)``, shared with the bounds' rank-K brackets, whose
diagonal ``_filter_diagonal`` builds at unit norm.

``_score(channel, states, targets)``, which alone picks a branch by the
channel's type, scores a (P, dim, dim) stack of input states against P
target amplitudes in the adjoint picture, never building an output, and
returns each state's fidelity and output trace (the heralding weight).  Its
test reference, which ``verify`` never calls, is the ``apply_*`` builders
(Kraus weights ``_squeezer_weights``, ``_attenuator_weights`` or a
per-order kernel); the cut ones carry the only trace guards.

Prior averages reduce to a radial Gauss-Laguerre rule, by default of
``_RADIAL_NODES`` nodes, as every state, channel and target here is phase
covariant (an optional angular grid re-checks this).  That default rule is
checked in, ``_RADIAL_T`` and ``_RADIAL_W`` being numpy's ``laggauss(48)``
written out repr-exact, so it does not depend on the numpy or LAPACK build
at run time; ``laggauss`` computes the other sizes only.  Its input states,
``prior_states``, are one cached, read-only real stack shared by every
channel scored at the same (lambda', mu, dim), built by one two-term row
recurrence over the rule's head: the far nodes whose summed weight is at
most ``_TAIL_MASS`` = 2^-70 are dropped (30 of 48 nodes kept), which moves
no trace-preserving average by more than that.  An average scores all
nodes in one ``_score`` call, so a Gaussian channel builds its adjoint stack
once; only an angular re-check goes ``_CHUNK`` nodes at a time.  Stack and
target-ket entries below exp(``_LOG_KET_FLOOR``) = 1e-100 are zero, which
moves no score by more than about 1e-98 and keeps the contractions off
subnormal floats, on which the CPU is many times slower.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, TruncationError
from .gaussian import _SMALL_Z, FilterSpec, GaussianChannel
from .params import NoisyEnsemble, _Validated, _require_int

#: quadrature weights below this are skipped (they underflow any integrand)
_WEIGHT_FLOOR = 1e-280

#: states per batch where a stack is copied: mirrored, or rotated in phase
_CHUNK = 16

#: radial Gauss-Laguerre nodes of an oracle average: at the verify points a
#: rule of this size agrees with one of 96 nodes to 1.2e-13 (32 nodes: 3.2e-12);
#: a prior stack keeps 30 of them, dropping a tail of at most ``_TAIL_MASS``
_RADIAL_NODES = 48

#: nodes and weights of numpy's ``laggauss(_RADIAL_NODES)``, written out
#: repr-exact, so no process recomputes them or imports numpy.polynomial
_RADIAL_T = (
    0.0298112358299601, 0.15710799061787553, 0.3862650375764564, 0.717574694116971,
    1.1513938340264342, 1.6881858234190479, 2.3285270066532293, 3.0731108616526384,
    3.9227524130464797, 4.878393355921347, 5.941108054624559, 7.112110535890742,
    8.392762599091224, 9.784583184687325, 11.28925916800953, 12.90865777828553,
    14.644840883209707, 16.500081428964588, 18.476882386874113, 20.577998634022208,
    22.80646229052137, 25.165612156439106, 27.65912804448053, 30.291071001008568,
    33.065930662498744, 35.988681327478936, 39.06484876419777, 42.300590362903094,
    45.70279203851147, 49.27918638283679, 53.03849808781666, 56.99062481480448,
    61.14686478614023, 65.52020692901861, 70.12570623611319, 74.98097751891132,
    80.10685735032439, 85.52831111603417, 91.27570799366809, 97.38666771358153,
    103.90883335717625, 110.90422088497627, 118.45642504628363, 126.68342576888584,
    135.7625895778643, 145.98643270946346, 157.915612022978, 172.99632814856326,
)
_RADIAL_W = (
    0.0742620058279921, 0.1522719498092847, 0.19040908826394004, 0.1866330594848336,
    0.1534242001575949, 0.10877969280750405, 0.06746073860922809, 0.03688119411582487,
    0.01785684426915876, 0.007677616514498415, 0.0029357859037397885, 0.0009990655378159738,
    0.00030259801699229093, 8.153871180356245e-05, 1.953158715728288e-05, 4.154182945052572e-06,
    7.833700380278475e-07, 1.3073947749207537e-07, 1.9270714080172194e-08, 2.5026389371265687e-09,
    2.8557855087719047e-10, 2.8546224120594612e-11, 2.4910106849374957e-12, 1.890336606971751e-13,
    1.2421626859492836e-14, 7.034231520213404e-16, 3.414549148592153e-17, 1.4123154148959265e-18,
    4.9442180080980843e-20, 1.4539524813680859e-21, 3.561068365004443e-23, 7.194055996495529e-25,
    1.1855372283507121e-26, 1.5734913570757547e-28, 1.6572854409196403e-30, 1.361434162716456e-32,
    8.54615581396444e-35, 4.0000905324817274e-37, 1.3550199911032115e-39, 3.2016367953552164e-42,
    5.035869166061382e-45, 4.9624875407034464e-48, 2.8235107161206775e-51, 8.268446069504751e-55,
    1.049064847821291e-58, 4.3465744227390536e-63, 3.434736438396892e-68, 1.3190660883981332e-74,
)

#: summed weight of the far nodes a prior stack drops, 2^-70 (about 8.5e-22)
_TAIL_MASS = 2.0 ** -70

#: coherent-ket and prior-stack entries of log magnitude below this are zero
#: (far nodes would otherwise reach 1e-320 and make their products subnormal)
_LOG_KET_FLOOR = math.log(1e-100)

class _FockDensityFields(NamedTuple):
    dim: int
    mat: np.ndarray


class FockDensity(_Validated, _FockDensityFields):
    """A (possibly sub-normalised) density matrix at Fock cutoff ``dim``."""

    __slots__ = ()

    def __new__(cls, dim: int, mat: np.ndarray):
        if mat.shape != (dim, dim):
            raise DomainError(f"matrix shape {mat.shape} does not match dim {dim}")
        return super().__new__(cls, dim, mat)

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


def _filter_diagonal(spec: FilterSpec, dim: int) -> np.ndarray:
    """The filter's diagonal at cutoff dim, which must exceed its rank k_cut,
    scaled so that its largest coefficient is 1: y^(n - k_cut) at y >= 1 and
    y^n at y < 1 for n <= k_cut, and zero above.  Every coefficient is in
    [0, 1], so no filter overflows a score, and the ratio form does not see
    the scale."""
    k_cut, y = spec
    if k_cut >= dim:
        raise DomainError(f"filter rank k_cut = {k_cut} must be below the cutoff dim = {dim}")
    q = np.zeros(dim)
    q[: k_cut + 1] = y ** (np.arange(k_cut + 1) - (k_cut if y >= 1.0 else 0))
    return q


def _score(channel: GaussianChannel | FilterSpec, states: np.ndarray,
           targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state scores and output traces, the branch chosen by type, as
    FilterSpec(2, 1.0) == GaussianChannel(2.0, 1.0) as tuples.  A filter
    scores <t|Q rho Q|t> = <v|rho|v>, v = Q|t>, with the heralding weight
    Tr[Q^2 rho].  A Gaussian channel keeps the trace and scores: below
    ``_SMALL_Z`` the vacuum limit e^(-|t|^2) Tr rho, off the exact score by
    about 2 s |t| |<a>| < 1e-16; where nbar = 0 rank one, <t/s|rho|t/s> / s^2;
    otherwise one trace against the prior stack's own closed form, with no
    output cutoff."""
    dim = states.shape[-1]
    if isinstance(channel, FilterSpec):
        q = _filter_diagonal(channel, dim)
        tr_out = np.diagonal(states, axis1=-2, axis2=-1).real @ (q * q)
        return _projections(states, q * _coherent_kets(targets, dim)), tr_out
    s, nbar = channel
    tr, mod = np.trace(states, axis1=-2, axis2=-1).real, np.abs(targets)
    if s < _SMALL_Z:
        return np.exp(-mod * mod) * tr, tr
    if nbar == 0.0:
        return _projections(states, _coherent_kets(targets / s, dim)) / (s * s), tr
    adjoint = _rotated(_displaced_thermal_stack(mod / s, nbar, dim), np.angle(targets))
    return np.einsum("pij,pji->p", states, adjoint).real / (s * s), tr


@lru_cache(maxsize=8)
def _laguerre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes and weights, less those weighing at most
    _WEIGHT_FLOOR: the checked-in ``_RADIAL_T`` and ``_RADIAL_W`` at
    ``_RADIAL_NODES``, numpy's ``laggauss`` at any other size.  A rule that
    is not finite, or whose weights miss their sum 1 by more than 1e-12, is
    a DomainError (numpy's are NaN from about 190 nodes up)."""
    if nodes == _RADIAL_NODES:
        t, w = np.array(_RADIAL_T), np.array(_RADIAL_W)
    else:
        # imported here: numpy loads numpy.polynomial lazily, and the default rule needs none of it
        from numpy.polynomial.laguerre import laggauss
        with np.errstate(all="ignore"):
            t, w = laggauss(nodes)
    if not (np.isfinite(t).all() and np.isfinite(w).all() and abs(w.sum() - 1.0) <= 1e-12):
        raise DomainError(f"the {nodes}-node Gauss-Laguerre rule is inaccurate")
    keep = w > _WEIGHT_FLOOR
    return t[keep], w[keep]


@lru_cache(maxsize=8)
def _log_factorials(size: int) -> np.ndarray:
    """log(n!) for n < size."""
    return np.array([math.lgamma(n + 1.0) for n in range(size)])


def _coherent_kets(amps: np.ndarray, dim: int) -> np.ndarray:
    """Truncated coherent vectors, one row per amplitude (real unless an
    amplitude has a nonzero phase), assembled from log magnitudes: amplitudes
    far beyond the cutoff underflow to zero entries instead of overflowing
    partial products (the exact limit of the truncated series), and entries
    below ``_LOG_KET_FLOOR`` are zero."""
    mod, phi, n = np.abs(amps)[:, None], np.angle(amps)[:, None], np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):  # n log 0 is 0 at n = 0
        n_log_mod = np.where(n > 0, n * np.log(mod), 0.0)
    log_kets = -0.5 * mod * mod + n_log_mod - 0.5 * _log_factorials(dim)
    kets = np.exp(np.where(log_kets < _LOG_KET_FLOOR, -np.inf, log_kets))
    return kets * np.exp(1j * phi * n) if phi.any() else kets


def coherent_ket(amp: complex, dim: int) -> np.ndarray:
    """|amp> truncated to dim levels; requires |amp|^2 <= dim/4.

    Under that energy margin the missing Poisson tail is far below 1e-10
    for the cutoffs used here (dim >= 64).
    """
    _require_int("dim", dim, 1)
    if np.isnan(amp):
        raise DomainError(f"amp must not be NaN, got {amp!r}")
    mod2 = abs(amp) * abs(amp)
    if mod2 > dim / 4.0:
        raise TruncationError(f"|amp|^2 = {mod2:.3g} exceeds dim/4 = {dim / 4.0:.3g}")
    return _coherent_kets(np.array([amp]), dim)[0]


def _thermal_diag(nbar: float, dim: int) -> np.ndarray:
    """Thermal occupation probabilities for nbar > 0."""
    q = nbar / (nbar + 1.0)
    return np.exp(np.arange(dim) * math.log(q)) / (nbar + 1.0)


@lru_cache(maxsize=8)
def _row_coefficients(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows m, columns n of sqrt(m+1) and sqrt(n/(m+1)), the row
    recurrence's coefficients."""
    m, n = np.ogrid[:dim, :dim]
    return np.sqrt(m + 1.0), np.sqrt(n / (m + 1.0))


def _displaced_thermal_stack(radii: np.ndarray, nbar: float, dim: int) -> np.ndarray:
    """D(r) rho_th(nbar) D(r)^dag for each real amplitude r, one real
    (P, dim, dim) stack.  With s = 1 + nbar and q = nbar/s, row 0 is

        rho[0, n] = e^(-r^2/s) r^n s^-(n+1) / sqrt(n!),

    taken in logs, and (a - r) rho = q rho (a - r) carries it down the upper
    triangle, every amplitude at once, one row per step:

        sqrt(m+1) rho[m+1, n] = (r/s) rho[m, n] + q sqrt(n) rho[m, n-1],

    two positive terms (1 - q is taken as 1/s), which at nbar = 0 is the
    coherent state's.  It runs on rotating (column, amplitude) buffers, so
    every slice it reads is contiguous, writing each row into the stack, and
    the triangle is mirrored ``_CHUNK`` states at a time at the end.  Where
    a start value underflows (r^2/s > 708), every entry within 128 levels is
    below 1e-170.  Entries below exp(``_LOG_KET_FLOOR``) are zero, as for
    the target kets.
    """
    s, k = 1.0 + nbar, np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):  # k log 0 is 0 at k = 0
        k_log_r = np.where(k > 0, k * np.log(radii)[:, None], 0.0)
    root, root_ratio = _row_coefficients(dim)
    a, b = radii / s / root, nbar / s * root_ratio
    cur, nxt, term = np.empty((3, dim, radii.size))
    cur[:] = np.exp(-(radii[:, None] ** 2 / s) + k_log_r - (k + 1.0) * math.log(s)
                    - 0.5 * _log_factorials(dim)).T
    out = np.empty((radii.size, dim, dim))
    for m in range(dim):
        out[:, m, m:] = cur[m:].T
        np.multiply(cur[m + 1 :], a[m], out=nxt[m + 1 :])
        np.multiply(cur[m:-1], b[m, m + 1 :, None], out=term[m + 1 :])
        nxt[m + 1 :] += term[m + 1 :]
        cur, nxt = nxt, cur
    below = np.tri(dim, k=-1, dtype=bool)
    for lo in range(0, radii.size, _CHUNK):
        block = out[lo : lo + _CHUNK]
        np.copyto(block, block.transpose(0, 2, 1), where=below)
    out[out < math.exp(_LOG_KET_FLOOR)] = 0.0
    return out


def _rotated(states: np.ndarray, phi: float | np.ndarray) -> np.ndarray:
    """exp(i phi n) rho exp(-i phi n) for each state rho: a phase rotation by
    phi, one angle for the whole stack or one per state."""
    if not np.any(phi):
        return states
    ph = np.exp(1j * np.multiply.outer(phi, np.arange(states.shape[-1])))
    out = ph[..., :, None] * states
    return np.multiply(out, ph.conj()[..., None, :], out=out)


def displaced_thermal_density(amp: complex, nbar: float, dim: int) -> FockDensity:
    """D(amp) rho_th(nbar) D(amp)^dag at cutoff dim.

    Requires |amp|^2 + nbar <= dim/4, an energy margin that rejects states
    far outside the cutoff but does not make the state fit: the construction
    is rejected if its tail beyond the cutoff, 1 - trace, exceeds 1e-8.
    """
    _require_int("dim", dim, 1)
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise DomainError(f"nbar must be finite and >= 0, got {nbar!r}")
    if np.isnan(amp):
        raise DomainError(f"amp must not be NaN, got {amp!r}")
    energy = abs(amp) * abs(amp) + nbar
    if energy > dim / 4.0:
        raise TruncationError(
            f"|amp|^2 + nbar = {energy:.3g} exceeds dim/4 = {dim / 4.0:.3g}")
    mat = _rotated(_displaced_thermal_stack(np.array([abs(amp)]), nbar, dim)[0], np.angle(amp))
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > 1e-8:
        raise TruncationError(f"displaced thermal trace {tr!r} deviates from 1")
    return FockDensity(dim, mat)


@lru_cache(maxsize=1, typed=True)
def prior_states(lambda_prime: float, mu: float, dim: int,
                 radial_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only radii |alpha_i|, weights w_i and real (P, dim, dim) input
    states D(alpha_i) rho_th(1/mu) D(alpha_i)^dag of the Gaussian prior: with
    t = lambda'|alpha|^2, a phase covariant prior average is
    sum_i w_i f(sqrt(t_i / lambda')) over the head of ``_laguerre_rule``.

    The head keeps every node but the far ones whose summed weight stays at
    or below ``_TAIL_MASS`` (30 of 48 nodes, 43 of 96).  A trace-preserving
    channel has Phi^dag(I) = I, so each per-node score <t|Phi(rho)|t> lies in
    [0, 1] and an average moves by at most ``_TAIL_MASS``.  A filter's score
    is at most its output trace Tr[Q^2 rho] <= 1, as q <= 1, so the ratio
    form's numerator and denominator each lose at most ``_TAIL_MASS``, and
    the ratio, itself in [0, 1], moves by at most that over the averaged
    heralding weight.

    The last stack is kept for the next call, since it serves every channel
    that ``avg_fidelity_numeric`` scores at its arguments; only one is kept,
    as a rebuild at the default rule and 64 levels costs about 1 ms (its
    row loop runs once per level, whatever the node count) and every stack
    kept adds its 1.0 MB to the process.  A size that is not an integer >= 2
    is a DomainError (the cache is typed, so 64.0 cannot hit 64's stack), as
    is a cutoff above 128 levels, where a far node's start values underflow
    and its exact entries do not."""
    _require_int("dim", dim, 2)
    _require_int("radial_nodes", radial_nodes, 2)
    if dim > 128:
        raise DomainError(f"prior stacks are exact only up to 128 levels, got dim {dim}")
    t, w = _laguerre_rule(radial_nodes)
    # node i is kept while the weight from i to the end outweighs the tail mass
    kept = int(np.count_nonzero(np.cumsum(w[::-1])[::-1] > _TAIL_MASS))
    t, weights = t[:kept], w[:kept]
    radii = np.sqrt(t / lambda_prime)
    states = _displaced_thermal_stack(radii, 1.0 / mu, dim)
    for a in (radii, weights, states):
        a.flags.writeable = False
    return radii, weights, states


def _projections(states: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """<v_p|rho_p|v_p> for each state rho_p of a stack and its ket v_p."""
    return np.einsum("pn,pn->p", kets.conj(), (states @ kets[..., None])[..., 0]).real


def avg_fidelity_numeric(ens: NoisyEnsemble, channel: GaussianChannel | FilterSpec,
                         dim: int = 64, radial_nodes: int = _RADIAL_NODES, *,
                         angular_nodes: int = 1) -> float:
    """Gaussian-prior average fidelity of a described Fock-space channel:
    each input state D(alpha) rho_th D^dag of ``prior_states`` is scored
    against its target |g' alpha> by ``_score``.  A ``GaussianChannel`` gets
    the plain average, a heralded ``FilterSpec`` the ratio form: the
    prior-averaged score over the prior-averaged success weight.

    Every channel kind is phase covariant, which justifies the radial-only
    reduction; ``angular_nodes`` above 1 re-checks it on uniform angles,
    each rotating the states and their targets in phase.
    """
    _require_int("angular_nodes", angular_nodes, 1)
    radii, weights, states = prior_states(ens.lambda_prime, ens.mu, dim, radial_nodes)
    fid, trace = np.zeros((2, radii.size))
    step = _CHUNK if angular_nodes > 1 else radii.size
    for lo in range(0, radii.size, step):
        block = slice(lo, lo + step)
        for k in range(angular_nodes):
            phi = 2.0 * math.pi * k / angular_nodes
            alpha = radii[block] * np.exp(1j * phi) if k else radii[block]
            f, tr = _score(channel, _rotated(states[block], phi), ens.g_prime * alpha)
            fid[block] += f
            trace[block] += tr
    heralded = isinstance(channel, FilterSpec)
    return float(weights @ fid) / (float(weights @ trace) if heralded else angular_nodes)


def _check_trace(rho: FockDensity, out: FockDensity, message: str) -> None:
    """TruncationError if the output state's trace strays from the input
    state's by more than 1e-6."""
    tr_in, tr_out = rho.trace(), out.trace()
    if abs(tr_out - tr_in) > 1e-6:
        raise TruncationError(message.format(tr_in, tr_out))


def _apply_shift_kraus(rho: FockDensity, weights: np.ndarray, shift: int,
                       dim_out: int) -> FockDensity:
    """The output state sum_k A_k rho A_k^dag of the Kraus operators
    A_k = sum_n W[n, k] |n + shift k><n|, one row of ``weights`` per input
    level; levels mapped outside [0, dim_out) are dropped."""
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for k in range(weights.shape[1]):
        lo = max(0, -shift * k)
        hi = min(rho.dim, dim_out - shift * k)
        a = lo + shift * k
        col = weights[lo:hi, k]
        out[a : a + hi - lo, a : a + hi - lo] += col[:, None] * rho.mat[lo:hi, lo:hi] * col.conj()
    return FockDensity(dim_out, out)


def _squeezer_weights(r: float, dim: int, dim_anc: int) -> np.ndarray:
    """The two-mode squeezer's Kraus weights, shift +1: the negative-binomial
    amplitudes W[n, k] = <n+k, k|S(r)|n, 0> = sqrt(C(n+k, k)) tanh^k r / cosh^(n+1) r
    for input level n < dim, cut at ancilla level k < dim_anc."""
    GaussianChannel.amplifier(r)  # rejects a negative or non-finite r
    _require_int("dim_anc", dim_anc, 2)
    n, k = np.ogrid[:dim, :dim_anc]
    lf = _log_factorials(dim + dim_anc)
    return math.tanh(r) ** k * np.exp(  # 0^0 is 1 at r = 0
        0.5 * (lf[n + k] - lf[n] - lf[k]) - (n + 1.0) * math.log(math.cosh(r)))


def apply_two_mode_squeezer(rho: FockDensity, r: float, dim_anc: int = 64) -> FockDensity:
    """Output state of ``GaussianChannel.amplifier(r)`` at cutoff rho.dim + dim_anc - 1,
    from ``_squeezer_weights``; a trace lost to the ancilla cut by more than
    1e-6 raises TruncationError."""
    weights = _squeezer_weights(r, rho.dim, dim_anc)
    out = _apply_shift_kraus(rho, weights, 1, rho.dim + dim_anc - 1)
    _check_trace(rho, out, "squeezer lost trace: {!r} -> {!r}; increase dim_anc")
    return out


def _attenuator_weights(theta: float, dim: int) -> np.ndarray:
    """The beamsplitter's Kraus weights, shift -1.  n_a + n_b is conserved,
    so every sector is finite and
    W[n, k] = <n-k, k|exp(...)|n, 0> = (-1)^k sqrt(C(n, k)) cos^(n-k) sin^k
    for k <= n, and zero above."""
    n, k = np.ogrid[:dim, :dim]
    n_k = np.maximum(n - k, 0)
    lf = _log_factorials(dim)
    terms = (-1.0) ** k * np.exp(0.5 * (lf[n] - lf[k] - lf[n_k])) * (
        math.cos(theta) ** n_k * math.sin(theta) ** k)  # 0^0 is 1 at theta = 0
    return np.tril(terms)


def apply_attenuator(rho: FockDensity, theta: float) -> FockDensity:
    """Output state of ``GaussianChannel.attenuator(theta)``."""
    GaussianChannel.attenuator(theta)  # rejects theta outside [0, pi/2]
    return _apply_shift_kraus(rho, _attenuator_weights(theta, rho.dim), -1, rho.dim)


def apply_filter(rho: FockDensity, f: FilterSpec) -> FockDensity:
    """Output state Q rho Q^dag of the filter ``f``."""
    return _apply_shift_kraus(rho, _filter_diagonal(f, rho.dim)[:, None], 0, rho.dim)


def _heterodyne_kernel(z: float, dim: int) -> list[np.ndarray]:
    """The heterodyne's output map by coherence order: by phase covariance
    order d of rho feeds the same order, out[a, a+d] = sum_m K_d[m, a] rho[m, m+d],
    the beta integral done exactly,

        K_d[m, a] = z^(2a+d) (m+a+d)! / ((1+z^2)^(m+a+d+1) sqrt(m! (m+d)! a! (a+d)!)).

    K_d for d = 0, ..., dim - 1 at input cutoff dim, each kept to its valid
    (dim - d) x (2 dim - 1 - d) block, exponentiated in place from logs: the
    Hankel factor log (m+a+d)! plus a row and a column term."""
    n_out = 2 * dim - 1
    lf = _log_factorials(3 * dim - 2)
    log_s = math.log1p(z * z)
    log_z = math.log(z) if z > 0.0 else -math.inf
    blocks = []
    for d in range(dim):
        m, a = np.arange(dim - d), np.arange(n_out - d)
        with np.errstate(invalid="ignore"):  # z^0 is 1 at z = 0
            z_pow = np.where(2 * a + d > 0, (2 * a + d) * log_z, 0.0)
        row = -(m + 1.0) * log_s - 0.5 * (lf[m] + lf[m + d])
        col = z_pow - (a + d) * log_s - 0.5 * (lf[a] + lf[a + d])
        k = sliding_window_view(lf[d:], n_out - d)[: dim - d] + row[:, None]
        k += col
        blocks.append(np.exp(k, out=k))
    return blocks


def apply_heterodyne_mp(rho: FockDensity, z: float) -> FockDensity:
    """Output state of ``GaussianChannel.heterodyne(z)``, at cutoff 2 rho.dim - 1.

    Orders d < 0 of ``_heterodyne_kernel`` are the conjugates of d > 0.
    Input level m spreads over the 2 dim - 1 output levels with total weight
    sum_a K_0[m, a] = 1 before the cut, so a trace lost past it by more than
    1e-6 raises TruncationError.
    """
    GaussianChannel.heterodyne(z)  # rejects a negative or non-finite z
    n_out = 2 * rho.dim - 1
    out = np.zeros((n_out, n_out), dtype=complex)
    a = np.arange(n_out)
    for d, k in enumerate(_heterodyne_kernel(z, rho.dim)):
        v = np.diagonal(rho.mat, d) @ k
        out[a[d:], a[: n_out - d]] = v.conj()
        out[a[: n_out - d], a[d:]] = v
    res = FockDensity(n_out, out)
    _check_trace(rho, res, "measure-and-prepare lost trace: {!r} -> {!r}; increase dim")
    return res
