"""Operator-norm bound machinery behind the closed-form optima.

The deterministic optimum arises as the minimum over a thermal-ansatz
parameter kappa of an upper bound whose core is the spectral limit of a
sequence of structured determinants: the p-th member is a 2p x 2p
two-level circulant whose Schur complement is again a circulant with
constant diagonal a and one super-/sub-diagonal coefficient each (b, c,
wrapping cyclically).  Its eigenvalues are a - b w^-n - c w^n over p-th
roots of unity w^n, the determinant factorises through the roots y+- of
b y^2 - a y + c = 0, and (det)^(1/p) -> b y+ whenever y+ >= 1 >= y-.

The classical-threshold side bounds a cross norm by c1 times the operator
norm of a prior-averaged displaced-filter/coherent-projector operator; that
operator is phase covariant, so its norm is computed exactly per
total-photon-number block and compared against the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergentError, RootError, ValidityError
from .params import NoisyEnsemble, RegimeTag, classify
from .scalaropt import golden_section_min
from . import fock

#: Fock cutoff per mode and prior nodes of the classical-threshold norm check
_CFT_DIM = 48
_CFT_RADIAL_NODES = 160


@dataclass(frozen=True)
class BoundWorkspace:
    """Quadratic-root data of the determinant sequence at ansatz kappa."""

    kappa: float
    a: float
    b: float
    c: float
    y_plus: float
    y_minus: float


@dataclass(frozen=True)
class CirculantTriple:
    """Cyclic band matrix: diag on the diagonal, -sup one step above
    (wrapping), -sub one step below (wrapping)."""

    diag: float
    sup: float
    sub: float
    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 2:
            raise DomainError(f"circulant size must be an integer >= 2, got {self.size!r}")


def kappa_prime(ens: NoisyEnsemble) -> float:
    """Right end of the admissible ansatz interval, lambda' mu/(lambda' + mu)."""
    return ens.lambda_prime * ens.mu / (ens.lambda_prime + ens.mu)


def coeffs(ens: NoisyEnsemble, kappa: float) -> BoundWorkspace:
    """Circulant coefficients (a, b, c) and roots y+- at ansatz kappa.

        a = mu + lambda' + mu lambda' + g'^2 (mu + kappa + 2)
        b = g'^2 (mu + 1)
        c = (g'^2 + mu + lambda')(kappa + 1)
    """
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise DomainError(f"kappa must be finite and > 0, got {kappa!r}")
    lam, mu, g2 = ens.lambda_prime, ens.mu, ens.g_prime**2
    a = mu + lam + mu * lam + g2 * (mu + kappa + 2.0)
    b = g2 * (mu + 1.0)
    c = (g2 + mu + lam) * (kappa + 1.0)
    if b == 0.0:
        raise RootError("zero gain degenerates the root equation b y^2 - a y + c = 0")
    # a - b - c collapses to lambda' mu - (lambda' + mu) kappa for every g',
    # which turns the discriminant into the cancellation-free split
    #   a^2 - 4bc = (b - c)^2 + (a - b - c)(a + b + c);
    # both terms are nonnegative for kappa <= kappa', so double roots
    # (b = c at the filter-plateau gain) stay clean instead of inheriting
    # the ~eps a^2 noise of the textbook expression
    slack = lam * mu - (lam + mu) * kappa
    disc = (b - c) ** 2 + slack * (a + b + c)
    if disc < 0.0:
        if disc >= -64.0 * np.finfo(float).eps * a * a:
            disc = 0.0
        else:
            raise RootError(f"complex roots: a^2 - 4bc = {disc!r} < 0")
    root = math.sqrt(disc)
    return BoundWorkspace(
        kappa=kappa, a=a, b=b, c=c,
        y_plus=(a + root) / (2.0 * b),
        y_minus=(a - root) / (2.0 * b),
    )


def circulant_eigs(t: CirculantTriple) -> np.ndarray:
    """Eigenvalues diag - sup w^-n - sub w^n over the size-th roots of unity."""
    n = np.arange(t.size)
    w = np.exp(2j * math.pi * n / t.size)
    return t.diag - t.sup / w - t.sub * w


def circulant_dense(t: CirculantTriple) -> np.ndarray:
    """Dense matrix of the cyclic band triple (for cross-checks)."""
    m = np.diag(np.full(t.size, float(t.diag)))
    for i in range(t.size):
        m[i, (i + 1) % t.size] -= t.sup
        m[i, (i - 1) % t.size] -= t.sub
    return m


def det_limit(w: BoundWorkspace) -> float:
    """Spectral limit lim_p (det M_p)^(1/p) = b y+.

    Valid only when y+ >= 1 >= y- (guaranteed on the admissible kappa
    interval); outside it the determinant sequence grows with the wrong
    root and the limit formula does not apply.
    """
    if w.y_plus < 1.0 - 1e-12 or w.y_minus > 1.0 + 1e-12:
        raise ValidityError(
            f"root condition y+ >= 1 >= y- violated: y+ = {w.y_plus!r}, y- = {w.y_minus!r}"
        )
    return w.b * w.y_plus


def det_limit_finite_p(w: BoundWorkspace, p: int) -> float:
    """(det M_p)^(1/p) evaluated through the circulant eigenvalues.

    Computed as exp(mean log |eigenvalue|) to avoid overflow at large p.
    At kappa = kappa' the n = 0 eigenvalue a - b - c vanishes identically,
    so every finite-p determinant is zero even though the p -> infinity
    limit b y+ is finite; meaningful finite-p trends need interior kappa.
    """
    eigs = circulant_eigs(CirculantTriple(diag=w.a, sup=w.b, sub=w.c, size=p))
    mags = np.abs(eigs)
    if np.any(mags == 0.0):
        return 0.0
    return float(math.exp(np.log(mags).mean()))


def det_upper_bound(ens: NoisyEnsemble, kappa: float) -> float:
    """Thermal-ansatz upper bound on the deterministic fidelity at kappa.

        mu lambda' (kappa + 1) / kappa * 2 / (a + sqrt(a^2 - 4 b c))

    Only kappa in (0, kappa'] keeps the ansatz normalisable, hence
    ValidityError outside.
    """
    kp = kappa_prime(ens)
    if not 0.0 < kappa <= kp * (1.0 + 1e-12):
        raise ValidityError(
            f"kappa = {kappa!r} outside the admissible interval (0, {kp!r}]"
        )
    w = coeffs(ens, kappa)
    pref = ens.mu * ens.lambda_prime * (kappa + 1.0) / kappa
    # a + sqrt(a^2 - 4bc) = 2 b y+, reusing the clamped discriminant of coeffs
    return pref / (w.b * w.y_plus)


def kappa_star(ens: NoisyEnsemble) -> float:
    """Minimising ansatz parameter of det_upper_bound, in closed form.

    Equals kappa' up to the passive-filter gain (lambda' + mu)/mu and at or
    above the deterministic threshold (lambda' + mu + lambda' mu)/mu; between
    the two the stationary point moves inside the interval, to
    (mu (g'-1)^2 + lambda'(mu+1)) / (g'(g' + mu)).  The minimum is the
    deterministic optimum at every gain.
    """
    if classify(ens).tag is not RegimeTag.DET_IDENTITY:
        return kappa_prime(ens)
    lam, mu, g = ens.lambda_prime, ens.mu, ens.g_prime
    return (mu * (g - 1.0) ** 2 + lam * (mu + 1.0)) / (g * (g + mu))


def minimize_det_bound(ens: NoisyEnsemble) -> tuple[float, float]:
    """Numerically minimise det_upper_bound over the admissible interval.

    Bounded golden-section search on (1e-9, kappa'], followed by an
    endpoint comparison: when no interior point beats the right edge
    within machine discrimination the edge is the certified minimiser
    (the bound is flat there exactly when the closed-form stationary
    point coincides with kappa', where x-localisation by function values
    alone cannot beat the sqrt(eps) wall).  Returns (kappa_min, value).
    """
    kp = kappa_prime(ens)
    x, fx = golden_section_min(
        lambda k: det_upper_bound(ens, k), 1e-9, kp, tol=1e-13
    )
    f_edge = det_upper_bound(ens, kp)
    # values within a few ulps are indistinguishable; prefer the endpoint
    if f_edge <= fx + 4e-15 * abs(fx):
        return kp, f_edge
    return x, fx


def prob_via_kappa_prime(ens: NoisyEnsemble) -> float:
    """The bound evaluated at the interval edge kappa = kappa'.

    Reproduces the probabilistic-optimum closed form (both of its branches)
    to machine precision, which is how the probabilistic converse is proved.
    At kappa' the root equation factorises (a = b + c exactly), so instead
    of the quadratic formula -- whose double root at the plateau gain
    amplifies rounding noise by sqrt(eps) -- this uses b y+ = max(b, c).
    """
    w = coeffs(ens, kappa_prime(ens))
    pref = ens.mu * ens.lambda_prime * (w.kappa + 1.0) / w.kappa
    return pref / max(w.b, w.c)


def amp_convergence_terms(ens: NoisyEnsemble, y: float, k_cut: int) -> tuple[float, float]:
    """Geometric error brackets (E1, E2) of the rank-K filter protocol.

    E1 bounds the weight the ideal output keeps above level K; E2 bounds
    the filtered prior mass doing the same on the input side.  Both are
    (base)^(K+1); a base at or above 1 certifies nothing, hence
    NonConvergentError (E2's base reaches 1 exactly at y^2 = 1 + kappa').
    """
    if not isinstance(k_cut, int) or k_cut < 0:
        raise DomainError(f"k_cut must be an integer >= 0, got {k_cut!r}")
    if not (math.isfinite(y) and y > 0.0):
        raise DomainError(f"y must be finite and > 0, got {y!r}")
    lam, mu, g2, y2 = ens.lambda_prime, ens.mu, ens.g_prime**2, y * y
    if y2 >= mu + 1.0:
        raise NonConvergentError(
            f"y^2 = {y2!r} at or beyond the filter pole mu + 1 = {mu + 1.0!r}"
        )
    base1 = g2 / (g2 + lam + 1.0 - y2 - (1.0 - y2) ** 2 / (mu + 1.0 - y2))
    base2 = y2 / (1.0 + lam - lam * lam / (lam + mu))
    for name, base in (("E1", base1), ("E2", base2)):
        if not 0.0 < base < 1.0:
            raise NonConvergentError(
                f"{name} bracket base {base!r} is not in (0, 1); "
                "the truncation error cannot be certified at these parameters"
            )
    return base1 ** (k_cut + 1), base2 ** (k_cut + 1)


def filter_deficit_bound(ens: NoisyEnsemble, y: float, k_cut: int) -> float:
    """Certified gap between the rank-K filter fidelity and its K -> inf limit."""
    e1, e2 = amp_convergence_terms(ens, y, k_cut)
    return 2.0 * math.sqrt(e1 * e2)


def cft_bound(ens: NoisyEnsemble) -> float:
    """Classical-threshold upper bound c1 * ||Omega|| in closed form, c1/(c1 + g'^2).

        c1 = (lambda' mu + lambda' + mu)/(mu + 1)
    """
    lam, mu = ens.lambda_prime, ens.mu
    c1 = (lam * mu + lam + mu) / (mu + 1.0)
    return c1 / (c1 + ens.g_prime**2)


def cft_norm_check(ens: NoisyEnsemble) -> tuple[float, float]:
    """(numerical bound, closed-form cft_bound) for direct comparison.

    The bound is the operator norm of

        Gamma = integral (d^2 a / pi) p(a) |g'a><g'a| (x) s^(-1/2) rho(a) s^(-1/2)

    with p the Gaussian prior, rho(a) the displaced noisy input and s the
    prior-averaged (thermal) state.  The whitened factor s^(-1/2) rho(a)
    s^(-1/2) is a displaced geometric operator of ratio
    x' = (lambda' mu + lambda' + mu)/((lambda' + mu)(mu + 1)) at amplitude
    c2 a, c2 = sqrt((lambda' mu + lambda' + mu)(lambda' + mu))/mu, whose
    weight grows as exp(+lambda'|a|^2) and cancels the prior: Gamma equals
    the flat-measure form c1 * integral D(c2 a) x'^n D^dag (x) |g'a><g'a|.
    Gamma is the better-conditioned quadrature target, so the numerical
    value is its largest eigenvalue at _CFT_DIM levels per mode and
    _CFT_RADIAL_NODES prior nodes.  Being phase covariant, Gamma is
    block-diagonal in the total photon number: it is assembled per sector,
    each block in one contraction over the stacked prior nodes, and the
    radial rule is exact up to truncation.

    Truncation converges from above; it slows as g' decreases toward 1
    because the top eigenvector spreads to high photon number, so norm
    checks near the no-amplification boundary need a larger cutoff.
    """
    dim = _CFT_DIM
    q_sigma = 1.0 / (1.0 + kappa_prime(ens))
    whiten = q_sigma ** (-np.arange(dim) / 2.0) / math.sqrt(1.0 - q_sigma)
    xs, vs = [], []
    for alpha, w in fock.prior_nodes(ens.lambda_prime, _CFT_RADIAL_NODES):
        rho = fock._displaced_thermal_raw(alpha, 1.0 / ens.mu, dim).real
        xs.append(whiten[:, None] * rho * whiten[None, :])
        vs.append(fock._coherent_ket_raw(ens.g_prime * alpha, dim).real * math.sqrt(w))
    x, v = np.array(xs), np.array(vs)
    top = -math.inf
    for tot in range(2 * dim - 1):
        # sector tot: index pairs (tot - m2, m2) inside the cutoff
        m2 = np.arange(max(0, tot - dim + 1), min(tot, dim - 1) + 1)
        vm = v[:, tot - m2]
        block = np.einsum("pi,pj,pij->ij", vm, vm, x[:, m2[:, None], m2[None, :]])
        top = max(top, float(np.linalg.eigvalsh(block).max()))
    return top, cft_bound(ens)
