"""Operator-norm bound machinery behind the closed-form optima.

The deterministic optimum arises as the minimum over a thermal-ansatz
parameter kappa of an upper bound whose core is the spectral limit of a
sequence of structured determinants: the p-th member is a 2p x 2p
two-level circulant whose Schur complement is again a circulant M_p with
constant diagonal a and one super-/sub-diagonal coefficient each (b, c,
wrapping cyclically).  Its eigenvalues a - b w^-n - c w^n over the p-th
roots of unity w^n multiply out through the roots y+- of
b y^2 - a y + c = 0 to det M_p = b^p (y+^p - 1)(1 - y-^p), which
``det_limit_finite_p`` takes in plain ``math``, and (det M_p)^(1/p) -> b y+
whenever y+ >= 1 >= y-.

The classical-threshold side bounds a cross norm by c1 times the operator
norm of a prior-averaged displaced-filter/coherent-projector operator; that
operator is phase covariant, so its norm is the largest top eigenvalue over
the total-photon-number sectors that the cutoff holds whole, each exact on
the oracle's 48-node radial rule and assembled one coherence order at a
time, and it is compared against the closed form ``formulas.cft``.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from ._lazy import lazy
from .errors import DomainError, NonConvergentError, RootError, ValidityError
from .gaussian import FilterSpec
from .params import NoisyEnsemble, RegimeTag, _require_int, classify
from .scalaropt import golden_section_min
from . import formulas

np = lazy("numpy")  # executed by the first array function, never by a scalar bound
fock = lazy(f"{__package__}.fock")

#: Fock cutoff per mode of the classical-threshold norm check
_CFT_DIM = 48


class BoundWorkspace(NamedTuple):
    """Quadratic-root data of the determinant sequence at ansatz kappa."""

    kappa: float
    a: float
    b: float
    c: float
    y_plus: float
    y_minus: float


def kappa_prime(ens: NoisyEnsemble) -> float:
    """Right end of the admissible ansatz interval, lambda' mu/(lambda' + mu).

    A product lambda' mu below the normal float range (about 2.2e-308) is a
    DomainError: it would round to a subnormal short of digits, or to 0.0.
    Where the product overflows, kappa' is min/(1 + min/max) of the pair.
    """
    prod = ens.lambda_prime * ens.mu
    if prod < sys.float_info.min:
        raise DomainError(f"kappa' = lambda' mu/(lambda' + mu) underflows: lambda' mu = "
                          f"{prod!r} is below the normal float range")
    if prod == math.inf:  # the same ratio, finite, as min <= max float and 1 + min/max >= 1
        lo, hi = sorted((ens.lambda_prime, ens.mu))
        return lo / (1.0 + lo / hi)
    return prod / (ens.lambda_prime + ens.mu)


def _gain_squared(ens: NoisyEnsemble) -> float:
    """g'^2, a DomainError where it overflows a float."""
    g2 = ens.g_prime * ens.g_prime
    if not math.isfinite(g2):
        raise DomainError(f"g'^2 overflows a float at g' = {ens.g_prime!r}")
    return g2


def _roots(
    lam: float, mu: float, g2: float, kappa: float
) -> tuple[float, float, float, float, float]:
    """(a, b, c, y+, y-) of ``coeffs`` on plain floats, g2 = g'^2."""
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise DomainError(f"kappa must be finite and > 0, got {kappa!r}")
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
    slack, split = lam * mu - (lam + mu) * kappa, b - c
    disc = split * split + slack * (a + b + c)
    # a, b and c each feed a term, so any of them past the float range leaves disc inf or NaN
    if not math.isfinite(disc):
        raise DomainError(f"the root equation overflows a float: a = {a!r}, b = {b!r}, c = {c!r}")
    if disc < 0.0:
        if disc >= -64.0 * sys.float_info.epsilon * a * a:
            disc = 0.0
        else:
            raise RootError(f"complex roots: a^2 - 4bc = {disc!r} < 0")
    root = math.sqrt(disc)
    return a, b, c, (a + root) / (2.0 * b), (a - root) / (2.0 * b)


def coeffs(ens: NoisyEnsemble, kappa: float) -> BoundWorkspace:
    """Circulant coefficients (a, b, c) and roots y+- at ansatz kappa.

        a = mu + lambda' + mu lambda' + g'^2 (mu + kappa + 2)
        b = g'^2 (mu + 1)
        c = (g'^2 + mu + lambda')(kappa + 1)
    """
    return BoundWorkspace(kappa, *_roots(ens.lambda_prime, ens.mu, _gain_squared(ens), kappa))


def circulant_dense(diag: float, sup: float, sub: float, size: int) -> np.ndarray:
    """Dense diag I - sup S - sub S^T, S the cyclic shift, for cross-checks; one
    per entry of a batch where diag, sup and sub are arrays of one shape.  At
    size 2 the corner is (0 - sup) - sub, as summed in order."""
    _require_int("circulant size", size, 2)
    diag, sup, sub = (np.asarray(x, dtype=float)[..., None] for x in (diag, sup, sub))
    i = np.arange(size)
    m = np.zeros(np.broadcast_shapes(diag.shape, sup.shape, sub.shape)[:-1] + (size, size))
    m[..., i, i] = diag
    m[..., i, (i + 1) % size] -= sup
    m[..., i, (i - 1) % size] -= sub
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
    """(det M_p)^(1/p) through the roots, on plain ``math``.

    det M_p = b^p (y+^p - 1)(1 - y-^p), so (det M_p)^(1/p) is
    b |y+^p - 1|^(1/p) |1 - y-^p|^(1/p).  A root y above 1 contributes
    y (1 - y^-p)^(1/p) and one below (1 - y^p)^(1/p), the p-th roots taken
    as exp(log1p(...)/p), so no power overflows at large p.  Every workspace
    of ``coeffs`` is in the domain, an inadmissible kappa with both roots
    above 1 included.  A root exactly at 1 gives 0.0: at kappa = kappa' the
    n = 0 eigenvalue a - b - c vanishes, so every finite-p determinant is
    zero even though the p -> infinity limit b y+ is finite; meaningful
    finite-p trends need interior kappa.
    """
    _require_int("circulant size", p, 2)
    scale, log_gap = w.b, 0.0
    for y in (w.y_plus, w.y_minus):
        if y == 1.0:
            return 0.0
        if y > 1.0:
            scale *= y
            log_gap += math.log1p(-(y ** -p))
        else:
            log_gap += math.log1p(-(y ** p))
    return scale * math.exp(log_gap / p)


def _bound(lam: float, mu: float, g2: float, kp: float, kappa: float) -> float:
    """``det_upper_bound`` on plain floats, kp = kappa'."""
    if not 0.0 < kappa <= kp * (1.0 + 1e-12):
        raise ValidityError(
            f"kappa = {kappa!r} outside the admissible interval (0, {kp!r}]"
        )
    _, b, _, y_plus, _ = _roots(lam, mu, g2, kappa)
    # a + sqrt(a^2 - 4bc) = 2 b y+, reusing the clamped discriminant of the roots
    return mu * lam * (kappa + 1.0) / kappa / (b * y_plus)


def det_upper_bound(ens: NoisyEnsemble, kappa: float) -> float:
    """Thermal-ansatz upper bound on the deterministic fidelity at kappa.

        mu lambda' (kappa + 1) / kappa * 2 / (a + sqrt(a^2 - 4 b c))

    Only kappa in (0, kappa'] keeps the ansatz normalisable, hence
    ValidityError outside.
    """
    return _bound(ens.lambda_prime, ens.mu, _gain_squared(ens), kappa_prime(ens), kappa)


def kappa_star(ens: NoisyEnsemble) -> float:
    """Minimising ansatz parameter of det_upper_bound, in closed form.

    Equals kappa' up to the passive-filter gain (lambda' + mu)/mu and at or
    above the deterministic threshold (lambda' + mu + lambda' mu)/mu; between
    the two the stationary point moves inside the interval, to
    (mu (g'-1)^2 + lambda'(mu+1)) / (g'(g' + mu)).  The minimum is the
    deterministic optimum at every gain.  Where a product in that quotient
    overflows a float, it is taken in exact rational arithmetic on the
    inputs and rounded once, finite as it is at most kappa'.
    """
    if classify(ens).tag is not RegimeTag.DET_IDENTITY:
        return kappa_prime(ens)
    lam, mu, g = ens.lambda_prime, ens.mu, ens.g_prime
    k = (mu * ((g - 1.0) * (g - 1.0)) + lam * (mu + 1.0)) / (g * (g + mu))
    if math.isfinite(k):
        return k
    from fractions import Fraction  # imported here: only a quotient past the float range needs it

    lam, mu, g = Fraction(lam), Fraction(mu), Fraction(g)
    return float((mu * (g - 1) ** 2 + lam * (mu + 1)) / (g * (g + mu)))


def minimize_det_bound(ens: NoisyEnsemble) -> tuple[float, float]:
    """Numerically minimise det_upper_bound over the admissible interval.

    An edge test comes first.  The bound is unimodal on (0, kappa'], so when
    f(kappa'(1 - 1e-10)) > f(kappa') the minimiser lies within 1e-10 kappa'
    of the edge, finer than a search by function values resolves, and
    (kappa', f(kappa')) is returned after two evaluations: the case at every
    gain outside the window S/N_C < g' < (S+1)/N_C.  The excess must pass
    the endpoint rule's margin, 4e-15 |f(kappa')|, because where the bound is
    near 1 rounding alone can lift the inner value above an interior minimum's
    edge (at lambda' = 649832.18, mu = 386390.88, g' = 3.1343598 a test
    without it returns 0.999990519 against the minimum 0.999990402).
    Otherwise a bounded golden-section search on (min(1e-9, 1e-3 kappa'),
    kappa'] (the lower end stays inside the interval however small kappa'
    is) is followed by an endpoint comparison: when no interior point beats
    the right edge within machine discrimination the edge is the certified
    minimiser (the bound is flat there exactly when the closed-form
    stationary point coincides with kappa', where x-localisation by function
    values alone cannot beat the sqrt(eps) wall).  Returns (kappa_min, value).
    """
    kp = kappa_prime(ens)
    bound = functools.partial(_bound, ens.lambda_prime, ens.mu, _gain_squared(ens), kp)
    f_edge = bound(kp)
    if bound(kp * (1.0 - 1e-10)) > f_edge + 4e-15 * abs(f_edge):
        return kp, f_edge
    x, fx = golden_section_min(bound, min(1e-9, 1e-3 * kp), kp, tol=1e-13)
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


def amp_convergence_terms(ens: NoisyEnsemble, spec: FilterSpec) -> tuple[float, float]:
    """Geometric error brackets (E1, E2) of the rank-K filter ``spec``.

    E1 bounds the weight the ideal output keeps above level K; E2 bounds
    the filtered prior mass doing the same on the input side.  Both are
    (base)^(K+1); a base at or above 1 certifies nothing, hence
    NonConvergentError (E2's base reaches 1 exactly at y^2 = 1 + kappa').
    """
    lam, mu, g2, y2 = ens.lambda_prime, ens.mu, _gain_squared(ens), spec.y * spec.y
    if y2 >= mu + 1.0:
        raise NonConvergentError(
            f"y^2 = {y2!r} at or beyond the filter pole mu + 1 = {mu + 1.0!r}"
        )
    miss = 1.0 - y2
    base1 = g2 / (g2 + lam + 1.0 - y2 - miss * miss / (mu + 1.0 - y2))
    base2 = y2 / (1.0 + lam - lam * lam / (lam + mu))
    for name, base in (("E1", base1), ("E2", base2)):
        if not 0.0 < base < 1.0:
            raise NonConvergentError(
                f"{name} bracket base {base!r} is not in (0, 1); "
                "the truncation error cannot be certified at these parameters"
            )
    return base1 ** (spec.k_cut + 1), base2 ** (spec.k_cut + 1)


def filter_deficit_bound(ens: NoisyEnsemble, spec: FilterSpec) -> float:
    """Certified gap between the rank-K filter fidelity and its K -> inf limit."""
    e1, e2 = amp_convergence_terms(ens, spec)
    return 2.0 * math.sqrt(e1 * e2)


@functools.lru_cache(maxsize=1)
def _sector_scatter(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each coherence order d's (dim - d, dim - d) product starts in one
    flat buffer, the orders one after another and each row-major, and the flat
    indices carrying its entry [m, a - d] to blocks[m + a, m + d, m] of a
    (dim, dim, dim) array: the lower triangle of whole sector m + a < dim,
    input levels absolute, in the order of ``np.nonzero``."""
    k = np.arange(dim)
    starts = np.concatenate(([0], np.cumsum((dim - k) ** 2)))
    d, m, j = np.nonzero(k[:, None, None] + k[:, None] + k < dim)
    return starts, starts[d] + m * (dim - d) + j, ((d + m + j) * dim + m + d) * dim + m


def cft_norm_check(ens: NoisyEnsemble) -> tuple[float, float]:
    """(numerical bound, closed-form ``formulas.cft``) for direct comparison.

    The bound is the operator norm of

        Gamma = integral (d^2 a / pi) p(a) |g'a><g'a| (x) s^(-1/2) rho(a) s^(-1/2)

    with p the Gaussian prior, rho(a) the displaced noisy input and s the
    prior-averaged (thermal) state, of ratio q = 1/(1 + kappa').  Its
    s^(-1/2) = q^(-n/2) / sqrt(1 - q) is taken as (1 + kappa')^(n/2) /
    sqrt(kappa'/(1 + kappa')), which does not cancel as kappa' shrinks; a
    whitened operator past the float range (kappa' past about 3e6) is a
    DomainError.  The whitened factor s^(-1/2) rho(a) s^(-1/2) is a
    displaced geometric operator of ratio
    x' = (lambda' mu + lambda' + mu)/((lambda' + mu)(mu + 1)) at amplitude
    c2 a, c2 = sqrt((lambda' mu + lambda' + mu)(lambda' + mu))/mu, whose
    weight grows as exp(+lambda'|a|^2) and cancels the prior: Gamma equals
    the flat-measure form c1 * integral D(c2 a) x'^n D^dag (x) |g'a><g'a|,
    c1 = lambda' + mu/(mu + 1) as in ``formulas``.
    Gamma is the better-conditioned quadrature target, so the numerical
    value is its largest eigenvalue at _CFT_DIM levels per mode, scored
    against targets whose entries below ``fock._LOG_KET_FLOOR`` are zero.
    The stack's entries are at most mu/(1 + mu), so where that is within 2^53
    of exp(``fock._LOG_KET_FLOOR``) (mu below about 9.0e-85) the floor could
    zero all of them, and the check is a DomainError.  The integrand decays
    as exp(-c t) in t = lambda'|a|^2, c = (c1 + g'^2)/lambda' (a DomainError
    where it overflows), so its own stack sits on the oracle's cached rule,
    ``fock._laguerre_rule(fock._RADIAL_NODES)``, the checked-in 48-node table
    ``fock._RADIAL_T``, ``fock._RADIAL_W`` that no call recomputes, scaled by
    c: nodes u_i/c, of weights w_i exp(u_i - u_i/c)/c.
    Being phase covariant, Gamma is block-diagonal in the total photon
    number, and the cutoff holds each sector m + a < _CFT_DIM whole, so
    those blocks are the quadrature operator's own sectors.  The cutoff cuts
    every other sector to a principal submatrix, whose top eigenvalue by
    Cauchy interlacing only bounds its whole sector's from below, so those
    are dropped (at every point tried, none of them held the maximum).
    The blocks are assembled by coherence order d of the input: with x the
    whitened stack and v the weighted targets, entry (m, m+d) of sector
    m + a is sum_p x_p[m, m+d] v_p[a] v_p[a-d], so each order is one matmul
    of the stack's d-th diagonal against v[d:] v[:-d], and the products of
    every order scatter into the lower triangles of the _CFT_DIM blocks in
    one assignment.  The value is the largest of the blocks' top eigenvalues.

    It misses Gamma's norm, of either sign, by the rule's first-moment error:
    1.0e-13 to 1.4e-13 relative to ``formulas.cft`` with 48 nodes, over a
    box of lambda' from 1e-3 to 5, mu from 0.2 to 20 and g' from 0.2 to 50,
    and at lambda' down to 1e-300.  A call takes about 5 ms on one core,
    over half of it in the 48 blocks' eigenvalues.
    """
    dim, lam, mu = _CFT_DIM, ens.lambda_prime, ens.mu
    scale = (formulas._c1(lam, mu) + _gain_squared(ens)) / lam
    if not math.isfinite(scale):
        raise DomainError(f"the radial scale (c1 + g'^2)/lambda' overflows a float: {scale!r}")
    if mu / (1.0 + mu) < 2.0 ** 53 * math.exp(fock._LOG_KET_FLOOR):
        raise DomainError(f"the stack entries, at most mu/(1 + mu), are within 2^53 of the "
                          f"1e-100 ket floor at mu = {mu!r}")
    u, w = fock._laguerre_rule(fock._RADIAL_NODES)
    radii, w = np.sqrt(u / scale / lam), w * np.exp(u - u / scale) / scale
    states = fock._displaced_thermal_stack(radii, 1.0 / mu, dim)
    kp = kappa_prime(ens)
    v = fock._coherent_kets(ens.g_prime * radii, dim) * np.sqrt(w)[:, None]
    # every order's product before the sector blocks, so that the stack is freed first
    starts, source, target = _sector_scatter(dim)
    products = np.empty(starts[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the DomainError below
        whiten = np.exp(np.arange(dim) / 2.0 * math.log1p(kp)) / math.sqrt(kp / (1.0 + kp))
        for d in range(dim):
            n = dim - d
            np.matmul((np.diagonal(states, d, -2, -1) * (whiten[:n] * whiten[d:])).T,
                      v[:, d:] * v[:, :n], out=products[starts[d] : starts[d + 1]].reshape(n, n))
    del states
    if not np.isfinite(products).all():
        raise DomainError(f"the whitened norm operator overflows a float at kappa' = {kp!r}")
    blocks = np.zeros((dim, dim, dim))
    blocks.ravel()[target] = products[source]
    top = max(float(np.linalg.eigvalsh(blocks[tot, : tot + 1, : tot + 1], UPLO="L").max())
              for tot in range(dim))
    return top, formulas.cft(ens)
