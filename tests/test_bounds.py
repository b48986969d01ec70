import math

import numpy as np
import pytest

from ampurify.bounds import (
    CirculantTriple,
    amp_convergence_terms,
    cft_bound,
    cft_norm_check,
    circulant_dense,
    circulant_eigs,
    coeffs,
    det_limit,
    det_limit_finite_p,
    det_upper_bound,
    filter_deficit_bound,
    kappa_prime,
    kappa_star,
    minimize_det_bound,
    prob_via_kappa_prime,
)
from ampurify.errors import DomainError, NonConvergentError, RootError, ValidityError
from ampurify.formulas import cft, det_fidelity, prob_fidelity
from ampurify.params import NoisyEnsemble, passive_filter_gain, photon_book, thresholds


def _ens(lam, mu, g):
    return NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=g)


# ---------------------------------------------------------------------------
# circulant coefficients and roots
# ---------------------------------------------------------------------------


def test_coeffs_worked_point():
    w = coeffs(_ens(1.0, 1.0, 1.0), 0.5)
    assert (w.a, w.b, w.c) == (6.5, 2.0, 4.5)
    assert w.y_plus == pytest.approx(2.25, abs=1e-15)
    assert w.y_minus == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("kappa", [0.0, -0.5, math.inf])
def test_coeffs_rejects_bad_kappa(kappa):
    with pytest.raises(DomainError):
        coeffs(_ens(1.0, 1.0, 1.0), kappa)


def test_coeffs_rejects_zero_gain():
    with pytest.raises(RootError):
        coeffs(_ens(1.0, 1.0, 0.0), 0.25)


def test_double_root_survives_rounding_on_the_plateau():
    # (b - c)^2 vanishes exactly at the plateau gain when kappa = kappa';
    # the split-form discriminant must not reintroduce sqrt(eps) jitter
    for lam, mu in [(0.5, 0.5), (2.0, 1.0), (1.0, 2.0)]:
        _, prob_thr = thresholds(_ens(lam, mu, 1.0))
        w = coeffs(_ens(lam, mu, prob_thr), kappa_prime(_ens(lam, mu, prob_thr)))
        assert abs(w.b - w.c) <= 1e-9 * w.b
        assert abs(w.y_plus - 1.0) <= 1e-12
        assert abs(w.y_minus - 1.0) <= 1e-12


@pytest.mark.parametrize("size", [2, 3, 5, 8])
def test_circulant_eigs_match_dense_determinant(size):
    rng = np.random.default_rng(11 + size)
    for _ in range(25):
        diag, sup, sub = rng.uniform(4.0, 8.0), rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
        t = CirculantTriple(diag=diag, sup=sup, sub=sub, size=size)
        via_eigs = complex(np.prod(circulant_eigs(t)))
        via_dense = float(np.linalg.det(circulant_dense(t)))
        assert abs(via_eigs.imag) <= 1e-10 * abs(via_dense)
        assert via_eigs.real == pytest.approx(via_dense, rel=1e-10)


def test_circulant_size_must_be_at_least_two():
    with pytest.raises(DomainError):
        CirculantTriple(diag=1.0, sup=0.1, sub=0.1, size=1)


@pytest.mark.parametrize(
    "lam,mu,g,kappa,p",
    [(1.0, 1.0, 1.0, 0.25, 4), (0.5, 2.0, 1.7, 0.3, 5), (2.0, 0.5, 2.2, 0.35, 6)],
)
def test_block_matrix_determinant_reduces_to_circulant(lam, mu, g, kappa, p):
    """The 2p x 2p Gaussian quadratic form factorises through (a, b, c).

    Blocks A, B, C are circulant (hence commuting), so
    det [[A, B], [B, C]] = det(A C - B^2), whose eigenvalues are exactly the
    scalar-circulant values a - b w^-n - c w^n.
    """
    eye = np.eye(p)
    up = np.zeros((p, p))
    down = np.zeros((p, p))
    for i in range(p):
        up[i, (i + 1) % p] = 1.0
        down[i, (i - 1) % p] = 1.0
    g2 = g * g
    block_a = (lam + 1.0 + g2) * eye - g2 * up - (kappa + 1.0) * down
    block_b = eye - (kappa + 1.0) * down
    block_c = (mu + 1.0) * eye - (kappa + 1.0) * down

    big = np.block([[block_a, block_b], [block_b, block_c]])
    schur = block_a @ block_c - block_b @ block_b
    w = coeffs(_ens(lam, mu, g), kappa)
    target = np.prod(circulant_eigs(CirculantTriple(w.a, w.b, w.c, p))).real
    assert np.linalg.det(big) == pytest.approx(target, rel=1e-10)
    assert np.linalg.det(schur) == pytest.approx(target, rel=1e-10)


# ---------------------------------------------------------------------------
# the determinant limit and its finite-p approach
# ---------------------------------------------------------------------------


def test_det_limit_worked_point():
    w = coeffs(_ens(1.0, 1.0, 1.0), 0.5)
    assert det_limit(w) == pytest.approx(4.5, abs=1e-14)


def test_det_limit_rejects_wrong_root_ordering():
    # beyond kappa' the small root can exceed 1 and the limit formula fails
    with pytest.raises(ValidityError):
        det_limit(coeffs(_ens(4.0, 4.0, 1.1), 2.2))


def test_finite_p_approaches_the_limit_from_inside():
    w = coeffs(_ens(1.0, 1.0, 2.5), 0.25)
    limit = det_limit(w)
    devs = [abs(det_limit_finite_p(w, p) - limit) / limit for p in (4, 8, 16, 32, 64)]
    assert all(d2 < d1 for d1, d2 in zip(devs, devs[1:]))
    assert devs[-1] < 1e-4


def test_finite_p_is_identically_zero_at_the_interval_edge():
    ens = _ens(1.0, 1.0, 2.5)
    w = coeffs(ens, kappa_prime(ens))
    assert det_limit_finite_p(w, 8) == 0.0


# ---------------------------------------------------------------------------
# the bound, its minimiser, and the closed forms it certifies
# ---------------------------------------------------------------------------


def test_kappa_prime_worked_values():
    assert kappa_prime(_ens(1.0, 1.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert kappa_prime(_ens(2.0, 0.5, 1.0)) == pytest.approx(0.4, abs=1e-15)


def test_kappa_star_sits_at_the_edge_beyond_threshold():
    assert kappa_star(_ens(1.0, 1.0, 3.0)) == pytest.approx(0.5, abs=1e-15)
    assert kappa_star(_ens(1.0, 1.0, 4.0)) == pytest.approx(0.5, abs=1e-15)


def test_kappa_star_interior_value_meets_the_edge_at_the_tangency():
    # at g' = S/N_C the interior stationary point lands exactly on kappa'
    assert kappa_star(_ens(1.0, 1.0, 2.0)) == pytest.approx(0.5, abs=1e-15)


def test_kappa_star_sits_at_the_edge_below_passive_filter_gain():
    for g in (0.5, 0.9, 1.5):
        assert kappa_star(_ens(1.0, 1.0, g)) == kappa_prime(_ens(1.0, 1.0, g))


@pytest.mark.parametrize("lam,mu", [(0.5, 0.5), (1.0, 1.0), (2.0, 0.5), (0.5, 2.0)])
@pytest.mark.parametrize("offset", [0.0, 0.5, 2.0])
def test_minimized_bound_reproduces_det_optimum(lam, mu, offset):
    det_thr, _ = thresholds(_ens(lam, mu, 1.0))
    ens = _ens(lam, mu, det_thr + offset)
    kappa_num, value = minimize_det_bound(ens)
    assert abs(kappa_num - kappa_star(ens)) <= 1e-8
    assert value == pytest.approx(det_fidelity(ens), abs=1e-12)


def test_bound_at_the_edge_reproduces_prob_optimum():
    for g in (1.2, 2.0, 2.6, 3.5):
        ens = _ens(1.0, 1.0, g)
        assert prob_via_kappa_prime(ens) == pytest.approx(prob_fidelity(ens), abs=1e-12)


def test_prob_via_kappa_prime_worked_point():
    assert prob_via_kappa_prime(_ens(1.0, 1.0, 3.0)) == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_below_tangency_the_minimum_moves_to_the_edge():
    """Below g' = S/N_C the bound decreases over the whole admissible interval.

    Its minimum sits at the edge kappa', where it equals both optima: the
    attenuator's deterministic value and the passive filter's heralded one.
    """
    for g in (0.5, 1.5):
        ens = _ens(1.0, 1.0, g)
        kappa_num, value = minimize_det_bound(ens)
        assert kappa_num == pytest.approx(kappa_prime(ens), abs=1e-12)
        assert kappa_star(ens) == kappa_prime(ens)
        assert value == pytest.approx(det_fidelity(ens), abs=1e-12)
        assert value == pytest.approx(prob_fidelity(ens), abs=1e-12)


def test_bound_dominates_det_everywhere_on_the_interval():
    ens = _ens(1.0, 1.0, 3.5)
    best = det_fidelity(ens)
    for kappa in np.linspace(0.05, kappa_prime(ens), 12):
        assert det_upper_bound(ens, float(kappa)) >= best - 1e-12


def test_bound_rejects_kappa_outside_interval():
    ens = _ens(1.0, 1.0, 3.0)
    with pytest.raises(ValidityError):
        det_upper_bound(ens, 2.0 * kappa_prime(ens))
    with pytest.raises(ValidityError):
        det_upper_bound(ens, 0.0)


# ---------------------------------------------------------------------------
# filter-truncation error brackets
# ---------------------------------------------------------------------------


def test_convergence_terms_worked_point():
    ens = _ens(1.0, 1.0, 1.5)
    e1, e2 = amp_convergence_terms(ens, 0.75, 10)
    base1 = 2.25 / (2.25 + 2.0 - 0.5625 - 0.4375**2 / 1.4375)
    assert e1 == pytest.approx(base1**11, rel=1e-12)
    assert e2 == pytest.approx(0.375**11, rel=1e-12)


def test_deficit_bound_is_geometric_mean_of_brackets():
    ens = _ens(1.0, 1.0, 1.5)
    e1, e2 = amp_convergence_terms(ens, 0.75, 20)
    assert filter_deficit_bound(ens, 0.75, 20) == pytest.approx(
        2.0 * math.sqrt(e1 * e2), rel=1e-14
    )


def test_brackets_shrink_with_the_cut():
    ens = _ens(1.0, 1.0, 1.5)
    bounds = [filter_deficit_bound(ens, 0.75, k) for k in (5, 10, 20, 40)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_brackets_refuse_the_filter_pole():
    with pytest.raises(NonConvergentError):
        amp_convergence_terms(_ens(1.0, 1.0, 2.5), 1.5, 10)


def test_brackets_refuse_the_input_mass_boundary():
    # E2's base reaches 1 at y^2 = 1 + kappa', well inside the filter pole
    ens = _ens(1.0, 1.0, 2.0)
    y_boundary = math.sqrt(1.0 + kappa_prime(ens)) * (1.0 + 1e-9)
    assert y_boundary**2 < 1.0 + ens.mu
    with pytest.raises(NonConvergentError):
        amp_convergence_terms(ens, y_boundary, 10)


# ---------------------------------------------------------------------------
# classical-threshold norm bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam,mu,g", [(1.0, 1.0, 2.0), (0.5, 2.0, 0.8), (2.0, 0.5, 1.5)])
def test_cft_bound_matches_the_closed_form_fidelity(lam, mu, g):
    ens = _ens(lam, mu, g)
    assert cft_bound(ens) == pytest.approx(cft(ens), rel=1e-14)


def test_cft_norm_check_converges_from_above():
    numeric, closed = cft_norm_check(_ens(1.0, 1.0, 1.5))
    assert closed == cft(_ens(1.0, 1.0, 1.5))
    assert numeric >= closed
    assert (numeric - closed) / closed <= 1e-3


def test_tangency_gain_equals_photon_ratio():
    # sanity anchor for the window used above: S/N_C = 2 at unit rates
    book = photon_book(_ens(1.0, 1.0, 1.0))
    assert book.total / book.n_c == passive_filter_gain(_ens(1.0, 1.0, 1.0)) == 2.0
