import math
import random
import sys

import mpmath
import numpy as np
import pytest

from ampurify import bounds, fock, verify
from ampurify.bounds import (
    amp_convergence_terms,
    cft_norm_check,
    circulant_dense,
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
from ampurify.gaussian import FilterSpec
from ampurify.params import NoisyEnsemble, passive_filter_gain, photon_book, thresholds
from ampurify.scalaropt import golden_section_min


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
def test_root_factorisation_matches_dense_determinant(size):
    # det M_p = b^p (y+^p - 1)(1 - y-^p), the eigenvalue product taken through the roots
    rng = np.random.default_rng(11 + size)
    for _ in range(25):
        ens = _ens(*rng.uniform(0.25, 4.0, 3))
        w = coeffs(ens, rng.uniform(0.05, 0.95) * kappa_prime(ens))
        via_roots = det_limit_finite_p(w, size) ** size
        via_dense = float(np.linalg.det(circulant_dense(w.a, w.b, w.c, size)))
        assert via_roots == pytest.approx(via_dense, rel=1e-10)


@pytest.mark.parametrize("size", range(2, 9))
def test_stacked_circulant_helpers_equal_the_scalar_calls(size):
    rng = np.random.default_rng(40 + size)
    diag, sup, sub = rng.uniform(4.0, 8.0, 9), rng.uniform(0.2, 1.5, 9), rng.uniform(0.2, 1.5, 9)
    singles = [circulant_dense(float(d), float(p), float(b), size)
               for d, p, b in zip(diag, sup, sub)]
    assert np.array_equal(circulant_dense(diag, sup, sub, size), singles)
    assert singles[0].shape == (size, size)


@pytest.mark.parametrize("size", range(2, 9))
def test_circulant_dense_is_the_entrywise_band(size):
    # at size 2 the shift and its transpose coincide: the corner is (0 - sup) - sub
    diag, sup, sub = 5.3, 0.1, 0.7
    band = np.diag(np.full(size, diag))
    for i in range(size):
        band[i, (i + 1) % size] -= sup
        band[i, (i - 1) % size] -= sub
    assert np.array_equal(circulant_dense(diag, sup, sub, size), band)


@pytest.mark.parametrize("seed", [0, 1, 4, 7, 11, 123])
def test_batched_circulant_check_reads_the_per_triple_loop(seed):
    # one bound point at a time, in draw order: size, lambda', mu, g', kappa/kappa'
    u = random.Random(seed).random
    devs = []
    for _ in range(100):
        size, ens = 2 + int(7 * u()), _ens(0.25 + 3.75 * u(), 0.25 + 3.75 * u(), 0.25 + 3.75 * u())
        w = coeffs(ens, (0.05 + 0.9 * u()) * kappa_prime(ens))
        det = float(np.linalg.det(circulant_dense(w.a, w.b, w.c, size)))
        devs.append(abs(det_limit_finite_p(w, size) ** size - det) / abs(det))
    assert verify._check_circulant_dense(seed, 64) == (0.0, max(devs))


def test_circulant_size_must_be_at_least_two():
    w = coeffs(_ens(1.0, 1.0, 2.5), 0.25)
    for size in (1, 0, 2.0, 8.5, True, "3", None):
        with pytest.raises(DomainError, match="circulant size"):
            circulant_dense(1.0, 0.1, 0.1, size)
        with pytest.raises(DomainError, match="circulant size"):
            det_limit_finite_p(w, size)


@pytest.mark.parametrize("point,kappa,p", [
    ((4.0, 4.0, 1.1), 2.2, 3),  # kappa past kappa' = 2: both roots above 1, det < 0
    ((4.0, 4.0, 1.1), 2.2, 8),
    ((2.0, 2.0, 1e-3), 0.5, 64),  # y+ near 2.7e6, so y+^64 is past the float range
])
def test_finite_p_is_the_dense_determinants_root_wherever_coeffs_reaches(point, kappa, p):
    w = coeffs(_ens(*point), kappa)
    dense = float(np.linalg.det(circulant_dense(w.a, w.b, w.c, p)))
    assert det_limit_finite_p(w, p) == pytest.approx(abs(dense) ** (1.0 / p), rel=1e-12)


@pytest.mark.parametrize(
    "lam,mu,g,kappa,p",
    [(1.0, 1.0, 1.0, 0.25, 4), (0.5, 2.0, 1.7, 0.3, 5), (2.0, 0.5, 2.2, 0.35, 6)],
)
def test_block_matrix_determinant_reduces_to_circulant(lam, mu, g, kappa, p):
    """The 2p x 2p Gaussian quadratic form factorises through (a, b, c).

    Blocks A, B, C are circulant (hence commuting), so
    det [[A, B], [B, C]] = det(A C - B^2), whose eigenvalues are exactly the
    scalar-circulant values a - b w^-n - c w^n, of product
    det M_p = b^p (y+^p - 1)(1 - y-^p) through the roots.
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
    target = det_limit_finite_p(w, p) ** p
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


#: ensembles whose kappa' lies below the search's former fixed lower end 1e-9
_TINY_KAPPA_PRIME = [(1e-10, 1e-10, 1.0), (1e-10, 1e-10, 3.0), (1e-9, 1e-9, 3.0), (2e-9, 1e-9, 0.5)]


@pytest.mark.parametrize("lam,mu,g", [_TINY_KAPPA_PRIME[0], _TINY_KAPPA_PRIME[2]])
def test_minimized_bound_holds_when_kappa_prime_is_below_1e_9(lam, mu, g):
    ens = _ens(lam, mu, g)
    kappa_num, value = minimize_det_bound(ens)
    assert kappa_num == pytest.approx(kappa_star(ens), rel=1e-15)
    assert value == pytest.approx(det_fidelity(ens), rel=1e-15)


def _reference_minimum(ens):
    """The golden-only route of ``minimize_det_bound``, on the public bound:
    the full search and the endpoint rule, without the edge test."""
    kp = kappa_prime(ens)
    x, fx = golden_section_min(
        lambda k: det_upper_bound(ens, k), min(1e-9, 1e-3 * kp), kp, tol=1e-13
    )
    f_edge = det_upper_bound(ens, kp)
    return (kp, f_edge) if f_edge <= fx + 4e-15 * abs(fx) else (x, fx)


#: interior minima near a bound of 1, where f(kappa'(1 - 1e-10)) rounds above f(kappa'):
#: an edge test without the 4e-15 margin would return kappa' at each of them
_MARGIN_POINTS = [
    (649832.1776084218, 386390.88316653174, 3.1343598078241497),
    (1547935.241131499, 4842748.095057683, 1.9903924251992655),
    (375365525.7328881, 4148268.346837222, 135.01480054660328),
    (40459636.59143871, 454588165.8295804, 2.0177503961683882),
]


def _wide_box(n, seed):
    """n log-uniform points with lambda', mu in [e^-20, e^20] and g' in [e^-10, e^10]."""
    u = random.Random(seed).uniform
    return [_ens(math.exp(u(-20, 20)), math.exp(u(-20, 20)), math.exp(u(-10, 10)))
            for _ in range(n)]


def test_minimizer_and_bound_keep_the_bits_of_the_record_path():
    extra = _TINY_KAPPA_PRIME + _MARGIN_POINTS + [
        (36803791.88937655, 3132905.345784115, 19.595098871233198),
        (5484001.1411844315, 246797661.98022965, 3.365407050445215),
    ]
    for ens in verify._grid(verify._det_bound_gains) + [_ens(*p) for p in extra]:
        assert minimize_det_bound(ens) == _reference_minimum(ens)
        kp = kappa_prime(ens)
        for kappa in (1e-3 * kp, 0.3 * kp, 0.7 * kp, kp):
            w = coeffs(ens, kappa)
            pref = ens.mu * ens.lambda_prime * (kappa + 1.0) / kappa
            assert det_upper_bound(ens, kappa) == pref / (w.b * w.y_plus)
    differ = [ens for ens in _wide_box(1000, 32) if minimize_det_bound(ens) != _reference_minimum(ens)]
    assert not differ


@pytest.mark.parametrize("lam,mu,g", _MARGIN_POINTS)
def test_the_edge_test_needs_its_margin(lam, mu, g):
    # the inner value rounds above the edge's, by less than the margin, at an interior minimum
    ens = _ens(lam, mu, g)
    kp = kappa_prime(ens)
    f_edge, f_inner = det_upper_bound(ens, kp), det_upper_bound(ens, kp * (1.0 - 1e-10))
    assert f_edge < f_inner <= f_edge + 4e-15 * f_edge
    kappa_num, value = minimize_det_bound(ens)
    assert kappa_num < kp and value < f_edge
    assert value == pytest.approx(det_fidelity(ens), abs=1e-12)


def _count_bound_calls(monkeypatch):
    calls, bound = [], bounds._bound
    monkeypatch.setattr(bounds, "_bound", lambda *args: calls.append(args) or bound(*args))
    return calls


@pytest.mark.parametrize("g", [0.5, 1.5, 3.5, 4.0])
def test_an_edge_minimum_settles_in_two_evaluations(monkeypatch, g):
    calls = _count_bound_calls(monkeypatch)
    kappa_num, value = minimize_det_bound(_ens(1.0, 1.0, g))
    assert len(calls) == 2
    assert kappa_num == kappa_prime(_ens(1.0, 1.0, g))
    assert value == pytest.approx(det_fidelity(_ens(1.0, 1.0, g)), abs=1e-12)


@pytest.mark.parametrize("lam,mu,g", [(1.0, 1.0, 2.0), (1.0, 1.0, 3.0), (1.0, 1.0, 2.45),
                                      (0.5, 2.0, 1.6)])
def test_tangency_and_window_gains_run_the_full_search(monkeypatch, lam, mu, g):
    # g' = 2 and 3 are the tangency gains S/N_C and (S+1)/N_C at unit rates, where
    # the bound is flat at the edge; 2.45 and (0.5, 2, 1.6) lie inside the window
    calls = _count_bound_calls(monkeypatch)
    minimize_det_bound(_ens(lam, mu, g))
    assert len(calls) > 60


def test_the_verify_minimiser_check_stays_within_its_evaluation_budget(monkeypatch):
    # 4,102 evaluations with the search at every point; 36 of the 63 are edge minima
    calls = _count_bound_calls(monkeypatch)
    verify._check_det_bound_minimum(7, 64)
    assert len(calls) <= 1900


@pytest.mark.parametrize(
    "lo,hi", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.nan, 1.0)]
)
def test_golden_section_rejects_a_bracket_end_that_is_not_finite(lo, hi):
    with pytest.raises(DomainError):
        golden_section_min(lambda x: x * x, lo, hi)


def test_minimizer_rejects_an_overflowing_kappa_prime():
    ens = _ens(1e200, 1e200, 1.0)
    assert kappa_prime(ens) == 5e199
    with pytest.raises(DomainError):
        minimize_det_bound(ens)
    with pytest.raises(DomainError):  # lambda' + mu overflows too
        minimize_det_bound(_ens(1e308, 1e308, 1.0))


@pytest.mark.parametrize("lam,mu,kp", [(1e200, 1e200, 5e199), (1e308, 1e308, 5e307),
                                       (1e308, 3e10, 3e10)])
@pytest.mark.parametrize(
    "call",
    [kappa_prime, kappa_star, minimize_det_bound, lambda ens: det_upper_bound(ens, 1e-300),
     prob_via_kappa_prime],
    ids=["kappa_prime", "kappa_star", "minimize_det_bound", "det_upper_bound",
         "prob_via_kappa_prime"],
)
def test_an_overflowing_product_leaves_kappa_prime_finite(call, lam, mu, kp):
    # lambda' mu overflows, so kappa' is min/(1 + min/max); a bound reading it
    # overflows in its root equation instead, a clean DomainError
    ens = _ens(lam, mu, 1.0)
    if call in (kappa_prime, kappa_star):
        assert call(ens) == kp
    else:
        with pytest.raises(DomainError, match="overflows a float"):
            call(ens)


_MAX = sys.float_info.max

#: DetIdentity points of the grid {5e-324, 1e-300, 1e-12, 0.3, 1, 2.5, 1e12, 1e300, max}^3
#: where kappa_star's float quotient overflows (it read NaN at 17 and inf at 2)
_OVERFLOWING_KAPPA_STAR = [
    (2.5, _MAX, 2.5), (1e12, 1e300, 2.5), (1e12, 1e300, 1e12), (1e12, _MAX, 2.5),
    (1e12, _MAX, 1e12), (1e300, 2.5, 1e300), (1e300, 1e12, 1e300), (1e300, 1e300, 2.5),
    (1e300, 1e300, 1e12), (1e300, _MAX, 2.5), (1e300, _MAX, 1e12), (_MAX, 2.5, _MAX),
    (_MAX, 1e12, 1e300), (_MAX, 1e12, _MAX), (_MAX, 1e300, 1e12), (_MAX, 1e300, 1e300),
    (_MAX, _MAX, 2.5), (_MAX, _MAX, 1e12), (_MAX, _MAX, 1e300),
]


@pytest.mark.parametrize("lam,mu,g", _OVERFLOWING_KAPPA_STAR)
def test_kappa_star_is_finite_and_admissible_where_its_quotient_overflows(lam, mu, g):
    # rounded once from exact arithmetic, so within half an ulp of the 50-digit
    # value (worst measured 9.1e-17 relative, at (max, 1e300, 1e12))
    ens = _ens(lam, mu, g)
    k = kappa_star(ens)
    assert 0.0 < k <= kappa_prime(ens)
    with mpmath.workdps(50):
        lam, mu, g = map(mpmath.mpf, (lam, mu, g))
        exact = (mu * (g - 1) ** 2 + lam * (mu + 1)) / (g * (g + mu))
        assert abs(k - exact) <= 2.0 ** -53 * exact


@pytest.mark.parametrize("lam,mu,g", [(1e-300, 1e-300, 3.0), (1e-160, 1e-160, 3.0),
                                      (1e-160, 1e-160, 1.0), (1e-154, 1e-154, 2.0)])
@pytest.mark.parametrize(
    "call",
    [kappa_prime, kappa_star, minimize_det_bound, lambda ens: det_upper_bound(ens, 1e-300),
     prob_via_kappa_prime],
    ids=["kappa_prime", "kappa_star", "minimize_det_bound", "det_upper_bound",
         "prob_via_kappa_prime"],
)
def test_an_underflowing_kappa_prime_is_a_domain_error(call, lam, mu, g):
    # lambda' mu rounds to 0.0 at 1e-300 and to a subnormal short of digits at 1e-160
    # (kappa' would read 4.99994e-161 against 5e-161) and at 1e-154
    with pytest.raises(DomainError, match="kappa' = lambda' mu/\\(lambda' \\+ mu\\) underflows"):
        call(_ens(lam, mu, g))


def test_kappa_prime_keeps_its_bits_down_to_the_smallest_normal_product():
    tiny = sys.float_info.min
    for lam, mu in [(1e-300, 1.0), (tiny, 1.0), (1.0, tiny), (2.0 ** -511, 2.0 ** -511)]:
        assert kappa_prime(_ens(lam, mu, 1.0)) == lam * mu / (lam + mu)
    # the norm check's own tests hold (1e-300, 1, 1) to 1e-11 of formulas.cft
    assert minimize_det_bound(_ens(1e-300, 1.0, 1.0)) == (1e-300, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: coeffs(_ens(1.0, 1.0, 1e160), 0.5),  # g'^2 overflows
        lambda: det_upper_bound(_ens(1e200, 1e200, 1.0), 1.0),  # a overflows
        lambda: minimize_det_bound(_ens(1e160, 1.0, 1e160)),  # g'^2 overflows
        # finite coefficients whose (b - c)^2 overflows
        lambda: coeffs(_ens(1.0, 1.0, 5e153), 0.25),
        lambda: amp_convergence_terms(_ens(1.0, 1.0, 1e160), FilterSpec(10, 0.5)),
    ],
    ids=["coeffs", "det_upper_bound", "minimize_det_bound", "coeffs-square",
         "amp_convergence_terms"],
)
def test_root_arithmetic_past_the_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="overflows a float"):
        call()


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
    e1, e2 = amp_convergence_terms(ens, FilterSpec(10, 0.75))
    base1 = 2.25 / (2.25 + 2.0 - 0.5625 - 0.4375**2 / 1.4375)
    assert e1 == pytest.approx(base1**11, rel=1e-12)
    assert e2 == pytest.approx(0.375**11, rel=1e-12)


def test_deficit_bound_is_geometric_mean_of_brackets():
    ens = _ens(1.0, 1.0, 1.5)
    spec = FilterSpec(20, 0.75)
    e1, e2 = amp_convergence_terms(ens, spec)
    assert filter_deficit_bound(ens, spec) == pytest.approx(
        2.0 * math.sqrt(e1 * e2), rel=1e-14
    )


def test_brackets_shrink_with_the_cut():
    ens = _ens(1.0, 1.0, 1.5)
    bounds = [filter_deficit_bound(ens, FilterSpec(k, 0.75)) for k in (5, 10, 20, 40)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_brackets_refuse_the_filter_pole():
    with pytest.raises(NonConvergentError):
        amp_convergence_terms(_ens(1.0, 1.0, 2.5), FilterSpec(10, 1.5))


def test_brackets_refuse_the_input_mass_boundary():
    # E2's base reaches 1 at y^2 = 1 + kappa', well inside the filter pole
    ens = _ens(1.0, 1.0, 2.0)
    y_boundary = math.sqrt(1.0 + kappa_prime(ens)) * (1.0 + 1e-9)
    assert y_boundary**2 < 1.0 + ens.mu
    with pytest.raises(NonConvergentError):
        amp_convergence_terms(ens, FilterSpec(10, y_boundary))


# ---------------------------------------------------------------------------
# classical-threshold norm bound
# ---------------------------------------------------------------------------


def test_cft_norm_check_matches_formulas_cft_from_either_side():
    # the rule's first-moment error may take either sign, so the match is two-sided
    numeric, closed = cft_norm_check(_ens(1.0, 1.0, 1.5))
    assert closed == cft(_ens(1.0, 1.0, 1.5))
    assert abs(numeric - closed) <= 1e-11 * closed


@pytest.mark.parametrize("lam, mu, g", [
    (0.01, 1.0, 1.5), (1e-3, 1.0, 1.0), (1e-3, 1.0, 50.0), (0.2, 5.0, 14.0), (2.0, 2.0, 9.0),
    (0.2, 1.0, 1.5), (0.05, 1.0, 1.5), (1.0, 1.0, 6.0),
    (1.0, 1.0, 1.5), (0.5, 2.0, 1.5), (1.0, 0.5, 2.0),
    (1e-10, 1.0, 1.0), (1e-15, 1.0, 1.0), (1e-16, 1.0, 1.0), (1e-100, 1.0, 1.0),
    (1e-300, 1.0, 1.0), (1.0, 1e-20, 1.0),
])
def test_cft_norm_check_matches_the_closed_form_off_the_verify_points(lam, mu, g):
    # an unscaled 96-node rule misses the first five by +0.97, +3.4, -1.0, +2.9 and
    # +1.6e-2 relative: the integrand decays as exp(-c t), c = (c1 + g'^2)/lambda' >> 1;
    # a whitening through 1 - 1/(1 + kappa') misses lambda' = 1e-10 by -8.3e-8 and
    # 1e-15 by -9.9e-2, and past that divides by zero
    numeric, closed = cft_norm_check(_ens(lam, mu, g))
    assert abs(numeric - closed) <= 1e-11 * closed


def test_cft_norm_check_rejects_an_overflowing_radial_scale():
    with pytest.raises(DomainError, match="radial scale"):
        cft_norm_check(_ens(1e-308, 1.0, 2.0))


@pytest.mark.parametrize("lam, mu", [(1e10, 1e10), (1e300, 1e300)])
def test_cft_norm_check_rejects_an_overflowing_whitening(recwarn, lam, mu):
    # s^(-1/2) grows as (1 + kappa')^(n/2): at kappa' = 5e9 level 47's is 1e228, its square inf
    with pytest.raises(DomainError, match="whitened norm operator overflows"):
        cft_norm_check(_ens(lam, mu, 1.0))
    assert not recwarn.list


def test_cft_norm_check_lands_on_the_closed_form_over_a_seeded_box():
    # log-uniform lambda' in [1e-3, 5], mu in [0.2, 20], g' in [0.2, 50]: the 48-node
    # rule's first-moment error reads 1.0e-13 to 1.4e-13 over 150 such points
    rng = np.random.default_rng(28)
    box = np.exp(rng.uniform(np.log([1e-3, 0.2, 0.2]), np.log([5.0, 20.0, 50.0]), (40, 3)))
    misses = []
    for lam, mu, g in box:
        numeric, closed = cft_norm_check(_ens(lam, mu, g))
        if not abs(numeric - closed) <= 1e-12 * closed:
            misses.append((lam, mu, g, numeric, closed))
    assert not misses


@pytest.mark.parametrize("mu", [1e-20, 1e-60, 1e-100, 1e-105, 1e-150, 1e-300])
def test_cft_norm_check_at_tiny_mu_is_the_closed_form_or_a_domain_error(mu):
    # the stack entries, at most mu/(1 + mu), meet the 1e-100 ket floor as mu shrinks,
    # which would zero them all; from mu/(1 + mu) < 2^53 * 1e-100 (about 9.0e-85) it raises
    try:
        numeric, closed = cft_norm_check(_ens(1.0, mu, 1.0))
    except DomainError as err:
        assert mu < 9.1e-85 and "ket floor" in str(err)
    else:
        assert abs(numeric - closed) <= 1e-11 * closed


@pytest.mark.parametrize("lam, mu, g", [
    (1.0, 1.0, 1.5), (0.5, 2.0, 1.5), (1.0, 0.5, 2.0),
    (2.0, 2.0, 9.0), (1e-3, 1.0, 50.0), (0.2, 5.0, 14.0), (1e-300, 1.0, 1.0),
])
def test_cft_norm_assembly_matches_dense_sector_reference(monkeypatch, lam, mu, g):
    # Gamma[(a, m), (a', m')] = sum_p v_p[a] v_p[a'] x_p[m, m'] over the whitened
    # stack, with every entry joining two total-photon sectors a + m != a' + m' zeroed,
    # on the same nodes: the unit rule scaled by c = (c1 + g'^2)/lambda'.  The
    # square cut's maximum, over every sector, is the check's, over the whole sectors
    # a + m < dim only: no truncated sector holds the maximum
    dim, nodes = 12, 40
    monkeypatch.setattr(bounds, "_CFT_DIM", dim)
    monkeypatch.setattr(fock, "_RADIAL_NODES", nodes)
    ens = _ens(lam, mu, g)
    kp = kappa_prime(ens)
    whiten = np.exp(np.arange(dim) / 2.0 * math.log1p(kp)) / math.sqrt(kp / (1.0 + kp))
    c = (lam + mu / (mu + 1.0) + g * g) / lam
    u, w = fock._laguerre_rule(nodes)
    radii, w = np.sqrt(u / c / lam), w * np.exp(u - u / c) / c
    states = fock._displaced_thermal_stack(radii, 1.0 / mu, dim)
    x = whiten[:, None] * states * whiten
    v = fock._coherent_kets(g * radii, dim) * np.sqrt(w)[:, None]
    gamma = np.einsum("pa,pb,pmn->ambn", v, v, x).reshape(dim * dim, dim * dim)
    total = np.add.outer(np.arange(dim), np.arange(dim)).ravel()
    same = total[:, None] == total
    square = np.linalg.eigvalsh(np.where(same, gamma, 0.0)).max()
    whole = np.linalg.eigvalsh(np.where(same & (total < dim), gamma, 0.0)).max()
    numeric = cft_norm_check(ens)[0]
    assert numeric == pytest.approx(square, rel=1e-13, abs=0.0)
    assert numeric == pytest.approx(whole, rel=1e-13, abs=0.0)


def test_tangency_gain_equals_photon_ratio():
    # sanity anchor for the window used above: S/N_C = 2 at unit rates
    book = photon_book(_ens(1.0, 1.0, 1.0))
    assert book.total / book.n_c == passive_filter_gain(_ens(1.0, 1.0, 1.0)) == 2.0
