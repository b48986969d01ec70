import math

import numpy as np
import pytest

from ampurify import fock
from ampurify.bounds import circulant_dense
from ampurify.errors import DomainError
from ampurify.gaussian import FilterSpec, GaussianChannel
from ampurify.params import (
    PURE_MU_SENTINEL,
    MultimodeTask,
    NoisyEnsemble,
    RegimeTag,
    classify,
    is_pure_input,
    passive_filter_gain,
    photon_book,
    reduce,
    thresholds,
)


def test_reduce_divides_lambda_by_input_copies():
    ens = reduce(MultimodeTask(lam=2.0, mu=1.0, g=1.0, n_in=2, m_out=1))
    assert ens.lambda_prime == 1.0
    assert ens.mu == 1.0
    assert abs(ens.g_prime - 1.0 / math.sqrt(2.0)) < 1e-15


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (5, 2), (7, 7)])
def test_reduce_gain_scales_with_sqrt_mode_ratio(n, m):
    task = MultimodeTask(lam=1.0, mu=1.0, g=1.3, n_in=n, m_out=m)
    assert reduce(task).g_prime == pytest.approx(1.3 * math.sqrt(m / n), rel=1e-15)


def test_photon_book_inverts_the_rate_parameters():
    book = photon_book(NoisyEnsemble(lambda_prime=0.5, mu=2.0, g_prime=1.0))
    assert book.n_c == 2.0
    assert book.n_t == 0.5
    assert book.total == 2.5


def test_thresholds_worked_point():
    # N_C = N_T = 1: amplify threshold (S+1)/N_C = 3, plateau sqrt(S(S+1)) = sqrt(6)
    det_thr, prob_thr = thresholds(NoisyEnsemble(1.0, 1.0, 1.0))
    assert det_thr == pytest.approx(3.0, abs=1e-15)
    assert prob_thr == pytest.approx(math.sqrt(6.0), abs=1e-15)


def test_plateau_threshold_stays_finite_at_huge_signal():
    # S(S+1) overflows at N_C = 1e300; S/N_C sqrt(1 + 1/S) does not
    det_thr, prob_thr = thresholds(NoisyEnsemble(1e-300, 1.0, 1.0))
    assert det_thr == prob_thr == 1.0


def test_threshold_ordering_is_universal():
    for lam in (0.25, 1.0, 4.0):
        for mu in (0.25, 1.0, 4.0):
            det_thr, prob_thr = thresholds(NoisyEnsemble(lam, mu, 1.0))
            assert 1.0 < prob_thr < det_thr


@pytest.mark.parametrize(
    "g,tag,prob_tag",
    [
        (0.5, RegimeTag.DET_ATTENUATE, RegimeTag.PROB_AMPLIFY),
        (1.0, RegimeTag.DET_ATTENUATE, RegimeTag.PROB_AMPLIFY),
        (1.5, RegimeTag.DET_ATTENUATE, RegimeTag.PROB_AMPLIFY),
        (2.0, RegimeTag.DET_ATTENUATE, RegimeTag.PROB_AMPLIFY),
        (2.2, RegimeTag.DET_IDENTITY, RegimeTag.PROB_AMPLIFY),
        (2.5, RegimeTag.DET_IDENTITY, RegimeTag.PROB_PLATEAU),
        (3.0, RegimeTag.DET_AMPLIFY, RegimeTag.PROB_PLATEAU),
        (4.0, RegimeTag.DET_AMPLIFY, RegimeTag.PROB_PLATEAU),
    ],
)
def test_classify_tags_at_unit_noise(g, tag, prob_tag):
    reg = classify(NoisyEnsemble(1.0, 1.0, g))
    assert reg.tag is tag
    assert reg.prob_tag is prob_tag


def test_classify_threshold_membership_uses_geq():
    det_thr, prob_thr = thresholds(NoisyEnsemble(1.0, 1.0, 1.0))
    assert classify(NoisyEnsemble(1.0, 1.0, det_thr)).tag is RegimeTag.DET_AMPLIFY
    assert classify(NoisyEnsemble(1.0, 1.0, prob_thr)).prob_tag is RegimeTag.PROB_PLATEAU
    # the passive-filter gain itself still attenuates
    tangency = passive_filter_gain(NoisyEnsemble(1.0, 1.0, 1.0))
    assert classify(NoisyEnsemble(1.0, 1.0, tangency)).tag is RegimeTag.DET_ATTENUATE


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_task_rejects_nonpositive_rates(bad):
    with pytest.raises(DomainError):
        MultimodeTask(lam=bad, mu=1.0, g=1.0)
    with pytest.raises(DomainError):
        MultimodeTask(lam=1.0, mu=bad, g=1.0)
    with pytest.raises(DomainError):
        MultimodeTask(lam=1.0, mu=1.0, g=bad)


@pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (-2, 1), (1, -2)])
def test_task_rejects_bad_mode_counts(n, m):
    with pytest.raises(DomainError):
        MultimodeTask(lam=1.0, mu=1.0, g=1.0, n_in=n, m_out=m)


_SIZES = {  # each entry point's integer size and a valid value of it
    "n_in": (lambda n: MultimodeTask(1.0, 1.0, 1.0, n_in=n), 2),
    "m_out": (lambda m: MultimodeTask(1.0, 1.0, 1.0, m_out=m), 2),
    "k_cut": (lambda k: FilterSpec(k, 1.1), 3),
    "dim": (lambda d: fock.prior_states(1.0, 1.0, d, 48), 32),
    "radial_nodes": (lambda n: fock.prior_states(1.0, 1.0, 32, n), 48),
    "angular_nodes": (lambda n: fock.avg_fidelity_numeric(
        NoisyEnsemble(1.0, 1.0, 2.0), GaussianChannel.identity(), 32, angular_nodes=n), 2),
    "dim_anc": (lambda d: fock.apply_two_mode_squeezer(
        fock.FockDensity(8, np.diag(np.eye(8)[0])), 0.4, dim_anc=d), 48),
    "circulant size": (lambda p: circulant_dense(1.0, 0.1, 0.1, p), 3),
}


@pytest.mark.parametrize("form", [bool, float])
@pytest.mark.parametrize("size", sorted(_SIZES))
def test_an_integer_size_rejects_a_bool_and_a_float(size, form):
    # True is an int subclass that would run as 1, and a float of an integer
    # value would reach range() or an index
    build, valid = _SIZES[size]
    build(valid)
    with pytest.raises(DomainError, match=f"{size.split()[-1]} must be an integer >= "):
        build(form(valid))


def test_ensemble_allows_zero_gain_but_not_negative():
    NoisyEnsemble(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        NoisyEnsemble(1.0, 1.0, -0.1)


def test_pure_input_sentinel():
    assert is_pure_input(NoisyEnsemble(1.0, PURE_MU_SENTINEL, 1.0))
    assert is_pure_input(NoisyEnsemble(1.0, 10.0 * PURE_MU_SENTINEL, 1.0))
    assert not is_pure_input(NoisyEnsemble(1.0, 1e6, 1.0))
