import math

import numpy as np
import pytest

from ampurify import formulas
from ampurify.errors import DomainError
from ampurify.fock import FockDensity
from ampurify.formulas import (
    FidelityReport,
    TuningReport,
    cft,
    det_fidelity,
    fidelity_report,
    photon_output_det,
    photon_output_prob,
    prob_fidelity,
    tune,
)
from ampurify.gaussian import FilterSpec
from ampurify.params import (
    MultimodeTask,
    NoisyEnsemble,
    RegimeTag,
    classify,
    passive_filter_gain,
    photon_book,
    reduce,
    thresholds,
)

RATE_GRID = [(0.5, 0.5), (0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (2.0, 2.0)]


def _ens(lam, mu, g):
    return NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=g)


@pytest.mark.parametrize("record, field, bad", [
    (MultimodeTask(1.0, 2.0, 1.5, 2, 3), "lam", -1.0),
    (MultimodeTask(1.0, 2.0, 1.5, 2, 3), "mu", math.nan),
    (MultimodeTask(1.0, 2.0, 1.5, 2, 3), "g", 0.0),
    (MultimodeTask(1.0, 2.0, 1.5, 2, 3), "n_in", 0),
    (MultimodeTask(1.0, 2.0, 1.5, 2, 3), "m_out", 1.0),
    (NoisyEnsemble(1.0, 2.0, 1.5), "lambda_prime", 0.0),
    (NoisyEnsemble(1.0, 2.0, 1.5), "mu", math.inf),
    (NoisyEnsemble(1.0, 2.0, 1.5), "g_prime", -1.0),
    (TuningReport(1.0, 0.5, 0.5, 0.4), "cosh_r", 0.5),
    (TuningReport(1.0, 0.5, 0.5, 0.4), "y", 0.0),
    (TuningReport(1.0, 0.5, 0.5, 0.4), "cos_theta", 1.5),
    (TuningReport(1.0, 0.5, 0.5, 0.4), "z", -1.0),
    (FidelityReport(0.5, 0.6, 0.4), "det", 1.5),
    (FidelityReport(0.5, 0.6, 0.4), "prob", 0.45),
    (FidelityReport(0.5, 0.6, 0.4), "cft", 0.55),
    (FockDensity(2, np.eye(2)), "mat", np.eye(3)),
    (FilterSpec(10, 1.2), "k_cut", -1),
    (FilterSpec(10, 1.2), "y", math.inf),
    (FockDensity(2, np.eye(2)), "dim", 3),
])
def test_records_validate_on_every_construction_path(record, field, bad):
    # a plain NamedTuple's _make and _replace would skip the check
    fields = {**record._asdict(), field: bad}
    for build in (lambda: type(record)(**fields), lambda: type(record)._make(fields.values()),
                  lambda: record._replace(**{field: bad})):
        with pytest.raises(DomainError, match=field):
            build()
    with pytest.raises(AttributeError):
        setattr(record, field, bad)


# ---------------------------------------------------------------------------
# worked values
# ---------------------------------------------------------------------------


def test_det_worked_point_identity_branch():
    assert det_fidelity(_ens(1.0, 1.0, 2.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_det_worked_point_amplifier_branch():
    # at the amplify threshold g' = 3 both branches give (S+1)/(g'^2 N_C Ntilde) = 1/6
    assert det_fidelity(_ens(1.0, 1.0, 3.0)) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_prob_worked_point_below_plateau():
    # S/(S + g'^2 N_C N_T) at N_C = N_T = 1, g' = 1.5
    assert prob_fidelity(_ens(1.0, 1.0, 1.5)) == pytest.approx(8.0 / 17.0, abs=1e-15)


def test_puri_worked_point():
    # below unit gain det and prob share the attenuator value (lam' + mu)/(lam' + mu + g'^2)
    assert det_fidelity(_ens(1.0, 1.0, 0.5)) == pytest.approx(2.0 / 2.25, abs=1e-15)
    assert prob_fidelity(_ens(1.0, 1.0, 0.5)) == pytest.approx(2.0 / 2.25, abs=1e-15)


def test_det_worked_point_attenuator_branch():
    # inside (1, S/N_C) a beamsplitter at cos theta = 0.5 beats doing nothing:
    # (lam' + mu)/(lam' + mu + g'^2) = 1.5/3.75, above cft = 16/43
    ens = _ens(1.0, 0.5, 1.5)
    assert det_fidelity(ens) == pytest.approx(0.4, abs=1e-15)
    assert tune(ens).cos_theta == pytest.approx(0.5, abs=1e-15)
    assert cft(ens) == pytest.approx(16.0 / 43.0, abs=1e-15)


def test_cft_worked_point():
    assert cft(_ens(1.0, 1.0, 2.0)) == pytest.approx(3.0 / 11.0, abs=1e-15)


def test_cft_pure_limit_at_unit_gain():
    assert cft(_ens(1.0, 1e12, 1.0)) == pytest.approx(2.0 / 3.0, rel=1e-11)


# ---------------------------------------------------------------------------
# branch joins and the probabilistic advantage window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam,mu", RATE_GRID)
def test_det_branches_join_at_amplify_threshold(lam, mu):
    det_thr, _ = thresholds(_ens(lam, mu, 1.0))
    book = photon_book(_ens(lam, mu, det_thr))
    high = (book.total + 1.0) / (det_thr**2 * book.n_c * (book.n_t + 1.0))
    low = 1.0 / ((det_thr - 1.0) ** 2 * book.n_c + (book.n_t + 1.0))
    assert abs(high - low) <= 1e-12


@pytest.mark.parametrize("lam,mu", RATE_GRID)
def test_prob_branches_join_at_plateau_threshold(lam, mu):
    _, prob_thr = thresholds(_ens(lam, mu, 1.0))
    book = photon_book(_ens(lam, mu, prob_thr))
    high = (book.total + 1.0) / (prob_thr**2 * book.n_c * (book.n_t + 1.0))
    low = book.total / (book.total + prob_thr**2 * book.n_c * book.n_t)
    assert abs(high - low) <= 1e-12


@pytest.mark.parametrize("lam,mu", RATE_GRID)
def test_det_branches_join_at_passive_filter_gain(lam, mu):
    g_t = passive_filter_gain(_ens(lam, mu, 1.0))
    book = photon_book(_ens(lam, mu, g_t))
    attenuate = (lam + mu) / (lam + mu + g_t**2)
    identity = 1.0 / ((g_t - 1.0) ** 2 * book.n_c + (book.n_t + 1.0))
    assert abs(attenuate - identity) <= 1e-12
    below = det_fidelity(_ens(lam, mu, g_t * (1.0 - 1e-13)))
    above = det_fidelity(_ens(lam, mu, g_t * (1.0 + 1e-13)))
    assert abs(below - above) <= 1e-12


@pytest.mark.parametrize("lam,mu", RATE_GRID)
def test_prob_meets_purification_at_unit_gain(lam, mu):
    assert abs(prob_fidelity(_ens(lam, mu, 1.0)) - (lam + mu) / (lam + mu + 1.0)) <= 1e-12


@pytest.mark.parametrize("lam,mu", RATE_GRID)
def test_prob_equals_det_exactly_at_passive_filter_gain(lam, mu):
    """The advantage window opens where the tuned filter turns passive.

    Up to g' = S/N_C the filter does not amplify and the attenuator is the
    deterministic optimum, so prob equals det; inside the window
    S/N_C < g' < (S+1)/N_C the heralded optimum is strictly better.
    """
    book = photon_book(_ens(lam, mu, 1.0))
    g_t = book.total / book.n_c
    e = _ens(lam, mu, g_t)
    assert abs(prob_fidelity(e) - det_fidelity(e)) <= 1e-13
    assert tune(e).y == pytest.approx(1.0, abs=1e-15)
    for g in (0.5, 1.0, 0.5 * (1.0 + g_t)):
        probe = _ens(lam, mu, g)
        assert abs(prob_fidelity(probe) - det_fidelity(probe)) <= 1e-12
    probe = _ens(lam, mu, 0.5 * (g_t + thresholds(e)[0]))
    assert prob_fidelity(probe) > det_fidelity(probe) + 1e-9


@pytest.mark.parametrize("lam,mu", RATE_GRID)
@pytest.mark.parametrize("scale", [1.0, 1.5, 3.0])
def test_prob_collapses_onto_det_beyond_amplify_threshold(lam, mu, scale):
    det_thr, _ = thresholds(_ens(lam, mu, 1.0))
    e = _ens(lam, mu, scale * det_thr)
    assert abs(prob_fidelity(e) - det_fidelity(e)) <= 1e-12


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------


def test_tuning_filter_ratio_below_plateau():
    assert tune(_ens(1.0, 1.0, 1.5)).y == pytest.approx(0.75, abs=1e-15)


def test_tuning_filter_ratio_between_plateau_and_threshold():
    t = tune(_ens(1.0, 1.0, 2.5))
    assert t.y == pytest.approx(3.0 / 2.5, abs=1e-15)
    assert t.cosh_r == t.cos_theta == 1.0


def test_tuning_on_the_plateau():
    t = tune(_ens(1.0, 1.0, 3.5))
    assert t.y == t.cos_theta == 1.0
    assert t.cosh_r == pytest.approx(3.5 / 3.0, abs=1e-15)


def test_tuning_never_engages_squeezer_and_filter_together():
    for g in (1.0, 1.7, 2.4, 2.8, 3.0, 4.0):
        t = tune(_ens(1.0, 1.0, g))
        assert t.cosh_r == 1.0 or t.y == 1.0


def test_tuning_purification_side():
    t = tune(_ens(1.0, 1.0, 0.5))
    assert t.cosh_r == 1.0
    assert t.cos_theta == pytest.approx(0.25, abs=1e-15)
    assert t.y == t.cos_theta
    assert t.z == pytest.approx(0.5 / 3.0, abs=1e-15)


@pytest.mark.parametrize("g,cos_theta", [(0.5, 0.25), (1.5, 0.75), (2.0, 1.0), (2.2, 1.0)])
def test_tuning_sets_the_beamsplitter_up_to_passive_filter_gain(g, cos_theta):
    assert tune(_ens(1.0, 1.0, g)).cos_theta == cos_theta


@pytest.mark.parametrize("lam, mu", RATE_GRID)
def test_every_tuned_device_reads_a_float_and_an_idle_one_reads_one(lam, mu):
    # one gain per regime and each landmark tie: S/N_C, the plateau, (S+1)/N_C
    det_thr, prob_thr = thresholds(_ens(lam, mu, 1.0))
    passive = passive_filter_gain(_ens(lam, mu, 1.0))
    gains = [0.5 * passive, passive, (passive + prob_thr) / 2, prob_thr,
             (prob_thr + det_thr) / 2, det_thr, 2.0 * det_thr]
    for g in gains:
        t = tune(_ens(lam, mu, g))
        assert t._fields == ("cosh_r", "y", "cos_theta", "z")
        assert [type(v) for v in t] == [float] * 4
        if g >= passive:
            assert t.cos_theta == 1.0
        if g < det_thr:
            assert t.cosh_r == 1.0


def test_tuning_y_is_continuous_at_both_joins():
    _, prob_thr = thresholds(_ens(1.0, 1.0, 1.0))
    below = tune(_ens(1.0, 1.0, prob_thr * (1.0 - 1e-12))).y
    above = tune(_ens(1.0, 1.0, prob_thr * (1.0 + 1e-12))).y
    assert abs(below - above) < 1e-10
    det_thr = thresholds(_ens(1.0, 1.0, 1.0))[0]
    assert tune(_ens(1.0, 1.0, det_thr)).y == 1.0


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g", [0.3, 0.8, 1.0])
def test_report_unifies_fidelities_below_unit_gain(g):
    rep = fidelity_report(_ens(1.0, 1.0, g))
    assert rep.det == rep.prob == pytest.approx(2.0 / (2.0 + g * g), abs=1e-15)
    assert rep.cft < rep.det


#: log grid over lambda', mu in [1e-3, 1e3] and g' in [1e-2, 1e2] for the ordering test
LOG_RATES = [(lam, mu) for lam in (1e-3, 1e-1, 1e1, 1e3) for mu in (1e-3, 1e-1, 1e1, 1e3)]
LOG_GAINS = [1e-2, 0.1, 0.3, 3.0, 10.0, 30.0, 100.0]


@pytest.mark.parametrize("lam,mu", RATE_GRID + LOG_RATES)
@pytest.mark.parametrize("g", [0.5, 1.0, 1.5, 2.5, 4.0] + LOG_GAINS)
def test_report_is_ordered_and_bounded(lam, mu, g):
    # no exemption anywhere: the attenuating branch keeps det above cft
    rep = fidelity_report(_ens(lam, mu, g))
    assert 0.0 < rep.cft < 1.0
    assert rep.cft < rep.prob <= 1.0
    assert rep.cft <= rep.det <= rep.prob


@pytest.mark.parametrize("det, prob, cft", [(1.5e-14, 7.5e-15, 1e-15), (1e-14, 2e-14, 2e-14)])
def test_an_ordering_violation_is_an_error_below_the_slack_too(det, prob, cft):
    # the slack is relative: an absolute 1e-12 would accept any order of fidelities below it
    with pytest.raises(DomainError, match="fidelity ordering violated"):
        FidelityReport(det, prob, cft)


def test_a_prob_branch_below_det_is_caught_below_the_slack(monkeypatch):
    # with prob's squeezer branch halved, prob = det/2 past the plateau: 7.5e-15 at g' = 1e7
    squeezer = formulas._squeezer_value
    monkeypatch.setattr(formulas, "_PROB_BRANCHES",
                        (formulas._filter_value, lambda *args: 0.5 * squeezer(*args)))
    with pytest.raises(DomainError, match="fidelity ordering violated: prob"):
        fidelity_report(_ens(1.0, 1.0, 1e7))
    with np.errstate(all="ignore"):
        assert not formulas.columns(1.0, 1.0, 1e7, 1, 1)["valid"]


# ---------------------------------------------------------------------------
# photon bookkeeping
# ---------------------------------------------------------------------------


def test_photon_output_det_worked_ratio():
    # N_C = 2, N_single = 0.5, g = 2: cosh^2 r (N+1) - 1 with cosh r = 8/7
    task = MultimodeTask(lam=0.5, mu=2.0, g=2.0)
    total, single = photon_output_det(task)
    assert single == pytest.approx(47.0 / 49.0, abs=1e-15)
    assert total == pytest.approx(47.0 / 49.0, abs=1e-15)


def test_photon_output_det_identity_below_threshold():
    total, single = photon_output_det(MultimodeTask(lam=1.0, mu=1.0, g=2.0))
    assert total == single == 1.0


def test_photon_output_det_attenuator_worked_point():
    # N_C = 1, N_single = 2, g' = 1.5 <= S/N_C = 3: cos theta = 1/2 keeps
    # cos^2(theta) N_single = 0.5 noise photons
    total, single = photon_output_det(MultimodeTask(lam=1.0, mu=0.5, g=1.5))
    assert single == total == pytest.approx(0.5, abs=1e-15)


def _three_branch_det_photons(task):
    """The deterministic photon totals by their old three-branch rule, which
    read an unset cos_theta past S/N_C."""
    ens = reduce(task)
    n, tuning = photon_book(ens).n_t, tune(ens)
    if classify(ens).tag is RegimeTag.DET_ATTENUATE:
        bright = tuning.cos_theta * tuning.cos_theta * n
    elif tuning.cosh_r > 1.0:
        bright = tuning.cosh_r * tuning.cosh_r * (n + 1.0) - 1.0
    else:
        bright = n
    return bright, bright / task.m_out


@pytest.mark.parametrize("task", [
    MultimodeTask(1.0, 1.0, 0.5), MultimodeTask(1.0, 1.0, 2.5), MultimodeTask(1.0, 1.0, 4.0),
    MultimodeTask(0.7, 2.0, 1.3, 2, 3), MultimodeTask(1.0, 1.0, 3.0),
    MultimodeTask(0.5, 2.0, 1.75)])
def test_photon_output_det_keeps_the_bits_of_the_three_branch_rule(task):
    # the last two sit exactly on the amplify threshold (S+1)/N_C, where the
    # squeezer and the beamsplitter both read 1
    if task.g in (3.0, 1.75):
        t = tune(reduce(task))
        assert thresholds(reduce(task))[0] == task.g
        assert (t.cosh_r, t.cos_theta) == (1.0, 1.0)
    assert photon_output_det(task) == _three_branch_det_photons(task)


def test_photon_output_det_splits_over_output_modes():
    task = MultimodeTask(lam=0.5, mu=2.0, g=2.0, n_in=1, m_out=1)
    task2 = MultimodeTask(lam=0.5, mu=2.0, g=2.0 / math.sqrt(2.0), n_in=1, m_out=2)
    total1, _ = photon_output_det(task)
    total2, single2 = photon_output_det(task2)
    # same reduced gain, so the same bright-mode total, halved per copy
    assert total2 == pytest.approx(total1, rel=1e-12)
    assert single2 == pytest.approx(total1 / 2.0, rel=1e-12)


def test_photon_output_prob_passive_filter_changes_nothing():
    n_t_out, total, single = photon_output_prob(MultimodeTask(lam=1.0, mu=1.0, g=2.0), 1.0)
    assert n_t_out == pytest.approx(1.0, abs=1e-15)
    assert single == pytest.approx(1.0, abs=1e-15)
    assert total == pytest.approx(1.0, abs=1e-15)


def test_photon_output_prob_subunit_filter_purifies():
    n_t_out, _, _ = photon_output_prob(MultimodeTask(lam=1.0, mu=1.0, g=1.2), 0.6)
    assert n_t_out < 1.0


# at unit rates: below S/N_C = 2, in the window below the plateau at 2.449,
# and on the plateau below the amplify threshold 3
@pytest.mark.parametrize("g", [1.2, 2.3, 2.5, 2.9])
def test_photon_output_prob_totals_read_the_law_at_the_tuned_filter(g):
    task = MultimodeTask(lam=1.0, mu=1.0, g=g)
    tuning = tune(_ens(1.0, 1.0, g))
    assert tuning.cosh_r == 1.0
    n_t_out, total, single = photon_output_prob(task, tuning.y)
    assert single == total == n_t_out


@pytest.mark.parametrize("lam, mu, g", [(0.5, 2.0, 2.0), (1.0, 1.0, 4.0), (0.01, 100.0, 2.0)])
def test_photon_output_prob_totals_are_the_squeezers_in_the_amplify_regime(lam, mu, g):
    task = MultimodeTask(lam=lam, mu=mu, g=g)
    tuning = tune(_ens(lam, mu, g))
    assert tuning.cosh_r > 1.0 and tuning.y == 1.0
    assert photon_output_prob(task, tuning.y)[1:] == photon_output_det(task)


@pytest.mark.parametrize("mu", [1e-4, 1e-6, 1e-8])
def test_photon_output_prob_passive_filter_keeps_n_t_to_four_ulps(mu):
    n_t_out = photon_output_prob(MultimodeTask(lam=1.0, mu=mu, g=1.0), 1.0)[0]
    assert abs(n_t_out - 1.0 / mu) <= 4 * math.ulp(1.0 / mu)


def test_photon_output_prob_rejects_the_pole():
    with pytest.raises(DomainError):
        photon_output_prob(MultimodeTask(lam=1.0, mu=1.0, g=1.5), math.sqrt(2.0))
