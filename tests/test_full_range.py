"""The closed forms over the whole representable range of (lambda', mu, g').

Derandomized ``hypothesis`` draws log-uniform lambda', mu, g' in
[1e-300, 1e300] and compares ``fidelity_report`` with a 50-digit ``mpmath``
evaluation of the paper's photon-number forms (N_C = 1/lambda',
N_T = 1/mu, S = N_C + N_T), whose exponent range is unbounded.
"""

import math

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ampurify.errors import DomainError
from ampurify.formulas import fidelity_report, tune
from ampurify.params import NoisyEnsemble, RegimeTag, classify

#: accuracy budget: ulps of the exact value where it is a normal float, and
#: an absolute floor (just above the smallest normal, 2.2251e-308) below that
ULPS = 4
TINY = 2.3e-308

_LOG_RANGE = math.log(1e300)
_LOG_UNIFORM = st.floats(min_value=-_LOG_RANGE, max_value=_LOG_RANGE).map(math.exp)


def exact_fidelities(lam: float, mu: float, g: float) -> tuple:
    """(det, prob, cft) at 50 digits, branch by branch as in the paper."""
    with mpmath.workdps(50):
        g = mpmath.mpf(g)
        n_c, n_t = 1 / mpmath.mpf(lam), 1 / mpmath.mpf(mu)
        n_tilde, s = n_t + 1, n_c + n_t
        filtered = s / (s + g**2 * n_c * n_t)
        squeezed = (s + 1) / (g**2 * n_c * n_tilde)
        if g <= s / n_c:
            det = filtered
        elif g < (s + 1) / n_c:
            det = 1 / ((g - 1) ** 2 * n_c + n_tilde)
        else:
            det = squeezed
        prob = squeezed if g >= mpmath.sqrt(s * (s + 1)) / n_c else filtered
        c1 = (n_c + n_tilde) / (n_c * n_tilde)
        return det, prob, c1 / (c1 + g**2)


def budget(exact) -> float:
    """Largest accepted |computed - exact| for one fidelity."""
    nearest = float(exact)
    return ULPS * math.ulp(nearest) if nearest >= 2.2250738585072014e-308 else TINY


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(lam=_LOG_UNIFORM, mu=_LOG_UNIFORM, g=_LOG_UNIFORM)
@example(lam=1e-300, mu=1e-300, g=1e300)   # g'^2 and every photon number overflow
@example(lam=1e-200, mu=1e-200, g=1e-200)  # N_C N_T overflows while g'^2 underflows
@example(lam=1e300, mu=1e-300, g=1.0)      # every landmark is +inf
def test_closed_forms_hold_over_the_full_range(lam, mu, g):
    ens = NoisyEnsemble(lambda_prime=lam, mu=mu, g_prime=g)
    report = fidelity_report(ens)  # must not raise

    exact = exact_fidelities(lam, mu, g)
    for name, value, truth in zip(("det", "prob", "cft"), (report.det, report.prob, report.cft),
                                  exact):
        error = float(abs(mpmath.mpf(value) - truth))
        assert error <= budget(truth), (name, value, truth)

    # the optima are ordered, cft <= det <= prob, so values within their
    # budgets keep that order up to the sum of the two budgets
    assert 0.0 <= report.cft and report.prob <= 1.0
    assert report.cft <= report.det + budget(exact[2]) + budget(exact[0])
    assert report.det <= report.prob + budget(exact[0]) + budget(exact[1])

    regime = classify(ens)
    if regime.tag in (RegimeTag.DET_ATTENUATE, RegimeTag.DET_AMPLIFY):
        assert report.det == report.prob

    try:
        tune(ens)
    except DomainError:
        pass

