#!/usr/bin/env python3
"""Walk the gain axis at unit rates and watch the regimes switch.

Prints the three headline fidelities along g', flags the four landmark
gains, and demonstrates the two exact coincidences that bracket the
probabilistic advantage window: the tangency at the passive-filter gain
S/N_C, and the collapse onto the deterministic optimum at the amplify
threshold (S+1)/N_C.

Usage: python3 demos/advantage_window.py
"""

from ampurify.formulas import fidelity_report, tune
from ampurify.params import (
    NoisyEnsemble,
    RegimeTag,
    classify,
    passive_filter_gain,
    photon_book,
    thresholds,
)

#: the device setting that each deterministic regime tunes; the identity
#: regime shows the heralded filter's y, the one knob that moves there
_KNOB = {RegimeTag.DET_ATTENUATE: "cos_theta", RegimeTag.DET_IDENTITY: "y",
         RegimeTag.DET_AMPLIFY: "cosh_r"}


def main() -> None:
    lam = mu = 1.0  # N_C = N_T = 1
    ens1 = NoisyEnsemble(lam, mu, 1.0)
    det_thr, prob_thr = thresholds(ens1)
    book = photon_book(ens1)
    tangency = passive_filter_gain(ens1)

    print(f"unit-rate ensemble: N_C = {book.n_c:g}, N_T = {book.n_t:g}")
    print(f"landmarks: unit gain 1, passive filter {tangency:g}, "
          f"plateau {prob_thr:.4f}, amplify threshold {det_thr:g}")
    print()
    print(f"{'g_prime':>8} {'F_det':>9} {'F_prob':>9} {'F_cft':>9} "
          f"{'advantage':>10}  tuning")

    gains = [0.5, 0.8, 1.0, 1.25, 1.5, 1.75, tangency, 2.2, prob_thr, 2.7,
             det_thr, 3.5, 4.0]
    for g in gains:
        ens = NoisyEnsemble(lam, mu, g)
        rep = fidelity_report(ens)
        t = tune(ens)
        name = _KNOB[classify(ens).tag]
        knob = f"{name} = {getattr(t, name):.4f}"
        print(f"{g:8.4f} {rep.det:9.5f} {rep.prob:9.5f} {rep.cft:9.5f} "
              f"{rep.prob - rep.det:10.2e}  {knob}")

    print()
    print("the advantage column is zero up to g' = S/N_C "
          f"= {tangency:g}, where the tuned filter turns passive (y = 1)")
    print("and the attenuating beamsplitter reaches cos_theta = 1; it is zero "
          f"again from the amplify threshold g' = {det_thr:g} on")
    print("(squeezing alone is already optimal).  F_det stays above F_cft "
          "at every gain.")


if __name__ == "__main__":
    main()
