#!/usr/bin/env python3
"""Reproduce each closed-form fidelity from truncated Fock-space numerics.

One point per protocol family at unit rates: the identity channel, the
tuned two-mode squeezer, the tuned rank-K filter (heralded), and the
heterodyne measure-and-prepare benchmark.  No closed form enters the
numeric column; agreement is the cross-check.

Usage: python3 demos/fock_crosscheck.py  (runs in a few seconds)
"""

import math

from ampurify import fock
from ampurify.formulas import cft, det_fidelity, prob_fidelity, tune
from ampurify.gaussian import FilterSpec, GaussianChannel
from ampurify.params import NoisyEnsemble


def main() -> None:
    rows = []

    ens = NoisyEnsemble(1.0, 1.0, 2.0)
    numeric = fock.avg_fidelity_numeric(ens, GaussianChannel.identity(), dim=64)
    rows.append(("identity, g' = 2", numeric, det_fidelity(ens)))

    ens = NoisyEnsemble(1.0, 1.0, 3.5)
    r = math.acosh(tune(ens).cosh_r)
    numeric = fock.avg_fidelity_numeric(ens, GaussianChannel.amplifier(r), dim=64)
    rows.append(("squeezer, g' = 3.5", numeric, det_fidelity(ens)))

    ens = NoisyEnsemble(1.0, 1.0, 1.5)
    spec = FilterSpec(k_cut=40, y=tune(ens).y)
    numeric = fock.avg_fidelity_numeric(ens, spec, dim=64)
    rows.append(("rank-40 filter, g' = 1.5", numeric, prob_fidelity(ens)))

    ens = NoisyEnsemble(1.0, 1.0, 2.0)
    z = tune(ens).z
    numeric = fock.avg_fidelity_numeric(ens, GaussianChannel.heterodyne(z), dim=64)
    rows.append(("measure-and-prepare, g' = 2", numeric, cft(ens)))

    print(f"{'protocol':<28} {'numeric':>16} {'closed form':>16} {'|gap|':>10}")
    for name, num, closed in rows:
        print(f"{name:<28} {num:16.12f} {closed:16.12f} {abs(num - closed):10.2e}")


if __name__ == "__main__":
    main()
