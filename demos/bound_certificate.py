#!/usr/bin/env python3
"""Show the determinant bound certifying the deterministic optimum.

Three exhibits at N_C = N_T = 1:

1. finite-p determinant roots (det M_p)^(1/p), read from the roots y+- of
   b y^2 - a y + c = 0 as b |y+^p - 1|^(1/p) |1 - y-^p|^(1/p), marching
   monotonically onto the closed-form limit b*y+,
2. the upper bound as a function of the ansatz parameter kappa, whose
   minimum lands exactly on the deterministic closed form,
3. the bound's value at the interval edge kappa', reproducing the
   probabilistic optimum -- the converse half of the heralded result.

Usage: python3 demos/bound_certificate.py
"""

import numpy as np

from ampurify import bounds
from ampurify.formulas import det_fidelity, prob_fidelity
from ampurify.params import NoisyEnsemble, thresholds


def main() -> None:
    ens = NoisyEnsemble(1.0, 1.0, 3.5)  # above the amplify threshold 3
    kappa = 0.5 * bounds.kappa_prime(ens)
    w = bounds.coeffs(ens, kappa)
    limit = bounds.det_limit(w)

    print(f"ensemble: lambda' = 1, mu = 1, g' = {ens.g_prime:g} "
          f"(amplify threshold {thresholds(ens)[0]:g})")
    print(f"\n1. determinant roots b |y+^p - 1|^(1/p) |1 - y-^p|^(1/p) at kappa = {kappa:g}")
    print(f"   y+ = {w.y_plus:.12f}, y- = {w.y_minus:.12f} (limit b*y+ = {limit:.12f})")
    for p in (4, 8, 16, 32, 64, 128):
        val = bounds.det_limit_finite_p(w, p)
        print(f"   p = {p:3d}: (det M_p)^(1/p) = {val:.12f}   "
              f"rel. gap {abs(val - limit) / limit:.2e}")

    print("\n2. the bound over the admissible ansatz interval")
    kp = bounds.kappa_prime(ens)
    for k in np.linspace(0.1 * kp, kp, 10):
        print(f"   kappa = {k:.4f}: bound = {bounds.det_upper_bound(ens, float(k)):.12f}")
    kappa_min, value = bounds.minimize_det_bound(ens)
    print(f"   minimum at kappa = {kappa_min:.12f} "
          f"(closed form {bounds.kappa_star(ens):.12f})")
    print(f"   bound minimum   = {value:.15f}")
    print(f"   F_det closed    = {det_fidelity(ens):.15f}")

    print("\n3. the same bound at the interval edge, below the threshold")
    ens_low = NoisyEnsemble(1.0, 1.0, 1.5)
    print(f"   g' = 1.5: bound(kappa') = {bounds.prob_via_kappa_prime(ens_low):.15f}")
    print(f"             F_prob closed = {prob_fidelity(ens_low):.15f}")


if __name__ == "__main__":
    main()
