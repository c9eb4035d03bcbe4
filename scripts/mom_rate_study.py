#!/usr/bin/env python3
"""Compare observed method-of-multipliers contraction against the spectral
prediction over a grid of constant penalties."""

import numpy as np

from lagnet import analysis, oracle
from lagnet.fixtures import get_fixture
from lagnet.multipliers import MoMConfig, run_a3
from lagnet.problem import MultiplierState

# multiplier errors below FLOOR * err_eta[0] sit near the double-precision
# floor, where they stop following the contraction (at c = 8 the fitted
# rate moved in its fourth digit when lambda* moved by 2 ulp); each fit
# uses the records before the first such error, and a row left with too
# few records for a fit prints "floor"
FLOOR = 1e-10


def main():
    fx = get_fixture("tp-path2")
    p = fx.problem
    sol = oracle.solve_centralized(p, x_init=fx.oracle_init)
    point = oracle.lifted_multipliers(p, sol)
    rng = np.random.default_rng(0)
    init = MultiplierState(
        x=point.lifted_x(p.N) + rng.uniform(-0.1, 0.1, (p.N, p.n)),
        mu=point.mu + rng.uniform(-0.1, 0.1, p.m),
        lam=point.lam + rng.uniform(-0.1, 0.1, (p.num_pairs, p.n)),
    )
    spectrum = analysis.mom_spectrum(p, point)
    print(f"{'c':>6} {'predicted':>10} {'observed':>10} {'R^2':>8}")
    for c in (2.0, 4.0, 8.0):
        predicted = analysis.rate_bound_mom(spectrum, c).rate_bound
        cfg = MoMConfig(init=init, c0=c, beta=2.0, c_max=c,
                        eps0=1e-4, gamma=0.15, outer_max_iter=20, tol=0.0)
        result = run_a3(p, cfg, reference=point)
        errors = result.trace.err_eta
        below = np.flatnonzero(errors < FLOOR * errors[0])
        try:
            fit = analysis.estimate_linear_rate(errors[: below[0]] if below.size else errors)
        except ValueError:  # too few records above the floor
            print(f"{c:6.1f} {predicted:10.5f} {'floor':>10}")
            continue
        print(f"{c:6.1f} {predicted:10.5f} {fit.contraction:10.5f} "
              f"{fit.r_squared:8.5f}")


if __name__ == "__main__":
    main()
