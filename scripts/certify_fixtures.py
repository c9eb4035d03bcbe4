#!/usr/bin/env python3
"""Certify every built-in fixture: step-size bounds, penalty thresholds,
and method-of-multipliers rate predictions, printed as a table."""

from lagnet import analysis, oracle
from lagnet.fixtures import FIXTURES, get_fixture


def main():
    for name in FIXTURES:
        fx = get_fixture(name)
        p = fx.problem
        sol = oracle.solve_centralized(p, x_init=fx.oracle_init)
        point = oracle.lifted_multipliers(p, sol)
        report = analysis.verify_minimizer(p, sol.x_star, sol.psi_star)
        print(f"== {name}: x* = {sol.x_star}, psi* = {sol.psi_star}")
        print(f"   blockwise PD: {report.blockwise_pd}   "
              f"tangent-cone PD: {report.tangent_cone_pd} "
              f"(margin {report.tangent_cone_margin:.4g})")
        try:
            cert = analysis.certify_step_size(p, point, c=0.0)
            print(f"   a1: alpha_bound = {cert.alpha_bound:.6f}, "
                  f"rho* = {cert.rho_star:.6f}")
        except analysis.CertificationError as err:
            print(f"   a1: not certifiable ({err})")
        c_bar = analysis.find_cbar(p, point)
        print(f"   c_bar = {c_bar:.6f}")
        c2 = max(1.5 * c_bar, 1.0)
        cert = analysis.certify_step_size(p, point, c=c2)
        print(f"   a2 (c = {c2:.3f}): alpha_bound = {cert.alpha_bound:.6f}")
        for c in (4.0, 8.0, 16.0):
            try:
                rate = analysis.rate_bound_mom(p, point, c)
                flag = "" if rate.admissible else "  [inadmissible]"
                print(f"   a3 rate bound (c = {c:4.1f}): "
                      f"{rate.rate_bound:.5f}{flag}")
            except analysis.NeedLargerCError:
                print(f"   a3 rate bound (c = {c:4.1f}): singular Hessian")
        print()


if __name__ == "__main__":
    main()
