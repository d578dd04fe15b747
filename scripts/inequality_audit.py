#!/usr/bin/env python3
"""Audit the trace inequalities across a battery of instances and solvers.

Every run is checked against the aggregated residual bound (which must hold
on any correct trace); convex runs with a small enough dimension also get the
energy-monotonicity and function-value checks against a brute-force optimum.
Exits nonzero if anything FAILs, so this doubles as a quick regression gate.
"""

import sys

import numpy as np

from fistalab import (
    SolverConfig,
    brute_force_optimum,
    check_function_value_bound,
    check_lyapunov_monotone,
    check_residual_bound,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)


def solvers_for(p):
    yield "mfista", lambda cfg, y0: run_mfista(p, cfg, y0)
    yield "fista", lambda cfg, y0: run_fista_baseline(p, cfg, y0, 1.0 / p.lipschitz_L)
    yield "proxgrad", lambda cfg, y0: run_proxgrad_baseline(p, cfg, y0)


def main():
    battery = []
    for seed in range(4):
        battery.append((f"convex-qp n=4 seed={seed}",
                        make_convex_qp(4, seed, eigenvalues=np.geomspace(1e-4, 1.0, 4),
                                       interior_opt=True), True))
        battery.append((f"nonconvex-qp n=6 seed={seed}", make_nonconvex_qp(6, seed, 0.4), False))
        battery.append((f"lasso-ball n=8 seed={seed}", make_lasso_on_ball(8, 8, seed), False))

    failed = 0
    for label, (p, inst), with_oracle in battery:
        cert = brute_force_optimum(inst) if with_oracle else None
        for solver_name, runner in solvers_for(p):
            cfg = SolverConfig(epsilon=1e-11, max_iters=3000, trace_vectors=with_oracle)
            res = runner(cfg, p.h_prox(np.zeros(p.dim), 1.0))
            reports = [check_residual_bound(res.trace, p.lipschitz_L)]
            if cert is not None and solver_name == "mfista":
                reports.append(check_lyapunov_monotone(res.trace, cert))
                reports.append(check_function_value_bound(res.trace, cert, p.lipschitz_L))
            for rep in reports:
                print(f"{label:<26s} {solver_name:<9s} {rep.format_line()}")
                failed += rep.status == "FAIL"
    if failed:
        print(f"{failed} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
