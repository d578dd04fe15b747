#!/usr/bin/env python3
"""One digest over everything a battery of solves leaves behind.

Runs every solver on generated instances and hashes, per solve, the status,
the final (y, v), the oracle counters, every trace column and the stored
iterate and residual vectors.  A speed-up that must keep traces bit-identical
must print the same digests before and after the change:

    PYTHONPATH=src python scripts/trace_fingerprint.py

The default matrix is n in {4, 8, 32, 64} x 12 seeds x {convex QP,
nonconvex QP, lasso-ball} x {mfista, fista 1/L, projected fista 1/(4L),
proxgrad} x {untraced, norms, full}: 1728 solves.  It is run twice: once on
the problems as generated, which declare `smooth_is_quadratic` so that the
accelerated solvers derive the gradient at x_{k+1}, and once with that
declaration forced off, so that every gradient comes from the oracle.  Each
digest is printed on its own line; together they take about two minutes on
one core.

A third line digests the certificate oracles on the same battery:
`lasso_optimum` on its 48 lassos and `brute_force_optimum` on its 24 n=4
quadratics, over each certificate's y_star, phi_star, kkt_residual and
method.  A change to either oracle that must keep certificates
bit-identical must print the same third line before and after.

A fourth line digests the h operators directly: on every instance of the
battery, `h_prox(z, t)` and `h_value(z)` at seeded points inside, near and
outside the box or ball (points on the boundary come from the prox of a far
point), with zeros of both signs and strided views, for three steps t.  The
solves rarely or never reach some of these branches, such as the lasso
ball's projection, so this line is their bit-for-bit guard.  It uses only
the generators and the problems' `h_prox`/`h_value`; that the fused
`h_prox_value` returns the same bits is tested in tests/test_prox.py.
"""

import dataclasses
import hashlib

import numpy as np

from fistalab import (
    SolverConfig,
    Trace,
    brute_force_optimum,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)
from fistalab.problems import MAX_ENUM_DIM, lasso_optimum

DIMS = (4, 8, 32, 64)
SEEDS = tuple(range(1, 13))
EPSILON = 1e-8
MAX_ITERS = 2000

# each returns (problem, instance)
PROBLEMS = {
    "convex-qp": make_convex_qp,
    "nonconvex-qp": make_nonconvex_qp,
    "lasso-ball": lambda n, s: make_lasso_on_ball(n, max(1, 3 * n // 4), s),
}

SOLVERS = {
    "mfista": lambda p, cfg, y0: run_mfista(p, cfg, y0),
    "fista": lambda p, cfg, y0: run_fista_baseline(p, cfg, y0, 1.0 / p.lipschitz_L),
    "fista-quarter": lambda p, cfg, y0: run_fista_baseline(
        p, cfg, y0, 1.0 / (4.0 * p.lipschitz_L), project_extrapolation=True),
    "proxgrad": lambda p, cfg, y0: run_proxgrad_baseline(p, cfg, y0),
}

TRACES = {"off": (False, False), "norms": (True, False), "full": (True, True)}


def _hash_result(h, res) -> None:
    c = res.counters
    h.update(repr((res.status, res.iterations, c.grad_evals, c.f_evals, c.prox_evals,
                   c.proj_evals)).encode())
    h.update(res.y.tobytes())
    h.update(res.v.tobytes())
    if res.trace is None:
        return
    for name in Trace.COLUMNS:
        h.update(name.encode())
        h.update(res.trace.column(name).tobytes())
    if res.trace.ys is not None:
        for vec in res.trace.ys + res.trace.vs:
            h.update(vec.tobytes())


def trace_fingerprint(dims=DIMS, seeds=SEEDS, epsilon: float = EPSILON,
                      quadratic: bool = True) -> str:
    """sha256 prefix over every solve of dims x seeds x problems x solvers x traces.

    With `quadratic` False the problems' `smooth_is_quadratic` is forced off.
    """
    h = hashlib.sha256()
    for n in dims:
        for seed in seeds:
            for pname, make in PROBLEMS.items():
                p = make(n, seed)[0]
                if not quadratic:
                    p = dataclasses.replace(p, smooth_is_quadratic=False)
                # the prox of the origin is a feasible start for every family
                y0 = p.h_prox(np.zeros(n), 1.0)
                for sname, solve in SOLVERS.items():
                    for tname, (record, vectors) in TRACES.items():
                        cfg = SolverConfig(epsilon=epsilon, max_iters=MAX_ITERS,
                                           record_trace=record, trace_vectors=vectors)
                        h.update(f"{n} {seed} {pname} {sname} {tname}".encode())
                        _hash_result(h, solve(p, cfg, y0))
    return h.hexdigest()[:16]


def oracle_fingerprint(dims=DIMS, seeds=SEEDS) -> str:
    """sha256 prefix over the oracle certificates of the battery's instances:
    every lasso, and the quadratics small enough to enumerate."""
    h = hashlib.sha256()
    for n in dims:
        for seed in seeds:
            for pname, make in PROBLEMS.items():
                if pname == "lasso-ball":
                    cert = lasso_optimum(make(n, seed)[1])
                elif n <= MAX_ENUM_DIM:
                    cert = brute_force_optimum(make(n, seed)[1])
                else:
                    continue
                h.update(f"{n} {seed} {pname} {cert.method}".encode())
                h.update(cert.y_star.tobytes())
                h.update(np.float64(cert.phi_star).tobytes())
                h.update(np.float64(cert.kkt_residual).tobytes())
    return h.hexdigest()[:16]


# multiples of a boundary point: inside, either side of the 1e-9 membership
# band, and well outside
BOUNDARY_SCALES = (0.0, 0.3, 0.999, 1.0 - 1e-10, 1.0 + 5e-10, 1.0 + 2e-9, 1.5, 10.0)


def _operator_points(p, rng) -> list:
    n = p.dim
    # the prox of a far point with a tiny step lands on the boundary of dom h
    edge = np.asarray(p.h_prox(1e6 * rng.standard_normal(n), 1e-9), dtype=float)
    centre = np.asarray(p.h_prox(np.zeros(n), 1.0), dtype=float)
    points = [s * edge for s in BOUNDARY_SCALES]
    points.append(centre + 1e-3 * rng.standard_normal(n))
    for z in points[1::2]:
        signed = z.copy()
        signed[::3] = -0.0
        signed[1::3] = 0.0
        points.append(signed)
    points.append(np.full(n, -0.0))
    # strided views of the same kinds of points
    for s in (0.5, 1.0 + 2e-9, 3.0):
        wide = np.repeat(s * edge, 2)
        wide[1::2] = rng.standard_normal(n)
        points.append(wide[::2])
    return points


def operator_fingerprint(dims=DIMS, seeds=SEEDS) -> str:
    """sha256 prefix over h_prox and h_value of every instance of the battery
    at seeded points inside, near and outside dom h."""
    h = hashlib.sha256()
    for n in dims:
        for seed in seeds:
            for pname, make in PROBLEMS.items():
                p = make(n, seed)[0]
                rng = np.random.default_rng([n, seed])
                steps = (1.0 / (4.0 * p.lipschitz_L), 1.0 / p.lipschitz_L, 10.0)
                h.update(f"{n} {seed} {pname}".encode())
                for z in _operator_points(p, rng):
                    h.update(np.float64(p.h_value(z)).tobytes())
                    for t in steps:
                        h.update(np.asarray(p.h_prox(z, t), dtype=float).tobytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    print(f"{trace_fingerprint()} as generated (gradient at x_{{k+1}} derived)")
    print(f"{trace_fingerprint(quadratic=False)} smooth_is_quadratic forced off "
          "(every gradient from the oracle)")
    print(f"{oracle_fingerprint()} oracle certificates (lasso_optimum, brute_force_optimum)")
    print(f"{operator_fingerprint()} h operators (h_prox, h_value at fixed points)")
