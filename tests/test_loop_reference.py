"""Guard for the solver loop: an independent reference iteration, written out
from the update rules, must reproduce run_mfista and both baselines bit for
bit (trace CSV rows, iterate and residual vectors, oracle counters and the
returned pair).

The reference keeps the library's operation order, because bit equality
depends on it, but shares none of its code: it calls the raw oracles of the
CompositeProblem and counts the calls itself.  Three switches select the
method: curvature tracking (the paper's online shift), momentum and the
projection of the extrapolated point.  A run on a problem that declares
`smooth_is_quadratic` and that does not project the extrapolated point gets
the gradient there from the update rule of an affine gradient instead of
from the oracle; the guard runs every case both ways.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fistalab import (
    SolverConfig,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)
from fistalab.cli import write_trace_csv


def reference_run(p, epsilon, max_iters, y0, step, inv_step, curvature_on, momentum,
                  project, record=True):
    """Returns (status, y, v, iterations, rows, ys, vs, counts).

    rows are trace CSV lines; counts maps oracle name to number of calls.
    """
    counts = {"grad": 0, "prox": 0, "proj": 0, "f": 0}

    def f(y):
        counts["f"] += 1
        return float(p.smooth_value(y))

    def grad(y):
        counts["grad"] += 1
        return np.asarray(p.smooth_grad(y), dtype=float)

    def prox(z, t):
        counts["prox"] += 1
        return np.asarray(p.h_prox(z, t), dtype=float)

    def proj(x):
        if p.omega_project is None:
            return x
        counts["proj"] += 1
        return np.asarray(p.omega_project(x), dtype=float)

    L = p.lipschitz_L
    clamp = 1e-12 * L
    project = project and p.omega_project is not None
    derive = p.smooth_is_quadratic and momentum and not project
    rows, ys, vs = [], [], []
    y_prev = x = y = np.asarray(y0, dtype=float)
    a_prev = a = 1.0
    L_k = 0.0
    g_x = g_yprev = grad(x)
    v = np.zeros(p.dim)
    status = "max_iters_reached"
    k = 0
    for k in range(1, max_iters + 1):
        # prox step on the model shifted by L_k around y_prev
        if curvature_on:
            y = prox(x - step * (g_x + L_k * (x - y_prev)), step)
        else:
            y = prox(x - step * g_x, step)
        g_y = grad(y)
        # prox optimality: v is in grad f(y) + subdiff h(y)
        if curvature_on:
            v = g_y - g_x + L_k * (y_prev - x) + inv_step * (x - y)
        else:
            v = g_y - g_x + inv_step * (x - y)
        if momentum:
            a = (1.0 + math.sqrt(1.0 + 4.0 * a_prev * a_prev)) / 2.0
            x_next = y + ((a_prev - 1.0) / a) * (y - y_prev)
        else:
            x_next = y
        vn = float(np.linalg.norm(v))
        # an untraced run with a derived gradient reads f(y) only for a positive gap
        fy = f(y) if record or (curvature_on and not derive) else math.nan
        if record:
            phi = fy + float(p.h_value(y))
            dxy = float(np.linalg.norm(y - x))
            dyy = float(np.linalg.norm(y - y_prev))
            rows.append(f"{k},{a!r},{L_k!r},{vn!r},{phi!r},{dxy!r},{dyy!r},"
                        f"{counts['grad']},{counts['prox']}")
            ys.append(y.copy())
            vs.append(v.copy())
        if vn <= epsilon:
            status = "converged"
            break
        # a converged run never uses x_next, so it is projected only past the test
        if project:
            x_next = proj(x_next)
        if derive:
            # an affine gradient takes x_next = y + beta (y - y_prev) to
            # g_y + beta (g_y - g_yprev)
            dg = ((a_prev - 1.0) / a) * (g_y - g_yprev)
            g_xn = g_y + dg
        else:
            g_xn = grad(x_next) if momentum else g_y
        if curvature_on:
            # negative-curvature witness from the linearization gap at x_next
            d = y - x_next
            gd = float(g_xn @ d)
            if derive:
                # f(x_next) + gd - fy for a quadratic f; f(x_next) is within
                # gap of fy - gd, so |fy| + |gd| stands in for |f(x_next)|
                gap = 0.5 * float(d @ dg)
                if gap > 0.0 and math.isnan(fy):
                    fy = f(y)
                fxn_size = abs(fy) + abs(gd)
            else:
                fxn = f(x_next)
                gap = fxn + gd - fy
                fxn_size = abs(fxn)
            d2 = float(d @ d)
            thr = 1e-14 * (1.0 + float(np.linalg.norm(y)))
            est = 0.0
            if d2 > thr * thr and abs(gap) > 1e-10 * (1.0 + abs(fy) + fxn_size + abs(gd)):
                est = 2.0 * gap / d2
            L_k = max(0.0, est)
            if L_k <= clamp:
                L_k = 0.0
        y_prev, x, a_prev, g_x, g_yprev = y, x_next, a, g_xn, g_y
    return status, y, v, k, rows, ys, vs, counts


def _with_box_omega(p, inst):
    return dataclasses.replace(p, omega_project=lambda z: np.clip(z, inst.lower, inst.upper))


INSTANCES = {
    "convex-qp": lambda s: make_convex_qp(6, s)[0],
    "convex-qp-omega": lambda s: _with_box_omega(*make_convex_qp(6, s)),
    "nonconvex-qp": lambda s: make_nonconvex_qp(6, s, negfrac=0.4)[0],
    "lasso-ball": lambda s: make_lasso_on_ball(6, 5, s)[0],
}


def _solvers(p):
    L = p.lipschitz_L
    quarter = 1.0 / (4.0 * L)
    return {
        "mfista": (lambda cfg, y0: run_mfista(p, cfg, y0),
                   dict(step=quarter, inv_step=4.0 * L, curvature_on=True, momentum=True,
                        project=True)),
        "fista": (lambda cfg, y0: run_fista_baseline(p, cfg, y0, 1.0 / L),
                  dict(step=1.0 / L, inv_step=1.0 / (1.0 / L), curvature_on=False,
                       momentum=True, project=False)),
        "fista-quarter": (lambda cfg, y0: run_fista_baseline(p, cfg, y0, quarter,
                                                             project_extrapolation=True),
                          dict(step=quarter, inv_step=1.0 / quarter, curvature_on=False,
                               momentum=True, project=True)),
        "proxgrad": (lambda cfg, y0: run_proxgrad_baseline(p, cfg, y0),
                     dict(step=1.0 / L, inv_step=L, curvature_on=False, momentum=False,
                          project=False)),
    }


def _bits(a):
    # == would equate 0.0 with -0.0; the raw bytes do not
    return np.asarray(a, dtype=float).tobytes()


def check_against_reference(p, solver, tmp_path):
    y0 = p.h_prox(np.zeros(p.dim), 1.0)
    run, switches = _solvers(p)[solver]
    for epsilon, max_iters in ((1e-7, 400), (1e-300, 60)):
        for record in (True, False):
            cfg = SolverConfig(epsilon=epsilon, max_iters=max_iters, record_trace=record,
                               trace_vectors=record)
            res = run(cfg, y0)
            status, y, v, iters, rows, ys, vs, counts = reference_run(
                p, epsilon, max_iters, y0, record=record, **switches)
            assert (res.status, res.iterations) == (status, iters)
            assert _bits(res.y) == _bits(y)
            assert _bits(res.v) == _bits(v)
            c = res.counters
            assert (c.grad_evals, c.prox_evals, c.proj_evals, c.f_evals) == (
                counts["grad"], counts["prox"], counts["proj"], counts["f"])
            if not record:
                assert res.trace is None
                continue
            path = tmp_path / f"{epsilon}.csv"
            write_trace_csv(res.trace, path)
            assert path.read_text().splitlines()[1:] == rows
            assert [_bits(a) for a in res.trace.ys] == [_bits(a) for a in ys]
            assert [_bits(a) for a in res.trace.vs] == [_bits(a) for a in vs]


@pytest.mark.parametrize("solver", ["mfista", "fista", "fista-quarter", "proxgrad"])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
@pytest.mark.parametrize("seed", [0, 3])
def test_solver_matches_reference_loop(kind, solver, seed, tmp_path):
    # every gradient from the oracle
    p = dataclasses.replace(INSTANCES[kind](seed), smooth_is_quadratic=False)
    check_against_reference(p, solver, tmp_path)


@pytest.mark.parametrize("solver", ["mfista", "fista", "fista-quarter", "proxgrad"])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
@pytest.mark.parametrize("seed", [0, 3])
def test_quadratic_solver_matches_reference_loop(kind, solver, seed, tmp_path):
    # the generated problems declare smooth_is_quadratic; the accelerated
    # solvers derive the gradient at x_{k+1} except where they project it
    p = INSTANCES[kind](seed)
    assert p.smooth_is_quadratic
    check_against_reference(p, solver, tmp_path)


def test_quarter_step_fista_follows_mfista_exactly():
    # on a convex QP the curvature shift never switches on, so mfista's
    # iterates are those of FISTA with step 1/(4L) and projected extrapolation
    p, _ = make_convex_qp(8, 2)
    cfg = SolverConfig(epsilon=1e-300, max_iters=500, trace_vectors=True)
    res_m = run_mfista(p, cfg, np.zeros(8))
    res_f = run_fista_baseline(p, cfg, np.zeros(8), 1.0 / (4.0 * p.lipschitz_L),
                               project_extrapolation=True)
    assert np.all(res_m.trace.column("L_k") == 0.0)
    assert res_m.iterations == res_f.iterations == 500
    for ym, yf in zip(res_m.trace.ys, res_f.trace.ys):
        assert np.array_equal(ym, yf)
