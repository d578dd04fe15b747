"""The README's cost table must match what the solvers count.

Each cell of the table under "Cost per iteration" gives the oracle calls of
one iteration.  With the gradient at the start point and the converged
iteration's skipped calls at x_{k+1}, it predicts every `EvalCounters` field
of a run.  The cells are checked on the three generated families as they
are, with `omega_project` added, with `smooth_is_quadratic` off, with and
without the fused oracle, and on a custom problem whose f is not quadratic.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

from fistalab import (CompositeProblem, SolverConfig, make_convex_qp, make_lasso_on_ball,
                      make_nonconvex_qp, run_fista_baseline, run_mfista, run_proxgrad_baseline)
from fistalab.prox import project_ball, prox_box_indicator

README = Path(__file__).resolve().parents[1] / "README.md"
DERIVED, ORACLE = "gradient at x_{k+1} derived", "gradient from the oracle"


def cost_table() -> dict:
    """{(row label, column header): {call: count as written}}, absent calls "0"."""
    section = README.read_text(encoding="utf-8").split("\n## Cost per iteration\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [[c.strip() for c in ln.strip("|").split("|")]
            for ln in section.splitlines() if ln.startswith("|")]
    header = rows[0]
    assert header[1:] == [DERIVED, ORACLE]
    table = {}
    for label, *cells in rows[2:]:
        for column, cell in zip(header[1:], cells, strict=True):
            calls = {"grad": "0", "f": "0/0", "prox": "0", "proj": "0"}
            for item in cell.split(", "):
                name, count = item.split(" ")
                assert name in calls, item
                calls[name] = count
            table[label, column] = calls
    return table


# row label -> (solver, whether it projects x_{k+1} when the problem has omega_project)
SOLVERS = {
    "`run_mfista`": (run_mfista, True),
    "`run_fista_baseline`, step 1/L":
        (lambda p, cfg, y0: run_fista_baseline(p, cfg, y0, 1.0 / p.lipschitz_L), False),
    "`run_fista_baseline`, step 1/(4L), projected":
        (lambda p, cfg, y0: run_fista_baseline(p, cfg, y0, 1.0 / (4.0 * p.lipschitz_L),
                                               project_extrapolation=True), True),
    "`run_proxgrad_baseline`": (run_proxgrad_baseline, False),
}


def column(p: CompositeProblem, projects: bool) -> str:
    if p.smooth_is_quadratic and not (projects and p.omega_project is not None):
        return DERIVED
    return ORACLE


def log_problem(omega: bool, fused: bool) -> CompositeProblem:
    """f(y) = sum log(1 + (y - c)^2), nonconvex where |y_i - c_i| > 1, over [-1, 1]^6."""
    c = np.linspace(-3.0, 3.0, 6)

    def value_grad(y):
        r = y - c
        s = 1.0 + r * r
        return float(np.log(s).sum()), 2.0 * r / s

    return CompositeProblem(
        dim=6,
        smooth_value=lambda y: value_grad(y)[0],
        smooth_grad=lambda y: value_grad(y)[1],
        h_value=lambda y: 0.0 if np.all(np.abs(y) <= 1.0) else np.inf,
        h_prox=lambda z, t: np.clip(z, -1.0, 1.0),
        lipschitz_L=2.0,  # |f''| <= 2
        omega_project=(lambda z: np.clip(z, -2.0, 2.0)) if omega else None,
        smooth_value_grad=value_grad if fused else None,
    )


def generated(make, omega: bool, quadratic: bool, fused: bool) -> CompositeProblem:
    p, inst = make()
    if omega:
        if hasattr(inst, "Q"):
            project = functools.partial(prox_box_indicator, inst.box(), t=1.0)
        else:
            project = functools.partial(project_ball, inst.regularizer().ball)
        p = dataclasses.replace(p, omega_project=project)
    return dataclasses.replace(p, smooth_is_quadratic=quadratic,
                               smooth_value_grad=p.smooth_value_grad if fused else None)


FAMILIES = {
    "convex-qp": lambda: make_convex_qp(8, 2),
    "nonconvex-qp": lambda: make_nonconvex_qp(8, 2, negfrac=0.4),
    "lasso-ball": lambda: make_lasso_on_ball(8, 6, 2),
}
FLAGS = [(omega, quadratic, fused) for omega in (False, True) for quadratic in (True, False)
         for fused in (True, False)]
CASES = {
    **{f"{name}-omega{int(o)}-quad{int(q)}-fused{int(f)}":
       functools.partial(generated, make, o, q, f)
       for name, make in FAMILIES.items() for o, q, f in FLAGS},
    **{f"log-omega{int(o)}-fused{int(f)}": functools.partial(log_problem, o, f)
       for o in (False, True) for f in (True, False)},
}


def positive_gaps(p: CompositeProblem, y0: np.ndarray, trace, converged: bool) -> int:
    """Iterations whose derived linearization gap at x_{k+1} is positive,
    recomputed from a full trace as the loop computes it; the converged
    iteration computes none."""
    ys = [y0] + trace.ys
    grads = [np.asarray(p.smooth_grad(y), dtype=float) for y in ys]
    a = [1.0] + trace.a_k
    count = 0
    for k in range(1, len(trace) + (not converged)):
        beta = (a[k - 1] - 1.0) / a[k]
        d = ys[k] - (ys[k] + beta * (ys[k] - ys[k - 1]))
        count += 0.5 * float(d.dot(beta * (grads[k] - grads[k - 1]))) > 0.0
    return count


def expected_counters(cell: dict, p: CompositeProblem, iterations: int, converged: bool,
                      traced: bool, gaps: int) -> dict:
    def per_run(count: str) -> int:
        # of two calls a kind makes per iteration, the second is at x_{k+1},
        # which the iteration that converges does not evaluate
        n = int(count)
        return n * iterations - (converged and n == 2)

    f = cell["f"].split("/")[0 if traced else 1]
    proj = cell["proj"]
    return {
        "grad_evals": 1 + per_run(cell["grad"]),  # plus the gradient at the start point
        "f_evals": gaps if f == "gap" else per_run(f),
        "prox_evals": per_run(cell["prox"]),
        # Ω projects x_{k+1}, which the iteration that converges does not form
        "proj_evals": ((iterations - converged) * (p.omega_project is not None) if proj == "Ω"
                       else per_run(proj)),
    }


def test_table_has_one_row_per_solver():
    table = cost_table()
    assert {label for label, _ in table} == set(SOLVERS)
    assert len(table) == 2 * len(SOLVERS)


def test_every_cell_is_checked():
    seen = {(label, column(CASES[case](), projects))
            for case in CASES for label, (_, projects) in SOLVERS.items()}
    assert seen == set(cost_table())


@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_match_the_cost_table(case):
    p = CASES[case]()
    table = cost_table()
    y0 = p.h_prox(np.zeros(p.dim), 1.0)
    for label, (solve, projects) in SOLVERS.items():
        cell = table[label, column(p, projects)]
        for epsilon, max_iters in ((1e-6, 3000), (1e-300, 30)):
            traced = solve(p, SolverConfig(epsilon, max_iters, trace_vectors=True), y0)
            untraced = solve(p, SolverConfig(epsilon, max_iters, record_trace=False), y0)
            assert (untraced.status, untraced.iterations) == (traced.status, traced.iterations)
            assert untraced.y.tobytes() == traced.y.tobytes()
            gaps = positive_gaps(p, y0, traced.trace, traced.converged)
            for run, is_traced in ((traced, True), (untraced, False)):
                assert dataclasses.asdict(run.counters) == expected_counters(
                    cell, p, run.iterations, run.converged, is_traced, gaps), (label, is_traced)


def test_counts_measured_on_n16():
    # untraced mfista takes f on positive-gap iterations only: none of 400 on
    # a convex QP, 18 of 31 on a nonconvex one
    cfg = SolverConfig(epsilon=1e-300, max_iters=400, record_trace=False)
    p, _ = make_convex_qp(16, 3)
    res = run_mfista(p, cfg, p.h_prox(np.zeros(16), 1.0))
    assert (res.iterations, res.counters.grad_evals, res.counters.f_evals) == (400, 401, 0)
    p, inst = make_nonconvex_qp(16, 3, 0.4)
    y0 = p.h_prox(np.zeros(16), 1.0)
    res = run_mfista(p, cfg, y0)
    assert (res.status, res.iterations, res.counters.f_evals) == ("converged", 31, 18)
    # with a projection the gradient comes from the oracle: two gradients and
    # two f values per iteration, but none at x_{k+1} on the converged one,
    # which does not project x_{k+1} either
    project = functools.partial(prox_box_indicator, inst.box(), t=1.0)
    boxed = dataclasses.replace(p, omega_project=project)
    res = run_mfista(boxed, cfg, y0)
    c = res.counters
    assert (res.iterations, c.grad_evals, c.f_evals, c.proj_evals) == (30, 60, 59, 29)
    # fista at step 1/L never projects x_{k+1}, so a projection leaves its
    # gradient derived: one per iteration
    p, inst = make_convex_qp(16, 3)
    project = functools.partial(prox_box_indicator, inst.box(), t=1.0)
    boxed = dataclasses.replace(p, omega_project=project)
    res = run_fista_baseline(boxed, cfg, np.zeros(16), 1.0 / p.lipschitz_L)
    assert (res.iterations, res.counters.grad_evals, res.counters.proj_evals) == (400, 401, 0)
