import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fistalab import (
    CompositeProblem,
    InvalidStartError,
    OracleError,
    SolverConfig,
    lasso_optimum,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    momentum_sequence,
    next_momentum,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
    sample_feasible,
    to_problem,
)

from conftest import grid_min_1d_vec


def box_problem(dim, f, grad, L, lo=-1.0, hi=1.0):
    return CompositeProblem(
        dim=dim, smooth_value=f, smooth_grad=grad,
        h_value=lambda y: 0.0 if np.all((y >= lo - 1e-12) & (y <= hi + 1e-12)) else math.inf,
        h_prox=lambda z, t: np.clip(z, lo, hi),
        lipschitz_L=L,
    )


def convex_1d():
    # f(y) = (y - 0.3)^2 / 2 on [-1, 1]; optimum 0.3 interior
    return box_problem(1, lambda y: 0.5 * float((y[0] - 0.3) ** 2),
                       lambda y: y - 0.3, 1.0)


def concave_1d():
    # f(y) = -y^2 / 2 on [-1, 1]; stationary points -1, 0, 1
    return box_problem(1, lambda y: -0.5 * float(y @ y), lambda y: -y, 1.0)


# --- momentum coefficients ----------------------------------------------

def test_next_momentum_frozen_values():
    # frozen from a 40-digit decimal evaluation of the closed-form root
    assert math.isclose(next_momentum(1.0), 1.618033988749895, rel_tol=1e-15)
    out = next_momentum(1.6180339887)
    assert math.isclose(out, 2.1935270852833835, rel_tol=1e-12)
    # the recurrence itself is the cross-check
    assert abs(out * (out - 1.0) - 1.6180339887**2) <= 1e-10


def test_next_momentum_rejects_below_one():
    with pytest.raises(ValueError):
        next_momentum(0.99)


@given(a=st.floats(1.0, 1e8))
@settings(max_examples=200, deadline=None)
def test_next_momentum_recurrence_property(a):
    out = next_momentum(a)
    assert out > a
    assert abs(out * (out - 1.0) - a * a) <= 1e-12 * a * a


def test_momentum_sequence_matches_single_steps():
    seq = momentum_sequence(200)
    assert seq[0] == 1.0
    cur = 1.0
    for i in range(1, 201):
        cur = next_momentum(cur)
        assert math.isclose(seq[i], cur, rel_tol=5e-15)
    with pytest.raises(ValueError):
        momentum_sequence(-1)


# --- one iteration of the loop: prox step, residual, curvature ------------

def first_iterate(p, y0):
    """y_1 and v_1 of run_mfista from y0 (one iteration, never converged)."""
    res = run_mfista(p, SolverConfig(epsilon=1e-300, max_iters=1), np.array(y0))
    assert res.iterations == 1 and res.counters.prox_evals == 1
    return res.y, res.v


def test_solve_subproblem_against_grid():
    # f(y) = g*y with L = 1: the first step minimizes the model
    # g*(y - x) + 2*L*(y - x)^2 over the box [-1, 1] with one prox call
    def model(x, g):
        return lambda ys: g * (ys - x) + 2.0 * (ys - x) ** 2

    def linear(g):
        return box_problem(1, lambda y: g * float(y[0]), lambda y: np.full(1, g), 1.0)

    y, _ = first_iterate(linear(4.0), [0.5])
    oracle = grid_min_1d_vec(model(0.5, 4.0), -1.0, 1.0)
    assert y[0] == -0.5
    assert abs(oracle - y[0]) < 1e-6

    y, _ = first_iterate(linear(-4.0), [0.9])
    oracle = grid_min_1d_vec(model(0.9, -4.0), -1.0, 1.0)
    assert y[0] == 1.0
    assert abs(oracle - y[0]) < 1e-6

    # zero model gradient keeps a feasible x fixed
    y, _ = first_iterate(linear(0.0), [0.25])
    assert y[0] == 0.25


def test_stationarity_residual_symbolic_cases():
    p = box_problem(2, lambda y: 0.5 * float(y @ y), lambda y: y.copy(), 1.0)
    y, v = first_iterate(p, [0.0, 0.0])
    assert np.all(y == 0.0) and np.all(v == 0.0)

    # linear gradient, no curvature shift yet: v = (y - x) + 4(x - y) = 3(x - y)
    x = np.array([0.3, -0.2])
    y, v = first_iterate(p, x)
    np.testing.assert_allclose(v, 3.0 * (x - y), rtol=0, atol=1e-15)


def test_residual_membership_on_solver_runs(rng):
    # xi = v - grad f(y) must satisfy the subgradient inequality at 100
    # feasible points, on both a box QP and a lasso instance
    for p, inst in (make_nonconvex_qp(6, 3, negfrac=0.4), make_lasso_on_ball(6, 6, 3)):
        cfg = SolverConfig(epsilon=1e-9, max_iters=300, trace_vectors=True)
        res = run_mfista(p, cfg, p.h_prox(np.zeros(6), 1.0))
        zs = sample_feasible(inst, rng, 100)
        h_zs = np.array([p.h_value(z) for z in zs])
        for i in range(len(res.trace)):
            y = res.trace.ys[i]
            xi = res.trace.vs[i] - p.smooth_grad(y)
            slack = h_zs - p.h_value(y) - (zs - y) @ xi
            assert slack.min() >= -1e-9


def test_estimate_curvature_symbolic_cases():
    # for f = -y^2/2 the linearization gap is (y - x)^2/2, so the estimate is
    # exactly 1 = L.  The first two rows have no shift: L_1 starts at zero and
    # a_0 = 1 puts x_2 on y_1, where the gap vanishes.
    res = run_mfista(concave_1d(), SolverConfig(epsilon=1e-300, max_iters=4), np.array([0.1]))
    L_k = res.trace.column("L_k")
    assert len(L_k) == 4
    assert np.all(L_k[:2] == 0.0)
    np.testing.assert_allclose(L_k[2:], 1.0, rtol=1e-12, atol=0)


# --- the main loop -------------------------------------------------------

def test_mfista_1d_convex():
    res = run_mfista(convex_1d(), SolverConfig(epsilon=1e-8, max_iters=5000), np.zeros(1))
    assert res.converged
    assert abs(res.y[0] - 0.3) < 1e-6
    assert np.linalg.norm(res.v) <= 1e-8


def test_mfista_1d_nonconvex_reaches_boundary():
    res = run_mfista(concave_1d(), SolverConfig(epsilon=1e-8, max_iters=5000),
                     np.array([0.5]))
    assert res.converged
    assert abs(abs(res.y[0]) - 1.0) < 1e-9
    assert res.trace.column("L_k").max() > 0.0  # nonconvexity was detected


def test_mfista_invalid_start():
    with pytest.raises(InvalidStartError):
        run_mfista(convex_1d(), SolverConfig(epsilon=1e-8, max_iters=10), np.array([2.0]))


def test_mfista_max_iters_status():
    res = run_mfista(convex_1d(), SolverConfig(epsilon=1e-300, max_iters=7), np.zeros(1))
    assert res.status == "max_iters_reached"
    assert res.iterations == 7
    assert len(res.trace) == 7


def test_mfista_trace_invariants():
    p, inst = make_nonconvex_qp(8, 11, negfrac=0.3)
    cfg = SolverConfig(epsilon=1e-10, max_iters=2000)
    res = run_mfista(p, cfg, p.h_prox(np.zeros(8), 1.0))
    tr = res.trace
    ks = tr.column("k")
    a = tr.column("a_k")
    L_k = tr.column("L_k")
    assert np.array_equal(ks, np.arange(1, len(tr) + 1))

    # momentum recurrence and growth bounds along the recorded run
    a_prev = np.concatenate([[1.0], a[:-1]])
    np.testing.assert_allclose(a * (a - 1.0), a_prev**2, rtol=1e-12)
    assert np.all(a >= (ks + 1) / 4.0)
    assert np.all(a <= 1.0 + ks)

    # curvature estimates stay in [0, L] up to the clamp tolerance
    assert np.all(L_k >= 0.0)
    assert np.all(L_k <= p.lipschitz_L + 1e-12 * p.lipschitz_L)

    # iterates stayed feasible: phi was finite every iteration
    assert np.all(np.isfinite(tr.column("phi")))

    # exactly one prox per iteration, at most two gradients plus the warm-up
    assert res.counters.prox_evals == res.iterations
    assert tr.proxevals[-1] == res.iterations
    assert res.counters.grad_evals <= 2 * res.iterations + 1


def test_mfista_convex_detection():
    p, inst = make_convex_qp(6, 21)
    res = run_mfista(p, SolverConfig(epsilon=1e-9, max_iters=2000), np.zeros(6))
    assert np.all(res.trace.column("L_k") == 0.0)


def test_mfista_vector_trace_storage():
    p = convex_1d()
    cfg = SolverConfig(epsilon=1e-6, max_iters=100, trace_vectors=True)
    res = run_mfista(p, cfg, np.zeros(1))
    assert res.trace.has_vectors
    assert len(res.trace.ys) == len(res.trace)
    np.testing.assert_array_equal(res.trace.y0, [0.0])
    cfg_plain = SolverConfig(epsilon=1e-6, max_iters=100, record_trace=False)
    assert run_mfista(p, cfg_plain, np.zeros(1)).trace is None


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0, max_iters=10)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=1e-8, max_iters=0)


def test_oracle_failure_carries_iteration_index():
    calls = {"n": 0}

    def flaky_grad(y):
        calls["n"] += 1
        if calls["n"] > 4:
            return np.array([math.nan])
        return y - 0.3

    p = box_problem(1, lambda y: 0.5 * float((y[0] - 0.3) ** 2), flaky_grad, 1.0)
    with pytest.raises(OracleError, match="iteration"):
        run_mfista(p, SolverConfig(epsilon=1e-12, max_iters=50), np.zeros(1))


# --- baselines ------------------------------------------------------------

def test_fista_equivalence_with_quarter_step():
    # on a convex instance the main loop's curvature stays zero and its path
    # is exactly FISTA with step 1/(4L) and projected extrapolation
    p, _ = make_convex_qp(6, 5)
    cfg = SolverConfig(epsilon=1e-300, max_iters=300, trace_vectors=True)
    res_m = run_mfista(p, cfg, np.zeros(6))
    res_f = run_fista_baseline(p, cfg, np.zeros(6), 1.0 / (4.0 * p.lipschitz_L),
                               project_extrapolation=True)
    assert res_m.iterations == res_f.iterations
    for ym, yf in zip(res_m.trace.ys, res_f.trace.ys):
        assert np.max(np.abs(ym - yf)) <= 1e-12


def test_fista_immediate_convergence_at_interior_optimum():
    res = run_fista_baseline(convex_1d(), SolverConfig(epsilon=1e-12, max_iters=50),
                             np.array([0.3]), 1.0)
    assert res.converged
    assert res.iterations == 1
    assert np.linalg.norm(res.v) == 0.0


def test_fista_step_validation():
    with pytest.raises(ValueError):
        run_fista_baseline(convex_1d(), SolverConfig(epsilon=1e-8, max_iters=10),
                           np.zeros(1), 0.0)


def test_fista_lasso_gap_shrinks():
    p, inst = make_lasso_on_ball(8, 8, 2)
    cert = lasso_optimum(p, inst)
    res = run_fista_baseline(p, SolverConfig(epsilon=1e-300, max_iters=400),
                             np.zeros(8), 1.0 / p.lipschitz_L)
    gaps = res.trace.column("phi") - cert.phi_star
    assert np.all(gaps >= -1e-9)
    assert gaps[-1] < 1e-3 * max(gaps[0], 1e-30)


def test_proxgrad_fixed_point_and_1d():
    res = run_proxgrad_baseline(convex_1d(), SolverConfig(epsilon=1e-12, max_iters=50),
                                np.array([0.3]))
    assert res.converged and res.iterations == 1
    assert np.linalg.norm(res.v) == 0.0

    res = run_proxgrad_baseline(convex_1d(), SolverConfig(epsilon=1e-10, max_iters=5000),
                                np.zeros(1))
    assert res.converged
    assert abs(res.y[0] - 0.3) < 1e-8


def test_proxgrad_slower_than_fista_on_quadratic():
    p, _ = make_convex_qp(16, 5, eigenvalues=np.geomspace(1e-3, 1.0, 16))
    cfg = SolverConfig(epsilon=1e-300, max_iters=100)
    res_pg = run_proxgrad_baseline(p, cfg, np.zeros(16))
    res_fi = run_fista_baseline(p, cfg, np.zeros(16), 1.0 / p.lipschitz_L)
    assert res_fi.trace.phi[-1] < res_pg.trace.phi[-1]


def test_baselines_prox_economy():
    p, _ = make_convex_qp(4, 9)
    cfg = SolverConfig(epsilon=1e-300, max_iters=60)
    for runner, args in ((run_fista_baseline, (1.0 / p.lipschitz_L,)),
                         (run_proxgrad_baseline, ())):
        res = runner(p, cfg, np.zeros(4), *args)
        assert res.counters.prox_evals == res.iterations
