import dataclasses
import math

import numpy as np
import pytest

from fistalab import (
    CompositeProblem,
    InvalidStartError,
    OracleError,
    SolverConfig,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
    to_problem,
)

from conftest import grid_min_1d_vec, sample_feasible
from fistalab import solver as solver_mod
from fistalab.core import CountedProblem
from fistalab.problems import lasso_optimum
from fistalab.prox import BoxSet
from fistalab.solver import Trace, momentum_sequence
from fistalab.cli import write_trace_csv


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

def test_momentum_sequence_frozen_values_and_recurrence():
    a = momentum_sequence(2)
    assert a[0] == 1.0
    # frozen from a 40-digit decimal evaluation of the closed-form root
    assert math.isclose(a[1], 1.618033988749895, rel_tol=1e-15)
    # the recurrence itself is the cross-check
    assert a[2] > a[1]
    assert abs(a[2] * (a[2] - 1.0) - a[1] * a[1]) <= 1e-12 * a[1] * a[1]
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
    # an infinite epsilon would call any first point converged
    with pytest.raises(ValueError, match="^epsilon must be positive and finite, got inf$"):
        SolverConfig(epsilon=math.inf, max_iters=10)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=1e-8, max_iters=0)
    assert SolverConfig(epsilon=1e-8, max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("max_iters", [1e4, 10.0, True, "10", None])
def test_solver_config_refuses_a_max_iters_that_is_not_an_integer(max_iters):
    # unrefused, 1e4 would reach the loop's range() and fail there with a TypeError
    with pytest.raises(ValueError, match="^max_iters must be an integer, got "):
        SolverConfig(epsilon=1e-8, max_iters=max_iters)


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1.0])
def test_fista_refuses_a_step_that_is_not_finite_and_positive(step):
    # unrefused, an infinite step would fail inside the prox, naming the point
    p = make_convex_qp(4, 1)[0]
    with pytest.raises(ValueError, match="^step must be finite and positive, got "):
        run_fista_baseline(p, SolverConfig(epsilon=1e-8, max_iters=10), np.zeros(4), step)


def test_trace_column_refuses_an_unknown_name():
    with pytest.raises(KeyError):
        Trace(1.0).column("y")


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


@pytest.mark.parametrize("bad", ["value", "grad"])
def test_fused_oracle_failure_carries_iteration_index(bad):
    calls = {"n": 0}

    def flaky_value_grad(y):
        calls["n"] += 1
        val, g = 0.5 * float((y[0] - 0.3) ** 2), y - 0.3
        if calls["n"] > 3:
            return (math.nan, g) if bad == "value" else (val, np.array([math.inf]))
        return val, g

    p = dataclasses.replace(convex_1d(), smooth_value_grad=flaky_value_grad)
    # fused calls at y_1, x_2, y_2, then x_3 fails within iteration 2
    what = "smooth_value returned non-finite" if bad == "value" else "smooth_grad returned"
    with pytest.raises(OracleError, match=f"^iteration 2: {what}"):
        run_mfista(p, SolverConfig(epsilon=1e-12, max_iters=50), np.zeros(1))


def fail_on_call(fn, bad_call, bad_value):
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        return bad_value if calls["n"] == bad_call else fn(*args)
    return flaky


@pytest.mark.parametrize("field,bad_call,what", [
    ("h_prox", 3, "h_prox returned a malformed point"),
    ("omega_project", 2, "omega_project returned a malformed point"),
])
def test_prox_and_projection_failures_carry_iteration_index(field, bad_call, what):
    # one prox and (with omega_project) one projection per iteration, so the
    # n-th call fails within iteration n
    p = dataclasses.replace(convex_1d(), omega_project=lambda x: np.clip(x, -1.0, 1.0))
    bad = np.array([math.nan]) if field == "h_prox" else np.array([math.inf])
    p = dataclasses.replace(p, **{field: fail_on_call(getattr(p, field), bad_call, bad)})
    with pytest.raises(OracleError, match=f"^iteration {bad_call}: {what}"):
        run_mfista(p, SolverConfig(epsilon=1e-12, max_iters=50), np.zeros(1))


@pytest.mark.parametrize("field,bad_call,iteration,what", [
    ("smooth_grad", 1, 1, "smooth_grad returned a malformed gradient"),  # the start point's
    ("smooth_grad", 4, 2, "smooth_grad returned a malformed gradient"),
    ("h_prox", 3, 3, "h_prox returned a malformed point"),
    ("omega_project", 2, 2, "omega_project returned a malformed point"),
], ids=["start-grad", "grad", "prox", "project"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_oracle_output_names_its_iteration(field, bad_call, iteration, what, bad):
    # gradients: the start point's, then y_1's and x_2's in iteration 1, so
    # the 4th is y_2's; one prox and one projection per iteration
    p = dataclasses.replace(convex_1d(), omega_project=lambda x: np.clip(x, -1.0, 1.0))
    p = dataclasses.replace(p, **{field: fail_on_call(getattr(p, field), bad_call,
                                                      np.array([bad]))})
    with pytest.raises(OracleError, match=f"^iteration {iteration}: {what}$"):
        run_mfista(p, SolverConfig(epsilon=1e-12, max_iters=50), np.zeros(1))


def test_separate_oracles_run_in_order_and_check_the_first_result():
    # without fused oracles, value_grad calls the gradient and then the value,
    # prox_value the prox and then h; a malformed first result ends the call
    box = BoxSet(-np.ones(2), np.ones(2))
    box_clip = lambda z: np.clip(z, -1.0, 1.0)
    calls = []

    def logged(name, oracle):
        def call(*args):
            calls.append(name)
            return oracle(*args)
        return call

    def problem(grad_out=None, prox_out=None):
        return CompositeProblem(
            dim=2, smooth_value=logged("smooth_value", lambda y: 0.5 * float(y.dot(y))),
            smooth_grad=logged("smooth_grad", lambda y: y.copy() if grad_out is None else grad_out),
            h_value=logged("h_value", box.h_value),
            h_prox=logged("h_prox", lambda z, t: box_clip(z) if prox_out is None else prox_out),
            lipschitz_L=1.0)

    z = np.array([2.0, -0.5])
    cp = CountedProblem(problem())
    val, g = cp.value_grad(z)
    assert (val, g.tobytes(), calls) == (2.125, z.tobytes(), ["smooth_grad", "smooth_value"])
    calls.clear()
    y, val = cp.prox_value(z, 0.5)
    assert (y.tobytes(), val, calls) == (box_clip(z).tobytes(), 0.0, ["h_prox", "h_value"])
    for bad in (np.array([np.nan, 0.0]), np.zeros(3), np.zeros((2, 1))):
        calls.clear()
        with pytest.raises(OracleError, match="^smooth_grad returned a malformed gradient$"):
            CountedProblem(problem(grad_out=bad)).value_grad(z)
        with pytest.raises(OracleError, match="^h_prox returned a malformed point$"):
            CountedProblem(problem(prox_out=bad)).prox_value(z, 0.5)
        assert calls == ["smooth_grad", "h_prox"]
    # BoxSet.h_value raises its own ValueError on a point of another shape, so
    # only the check before it names the oracle and the iteration
    p = problem()
    p = dataclasses.replace(p, h_prox=fail_on_call(p.h_prox, 3, np.zeros(3)))
    with pytest.raises(OracleError, match="^iteration 3: h_prox returned a malformed point$"):
        run_mfista(p, SolverConfig(epsilon=1e-12, max_iters=50), np.array([0.9, -0.9]))


def test_h_value_nan_names_its_iteration():
    # h is evaluated once at the start point, then once per iteration
    p = convex_1d()
    p = dataclasses.replace(p, h_value=fail_on_call(p.h_value, 4, math.nan))
    with pytest.raises(OracleError, match="^iteration 3: h_value returned NaN$"):
        run_mfista(p, SolverConfig(epsilon=1e-12, max_iters=50), np.zeros(1))


@pytest.mark.parametrize("record_trace", [False, True])
def test_h_value_at_the_start_point_is_validated(record_trace):
    # a NaN there is an oracle failure in iteration 1, as a failing start-point
    # gradient is; +inf still means the start point is outside dom h
    cfg = SolverConfig(epsilon=1e-12, max_iters=50, record_trace=record_trace)
    p = convex_1d()
    nan_first = dataclasses.replace(p, h_value=fail_on_call(p.h_value, 1, math.nan))
    with pytest.raises(OracleError, match="^iteration 1: h_value returned NaN$"):
        run_mfista(nan_first, cfg, np.zeros(1))
    inf_first = dataclasses.replace(p, h_value=fail_on_call(p.h_value, 1, math.inf))
    with pytest.raises(InvalidStartError, match="^start point is outside dom h$"):
        run_mfista(inf_first, cfg, np.zeros(1))


# the three solvers at their canonical steps, each traced (id: its name) and
# untraced (id: its name and "-untraced")
SOLVE_CASES = [pytest.param(solve, record_trace, id=name if record_trace else f"{name}-untraced")
               for record_trace in (True, False) for name, solve in (
                   ("mfista", lambda p, cfg, y0: run_mfista(p, cfg, y0)),
                   ("fista", lambda p, cfg, y0: run_fista_baseline(p, cfg, y0,
                                                                   1.0 / p.lipschitz_L)),
                   ("proxgrad", lambda p, cfg, y0: run_proxgrad_baseline(p, cfg, y0)))]


@pytest.mark.parametrize("solve,record_trace", SOLVE_CASES)
def test_iterate_outside_dom_h_names_its_iteration_once(solve, record_trace):
    # a finite prox output outside the box passes the oracle checks and is
    # caught when h is evaluated at it, in the 3rd iteration, whether or not
    # the run is traced; with L above the curvature no solver converges
    # before that
    p = dataclasses.replace(convex_1d(), lipschitz_L=4.0)
    p = dataclasses.replace(p, h_prox=fail_on_call(p.h_prox, 3, np.array([5.0])))
    cfg = SolverConfig(epsilon=1e-12, max_iters=50, record_trace=record_trace)
    with pytest.raises(OracleError) as info:
        solve(p, cfg, np.zeros(1))
    assert str(info.value) == "iteration 3: iterate left dom h (h_value is +inf)"


@pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
def test_prox_that_ignores_dom_h_certifies_nothing(record_trace):
    # f(y) = (y - 3)^2 / 2 on [-1, 1] with an h_prox that forgets the box:
    # its iterates run to y = 3, where v = 0 but h is +inf, so a converged
    # status there would certify a point outside dom h
    p = dataclasses.replace(box_problem(1, lambda y: 0.5 * float((y[0] - 3.0) ** 2),
                                        lambda y: y - 3.0, 1.0),
                            h_prox=lambda z, t: np.array(z, dtype=float))
    cfg = SolverConfig(epsilon=1e-8, max_iters=500, record_trace=record_trace)
    with pytest.raises(OracleError) as info:
        run_mfista(p, cfg, np.zeros(1))
    assert str(info.value) == "iteration 2: iterate left dom h (h_value is +inf)"


def run_solver(solver, p, cfg, y0):
    """Run `solver` (mfista, fista, fista-quarter or proxgrad) on `p` from `y0`."""
    L = p.lipschitz_L
    if solver == "mfista":
        return run_mfista(p, cfg, y0)
    if solver == "fista":
        return run_fista_baseline(p, cfg, y0, 1.0 / L)
    if solver == "fista-quarter":
        return run_fista_baseline(p, cfg, y0, 1.0 / (4.0 * L), project_extrapolation=True)
    return run_proxgrad_baseline(p, cfg, y0)


def assert_identical_runs(a, b, tmp_path):
    """Same status, counters and (y, v), and, where traced, the same trace CSV
    bytes and stored vectors."""
    assert (a.status, a.iterations, a.counters) == (b.status, b.iterations, b.counters)
    assert a.y.tobytes() == b.y.tobytes() and a.v.tobytes() == b.v.tobytes()
    if a.trace is None:
        assert b.trace is None
        return
    csv = []
    for i, res in enumerate((a, b)):
        write_trace_csv(res.trace, tmp_path / f"{i}.csv")
        csv.append((tmp_path / f"{i}.csv").read_bytes())
    assert csv[0] == csv[1]
    if a.trace.ys is not None:
        assert len(a.trace.ys) == len(b.trace.ys) == a.iterations
        for va, vb in zip(a.trace.ys + a.trace.vs, b.trace.ys + b.trace.vs):
            assert va.tobytes() == vb.tobytes()


def fused_box_1d_prox(bad_call, bad_value):
    """h_prox_value for convex_1d's box whose `bad_call`-th h value is `bad_value`."""
    calls = {"n": 0}

    def prox_value(z, t):
        calls["n"] += 1
        return np.clip(z, -1.0, 1.0), bad_value if calls["n"] == bad_call else 0.0
    return prox_value


@pytest.mark.parametrize("solve,record_trace", SOLVE_CASES)
@pytest.mark.parametrize("bad,message", [
    (math.inf, "iterate left dom h (h_value is +inf)"),
    (math.nan, "h_value returned NaN"),
], ids=["inf", "nan"])
def test_fused_prox_value_failure_names_its_iteration(solve, record_trace, bad, message):
    # one fused prox per iteration, so its 3rd call is in iteration 3
    p = dataclasses.replace(convex_1d(), lipschitz_L=4.0, h_prox_value=fused_box_1d_prox(3, bad))
    cfg = SolverConfig(epsilon=1e-12, max_iters=50, record_trace=record_trace)
    with pytest.raises(OracleError) as info:
        solve(p, cfg, np.zeros(1))
    assert str(info.value) == f"iteration 3: {message}"


over_generated_families = pytest.mark.parametrize(
    "make", [lambda: make_convex_qp(12, 3), lambda: make_nonconvex_qp(12, 3),
             lambda: make_lasso_on_ball(12, 8, 3)], ids=["convex-qp", "nonconvex-qp", "lasso"])
over_solvers = pytest.mark.parametrize("solver", ["mfista", "fista", "fista-quarter", "proxgrad"])


@over_generated_families
@over_solvers
def test_traced_run_takes_h_from_the_fused_prox(make, solver, tmp_path):
    assert_h_comes_from_the_fused_prox(make, solver, True, tmp_path)


@over_generated_families
@over_solvers
def test_untraced_run_takes_h_from_the_fused_prox(make, solver, tmp_path):
    assert_h_comes_from_the_fused_prox(make, solver, False, tmp_path)


def assert_h_comes_from_the_fused_prox(make, solver, record_trace, tmp_path):
    # the generated problems fuse h into the prox, so a run, traced or not,
    # evaluates h_value only at the start point; without the fused oracle it
    # does so once more per iteration, and the run is the same bit for bit
    p, _ = make()
    cfg = SolverConfig(epsilon=1e-7, max_iters=400, record_trace=record_trace,
                       trace_vectors=record_trace)
    y0 = p.h_prox(np.zeros(p.dim), 1.0)
    runs = []
    for fused_prox in (p.h_prox_value, None):
        counts = {"h": 0}
        q = dataclasses.replace(p, h_value=counting(p.h_value, counts, "h"),
                                h_prox_value=fused_prox)
        res = run_solver(solver, q, cfg, y0)
        assert counts["h"] == (1 if fused_prox else 1 + res.iterations)
        runs.append(res)
    assert runs[0].iterations > 1
    assert_identical_runs(*runs, tmp_path)


def test_norm_helper_matches_numpy(rng):
    # the loop's norms must be np.linalg.norm's values bit for bit, strided
    # views (a custom h_prox may return one), overflow, inf and NaN included
    with np.errstate(over="ignore"):  # 1e200 overflows to inf in both
        for n in (1, 2, 7, 32, 33, 1000):
            for scale in (1e-200, 1e-3, 1.0, 1e150, 1e200):
                base = scale * rng.standard_normal(2 * n)
                for d in (base[:n], base[::2], base[::-2]):
                    assert solver_mod._norm(d) == float(np.linalg.norm(d))
    for special in (math.inf, -math.inf):
        d = np.array([1.0, special, 2.0])
        assert solver_mod._norm(d) == math.inf
    assert math.isnan(solver_mod._norm(np.array([1.0, math.nan])))


def counting(fn, counts, name):
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


@pytest.mark.parametrize("make", [lambda s: make_convex_qp(16, s),
                                  lambda s: make_lasso_on_ball(16, 12, s)], ids=["qp", "lasso"])
@pytest.mark.parametrize("eps,max_iters,status", [(1e-6, 5000, "converged"),
                                                  (1e-300, 60, "max_iters_reached")],
                         ids=["converged", "max-iters"])
def test_mfista_takes_the_fused_oracle(make, eps, max_iters, status):
    # f and grad f at y_k and at x_{k+1} come from one fused call per point;
    # separate calls would leave every trace unchanged and double the
    # products per iteration, so only call counts can tell.  Declared
    # quadratic, the problem gets no call at x_{k+1} at all.
    for seed in (1, 2):
        for quadratic in (False, True):
            _, inst = make(seed)
            counts = {"value_grad": 0, "f": 0, "grad": 0}
            for name in counts:
                setattr(inst, name, counting(getattr(inst, name), counts, name))
            p = dataclasses.replace(to_problem(inst), smooth_is_quadratic=quadratic)
            res = run_mfista(p, SolverConfig(epsilon=eps, max_iters=max_iters),
                             np.zeros(inst.dim))
            assert res.status == status and res.trace is not None
            if quadratic:
                fused_calls = res.iterations  # at y_k only
            else:
                # the last iteration of a converged run stops before x_{k+1}
                fused_calls = 2 * res.iterations - (status == "converged")
            assert counts == {"value_grad": fused_calls, "f": 0, "grad": 1}  # grad at y0 only
            assert res.counters.grad_evals == 1 + fused_calls
            assert res.counters.f_evals == fused_calls


@pytest.mark.parametrize("solver", ["mfista", "fista-quarter"])
def test_quadratic_problem_with_projection_calls_the_oracle_at_x_next(solver):
    # the extrapolated point is projected, so its gradient is no affine
    # combination of those in hand: the flag changes nothing, bit for bit
    p, inst = make_nonconvex_qp(8, 4, negfrac=0.4)
    p = dataclasses.replace(p, omega_project=lambda z: np.clip(z, inst.lower, inst.upper))
    cfg = SolverConfig(epsilon=1e-7, max_iters=3000, trace_vectors=True)
    y0 = np.zeros(8)
    runs = []
    for quadratic in (True, False):
        q = dataclasses.replace(p, smooth_is_quadratic=quadratic)
        runs.append(run_mfista(q, cfg, y0) if solver == "mfista" else run_fista_baseline(
            q, cfg, y0, 1.0 / (4.0 * q.lipschitz_L), project_extrapolation=True))
    flagged, plain = runs
    assert flagged.converged and flagged.iterations > 10
    # one gradient at the start, then at y_k and (but in the last) at x_{k+1}
    assert flagged.counters.grad_evals == 2 * flagged.iterations
    assert flagged.counters == plain.counters
    assert flagged.trace.ys[-1].tobytes() == plain.trace.ys[-1].tobytes()
    assert flagged.v.tobytes() == plain.v.tobytes()


@pytest.mark.parametrize("solver", ["mfista", "fista"])
def test_derived_gradient_overflow_carries_iteration_index(solver):
    # gradients at y_1 and y_2 (calls 2 and 3) are finite, but the one
    # derived at x_3 from them is not
    p = convex_1d()
    p = dataclasses.replace(p, smooth_is_quadratic=True,
                            smooth_grad=fail_on_call(p.smooth_grad, 3, np.array([1.7e308])))
    cfg = SolverConfig(epsilon=1e-12, max_iters=50)
    with pytest.raises(OracleError, match="^iteration 2: derived gradient at x_{k\\+1} "
                                          "is not finite"), np.errstate(over="ignore"):
        if solver == "mfista":
            run_mfista(p, cfg, np.zeros(1))
        else:
            run_fista_baseline(p, cfg, np.zeros(1), 0.25)


def test_quadratic_flag_keeps_iterations_and_certificates(rng):
    # 36 solves with the gradient at x_{k+1} derived, each against the same
    # solve with it from the oracle: same stopping, and each converged v is a
    # genuine member of grad f(y) + subdiff h(y) by a fresh gradient at y
    cfg = SolverConfig(epsilon=1e-8, max_iters=20000, record_trace=False)
    solves = 0
    for n in (8, 32):
        for seed in (1, 2, 3):
            for p, inst in (make_convex_qp(n, seed), make_nonconvex_qp(n, seed),
                            make_lasso_on_ball(n, 3 * n // 4, seed)):
                zs = sample_feasible(inst, rng, 100)
                h_zs = np.array([p.h_value(z) for z in zs])
                y0 = p.h_prox(np.zeros(n), 1.0)
                for solve in (run_mfista,
                              lambda q, c, y: run_fista_baseline(q, c, y, 1.0 / q.lipschitz_L)):
                    flagged = solve(p, cfg, y0)
                    plain = solve(dataclasses.replace(p, smooth_is_quadratic=False), cfg, y0)
                    solves += 1
                    assert (flagged.status, flagged.iterations) == (plain.status, plain.iterations)
                    assert flagged.counters.grad_evals == 1 + flagged.iterations
                    if flagged.converged:
                        xi = flagged.v - inst.grad(flagged.y)
                        slack = h_zs - p.h_value(flagged.y) - (zs - flagged.y) @ xi
                        assert slack.min() >= -1e-9
    assert solves == 36


@pytest.mark.parametrize("make", [lambda s: make_convex_qp(16, s),
                                  lambda s: make_lasso_on_ball(16, 12, s)], ids=["qp", "lasso"])
def test_loop_avoids_numpy_python_level_wrappers(make, monkeypatch):
    # np.all, np.linalg.norm and np.isfinite cost more in per-call dispatch
    # than their n=32 work; going back to them would leave every trace
    # unchanged, so only call counts can tell.  np.isfinite stays only for
    # vectors whose squares overflow, which these runs never see.
    problems = [make(seed)[0] for seed in (1, 2)]  # the generators may call them
    counts = {"all": 0, "norm": 0, "isfinite": 0}
    monkeypatch.setattr(np, "all", counting(np.all, counts, "all"))
    monkeypatch.setattr(np.linalg, "norm", counting(np.linalg.norm, counts, "norm"))
    monkeypatch.setattr(np, "isfinite", counting(np.isfinite, counts, "isfinite"))
    for p in problems:
        y0 = np.zeros(p.dim)
        L = p.lipschitz_L
        for vectors in (False, True):
            cfg = SolverConfig(epsilon=1e-6, max_iters=500, trace_vectors=vectors)
            for res in (run_mfista(p, cfg, y0), run_fista_baseline(p, cfg, y0, 1.0 / L),
                        run_proxgrad_baseline(p, cfg, y0)):
                assert res.trace is not None and res.iterations > 1
                assert counts == {"all": 0, "norm": 0, "isfinite": 0}


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("spectrum", ["default", "designed"])
def test_mfista_convex_iteration_skips_the_curvature_estimate(n, spectrum, monkeypatch):
    # on a convex QP every linearization gap is at most zero (on these
    # instances rounding never makes one positive), so the estimate stops at
    # the gap.  ||y|| for the estimate's floor is the loop's only _norm call
    # (||v||, ||x - y|| and ||y - y_prev|| are roots of their dot products),
    # so no call at all shows that the floor never runs
    eigenvalues = None if spectrum == "default" else np.linspace(0.5, 1.0, n)
    p, _ = make_convex_qp(n, n, eigenvalues=eigenvalues)
    counts = {"norm": 0}
    monkeypatch.setattr(solver_mod, "_norm", counting(solver_mod._norm, counts, "norm"))
    for record, per_iteration in ((True, 0), (False, 0)):
        counts["norm"] = 0
        res = run_mfista(p, SolverConfig(epsilon=1e-9, max_iters=5000, record_trace=record),
                         np.zeros(n))
        assert res.converged
        assert counts["norm"] == per_iteration * res.iterations
        if record:
            assert not any(res.trace.L_k)


@pytest.mark.parametrize("make", [lambda: make_convex_qp(12, 3), lambda: make_nonconvex_qp(12, 3),
                                  lambda: make_lasso_on_ball(12, 8, 3)],
                         ids=["convex-qp", "nonconvex-qp", "lasso"])
@pytest.mark.parametrize("solver", ["mfista", "fista", "fista-quarter", "proxgrad"])
@pytest.mark.parametrize("trace", ["off", "norms", "full"])
def test_fused_and_separate_oracles_give_identical_runs(make, solver, trace, tmp_path):
    fused_p, _ = make()
    separate_p = dataclasses.replace(fused_p, smooth_value_grad=None)
    cfg = SolverConfig(epsilon=1e-7, max_iters=400, record_trace=trace != "off",
                       trace_vectors=trace == "full")
    y0 = np.zeros(fused_p.dim)
    assert_identical_runs(*(run_solver(solver, p, cfg, y0) for p in (fused_p, separate_p)),
                          tmp_path)


# --- baselines ------------------------------------------------------------

def test_fista_equivalence_with_quarter_step():
    # on a convex instance the main loop's curvature stays zero and its path
    # is exactly FISTA with step 1/(4L) and projected extrapolation, bit for
    # bit; only vnorm may differ, as each solver rounds 1/step its own way
    cfg = SolverConfig(epsilon=1e-300, max_iters=300, trace_vectors=True)
    for seed in range(1, 6):
        for p, _ in (make_convex_qp(8, seed), make_convex_qp(32, seed),
                     make_lasso_on_ball(12, 16, seed)):
            case = (p.dim, seed)
            res_m = run_mfista(p, cfg, np.zeros(p.dim))
            res_f = run_fista_baseline(p, cfg, np.zeros(p.dim), 1.0 / (4.0 * p.lipschitz_L),
                                       project_extrapolation=True)
            assert res_m.iterations == res_f.iterations == 300, case
            assert not any(res_m.trace.L_k), case
            assert ([ym.tobytes() for ym in res_m.trace.ys]
                    == [yf.tobytes() for yf in res_f.trace.ys]), case
            for col in Trace.COLUMNS:
                if col != "vnorm":
                    assert (res_m.trace.column(col).tobytes()
                            == res_f.trace.column(col).tobytes()), (case, col)


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
    cert = lasso_optimum(inst)
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


# --- per-iteration work the loop does not repeat --------------------------

@pytest.mark.parametrize("make", [lambda s: make_convex_qp(8, s),
                                  lambda s: make_lasso_on_ball(8, 6, s)], ids=["qp", "lasso"])
@pytest.mark.parametrize("vectors", [False, True], ids=["norms", "full"])
def test_proxgrad_step_norm_serves_both_columns(make, vectors):
    # without momentum x_k is y_{k-1}, so dyy is dxy bit for bit, and both
    # are the norm of y_k - y_{k-1} recomputed from the stored iterates
    for seed in range(1, 6):
        p, _ = make(seed)
        y0 = p.h_prox(np.zeros(p.dim), 1.0)
        res = run_proxgrad_baseline(
            p, SolverConfig(epsilon=1e-9, max_iters=300, trace_vectors=vectors), y0)
        tr = res.trace
        assert res.iterations > 1
        assert tr.column("dyy").tobytes() == tr.column("dxy").tobytes()
        if vectors:
            steps = [solver_mod._norm(y - y_prev) for y, y_prev in zip(tr.ys, [y0] + tr.ys)]
            assert np.array(steps).tobytes() == tr.column("dyy").tobytes()


def strided(vec):
    """`vec` as a stride-2 view of a larger array, as a user oracle may return it."""
    wide = np.full(2 * vec.size, 7.0)
    wide[::2] = vec
    return wide[::2]


@pytest.mark.parametrize("solver", ["mfista", "fista", "proxgrad"])
def test_trace_norms_of_strided_oracle_outputs_match_numpy(solver):
    # the loop takes its norms as roots of dot products, which is
    # np.linalg.norm's arithmetic for the contiguous vectors it builds itself,
    # even when the gradients and prox points they come from are views;
    # x_k is rebuilt from the stored iterates and a_k as the loop builds it
    _, inst = make_nonconvex_qp(12, 5)
    lo, hi = inst.lower, inst.upper

    def value_grad(y):
        return inst.f(y), strided(inst.grad(y))

    p = CompositeProblem(dim=12, smooth_value=inst.f, smooth_grad=lambda y: value_grad(y)[1],
                         h_value=inst.box().h_value,
                         h_prox=lambda z, t: strided(np.clip(z, lo, hi)),
                         lipschitz_L=inst.lipschitz_L, smooth_value_grad=value_grad)
    assert not p.h_prox(np.zeros(12), 1.0).flags.c_contiguous
    y0 = np.clip(np.zeros(12), lo, hi)
    res = run_solver(solver, p, SolverConfig(epsilon=1e-9, max_iters=400, trace_vectors=True), y0)
    tr = res.trace
    assert res.iterations > 10
    if solver == "mfista":
        assert any(tr.L_k)  # the curvature shift switched on
    norm = lambda d: float(np.linalg.norm(d))
    y_prev, x, a_prev = y0, y0, 1.0
    vnorm, dxy, dyy = [], [], []
    for y, v, a_k in zip(tr.ys, tr.vs, tr.a_k):
        vnorm.append(norm(v))
        dxy.append(norm(x - y))
        dyy.append(norm(y - y_prev))
        x = y + ((a_prev - 1.0) / a_k) * (y - y_prev) if solver != "proxgrad" else y
        y_prev, a_prev = y, a_k
    for name, want in (("vnorm", vnorm), ("dxy", dxy), ("dyy", dyy)):
        assert tr.column(name).tobytes() == np.array(want).tobytes(), name


def test_loop_calls_project_only_when_the_problem_has_one(monkeypatch):
    counts = {"project": 0}
    monkeypatch.setattr(CountedProblem, "project",
                        counting(CountedProblem.project, counts, "project"))
    p, inst = make_convex_qp(6, 4)
    L = p.lipschitz_L
    solvers = [lambda q, cfg: run_mfista(q, cfg, np.zeros(6)),
               lambda q, cfg: run_fista_baseline(q, cfg, np.zeros(6), 1.0 / L),
               lambda q, cfg: run_fista_baseline(q, cfg, np.zeros(6), 1.0 / (4.0 * L),
                                                 project_extrapolation=True),
               lambda q, cfg: run_proxgrad_baseline(q, cfg, np.zeros(6))]
    cfg = SolverConfig(epsilon=1e-9, max_iters=2000, trace_vectors=True)
    for solve in solvers:
        assert solve(p, cfg).iterations > 1
    assert counts["project"] == 0
    # an identity projection is called and counted once per extrapolation
    # past the stopping test (so not in the converging iteration) by the
    # projecting solvers and leaves their iterates those of a problem without
    # one (both take every gradient from the oracle)
    plain = dataclasses.replace(p, smooth_is_quadratic=False)
    identity = dataclasses.replace(plain, omega_project=lambda x: x)
    for solve, projects in zip(solvers, (True, False, True, False)):
        counts["project"] = 0
        a, b = solve(plain, cfg), solve(identity, cfg)
        assert b.converged
        assert counts["project"] == b.counters.proj_evals == (
            b.iterations - 1 if projects else 0)
        assert (a.status, a.iterations) == (b.status, b.iterations)
        assert a.y.tobytes() == b.y.tobytes() and a.v.tobytes() == b.v.tobytes()
        for va, vb in zip(a.trace.ys + a.trace.vs, b.trace.ys + b.trace.vs):
            assert va.tobytes() == vb.tobytes()


@pytest.mark.parametrize("make", [lambda: make_convex_qp(8, 1), lambda: make_nonconvex_qp(8, 2),
                                  lambda: make_lasso_on_ball(8, 6, 3)],
                         ids=["convex-qp", "nonconvex-qp", "lasso"])
def test_untraced_mfista_evaluates_f_only_for_a_positive_gap(make):
    # with the derived gradient, f(y_k) serves only the estimate of a
    # positive gap, so an untraced run skips it elsewhere and keeps its
    # iterates and every other count
    p, _ = make()
    runs = [run_mfista(p, SolverConfig(epsilon=1e-9, max_iters=5000, record_trace=record),
                       np.zeros(p.dim)) for record in (True, False)]
    traced, untraced = runs
    assert (untraced.status, untraced.iterations) == (traced.status, traced.iterations)
    assert untraced.y.tobytes() == traced.y.tobytes()
    assert untraced.v.tobytes() == traced.v.tobytes()
    for name in ("grad_evals", "prox_evals", "proj_evals"):
        assert getattr(untraced.counters, name) == getattr(traced.counters, name)
    assert traced.counters.f_evals == traced.iterations
    assert untraced.counters.f_evals < untraced.iterations
    if not any(traced.trace.L_k):
        assert untraced.counters.f_evals == 0


def test_untraced_mfista_f_evals_on_a_convex_qp():
    p, _ = make_convex_qp(8, 1)
    res = run_mfista(p, SolverConfig(epsilon=1e-9, max_iters=5000, record_trace=False),
                     np.zeros(8))
    assert res.converged and res.iterations == 807
    assert res.counters.f_evals == 0
    # without the derived gradient the gap needs f at both points, traced or not
    p = dataclasses.replace(p, smooth_is_quadratic=False)
    res = run_mfista(p, SolverConfig(epsilon=1e-9, max_iters=5000, record_trace=False),
                     np.zeros(8))
    assert res.counters.f_evals == 2 * res.iterations - 1
