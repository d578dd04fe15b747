import math

import numpy as np
import pytest

from fistalab import (
    SolverConfig,
    Trace,
    brute_force_optimum,
    check_function_value_bound,
    check_lyapunov_monotone,
    check_residual_bound,
    check_scaled_trend,
    fit_rate,
    iterates_settled,
    make_convex_qp,
    make_nonconvex_qp,
    run_mfista,
)
from fistalab.analysis import best_residual_curve, lyapunov_sequence
from fistalab.cli import read_trace_csv, write_trace_csv


def synthetic_trace(vnorm, dxy=None, dyy=None, L_k=None, L=1.0):
    n = len(vnorm)
    dxy = np.asarray(dxy) if dxy is not None else np.asarray(vnorm) / (6.0 * L)
    dyy = np.asarray(dyy) if dyy is not None else np.zeros(n)
    L_k = np.asarray(L_k) if L_k is not None else np.zeros(n)
    tr = Trace(L)
    # one tuple per row in Trace.COLUMNS order, filled as the solver loop fills them
    tr._fill_columns([(i + 1, 1.0, float(L_k[i]), float(vnorm[i]), 0.0,
                       float(dxy[i]), float(dyy[i]), 2 * (i + 1), i + 1) for i in range(n)])
    return tr


def convex_run(n=2, seed=0, iters=600, eigs=(1e-5, 1.0)):
    p, inst = make_convex_qp(n, seed, eigenvalues=np.geomspace(eigs[0], eigs[1], n))
    cfg = SolverConfig(epsilon=1e-300, max_iters=iters, trace_vectors=True)
    res = run_mfista(p, cfg, np.zeros(n))
    cert = brute_force_optimum(inst)
    return p, inst, res, cert


# --- rate fitting -----------------------------------------------------------

def test_fit_rate_recovers_exact_power_law():
    n = np.arange(1, 2001, dtype=float)
    tr = synthetic_trace(3.7 * n ** -1.0)
    grid = np.unique(np.geomspace(10, 2000, 12).astype(int))
    fit = fit_rate(tr, grid)
    assert abs(fit.slope - (-1.0)) <= 1e-6
    assert fit.r_squared >= 1.0 - 1e-12
    assert math.isclose(math.exp(fit.intercept), 3.7, rel_tol=1e-6)


def test_fit_rate_validations():
    tr = synthetic_trace(np.ones(100))
    with pytest.raises(ValueError):
        fit_rate(tr, [10, 20, 30])                  # too few points
    with pytest.raises(ValueError):
        fit_rate(tr, [10, 9, 30, 90])               # not increasing
    with pytest.raises(ValueError):
        fit_rate(tr, [10, 20, 50, 400])             # extends past the trace
    with pytest.raises(ValueError):
        fit_rate(tr, [10, 20, 50, 90])              # spans < 1.5 decades


def test_fit_rate_truncates_at_zero_residual():
    n = np.arange(1, 1001, dtype=float)
    v = 2.0 * n ** -1.5
    v[600:] = 0.0
    tr = synthetic_trace(v)
    grid = np.unique(np.geomspace(5, 1000, 14).astype(int))
    fit = fit_rate(tr, grid)
    assert fit.n_grid[-1] < 600
    assert abs(fit.slope - (-1.5)) <= 1e-6

    v[12:] = 0.0
    with pytest.raises(ValueError):
        fit_rate(synthetic_trace(v), grid)          # fewer than 4 survivors


# --- residual bound -----------------------------------------------------------

def test_residual_bound_on_genuine_traces():
    for maker, seed in ((make_convex_qp, 1), (make_nonconvex_qp, 2)):
        p, _ = maker(6, seed)
        res = run_mfista(p, SolverConfig(epsilon=1e-12, max_iters=1500), np.zeros(6))
        rep = check_residual_bound(res.trace, p.lipschitz_L)
        assert rep.status == "PASS"
        assert rep.format_line().startswith("CHECK residual_bound PASS")


def test_residual_bound_negative_control():
    p, _ = make_convex_qp(4, 3)
    res = run_mfista(p, SolverConfig(epsilon=1e-10, max_iters=400), np.zeros(4))
    tr = res.trace
    j = len(tr) - 1
    tr.dxy[j] = 0.0  # forged row: the aggregated bound collapses below min ||v||
    tr.dyy[j] = 0.0
    rep = check_residual_bound(tr, p.lipschitz_L)
    assert rep.status == "FAIL"
    assert rep.at_k == tr.k[j]
    assert rep.worst > 0


@pytest.mark.parametrize("L", [math.inf, -1.0, math.nan])
def test_bounds_refuse_a_lipschitz_constant_that_is_not_finite_and_positive(L):
    # an infinite L passed both bounds on any trace
    p, inst, res, cert = convex_run(n=2, seed=0, iters=50)
    with pytest.raises(ValueError, match="L must be finite and positive"):
        check_residual_bound(res.trace, L)
    with pytest.raises(ValueError, match="L must be finite and positive"):
        check_function_value_bound(res.trace, cert, L)
    # the energy gate reads L from the trace
    res.trace.lipschitz_L = L
    with pytest.raises(ValueError, match="L must be finite and positive"):
        check_lyapunov_monotone(res.trace, cert)


def test_residual_bound_short_trace():
    tr = synthetic_trace([0.5])
    assert check_residual_bound(tr, 1.0).status == "N/A"


# --- energy monotonicity -------------------------------------------------------

def test_lyapunov_monotone_on_convex_runs():
    for n, seed in ((1, 0), (2, 3)):
        p, inst, res, cert = convex_run(n=n, seed=seed, iters=250)
        rep = check_lyapunov_monotone(res.trace, cert)
        assert rep.status == "PASS"
        energies = lyapunov_sequence(res.trace, cert)
        assert energies.min() >= -1e-9  # true optimum keeps the energy nonnegative


def test_lyapunov_monotone_skips_nonconvex():
    p, inst = make_nonconvex_qp(3, 5)
    cfg = SolverConfig(epsilon=1e-12, max_iters=300, trace_vectors=True)
    res = run_mfista(p, cfg, p.h_prox(np.zeros(3), 1.0))
    assert res.trace.column("L_k").max() > 0
    cert = brute_force_optimum(inst)
    rep = check_lyapunov_monotone(res.trace, cert)
    assert rep.status == "N/A"


def test_lyapunov_constant_at_optimum():
    p, inst, _, cert = convex_run(n=2, seed=4, iters=10)
    cfg = SolverConfig(epsilon=1e-300, max_iters=40, trace_vectors=True)
    # starting exactly at the optimum converges immediately: vacuous pass
    res = run_mfista(p, cfg, cert.y_star)
    assert check_lyapunov_monotone(res.trace, cert).status == "PASS"
    # a hair away from the optimum the energy hovers at zero, still monotone
    res = run_mfista(p, cfg, np.clip(cert.y_star + 1e-13, -1.0, 1.0))
    rep = check_lyapunov_monotone(res.trace, cert)
    assert rep.status == "PASS"
    energies = lyapunov_sequence(res.trace, cert)
    assert max(energies) <= 1e-9


def test_lyapunov_requires_vectors():
    # a trace without vectors is one the energy gates cannot judge: N/A, as
    # for an empty or a nonconvex one
    tr = synthetic_trace(np.ones(10))
    p, inst, _, cert = convex_run(n=1, seed=0, iters=5)
    for rep in (check_lyapunov_monotone(tr, cert), check_function_value_bound(tr, cert, 1.0)):
        assert (rep.status, rep.note) == ("N/A", "needs a full-vector trace")
        assert rep.passed
    with pytest.raises(ValueError, match="needs a full-vector trace"):
        lyapunov_sequence(tr, cert)


def test_energy_gates_on_an_empty_trace_are_not_applicable():
    p, inst, _, cert = convex_run(n=2, seed=0, iters=5)
    empty = Trace(p.lipschitz_L, np.zeros(2), keep_vectors=True)
    for rep in (check_lyapunov_monotone(empty, cert),
                check_function_value_bound(empty, cert, p.lipschitz_L)):
        assert (rep.status, rep.note) == ("N/A", "empty trace")


def test_lyapunov_gate_names_a_trace_read_without_its_lipschitz_constant(tmp_path):
    p, inst, res, cert = convex_run(n=2, seed=0, iters=50)
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    with pytest.raises(ValueError, match="the trace carries no Lipschitz constant "
                                         r"\(pass lipschitz_L to read_trace_csv\)"):
        check_lyapunov_monotone(read_trace_csv(path), cert)
    assert check_lyapunov_monotone(read_trace_csv(path, p.lipschitz_L), cert).status == "PASS"


@pytest.mark.parametrize("size", [1, 3])
def test_energy_gates_refuse_a_certificate_of_another_length(size):
    # a 1-entry y_star would broadcast against every iterate and pass unnoticed;
    # the refusal comes before the nonconvex and single-row verdicts
    p, inst, res, cert = convex_run(n=2, seed=0, iters=50)
    cert.y_star = np.zeros(size)
    message = f"certificate y_star has {size} entries, the trace's iterates have 2"
    nonconvex = run_mfista(make_nonconvex_qp(2, 5)[0],
                           SolverConfig(epsilon=1e-12, max_iters=300, trace_vectors=True),
                           np.zeros(2)).trace
    one_row = run_mfista(p, SolverConfig(epsilon=1e-300, max_iters=1, trace_vectors=True),
                         np.zeros(2)).trace
    for trace in (res.trace, nonconvex, one_row):
        with pytest.raises(ValueError, match=message):
            check_lyapunov_monotone(trace, cert)
        with pytest.raises(ValueError, match=message):
            check_function_value_bound(trace, cert, p.lipschitz_L)
    with pytest.raises(ValueError, match=message):
        lyapunov_sequence(res.trace, cert)


# --- function-value bound -------------------------------------------------------

def test_function_value_bound_on_convex_run():
    p, inst, res, cert = convex_run(n=2, seed=0, iters=500)
    rep = check_function_value_bound(res.trace, cert, p.lipschitz_L)
    assert rep.status == "PASS"


def test_function_value_bound_started_at_optimum():
    p, inst, _, cert = convex_run(n=2, seed=1, iters=10)
    cfg = SolverConfig(epsilon=1e-300, max_iters=50, trace_vectors=True)
    res = run_mfista(p, cfg, cert.y_star)
    rep = check_function_value_bound(res.trace, cert, p.lipschitz_L)
    assert rep.status == "PASS"
    gaps = res.trace.column("phi") - cert.phi_star
    assert np.max(np.abs(gaps)) <= 1e-9


def test_function_value_bound_nonconvex_is_na():
    p, inst = make_nonconvex_qp(3, 7)
    cfg = SolverConfig(epsilon=1e-12, max_iters=300, trace_vectors=True)
    res = run_mfista(p, cfg, p.h_prox(np.zeros(3), 1.0))
    cert = brute_force_optimum(inst)
    assert check_function_value_bound(res.trace, cert, p.lipschitz_L).status == "N/A"


# --- scaled trend and settling ----------------------------------------------------

def test_scaled_trend_flat_and_rising():
    n = np.arange(1, 5001, dtype=float)
    grid = np.unique(np.geomspace(10, 5000, 20).astype(int))
    # exact n^{-1.5}: the scaled curve is flat, net change 1
    rep = check_scaled_trend(synthetic_trace(2.0 * n ** -1.5), 1.5, grid)
    assert rep.status == "PASS"
    assert math.isclose(rep.worst, 1.0, rel_tol=1e-9)
    # decay slower than the exponent: clear upward drift
    rep = check_scaled_trend(synthetic_trace(2.0 * n ** -1.2), 1.5, grid)
    assert rep.status == "FAIL"
    # short grid: not applicable
    rep = check_scaled_trend(synthetic_trace(np.ones(30)), 1.5, [5, 10, 20, 30])
    assert rep.status == "N/A"
    # a residual that reaches zero inside the fitted half: not applicable
    vnorm = 2.0 * n ** -1.5
    vnorm[3000:] = 0.0
    rep = check_scaled_trend(synthetic_trace(vnorm), 1.5, grid)
    assert (rep.status, rep.note) == ("N/A", "residual hit zero in the window")


def test_iterates_settled():
    v = np.ones(300)
    tr = synthetic_trace(v, dyy=np.full(300, 1e-12))
    assert iterates_settled(tr)
    tr = synthetic_trace(v, dyy=np.full(300, 1e-6))
    assert not iterates_settled(tr)
    assert not iterates_settled(synthetic_trace(np.ones(10)))


def test_best_residual_curve_monotone():
    curve = best_residual_curve(np.array([3.0, 5.0, 1.0, 2.0, 0.5]))
    np.testing.assert_array_equal(curve, [3.0, 3.0, 1.0, 1.0, 0.5])
