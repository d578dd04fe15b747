"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
The rate experiments run 10^4-iteration solves on dim-32 instances; the whole
module stays within a couple of minutes.
"""

import json
import time

import numpy as np
import pytest

from fistalab import (
    SolverConfig,
    brute_force_optimum,
    check_residual_bound,
    check_scaled_trend,
    fit_rate,
    iterates_settled,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)
from fistalab.cli import main as cli_main, read_trace_csv
from fistalab.solver import momentum_sequence

from conftest import sample_feasible


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    return ok


# shared expensive runs (criteria 5/6 build them, 11 reuses them)
_cache = {}


def rate_run(kind, seed, max_iters=10_000):
    key = (kind, seed)
    if key not in _cache:
        if kind == "qp":
            p, _ = make_convex_qp(32, seed, eigenvalues=np.geomspace(1e-7, 1.0, 32),
                                  interior_opt=True)
        elif kind == "lasso":
            p, _ = make_lasso_on_ball(32, 32, seed, weight_scale=3e-5,
                                      singular_values=np.geomspace(8e-3, 1.0, 32))
        else:
            p, _ = make_nonconvex_qp(12, seed)
        cfg = SolverConfig(epsilon=1e-300, max_iters=max_iters)
        y0 = p.h_prox(np.zeros(p.dim), 1.0)
        if kind == "nonconvex":
            y0 = np.random.default_rng(1000 + seed).uniform(-0.9, 0.9, p.dim)
        _cache[key] = (p, run_mfista(p, cfg, y0))
    return _cache[key]


def settled_grid(trace):
    """Log grid from 10 up to the last index where the best residual is
    meaningfully above the floating-point floor; None when too short."""
    best = np.minimum.accumulate(trace.column("vnorm"))
    floor = 1e-13 * max(1.0, float(trace.vnorm[0]))
    alive = np.flatnonzero(best > floor)
    if alive.size == 0:
        return None
    top = int(alive[-1]) + 1
    if top < 320:  # need 1.5 decades above n = 10
        return None
    return np.unique(np.geomspace(10, top, 20).astype(int))


def test_c01_momentum_sequence():
    t0 = time.perf_counter()
    count = 10**6
    a = momentum_sequence(count)
    ks = np.arange(count + 1)
    rec_err = np.abs(a[1:] * (a[1:] - 1.0) - a[:-1] ** 2) / a[:-1] ** 2
    ok_rec = bool(np.all(rec_err <= 1e-12))
    ok_lo = bool(np.all(a >= (ks + 1) / 4.0))
    ok_hi = bool(np.all(a <= 1.0 + ks))
    elapsed = time.perf_counter() - t0
    ok = ok_rec and ok_lo and ok_hi and elapsed < 1.0
    assert report(1, "momentum_sequence", ok,
                  f"max rel err {rec_err.max():.2e}, {elapsed:.2f}s")


def test_c02_residual_membership():
    t0 = time.perf_counter()
    instances = []
    for seed in range(7):
        instances.append(make_convex_qp((4, 8, 16)[seed % 3], seed))
    for seed in range(7):
        instances.append(make_nonconvex_qp((4, 8, 16)[seed % 3], seed, negfrac=0.3))
    for seed in range(6):
        n = (8, 16)[seed % 2]
        instances.append(make_lasso_on_ball(n, n, seed))
    assert len(instances) == 20

    rng = np.random.default_rng(777)
    worst = np.inf
    for p, inst in instances:
        cfg = SolverConfig(epsilon=1e-9, max_iters=300, trace_vectors=True)
        res = run_mfista(p, cfg, p.h_prox(np.zeros(p.dim), 1.0))
        zs = sample_feasible(inst, rng, 100)
        h_zs = np.array([p.h_value(z) for z in zs])
        for i in range(len(res.trace)):
            y = res.trace.ys[i]
            xi = res.trace.vs[i] - p.smooth_grad(y)
            slack = float(np.min(h_zs - p.h_value(y) - (zs - y) @ xi))
            worst = min(worst, slack)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and elapsed < 30.0
    assert report(2, "residual_membership", ok,
                  f"worst slack {worst:.2e} over 20 instances, {elapsed:.1f}s")


def test_c03_residual_bound_tripwire(tmp_path, capsys):
    t0 = time.perf_counter()
    config = {
        "instances": [{"kind": "convex-qp", "n": 6, "seed": 3},
                      {"kind": "nonconvex-qp", "n": 6, "seed": 1},
                      {"kind": "lasso-ball", "n": 8, "rows": 8, "seed": 2}],
        "solvers": ["mfista", "fista"],
        "epsilons": [1e-7],
        "max_iters": 1500,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    sweep_dir = tmp_path / "sweep"
    assert cli_main(["sweep", str(cfg_path), "--out", str(sweep_dir)]) in (0, 2)

    traces = sorted(sweep_dir.glob("cell-*/trace.csv"))
    assert len(traces) == 6
    all_pass = True
    for tr_path in traces:
        code = cli_main(["check", str(tr_path)])
        out = capsys.readouterr().out
        all_pass &= (code == 0 and "CHECK residual_bound PASS" in out)

    # negative control: one forged row must trip the check
    lines = traces[0].read_text().splitlines()
    j = 1 + (len(lines) - 1) // 4
    cells = lines[j].split(",")
    cells[5] = cells[6] = "0.0"
    lines[j] = ",".join(cells)
    forged = tmp_path / "forged.csv"
    forged.write_text("\n".join(lines) + "\n")
    L = json.loads((traces[0].parent / "manifest.json").read_text())["lipschitz_L"]
    code = cli_main(["check", str(forged), "--lipschitz", str(L)])
    out = capsys.readouterr().out
    caught = code == 1 and "CHECK residual_bound FAIL" in out

    elapsed = time.perf_counter() - t0
    ok = all_pass and caught and elapsed < 10.0
    with capsys.disabled():
        assert report(3, "residual_bound_tripwire", ok,
                      f"6 genuine traces pass, forged trace caught, {elapsed:.1f}s")


def test_c04_convexity_detection():
    t0 = time.perf_counter()
    worst_convex = 0.0
    for seed in range(10):
        p, _ = make_convex_qp(6, seed)
        res = run_mfista(p, SolverConfig(epsilon=1e-10, max_iters=1500), np.zeros(6))
        worst_convex = max(worst_convex, float(res.trace.column("L_k").max() /
                                               (1e-12 * p.lipschitz_L)))
        assert res.trace.column("L_k").max() <= 1e-12 * p.lipschitz_L

    detected = 0
    worst_excess = -np.inf
    for seed in range(10):
        p, inst = make_nonconvex_qp(8, seed, negfrac=0.4)
        y0 = np.random.default_rng(1000 + seed).uniform(-0.9, 0.9, 8)
        res = run_mfista(p, SolverConfig(epsilon=1e-10, max_iters=2000), y0)
        peak = float(res.trace.column("L_k").max())
        detected += peak > 0.0
        worst_excess = max(worst_excess, peak - inst.known_m)
        assert peak <= inst.known_m + 1e-9
    elapsed = time.perf_counter() - t0
    ok = detected == 10 and elapsed < 30.0
    assert report(4, "convexity_detection", ok,
                  f"10/10 convex stayed at 0, {detected}/10 nonconvex detected, "
                  f"worst excess over m {worst_excess:.1e}, {elapsed:.1f}s")


def test_c05_convex_rate():
    t0 = time.perf_counter()
    grid_full = np.unique(np.geomspace(100, 10_000, 24).astype(int))
    results = []
    for kind in ("qp", "lasso"):
        for seed in (0, 1):
            _, res = rate_run(kind, seed)
            fit = fit_rate(res.trace, grid_full[grid_full <= res.iterations])
            results.append((kind, seed, fit.slope, fit.r_squared))
    elapsed = time.perf_counter() - t0
    ok = all(s <= -1.4 and r2 >= 0.95 for _, _, s, r2 in results) and elapsed < 120.0
    detail = "; ".join(f"{k}/{s}: slope {sl:.2f} r2 {r2:.3f}" for k, s, sl, r2 in results)
    assert report(5, "convex_rate", ok, detail + f", {elapsed:.1f}s")


def test_c06_nonconvex_rate():
    t0 = time.perf_counter()
    qualified = []
    for seed in range(10):
        _, res = rate_run("nonconvex", seed)
        grid = settled_grid(res.trace)
        if grid is None or not iterates_settled(res.trace):
            continue
        fit = fit_rate(res.trace, grid)
        qualified.append((seed, fit.slope))
    elapsed = time.perf_counter() - t0
    ok = (len(qualified) >= 5
          and all(s <= -0.45 for _, s in qualified)
          and elapsed < 120.0)
    detail = f"{len(qualified)}/10 settled, slopes " + \
             " ".join(f"{s:.2f}" for _, s in qualified)
    assert report(6, "nonconvex_rate", ok, detail + f", {elapsed:.1f}s")


def small_convex_runs():
    if "small_convex" not in _cache:
        runs = []
        for n, seed in ((2, 0), (3, 1), (4, 2)):
            p, inst = make_convex_qp(n, seed, eigenvalues=np.geomspace(1e-5, 1.0, n),
                                     interior_opt=True)
            cfg = SolverConfig(epsilon=1e-300, max_iters=600, trace_vectors=True)
            res = run_mfista(p, cfg, np.zeros(n))
            cert = brute_force_optimum(inst)
            runs.append((p, res, cert))
        _cache["small_convex"] = runs
    return _cache["small_convex"]


def test_c07_lyapunov_monotone():
    from fistalab import check_lyapunov_monotone

    t0 = time.perf_counter()
    worsts = []
    for p, res, cert in small_convex_runs():
        assert len(res.trace) >= 500
        rep = check_lyapunov_monotone(res.trace, cert)
        assert rep.status == "PASS"
        worsts.append(rep.worst)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    assert report(7, "lyapunov_monotone", ok,
                  f"3 runs of >=500 iters, worst rise {max(worsts):.1e}, {elapsed:.1f}s")


def test_c08_function_value_bound():
    from fistalab import check_function_value_bound

    t0 = time.perf_counter()
    decay_ok = True
    for p, res, cert in small_convex_runs():
        rep = check_function_value_bound(res.trace, cert, p.lipschitz_L)
        assert rep.status == "PASS"
        # decay consequence at n = 400 via the momentum lower bound a >= n/4
        y1 = res.trace.ys[0]
        constant = (res.trace.phi[0] - cert.phi_star) \
            + 2.0 * p.lipschitz_L * float((y1 - cert.y_star) @ (y1 - cert.y_star))
        gap_400 = res.trace.phi[399] - cert.phi_star
        decay_ok &= gap_400 <= 16.0 * constant / 400**2 + 1e-8
    elapsed = time.perf_counter() - t0
    ok = decay_ok and elapsed < 30.0
    assert report(8, "function_value_bound", ok,
                  f"bound + n=400 decay hold on 3 runs, {elapsed:.1f}s")


def test_c09_fista_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in (0, 1):
        p, _ = make_convex_qp(8, seed)
        cfg = SolverConfig(epsilon=1e-300, max_iters=1000, trace_vectors=True)
        res_m = run_mfista(p, cfg, np.zeros(8))
        res_f = run_fista_baseline(p, cfg, np.zeros(8), 1.0 / (4.0 * p.lipschitz_L),
                                   project_extrapolation=True)
        assert res_m.iterations == res_f.iterations == 1000
        for ym, yf in zip(res_m.trace.ys, res_f.trace.ys):
            worst = max(worst, float(np.max(np.abs(ym - yf))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(9, "fista_equivalence", ok,
                  f"worst per-coordinate gap {worst:.1e} over 1000 iters x 2 seeds, "
                  f"{elapsed:.1f}s")


def test_c10_resolvent_economy():
    checked = 0
    for kind in ("qp", "lasso", "nonconvex"):
        for seed in (0, 1):
            _, res = rate_run(kind, seed)
            assert res.counters.prox_evals == res.iterations
            checked += 1
    p, _ = make_convex_qp(5, 3)
    cfg = SolverConfig(epsilon=1e-9, max_iters=500)
    for runner, args in ((run_mfista, ()),
                         (run_fista_baseline, (1.0 / p.lipschitz_L,)),
                         (run_proxgrad_baseline, ())):
        res = runner(p, cfg, np.zeros(5), *args)
        assert res.counters.prox_evals == res.iterations
        checked += 1
    assert report(10, "resolvent_economy", True, f"{checked} runs, prox count == iterations")


def test_c11_asymptotic_trend_advisory():
    grid_full = np.unique(np.geomspace(100, 10_000, 24).astype(int))
    failures = []
    for kind in ("qp", "lasso"):
        for seed in (0, 1):
            _, res = rate_run(kind, seed)
            rep = check_scaled_trend(res.trace, 1.5, grid_full[grid_full <= res.iterations])
            if rep.status == "FAIL":
                failures.append(f"{kind}/{seed}: drift {rep.worst:.2f}")
    settled = 0
    for seed in range(10):
        _, res = rate_run("nonconvex", seed)
        g = settled_grid(res.trace)
        if g is None or not iterates_settled(res.trace):
            continue
        settled += 1
        rep = check_scaled_trend(res.trace, 0.5, g)
        if rep.status == "FAIL":
            failures.append(f"nonconvex/{seed}: drift {rep.worst:.2f}")
    ok = not failures
    report(11, "asymptotic_trend_advisory", ok,
           f"4 convex + {settled} settled nonconvex trends" if ok else "; ".join(failures))
    if not ok:
        # advisory: an upward drift asks for review, not rejection
        pytest.xfail("advisory scaled-residual trend drifted upward: " + "; ".join(failures))
