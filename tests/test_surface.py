"""What fistalab exports at the top level, and the names the benchmark in
`perfbench/` reaches, so that trimming either shows up here first."""

import types
from pathlib import Path

import numpy as np

import fistalab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TOP_LEVEL = {
    "CompositeProblem", "OracleError",
    "SolverConfig", "Trace", "InvalidStartError",
    "run_mfista", "run_fista_baseline", "run_proxgrad_baseline",
    "QuadraticInstance", "LassoOnBallInstance", "make_convex_qp", "make_nonconvex_qp",
    "make_lasso_on_ball",
    "to_problem", "load_instance", "brute_force_optimum",
    "check_residual_bound", "check_lyapunov_monotone",
    "check_function_value_bound", "check_scaled_trend", "fit_rate", "iterates_settled",
}


def test_top_level_names():
    names = {name for name in dir(fistalab)
             if (not name.startswith("__") or name == "__version__")
             and not isinstance(getattr(fistalab, name), types.ModuleType)}
    assert names == TOP_LEVEL | {"__version__"}


def test_benchmark_reaches_its_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks  # noqa: F401
    import layers
    import lean  # noqa: F401
    import workloads

    # resolves every fistalab callable the traced benchmark wraps
    assert len(layers.Recorder().replacements()) > 0
    rng = np.random.default_rng(0)
    for inst in (workloads._dense_convex_qp(4, rng), workloads._dense_nonconvex_qp(4, rng),
                 workloads._dense_lasso(4, 4, rng)):
        p = fistalab.to_problem(inst)
        assert p.dim == 4 and np.isfinite(p.smooth_value(np.zeros(4)))


def test_check_spans_reach_the_benchmark_wraps(tmp_path, monkeypatch):
    # `check` must read its trace through the public reader the benchmark
    # wraps, or the per-layer trace-read metrics silently read 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    from fistalab import cli

    inst, rundir = str(tmp_path / "inst.txt"), tmp_path / "run"
    rec = layers.Recorder()

    def calls(name):
        return rec.tracer.table().get(name, {}).get("calls", 0)

    with tracing.patched(rec.replacements()):
        assert cli.main(["gen", "--kind", "convex-qp", "--n", "4", "--seed", "3",
                         "--out", inst]) == 0
        assert cli.main(["run", "--instance", inst, "--eps", "1e-9", "--trace", "full",
                         "--with-oracle", "--out", str(rundir)]) == 0
        for extra, npz_reads in ((["--oracle", str(rundir / "oracle.json")], 1), ([], 0)):
            before = calls("cli.read_trace_csv"), calls("cli.npz_read")
            assert cli.main(["check", str(rundir / "trace.csv"), *extra]) == 0
            assert calls("cli.read_trace_csv") - before[0] == 1
            assert calls("cli.npz_read") - before[1] == npz_reads


def test_oracle_solves_stay_outside_the_benchmark_solver_spans(tmp_path, monkeypatch):
    # lasso_optimum runs FISTA blocks of its own; the benchmark's solver
    # metrics must count only the run `cli` makes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    from fistalab import cli

    rec = layers.Recorder()
    with tracing.patched(rec.replacements()):
        assert cli.main(["run", "--problem", "lasso-ball", "--n", "4", "--with-oracle",
                         "--out", str(tmp_path / "run")]) == 0
    table = rec.tracer.table()
    assert table["problems.oracle"]["calls"] == 1
    assert table["solver.run"]["calls"] == 1
