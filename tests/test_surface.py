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
    "UnsupportedTraceError", "check_residual_bound", "check_lyapunov_monotone",
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
