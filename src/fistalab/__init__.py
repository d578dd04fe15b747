"""fistalab: accelerated proximal-gradient solvers for composite problems
with a possibly nonconvex smooth part, plus test instances and trace checks.

The top level holds what the README, the scripts and the benchmark import:
solvers, generators, trace checks and the exceptions they raise.  Operators
and the other oracles are in `fistalab.prox` and `fistalab.problems`."""

__version__ = "0.1.0"

from .core import CompositeProblem, OracleError
from .solver import (
    InvalidStartError,
    SolverConfig,
    Trace,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)
from .problems import (
    LassoOnBallInstance,
    QuadraticInstance,
    brute_force_optimum,
    load_instance,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    to_problem,
)
from .analysis import (
    check_function_value_bound,
    check_lyapunov_monotone,
    check_residual_bound,
    check_scaled_trend,
    fit_rate,
    iterates_settled,
)
