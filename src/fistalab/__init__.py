"""fistalab: accelerated proximal-gradient solvers for composite problems
with a possibly nonconvex smooth part, plus test instances and trace checks."""

__version__ = "0.1.0"

from .core import (
    CompositeProblem,
    CountedProblem,
    EvalCounters,
    OracleError,
)
from .prox import (
    BallSet,
    BoxSet,
    L1OnBall,
    UnsupportedConfigError,
    project_ball,
    project_box,
    prox_box_indicator,
    prox_l1_on_ball,
    soft_threshold,
)
from .solver import (
    InvalidStartError,
    SolveResult,
    SolverConfig,
    Trace,
    momentum_sequence,
    next_momentum,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)
from .problems import (
    LassoOnBallInstance,
    OracleCertificate,
    QuadraticInstance,
    brute_force_optimum,
    estimate_lipschitz_power,
    fine_grid_optimum,
    lasso_optimum,
    load_instance,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    sample_feasible,
    save_instance,
    to_problem,
)
from .analysis import (
    RateFit,
    TraceCheckReport,
    UnsupportedTraceError,
    best_residual_curve,
    check_function_value_bound,
    check_lyapunov_monotone,
    check_residual_bound,
    check_scaled_trend,
    fit_rate,
    iterates_settled,
    lyapunov_sequence,
)
