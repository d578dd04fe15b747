"""Accelerated proximal-gradient solvers for bounded composite problems.

`run_mfista` is the main method: a FISTA-shaped iteration that works when the
smooth part is nonconvex by (a) taking the conservative step 1/(4L), and
(b) tracking an online estimate of the negative-curvature modulus, which is
re-estimated from the last linearization gap each iteration and shifts the
model whenever it is positive.  On convex problems the estimate stays at
zero and the iteration reduces to plain FISTA with step 1/(4L) and projected
extrapolation.  Termination is on the norm of an explicit stationarity
residual v with v in grad f(y) + subdiff h(y), so a converged result is a
near-stationarity certificate.  The method needs the Lipschitz constant L and
nothing else: no curvature modulus, no domain bound, no tuning knob.

Two baselines share the trace format: classic FISTA with a configurable step
and non-accelerated proximal gradient.  All three run one loop with three
switches: classic FISTA is the main iteration with curvature tracking off,
and proximal gradient is that again with momentum off.  FISTA with step
1/(4L) and projected extrapolation therefore reproduces run_mfista's
iterates exactly on convex problems.  That loop, `_iterate`, is the one place
the prox step, the residual, the extrapolation and the curvature estimate are
written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeProblem, CountedProblem, EvalCounters, OracleError, as_vector

__all__ = [
    "InvalidStartError",
    "SolverConfig",
    "Trace",
    "SolveResult",
    "next_momentum",
    "momentum_sequence",
    "run_mfista",
    "run_fista_baseline",
    "run_proxgrad_baseline",
]

# The curvature estimate divides a linearization gap by ||y - x||^2.  Near
# convergence the gap is pure cancellation noise while the denominator is
# tiny, which would produce estimates orders of magnitude above L; a gap is
# used only when it exceeds this relative significance floor.
_CURVATURE_SIG_RTOL = 1e-10


class InvalidStartError(ValueError):
    """Start point is outside dom h."""


@dataclass
class SolverConfig:
    """Run parameters shared by all solvers."""

    epsilon: float
    max_iters: int
    record_trace: bool = True
    trace_vectors: bool = False

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class Trace:
    """Columnar per-iteration record of a run.

    Always stores the scalar columns of the CSV schema plus the start point
    and the Lipschitz constant; iterate and residual vectors are kept only
    when requested (memory is O(dim * iters) then).  Immutable once the run
    that built it returns.
    """

    COLUMNS = ("k", "a_k", "L_k", "vnorm", "phi", "dxy", "dyy", "gradevals", "proxevals")

    def __init__(self, lipschitz_L: float, y0: Optional[np.ndarray] = None,
                 keep_vectors: bool = False):
        self.lipschitz_L = float(lipschitz_L)
        self.y0 = None if y0 is None else np.array(y0, dtype=float)
        self.k: list[int] = []
        self.a_k: list[float] = []
        self.L_k: list[float] = []
        self.vnorm: list[float] = []
        self.phi: list[float] = []
        self.dxy: list[float] = []
        self.dyy: list[float] = []
        self.gradevals: list[int] = []
        self.proxevals: list[int] = []
        self.ys: Optional[list[np.ndarray]] = [] if keep_vectors else None
        self.vs: Optional[list[np.ndarray]] = [] if keep_vectors else None

    def __len__(self) -> int:
        return len(self.k)

    @property
    def has_vectors(self) -> bool:
        return self.ys is not None and len(self.ys) == len(self.k)

    def append(self, k: int, a_k: float, L_k: float, vnorm: float, phi: float, dxy: float,
               dyy: float, gradevals: int, proxevals: int, y=None, v=None) -> None:
        """One completed iteration: the CSV columns, then the vectors if kept."""
        self.k.append(k)
        self.a_k.append(a_k)
        self.L_k.append(L_k)
        self.vnorm.append(vnorm)
        self.phi.append(phi)
        self.dxy.append(dxy)
        self.dyy.append(dyy)
        self.gradevals.append(gradevals)
        self.proxevals.append(proxevals)
        if self.ys is not None:
            self.ys.append(np.array(y, dtype=float))
            self.vs.append(np.array(v, dtype=float))

    def column(self, name: str) -> np.ndarray:
        if name not in self.COLUMNS:
            raise KeyError(name)
        return np.asarray(getattr(self, name))


@dataclass
class SolveResult:
    """Outcome of a run.  status == "converged" implies vnorm(v) <= epsilon."""

    status: str
    y: np.ndarray
    v: np.ndarray
    iterations: int
    trace: Optional[Trace]
    counters: EvalCounters

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def next_momentum(a_prev: float) -> float:
    """Positive root of a*(a - 1) = a_prev**2; strictly increasing from a_prev.

    The sequence starts at 1, so inputs below 1 are rejected.
    """
    if not a_prev >= 1.0:
        raise ValueError("momentum coefficient must be >= 1")
    return (1.0 + math.sqrt(1.0 + 4.0 * a_prev * a_prev)) / 2.0


def momentum_sequence(count: int) -> np.ndarray:
    """First `count`+1 momentum coefficients a_0..a_count (a_0 = 1)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty(count + 1)
    out[0] = 1.0
    cur = 1.0
    sqrt = math.sqrt
    for i in range(1, count + 1):
        # same root as next_momentum, written to keep this loop cheap
        cur = 0.5 + sqrt(0.25 + cur * cur)
        out[i] = cur
    return out


def _record_phi(cp: CountedProblem, y: np.ndarray, fy: float, k: int) -> float:
    hy = cp.h(y)
    if math.isinf(hy):
        raise OracleError(f"iteration {k}: iterate left dom h (h_value is +inf)")
    return fy + hy


def _iterate(p: CompositeProblem, cfg: SolverConfig, y0: np.ndarray, step: float,
             inv_step: float, track_curvature: bool, momentum: bool,
             project: bool) -> SolveResult:
    """The iteration loop behind all three solvers.

    This is the only place the method's arithmetic is written.  Per
    iteration: one prox step at x_k from the cached gradient, the gradient at
    y_k, the stationarity residual v_k, and the next point
    x_{k+1}: y_k extrapolated by momentum (then projected if `project`), or
    y_k itself without momentum, whose gradient is then already in hand.
    The test on ||v_k|| runs as soon as v_k exists, so a converged run spends
    no gradient at x_{k+1}.  With `track_curvature` the model is shifted by
    the curvature estimate, which is re-estimated from the linearization gap
    at x_{k+1}; without it the curvature terms are skipped, not multiplied by
    zero (that would flip signed zeros in v), and f(y_k) is evaluated only
    for the trace.  `inv_step` comes separately from `step` so that each
    solver keeps its own rounding of 1/step.
    """
    cp = CountedProblem(p)
    y0 = as_vector(y0, p.dim)
    if math.isinf(float(p.h_value(y0))):
        raise InvalidStartError("start point is outside dom h")
    L = p.lipschitz_L
    # positive estimates at or below this are rounding noise, so that convex
    # problems are detected as such
    clamp = 1e-12 * L

    trace = Trace(L, y0, cfg.trace_vectors) if cfg.record_trace else None
    y_prev = x = y = y0
    a_prev = a_cur = 1.0
    curvature = 0.0  # model shift; starts at zero and stays there on convex problems
    try:
        grad_x = cp.grad(x)
    except OracleError as e:
        raise OracleError(f"iteration 1: {e}") from e

    v = np.zeros(p.dim)
    status = "max_iters_reached"
    k = 0
    for k in range(1, cfg.max_iters + 1):
        try:
            model_grad = grad_x + curvature * (x - y_prev) if track_curvature else grad_x
            y = cp.prox(x - step * model_grad, step)
            grad_y = cp.grad(y)
            # v is in grad f(y) + subdiff h(y) by the prox optimality condition
            if track_curvature:
                v = grad_y - grad_x + curvature * (y_prev - x) + inv_step * (x - y)
            else:
                v = grad_y - grad_x + inv_step * (x - y)
            if momentum:
                a_cur = next_momentum(a_prev)
                x_next = y + ((a_prev - 1.0) / a_cur) * (y - y_prev)
                if project:
                    x_next = cp.project(x_next)
            else:
                x_next = y
            vn = float(np.linalg.norm(v))
            fy = cp.f(y) if trace is not None or track_curvature else math.nan
            if trace is not None:
                trace.append(k, a_cur, curvature, vn, _record_phi(cp, y, fy, k),
                             float(np.linalg.norm(y - x)), float(np.linalg.norm(y - y_prev)),
                             cp.counters.grad_evals, cp.counters.prox_evals, y, v)
            if vn <= cfg.epsilon:
                status = "converged"
                break
            grad_xn = cp.grad(x_next) if momentum else grad_y
            if track_curvature:
                # 2 * gap / ||y - x_{k+1}||^2, where gap is how far the
                # linearization of f at x_{k+1} overshoots f(y_k); positive
                # values witness nonconvexity between the two points
                d = y - x_next
                gd = float(grad_xn @ d)
                fxn = cp.f(x_next)
                gap = fxn + gd - fy
                d2 = float(d @ d)
                thr = 1e-14 * (1.0 + float(np.linalg.norm(y)))
                curvature = 0.0
                if d2 > thr * thr and abs(gap) > _CURVATURE_SIG_RTOL * (
                        1.0 + abs(fy) + abs(fxn) + abs(gd)):
                    est = 2.0 * gap / d2
                    if est > clamp:
                        curvature = est
        except OracleError as e:
            raise OracleError(f"iteration {k}: {e}") from e
        y_prev, x, a_prev, grad_x = y, x_next, a_cur, grad_xn

    return SolveResult(status, y, v, k, trace, cp.counters)


def run_mfista(p: CompositeProblem, cfg: SolverConfig, y0: np.ndarray) -> SolveResult:
    """Main solver: step 1/(4L), online curvature shift, projected extrapolation.

    Cost per full iteration: one prox, two gradients (at y_k and x_{k+1}),
    two f values.
    """
    L = p.lipschitz_L
    return _iterate(p, cfg, y0, 1.0 / (4.0 * L), 4.0 * L,
                    track_curvature=True, momentum=True, project=True)


def run_fista_baseline(p: CompositeProblem, cfg: SolverConfig, y0: np.ndarray,
                       step: float, project_extrapolation: bool = False) -> SolveResult:
    """Classic FISTA with the same momentum law and a configurable step.

    With step = 1/(4L) and project_extrapolation=True its iterates are
    exactly those of run_mfista on problems where the curvature estimate
    stays zero, which is the convex case.  The canonical step is 1/L.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    return _iterate(p, cfg, y0, step, 1.0 / step,
                    track_curvature=False, momentum=True, project=project_extrapolation)


def run_proxgrad_baseline(p: CompositeProblem, cfg: SolverConfig, y0: np.ndarray) -> SolveResult:
    """Non-accelerated proximal gradient with step 1/L, as a comparator.

    The reported residual L*(y_prev - y) + grad f(y) - grad f(y_prev) is a
    member of grad f(y) + subdiff h(y), same certificate as the others.
    """
    L = p.lipschitz_L
    return _iterate(p, cfg, y0, 1.0 / L, L,
                    track_curvature=False, momentum=False, project=False)
