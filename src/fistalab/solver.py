"""Accelerated proximal-gradient solvers for bounded composite problems.

`run_mfista` is the main method: a FISTA-shaped iteration that works when the
smooth part is nonconvex by (a) taking the conservative step 1/(4L), and
(b) tracking an online estimate of the negative-curvature modulus, which is
re-estimated from the last linearization gap each iteration and shifts the
model whenever it is positive.  On convex problems the estimate stays at
zero.  Termination is on the norm of an explicit stationarity residual v
with v in grad f(y) + subdiff h(y), so a converged result is a
near-stationarity certificate.  The method needs the Lipschitz constant L
and nothing else: no curvature modulus, no domain bound, no tuning knob.

Two baselines share the trace format and the one loop, `_iterate`: classic
FISTA is the main iteration with curvature tracking off, and proximal
gradient is that again with momentum off.  The README tabulates the oracle
calls each solver makes per iteration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeProblem, CountedProblem, EvalCounters, OracleError, _norm, as_vector

__all__ = [
    "InvalidStartError",
    "SolverConfig",
    "Trace",
    "SolveResult",
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
        if not 0 < self.epsilon < math.inf:  # NaN fails too; inf stops at any point
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        # the loop's range() takes only integers; a bool is one, but not a count
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
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
    COLUMN_TYPES = (int, float, float, float, float, float, float, int, int)

    def __init__(self, lipschitz_L: float, y0: Optional[np.ndarray] = None,
                 keep_vectors: bool = False):
        self.lipschitz_L = float(lipschitz_L)
        self.y0 = None if y0 is None else np.array(y0, dtype=float)
        for name in self.COLUMNS:
            setattr(self, name, [])
        self.ys: Optional[list[np.ndarray]] = [] if keep_vectors else None
        self.vs: Optional[list[np.ndarray]] = [] if keep_vectors else None

    def __len__(self) -> int:
        return len(self.k)

    @property
    def has_vectors(self) -> bool:
        """True when the trace holds the start point and one iterate and
        residual vector per row."""
        return self.y0 is not None and self.ys is not None and len(self.ys) == len(self.k)

    def _fill_columns(self, rows) -> None:
        """Set the empty scalar columns from one tuple per row, in COLUMNS order."""
        for name, col in zip(self.COLUMNS, zip(*rows)):
            setattr(self, name, list(col))

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


def momentum_sequence(count: int) -> np.ndarray:
    """First `count`+1 momentum coefficients a_0..a_count: a_0 = 1, and a_k is
    the positive root of a*(a - 1) = a_{k-1}**2, which `_iterate` writes out
    (tests/test_loop_reference.py checks the a_k it traces bit for bit)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty(count + 1)
    out[0] = 1.0
    cur = 1.0
    sqrt = math.sqrt
    for i in range(1, count + 1):
        cur = 0.5 + sqrt(0.25 + cur * cur)
        out[i] = cur
    return out


def _iterate(p: CompositeProblem, cfg: SolverConfig, y0: np.ndarray, step: float,
             inv_step: float, track_curvature: bool, momentum: bool,
             project: bool) -> SolveResult:
    """The iteration loop behind all three solvers, and the only place the
    method's arithmetic is written.

    Per iteration: a prox step at x_k from the gradient in hand (which
    also returns h(y_k), so that every run refuses a y_k outside dom h),
    the gradient at y_k, the residual v_k and the stopping test, then
    x_{k+1} (y_k extrapolated with `momentum` and, past the stopping test,
    projected with `project`, else y_k itself) and its gradient, which is
    derived when f is declared quadratic and x_{k+1} is not projected.
    With `track_curvature` the shift is re-estimated from the linearization
    gap at x_{k+1}.  `inv_step` comes separately from `step` so that each
    solver keeps its own rounding of 1/step.
    """
    cp = CountedProblem(p)
    counters = cp.counters
    y0 = as_vector(y0, p.dim)
    L = p.lipschitz_L
    # positive estimates at or below this are rounding noise, so that convex
    # problems are detected as such
    clamp = 1e-12 * L

    trace = Trace(L, y0, cfg.trace_vectors) if cfg.record_trace else None
    rows = []  # the trace's scalar columns, one tuple per iteration
    y_prev = x = y = y0
    a_prev = a_cur = 1.0
    curvature = 0.0  # model shift; starts at zero and stays there on convex problems
    try:
        if math.isinf(cp.h(y0)):
            raise InvalidStartError("start point is outside dom h")
        grad_x = cp.grad(x)
    except OracleError as e:
        raise OracleError(f"iteration 1: {e}") from e
    project = project and momentum and p.omega_project is not None
    # an unprojected x_{k+1} is an affine combination of y_k and y_{k-1}
    derive = p.smooth_is_quadratic and momentum and not project
    grad_yprev = grad_x  # grad f(y_{k-1}); y_0 is the start point x_1

    # the derived-gradient estimate reads f(y_k) only when its gap is positive
    need_f = trace is not None or (track_curvature and not derive)
    sqrt = math.sqrt
    v = np.zeros(p.dim)
    status = "max_iters_reached"
    k = 0
    for k in range(1, cfg.max_iters + 1):
        try:
            # at a zero estimate the shift's terms are skipped, not added as
            # 0.0 * w, which could turn a -0.0 entry into +0.0: the iterates
            # stay those of curvature-free FISTA bit for bit
            model_grad = grad_x + curvature * (x - y_prev) if curvature else grad_x
            # h(y_k) from the call that produced y_k; v certifies nothing outside dom h
            y, hy = cp.prox_value(x - step * model_grad, step)
            if math.isinf(hy):
                raise OracleError("iterate left dom h (h_value is +inf)")
            if need_f:
                fy, grad_y = cp.value_grad(y)
            else:
                fy, grad_y = math.nan, cp.grad(y)
            # x - y serves v and, as the norm ignores its sign, dxy
            dx = x - y
            # v is in grad f(y) + subdiff h(y) by the prox optimality condition
            if curvature:
                v = grad_y - grad_x + curvature * (y_prev - x) + inv_step * dx
            else:
                v = grad_y - grad_x + inv_step * dx
            if momentum:
                dy = y - y_prev
                # the root of momentum_sequence, written out
                a_cur = 0.5 + sqrt(0.25 + a_prev * a_prev)
                beta = (a_prev - 1.0) / a_cur
                x_next = y + beta * dy
            else:
                x_next = y
            # v, dx and dy are fresh contiguous arrays, whose norm is the
            # root of one dot product, as _norm and np.linalg.norm take it
            vn = sqrt(v.dot(v))
            if trace is not None:
                dxn = sqrt(dx.dot(dx))
                # without momentum x_k is y_{k-1}, so y_k - y_{k-1} is -(x_k - y_k)
                # entry for entry and has the same norm bit for bit
                rows.append((k, a_cur, curvature, vn, fy + hy, dxn,
                             sqrt(dy.dot(dy)) if momentum else dxn,
                             counters.grad_evals, counters.prox_evals))
                if trace.ys is not None:
                    trace.ys.append(y.copy())
                    trace.vs.append(v.copy())
            if vn <= cfg.epsilon:
                status = "converged"
                break
            if project:
                x_next = cp.project(x_next)
            if derive:
                dgrad = beta * (grad_y - grad_yprev)
                grad_xn = grad_y + dgrad
                # core._all_finite, written out
                if not (math.isfinite(grad_xn.dot(grad_xn)) or np.isfinite(grad_xn).all()):
                    raise OracleError("derived gradient at x_{k+1} is not finite")
            elif track_curvature:
                fxn, grad_xn = cp.value_grad(x_next)
            else:
                grad_xn = cp.grad(x_next) if momentum else grad_y
            if track_curvature:
                # 2 * gap / ||y - x_{k+1}||^2, where gap is how far the
                # linearization of f at x_{k+1} overshoots f(y_k); positive
                # values witness nonconvexity between the two points
                d = y - x_next
                if derive:
                    # exact for quadratic f: gap = d'(grad f(x_{k+1}) - grad f(y_k)) / 2
                    gap = 0.5 * float(d.dot(dgrad))
                else:
                    gd = float(grad_xn.dot(d))
                    gap = fxn + gd - fy
                curvature = 0.0
                # a gap that is not positive (or NaN) gives an estimate that is
                # not above clamp, so the rest is computed only for a positive one
                if gap > 0.0:
                    if derive:
                        if not need_f:
                            fy = cp.f(y)
                        # |f(y_k)| + |gd| bounds |f(x_{k+1})| up to |gap|
                        gd = float(grad_xn.dot(d))
                        fxn_abs = abs(fy) + abs(gd)
                    else:
                        fxn_abs = abs(fxn)
                    d2 = float(d.dot(d))
                    thr = 1e-14 * (1.0 + _norm(y))
                    if d2 > thr * thr and gap > _CURVATURE_SIG_RTOL * (
                            1.0 + abs(fy) + fxn_abs + abs(gd)):
                        est = 2.0 * gap / d2
                        if est > clamp:
                            curvature = est
        except OracleError as e:
            raise OracleError(f"iteration {k}: {e}") from e
        y_prev, x, a_prev, grad_x, grad_yprev = y, x_next, a_cur, grad_xn, grad_y

    if trace is not None:
        trace._fill_columns(rows)
    return SolveResult(status, y, v, k, trace, counters)


def run_mfista(p: CompositeProblem, cfg: SolverConfig, y0: np.ndarray) -> SolveResult:
    """Main solver: step 1/(4L), online curvature shift, projected extrapolation."""
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
    # an infinite step would fail later, inside the prox, as a non-finite point
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and positive, got {step!r}")
    return _iterate(p, cfg, y0, step, 1.0 / step,
                    track_curvature=False, momentum=True, project=project_extrapolation)


def run_proxgrad_baseline(p: CompositeProblem, cfg: SolverConfig, y0: np.ndarray) -> SolveResult:
    """Non-accelerated proximal gradient with step 1/L, as a comparator."""
    L = p.lipschitz_L
    return _iterate(p, cfg, y0, 1.0 / L, L,
                    track_curvature=False, momentum=False, project=False)
