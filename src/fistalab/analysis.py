"""Post-hoc verification of solver traces and empirical rate estimation.

The residual-aggregation check is the workhorse: the inequality it verifies
is an algebraic consequence of how the residual is assembled, so any failure
on a genuine trace means an implementation bug, not an unlucky instance.
The energy-monotonicity and function-value checks apply to convex runs with
a certified optimum; rate fitting is a plain least-squares slope on the
log-log curve of the best residual so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import OracleCertificate
from .solver import Trace

__all__ = [
    "TraceCheckReport",
    "RateFit",
    "best_residual_curve",
    "iterates_settled",
    "observed_convex",
    "lyapunov_sequence",
    "check_lyapunov_monotone",
    "check_residual_bound",
    "check_function_value_bound",
    "check_scaled_trend",
    "fit_rate",
]

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "N/A"


@dataclass
class TraceCheckReport:
    name: str
    status: str
    worst: float = math.nan
    at_k: int = -1
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    def format_line(self) -> str:
        line = f"CHECK {self.name} {self.status} worst={self.worst!r} at_k={self.at_k}"
        return f"{line} -- {self.note}" if self.note else line


@dataclass
class RateFit:
    """Least-squares fit of log(best residual) against log(iteration count)."""

    n_grid: np.ndarray
    best_residual: np.ndarray
    slope: float
    intercept: float
    r_squared: float


def best_residual_curve(vnorm: np.ndarray) -> np.ndarray:
    """Running minimum of the residual norms; nonincreasing by construction."""
    return np.minimum.accumulate(np.asarray(vnorm, dtype=float))


def iterates_settled(trace: Trace) -> bool:
    """True when each of the last 100 steps moved less than 1e-10."""
    dyy = trace.column("dyy")
    return dyy.size >= 100 and bool(np.all(dyy[-100:] < 1e-10))


def observed_convex(trace: Trace) -> bool:
    """True when the curvature shift never switched on: L_k == 0 on every row."""
    return bool(np.all(trace.column("L_k") == 0.0))


def _momentum_before(trace: Trace) -> np.ndarray:
    """Per row, the coefficient in force when its iteration started (1 at the first)."""
    return np.concatenate(([1.0], trace.column("a_k")))[:-1]


def lyapunov_sequence(trace: Trace, certificate: OracleCertificate) -> np.ndarray:
    """Energies E_k = a_{k-1}^2 (phi_k - phi*) + 2L || a_{k-1}(y_k - y_{k-1}) + y_{k-1} - y* ||^2,
    one per trace row (k = 1, 2, ...).

    Needs a full-vector trace and a certificate of the iterates' length;
    raises ValueError otherwise.
    """
    if not trace.has_vectors:
        raise ValueError("energy sequence needs a full-vector trace")
    L = trace.lipschitz_L
    y_star = _optimum(trace, certificate)
    energies = np.empty(len(trace))
    for i, a in enumerate(_momentum_before(trace)):
        y_prev = trace.y0 if i == 0 else trace.ys[i - 1]
        energies[i] = _energy(a, trace.phi[i] - certificate.phi_star, trace.ys[i], y_prev,
                              y_star, L)
    return energies


def _optimum(trace: Trace, certificate: OracleCertificate) -> np.ndarray:
    """The certificate's y_star, refused unless it has the length of the trace's iterates."""
    y_star = np.asarray(certificate.y_star, dtype=float)
    if y_star.shape != trace.y0.shape:
        raise ValueError(f"certificate y_star has {y_star.size} entries, "
                         f"the trace's iterates have {trace.y0.size}")
    return y_star


def _energy(a, phi_gap: float, y_k: np.ndarray, y_prev: np.ndarray, y_star: np.ndarray,
            L: float) -> float:
    """a^2 phi_gap + 2L || a(y_k - y_prev) + y_prev - y* ||^2, one term of lyapunov_sequence."""
    drift = a * (y_k - y_prev) + y_prev - y_star
    return a * a * phi_gap + 2.0 * L * float(drift @ drift)


def check_lyapunov_monotone(trace: Trace, certificate: OracleCertificate) -> TraceCheckReport:
    """Energy sequence must be nonincreasing on convex runs.

    Applies only to a full-vector trace of a convex run (curvature column
    all zero); otherwise the check reports not-applicable.  Refuses a
    certificate of another length than the iterates.  Tolerance is
    1e-8 * (1 + E_2) absolute per step.
    """
    name = "lyapunov_monotone"
    if math.isnan(trace.lipschitz_L):  # read_trace_csv's default
        raise ValueError("L must be finite and positive, got nan: the trace carries no "
                         "Lipschitz constant (pass lipschitz_L to read_trace_csv)")
    _check_lipschitz(trace.lipschitz_L)
    if not trace.has_vectors:
        return TraceCheckReport(name, NOT_APPLICABLE, note="needs a full-vector trace")
    _optimum(trace, certificate)
    if len(trace) == 0:
        return TraceCheckReport(name, NOT_APPLICABLE, note="empty trace")
    if not observed_convex(trace):
        return TraceCheckReport(name, NOT_APPLICABLE, note="nonconvex run (L_k > 0 observed)")
    if len(trace) == 1:
        return TraceCheckReport(name, PASS, 0.0, trace.k[0], note="single row, vacuous")
    energies = lyapunov_sequence(trace, certificate)
    tol = 1e-8 * (1.0 + abs(energies[1]))
    rises = np.diff(energies)
    worst_idx = int(np.argmax(rises))
    worst = float(rises[worst_idx])
    status = PASS if worst <= tol else FAIL
    return TraceCheckReport(name, status, worst, trace.k[worst_idx + 1])


def _check_lipschitz(L: float) -> None:
    # an infinite L makes either bound hold on any trace
    if not 0 < L < math.inf:
        raise ValueError(f"L must be finite and positive, got {L!r}")


def check_residual_bound(trace: Trace, L: float) -> TraceCheckReport:
    """Aggregated residual bound; holds on every genuine trace.

    For every n: min_{k<=n} vnorm_k <= 2 sqrt(L) * sqrt(min_{2<=k<=n}
    (36 L dxy_k^2 + L_k dyy_k^2)) + 1e-9.  A failure localizes the first n
    where the gap is worst.
    """
    name = "residual_bound"
    _check_lipschitz(L)
    if len(trace) < 2:
        return TraceCheckReport(name, NOT_APPLICABLE, note="trace shorter than 2")
    vnorm = trace.column("vnorm")
    dxy = trace.column("dxy")
    dyy = trace.column("dyy")
    L_k = trace.column("L_k")
    lhs = best_residual_curve(vnorm)[1:]
    inner = 36.0 * L * dxy[1:] ** 2 + L_k[1:] * dyy[1:] ** 2
    rhs = 2.0 * math.sqrt(L) * np.sqrt(np.minimum.accumulate(inner)) + 1e-9
    gap = lhs - rhs
    worst_idx = int(np.argmax(gap))
    worst = float(gap[worst_idx])
    status = PASS if worst <= 0.0 else FAIL
    return TraceCheckReport(name, status, worst, trace.k[worst_idx + 1])


def check_function_value_bound(trace: Trace, certificate: OracleCertificate,
                               L: float) -> TraceCheckReport:
    """Convex-case value bound: a_{n-1}^2 (phi_n - phi*) never exceeds the
    run's starting constant phi_1 - phi* + 2L ||y_1 - y*||^2 (tol 1e-8).
    Applies, and refuses a certificate, as check_lyapunov_monotone does."""
    name = "function_value_bound"
    _check_lipschitz(L)
    if not trace.has_vectors:
        return TraceCheckReport(name, NOT_APPLICABLE, note="needs a full-vector trace")
    y_star = _optimum(trace, certificate)
    if len(trace) < 1:
        return TraceCheckReport(name, NOT_APPLICABLE, note="empty trace")
    if not observed_convex(trace):
        return TraceCheckReport(name, NOT_APPLICABLE, note="nonconvex run (L_k > 0 observed)")
    constant = _energy(1.0, trace.phi[0] - certificate.phi_star, trace.ys[0], trace.y0,
                       y_star, L)
    phis = trace.column("phi")
    lhs = _momentum_before(trace) ** 2 * (phis - certificate.phi_star)
    gap = lhs - (constant + 1e-8)
    worst_idx = int(np.argmax(gap))
    worst = float(lhs[worst_idx] - constant)
    status = PASS if gap[worst_idx] <= 0.0 else FAIL
    return TraceCheckReport(name, status, worst, trace.k[worst_idx])


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept: (slope, intercept, r^2)."""
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_res = float(np.sum((y - design @ coef) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r_squared


def fit_rate(trace: Trace, n_grid) -> RateFit:
    """Slope of the best-residual curve on the given iteration grid.

    The grid must be increasing, lie within the trace, and carry at least 4
    points spanning 1.5 decades.  Grid points at or past the first exact-zero
    residual are dropped (at least 4 must survive).  No pass/fail judgement
    here; callers compare the slope to whatever rate they expect.
    """
    vnorm = trace.column("vnorm")
    grid = np.asarray(n_grid, dtype=int)
    if grid.size < 4:
        raise ValueError("need at least 4 grid points")
    if np.any(np.diff(grid) <= 0) or grid[0] < 1:
        raise ValueError("grid must be strictly increasing and >= 1")
    if grid[-1] > vnorm.size:
        raise ValueError(f"grid extends past the trace ({grid[-1]} > {vnorm.size})")
    if math.log10(grid[-1] / grid[0]) < 1.5:
        raise ValueError("grid must span at least 1.5 decades")
    best = best_residual_curve(vnorm)
    residuals = best[grid - 1]
    alive = residuals > 0.0
    if not np.all(alive):
        cut = int(np.argmin(alive))  # first zero; running min stays zero after
        grid, residuals = grid[:cut], residuals[:cut]
    if grid.size < 4:
        raise ValueError("fewer than 4 grid points before the residual hit zero")
    slope, intercept, r_squared = _line_fit(np.log(grid.astype(float)), np.log(residuals))
    return RateFit(grid, residuals, slope, intercept, r_squared)


def check_scaled_trend(trace: Trace, exponent: float, n_grid) -> TraceCheckReport:
    """Advisory decay-trend check: n^exponent * best_residual(n) should not
    drift upward over the last half of the grid.

    The best-residual curve is a running minimum, so it is flat between
    improvements; pointwise ratios on a log grid would flag those plateaus
    spuriously.  The check therefore fits a line to the scaled curve over
    the last half of the grid and compares the fitted net change against
    1.1, a 10% slack.
    """
    name = f"scaled_trend_{exponent:g}"
    vnorm = trace.column("vnorm")
    grid = np.asarray(n_grid, dtype=int)
    if grid.size < 8 or grid[-1] > vnorm.size:
        return TraceCheckReport(name, NOT_APPLICABLE, note="grid too short for a trend")
    best = best_residual_curve(vnorm)
    scaled = grid.astype(float) ** exponent * best[grid - 1]
    half = grid.size // 2
    if np.any(scaled[half:] <= 0.0):
        return TraceCheckReport(name, NOT_APPLICABLE, note="residual hit zero in the window")
    x = np.log(grid[half:].astype(float))
    slope = _line_fit(x, np.log(scaled[half:]))[0]
    net_change = math.exp(slope * (x[-1] - x[0]))
    status = PASS if net_change <= 1.1 else FAIL
    return TraceCheckReport(name, status, net_change, int(grid[-1]))
