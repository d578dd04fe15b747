"""Independent output checks.

A certificate (y, v) is accepted when, by the benchmark's own arithmetic
and not the library's `stationarity_residual`:

1. the run reports status "converged";
2. ||v|| <= epsilon;
3. y lies in dom h (inside the box, or inside the ball);
4. w = v - grad f(y) lies in the subdifferential of h at y, coordinate by
   coordinate, within ROUND_TOL * scale, where scale bounds the magnitude of
   the terms v is assembled from (gradients and 4L * |iterate|):
   - box: w_i = 0 strictly inside, w_i <= 0 at a lower bound and w_i >= 0 at
     an upper bound (the normal cone's sign test);
   - weight * ||.||_1 inside a ball that does not bind: w_i = weight*sign(y_i)
     where y_i != 0 and |w_i| <= weight where y_i == 0.
"""

from __future__ import annotations

import numpy as np

# relative rounding allowance for the membership test; v is assembled from a
# handful of O(scale) terms, so exact-arithmetic membership leaves an error of
# a few ulps of the scale
ROUND_TOL = 1e-11

GATES = ("residual_bound", "lyapunov_monotone", "function_value_bound")


def smooth_grad(inst, y: np.ndarray) -> np.ndarray:
    if inst.kind == "lasso-ball":
        return inst.A.T @ (inst.A @ y - inst.target)
    return inst.Q @ y + inst.b


def certificate_errors(inst, status: str, y: np.ndarray, v: np.ndarray,
                       epsilon: float) -> list[str]:
    """Empty when (y, v) is an epsilon-stationarity certificate for `inst`."""
    errors = []
    if status != "converged":
        errors.append(f"status {status}")
    vn = float(np.sqrt(np.sum(v * v)))
    if not vn <= epsilon:
        errors.append(f"||v|| = {vn!r} > eps = {epsilon!r}")
    g = smooth_grad(inst, y)
    w = v - g
    scale = 1.0 + float(np.max(np.abs(g))) + 4.0 * inst.lipschitz_L * float(np.max(np.abs(y)))
    tol = ROUND_TOL * scale
    if inst.kind == "lasso-ball":
        if not float(np.sqrt(np.sum(y * y))) < inst.radius:
            errors.append("y is not strictly inside the ball")
        nz = y != 0.0
        bad = int(np.sum(np.abs(w[nz] - inst.weight * np.sign(y[nz])) > tol))
        bad += int(np.sum(np.abs(w[~nz]) > inst.weight + tol))
    else:
        lo, hi = inst.lower, inst.upper
        if np.any(y < lo) or np.any(y > hi):
            errors.append("y is outside the box")
        at_lo, at_hi = y == lo, y == hi
        inside = ~(at_lo | at_hi)
        bad = int(np.sum(np.abs(w[inside]) > tol))
        bad += int(np.sum(w[at_lo] > tol)) + int(np.sum(w[at_hi] < -tol))
    if bad:
        errors.append(f"v - grad f(y) leaves the subdifferential in {bad} coordinates")
    return errors


def parse_check_lines(text: str) -> dict[str, str]:
    """{check name: status} from `CHECK <name> <STATUS> ...` lines."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "CHECK":
            out[parts[1]] = parts[2]
    return out


def gate_and_advisory_fails(statuses: dict[str, str]) -> tuple[int, int]:
    """Gate FAILs and advisory (scaled_trend_*) FAILs among parsed CHECK lines."""
    gate = sum(1 for name, st in statuses.items() if name in GATES and st == "FAIL")
    advisory = sum(1 for name, st in statuses.items()
                   if name.startswith("scaled_trend_") and st == "FAIL")
    return gate, advisory
