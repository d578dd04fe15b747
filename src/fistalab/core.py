"""The composite-problem abstraction and its counted, validated per-run view.

A problem is a pair of oracles for the smooth part (value + gradient), a
value/prox pair for the convex possibly-nonsmooth part, an optional domain
projection, and the gradient's Lipschitz constant L, the one constant the
solvers use.  All vectors are plain 1-D float64 numpy arrays; oracles are
user-supplied callables and are never differentiated numerically.  The
solvers reach the oracles only through a CountedProblem, which counts and
validates every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "OracleError",
    "as_vector",
    "CompositeProblem",
    "EvalCounters",
    "CountedProblem",
]


class OracleError(RuntimeError):
    """A user-supplied oracle returned something unusable (wrong shape, NaN, ...)."""


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce `x` to a finite 1-D float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


@dataclass
class CompositeProblem:
    """A composite instance: minimize smooth_value(y) + h_value(y).

    `smooth_value`/`smooth_grad` evaluate the smooth part (possibly nonconvex,
    gradient Lipschitz with constant `lipschitz_L` on the domain).  `h_value`
    returns +inf outside dom h; `h_prox(z, t)` returns
    argmin_y { h(y) + ||y - z||^2 / (2 t) } and must land in dom h.
    `omega_project` is the projection onto the set where the gradient is
    Lipschitz; None means the whole space (identity).  Oracles must be defined
    everywhere; only their restriction to that set matters.

    All oracles must be safe for concurrent read-only use; counting state
    lives in per-run CountedProblem wrappers, never here.
    """

    dim: int
    smooth_value: Callable[[np.ndarray], float]
    smooth_grad: Callable[[np.ndarray], np.ndarray]
    h_value: Callable[[np.ndarray], float]
    h_prox: Callable[[np.ndarray, float], np.ndarray]
    lipschitz_L: float
    omega_project: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.lipschitz_L > 0:
            raise ValueError("lipschitz_L must be positive")


@dataclass
class EvalCounters:
    """Cumulative oracle-call counts for one run; nondecreasing by construction."""

    grad_evals: int = 0
    prox_evals: int = 0
    proj_evals: int = 0
    f_evals: int = 0


class CountedProblem:
    """Per-run view of a CompositeProblem that counts and validates oracle calls.

    Each solver run owns a fresh instance, so concurrent runs over a shared
    problem never contend on counters.
    """

    def __init__(self, problem: CompositeProblem):
        self.problem = problem
        self.counters = EvalCounters()

    def f(self, y: np.ndarray) -> float:
        self.counters.f_evals += 1
        val = float(self.problem.smooth_value(y))
        if not math.isfinite(val):
            raise OracleError(f"smooth_value returned non-finite {val!r}")
        return val

    def grad(self, y: np.ndarray) -> np.ndarray:
        self.counters.grad_evals += 1
        g = np.asarray(self.problem.smooth_grad(y), dtype=float)
        if g.shape != (self.problem.dim,) or not np.all(np.isfinite(g)):
            raise OracleError("smooth_grad returned a malformed gradient")
        return g

    def h(self, y: np.ndarray) -> float:
        # extended-real: +inf allowed, NaN is not
        val = float(self.problem.h_value(y))
        if math.isnan(val):
            raise OracleError("h_value returned NaN")
        return val

    def prox(self, z: np.ndarray, t: float) -> np.ndarray:
        if not t > 0:
            raise ValueError("prox step t must be positive")
        self.counters.prox_evals += 1
        y = np.asarray(self.problem.h_prox(z, t), dtype=float)
        if y.shape != (self.problem.dim,) or not np.all(np.isfinite(y)):
            raise OracleError("h_prox returned a malformed point")
        return y

    def project(self, x: np.ndarray) -> np.ndarray:
        if self.problem.omega_project is None:
            return x
        self.counters.proj_evals += 1
        px = np.asarray(self.problem.omega_project(x), dtype=float)
        if px.shape != (self.problem.dim,) or not np.all(np.isfinite(px)):
            raise OracleError("omega_project returned a malformed point")
        return px
