"""The composite-problem abstraction and its counted, validated per-run view.

A problem bundles oracles for the smooth part f and the convex part h with
the gradient's Lipschitz constant L, the one constant the solvers use.  All
vectors are plain 1-D float64 numpy arrays; oracles are user-supplied
callables and are never differentiated numerically.  The solvers reach the
oracles only through a CountedProblem, which counts and validates every
call.
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


# the descriptor of a native float64 array; the hot receivers test `dtype is
# _F64`, and any other descriptor, equal to it or not, takes np.asarray's path
_F64 = np.dtype(np.float64)


class OracleError(RuntimeError):
    """A user-supplied oracle returned something unusable (wrong shape, NaN, ...)."""


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() for a 1-D float64 array, in one dot product.

    Exact: a NaN or infinite entry makes a.dot(a) non-finite, so only a
    vector whose squares overflow (an entry above about 1.3e154) falls
    through to the full test, which then accepts it.  numpy reports that
    overflow as for any dot product: a RuntimeWarning reaches the caller,
    and under `python -W error` it raises.
    """
    return math.isfinite(a.dot(a)) or bool(np.isfinite(a).all())


def _norm(d: np.ndarray) -> float:
    """np.linalg.norm(d) for a 1-D float64 array, without numpy's Python-level dispatch.

    Same arithmetic: the square root of d.dot(d), after making a strided view
    contiguous as norm does (BLAS sums a strided dot product in another order).
    It is for vectors the caller did not build, which may be such views; a
    fresh ufunc result is contiguous and needs only the root of its dot.
    """
    if not d.flags.c_contiguous:
        d = d.ravel("K")
    return math.sqrt(d.dot(d))


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce `x` to a finite 1-D float64 array (finite as _all_finite
    tests it), optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not _all_finite(v):
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
    Lipschitz; None means the whole space (identity).  Oracles must be
    defined everywhere; only their restriction to that set matters.  Every
    vector they return must be finite, or the run stops with an OracleError
    naming its iteration.

    `smooth_value_grad(y)`, when given, returns `(smooth_value(y),
    smooth_grad(y))` from one shared computation, the same numbers as the
    two separate calls; the solvers use it wherever they need both at one
    point.  `h_prox_value(z, t)`, when given, likewise returns `(h_prox(z, t),
    h_value(h_prox(z, t)))` bit for bit from one computation; every run
    uses it for the prox step.  None means separate calls: the gradient then
    the value, or the prox then h, the first result checked before the
    second call.  A fused field is not derived from the fields it fuses: a
    `dataclasses.replace` that swaps `smooth_value` or `smooth_grad` must
    replace `smooth_value_grad` too or set it to None, and one that swaps
    `h_prox` or `h_value` must do the same with `h_prox_value`.

    `smooth_is_quadratic` declares that smooth_grad is affine, that is, f is
    `0.5 y'Qy + b'y` for some symmetric Q; set it only then.  The
    accelerated solvers then derive the gradient at an extrapolated point
    they do not project from the two gradients they already hold, and take
    the curvature estimate's gap from the quadratic identity.  A derived
    gradient that is not finite is an OracleError.  A wrong declaration
    costs the accuracy of that step and of the curvature estimate, which can
    slow or stall a run, never the certificate: the residual v is built
    around a fresh oracle gradient at y.

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
    smooth_value_grad: Optional[Callable[[np.ndarray], tuple[float, np.ndarray]]] = None
    smooth_is_quadratic: bool = False
    h_prox_value: Optional[Callable[[np.ndarray, float], tuple[np.ndarray, float]]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0 < self.lipschitz_L < math.inf:
            raise ValueError(f"lipschitz_L must be finite and positive, got {self.lipschitz_L!r}")


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
        # fixed for the run, so chosen once: the fused oracles or the separate calls
        self._shape = (problem.dim,)
        self._value_grad = problem.smooth_value_grad or self._grad_then_value
        self._prox_value = problem.h_prox_value or self._prox_then_h

    def f(self, y: np.ndarray) -> float:
        self.counters.f_evals += 1
        val = float(self.problem.smooth_value(y))
        if not math.isfinite(val):
            raise OracleError(f"smooth_value returned non-finite {val!r}")
        return val

    def grad(self, y: np.ndarray) -> np.ndarray:
        self.counters.grad_evals += 1
        return self._checked_vector(self.problem.smooth_grad(y), "smooth_grad", "gradient")

    def value_grad(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(y), grad f(y)), counted as one value plus one gradient."""
        self.counters.grad_evals += 1
        self.counters.f_evals += 1
        val, g = self._value_grad(y)
        # every traced iteration lands here, so the tests of f and
        # _checked_vector are written out rather than called
        val = float(val)
        if not math.isfinite(val):
            raise OracleError(f"smooth_value returned non-finite {val!r}")
        if type(g) is not np.ndarray or g.dtype is not _F64:
            g = np.asarray(g, dtype=float)
        if g.shape != self._shape or not (math.isfinite(g.dot(g)) or np.isfinite(g).all()):
            raise OracleError("smooth_grad returned a malformed gradient")
        return val, g

    def _grad_then_value(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """smooth_value_grad from the separate oracles; no value after a malformed gradient."""
        g = self._checked_vector(self.problem.smooth_grad(y), "smooth_grad", "gradient")
        return self.problem.smooth_value(y), g

    def _checked_vector(self, out, oracle: str, what: str) -> np.ndarray:
        """`out` as a finite float array of shape (dim,), else an OracleError naming `oracle`."""
        # a native float64 ndarray is what np.asarray would return unchanged
        if type(out) is not np.ndarray or out.dtype is not _F64:
            out = np.asarray(out, dtype=float)
        if out.shape != self._shape or not _all_finite(out):
            raise OracleError(f"{oracle} returned a malformed {what}")
        return out

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
        return self._checked_vector(self.problem.h_prox(z, t), "h_prox", "point")

    def prox_value(self, z: np.ndarray, t: float) -> tuple[np.ndarray, float]:
        """(prox(z, t), h at that point), counted as one prox."""
        if not t > 0:
            raise ValueError("prox step t must be positive")
        self.counters.prox_evals += 1
        y, val = self._prox_value(z, t)
        # the tests of _checked_vector and h, written out as in value_grad
        if type(y) is not np.ndarray or y.dtype is not _F64:
            y = np.asarray(y, dtype=float)
        if y.shape != self._shape or not (math.isfinite(y.dot(y)) or np.isfinite(y).all()):
            raise OracleError("h_prox returned a malformed point")
        val = float(val)
        if math.isnan(val):
            raise OracleError("h_value returned NaN")
        return y, val

    def _prox_then_h(self, z: np.ndarray, t: float) -> tuple[np.ndarray, float]:
        """h_prox_value from the separate oracles; no h_value of a malformed point."""
        y = self._checked_vector(self.problem.h_prox(z, t), "h_prox", "point")
        return y, self.problem.h_value(y)

    def project(self, x: np.ndarray) -> np.ndarray:
        if self.problem.omega_project is None:
            return x
        self.counters.proj_evals += 1
        return self._checked_vector(self.problem.omega_project(x), "omega_project", "point")
