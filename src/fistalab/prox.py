"""Projection and proximal operators for the bounded convex sets the test
problems use: boxes, Euclidean balls, and l1 over a ball.

Everything here is a pure function of its inputs.  The l1-plus-ball prox uses
the soft-threshold-then-project composition, which is exact only for balls
centered at the origin; other centers are rejected rather than approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_vector

__all__ = [
    "UnsupportedConfigError",
    "BoxSet",
    "BallSet",
    "L1OnBall",
    "soft_threshold",
    "project_box",
    "project_ball",
    "prox_box_indicator",
    "prox_l1_on_ball",
]

# membership slack for indicator evaluation; projections land on boundaries
# only up to rounding
_FEAS_RTOL = 1e-9
_FLOAT64 = np.dtype(float)


class UnsupportedConfigError(ValueError):
    """Operator configuration for which no exact formula is implemented."""


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box [lower, upper], finite and nonempty."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower)
        hi = as_vector(self.upper, lo.size)
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper coordinatewise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # the membership band is fixed with the bounds, so compute it once
        slack = _FEAS_RTOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        object.__setattr__(self, "_band_lower", lo - slack)
        object.__setattr__(self, "_band_upper", hi + slack)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, z: np.ndarray) -> bool:
        # count_nonzero costs less per call than .all(); the size is the
        # comparison's, not z's, so a z that broadcasts is judged entry by
        # entry against both bounds; a NaN coordinate fails both tests
        b = z >= self._band_lower
        if np.count_nonzero(b) != b.size:
            return False
        b = z <= self._band_upper
        return bool(np.count_nonzero(b) == b.size)

    def h_value(self, z: np.ndarray) -> float:
        return 0.0 if self.contains(z) else math.inf


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of positive radius.

    A ball whose center entries are all zeros of either sign is at the
    origin.  Its membership test and projection of a contiguous float64
    vector then take the norm of the point itself and skip the subtraction:
    z - (+-0) has the same squares as z, so the result is the same bit for
    bit.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        # fixed with the center, so decided once
        object.__setattr__(self, "_at_origin", not self.center.any())

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, z: np.ndarray) -> bool:
        # a list, another dtype, a shape that broadcasts or a strided view
        # (BLAS sums its squares in another order) keeps the subtraction
        if (self._at_origin and type(z) is np.ndarray and z.dtype is _FLOAT64
                and z.shape == self.center.shape and z.flags.c_contiguous):
            d = z
        else:
            d = z - self.center
        return math.sqrt(d.dot(d)) <= self.radius * (1.0 + _FEAS_RTOL)

    def h_value(self, z: np.ndarray) -> float:
        return 0.0 if self.contains(z) else math.inf


@dataclass(frozen=True)
class L1OnBall:
    """h(y) = weight * ||y||_1 plus the indicator of `ball`.

    The ball keeps dom h bounded; a bare l1 penalty has unbounded domain.
    """

    weight: float
    ball: BallSet

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError("weight must be positive")

    @property
    def dim(self) -> int:
        return self.ball.dim

    def h_value(self, z: np.ndarray) -> float:
        if not self.ball.contains(z):
            return math.inf
        return self.weight * float(np.abs(z).sum())


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Coordinatewise sign(z) * max(|z| - tau, 0)."""
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def project_box(b: BoxSet, z: np.ndarray) -> np.ndarray:
    z = as_vector(z, b.dim)
    return z.clip(b.lower, b.upper)


def project_ball(s: BallSet, z: np.ndarray) -> np.ndarray:
    return _project_ball(s, as_vector(z, s.dim))


def _project_ball(s: BallSet, z: np.ndarray) -> np.ndarray:
    """project_ball for a `z` already validated by as_vector."""
    d = z if s._at_origin and z.flags.c_contiguous else z - s.center
    nd = math.sqrt(d.dot(d))
    if nd <= s.radius:
        return z
    if d is z:
        d = z - s.center  # keeps the result's signed zeros those of center + t * (z - center)
    return s.center + (s.radius / nd) * d


def prox_box_indicator(b: BoxSet, z: np.ndarray, t: float) -> np.ndarray:
    """Prox of the box indicator: projection, for every step t > 0."""
    if not t > 0:
        raise ValueError("t must be positive")
    return as_vector(z, b.dim).clip(b.lower, b.upper)


def prox_l1_on_ball(h: L1OnBall, z: np.ndarray, t: float) -> np.ndarray:
    """Exact prox of weight*||.||_1 + indicator of an origin-centered ball.

    Soft-threshold by t*weight, then project onto the ball.  The composition
    is exact because the ball's normal cone at any boundary point is a
    positive multiple of the point itself, which commutes with the threshold.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    c = h.ball.center
    # c.dot(c) is zero exactly when ||c|| is, underflow included
    if c.dot(c) != 0.0:
        raise UnsupportedConfigError(
            "soft-threshold-then-project is exact only for origin-centered balls"
        )
    z = as_vector(z, h.dim)
    # a finite z thresholded by a positive tau stays finite and keeps its shape
    return _project_ball(h.ball, soft_threshold(z, t * h.weight))

