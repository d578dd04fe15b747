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
    "sample_box",
    "sample_ball",
]

# membership slack for indicator evaluation; projections land on boundaries
# only up to rounding
_FEAS_RTOL = 1e-9


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

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, z: np.ndarray) -> bool:
        slack = _FEAS_RTOL * (1.0 + np.maximum(np.abs(self.lower), np.abs(self.upper)))
        return bool(np.all(z >= self.lower - slack) and np.all(z <= self.upper + slack))

    def h_value(self, z: np.ndarray) -> float:
        return 0.0 if self.contains(z) else math.inf


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, z: np.ndarray) -> bool:
        return float(np.linalg.norm(z - self.center)) <= self.radius * (1.0 + _FEAS_RTOL)

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
        return self.weight * float(np.sum(np.abs(z)))


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Coordinatewise sign(z) * max(|z| - tau, 0)."""
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def project_box(b: BoxSet, z: np.ndarray) -> np.ndarray:
    z = as_vector(z, b.dim)
    return np.clip(z, b.lower, b.upper)


def project_ball(s: BallSet, z: np.ndarray) -> np.ndarray:
    z = as_vector(z, s.dim)
    d = z - s.center
    nd = float(np.linalg.norm(d))
    if nd <= s.radius:
        return z
    return s.center + (s.radius / nd) * d


def prox_box_indicator(b: BoxSet, z: np.ndarray, t: float) -> np.ndarray:
    """Prox of the box indicator: projection, for every step t > 0."""
    if not t > 0:
        raise ValueError("t must be positive")
    return project_box(b, z)


def prox_l1_on_ball(h: L1OnBall, z: np.ndarray, t: float) -> np.ndarray:
    """Exact prox of weight*||.||_1 + indicator of an origin-centered ball.

    Soft-threshold by t*weight, then project onto the ball.  The composition
    is exact because the ball's normal cone at any boundary point is a
    positive multiple of the point itself, which commutes with the threshold.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if float(np.linalg.norm(h.ball.center)) != 0.0:
        raise UnsupportedConfigError(
            "soft-threshold-then-project is exact only for origin-centered balls"
        )
    z = as_vector(z, h.dim)
    return project_ball(h.ball, soft_threshold(z, t * h.weight))


def sample_box(b: BoxSet, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Uniform samples from the box, shape (count, dim)."""
    return rng.uniform(b.lower, b.upper, size=(count, b.dim))


def sample_ball(s: BallSet, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Uniform samples from the ball, shape (count, dim)."""
    g = rng.standard_normal((count, s.dim))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = s.radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / s.dim)
    return s.center + radii * g
