"""Projection and proximal operators for the bounded convex sets the test
problems use: boxes, Euclidean balls centred at the origin, and l1 over such
a ball.

Everything here is a pure function of its inputs.  The l1-plus-ball prox uses
the soft-threshold-then-project composition, which is exact because the ball
is centred at the origin; no other ball is represented.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import _F64, _norm, as_vector

__all__ = [
    "BoxSet",
    "BallSet",
    "L1OnBall",
    "soft_threshold",
    "project_ball",
    "prox_box_indicator",
    "prox_l1_on_ball",
]

# membership slack for indicator evaluation; projections land on boundaries
# only up to rounding
_FEAS_RTOL = 1e-9


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box [lower, upper], finite and nonempty.

    `contains` takes an array and refuses one whose shape is not (dim,).
    """

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
        # a point of another shape would broadcast against the bounds
        if z.shape != self.lower.shape:
            raise ValueError(f"expected a point of shape ({self.dim},), got {z.shape}")
        return bool(((z >= self._band_lower) & (z <= self._band_upper)).all())

    def h_value(self, z: np.ndarray) -> float:
        return 0.0 if self.contains(z) else math.inf


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of positive `radius` centred at the origin of R^`dim`,
    the ball for which the l1-on-ball prox below is exact.

    Membership and projection take the norm of the point itself; `contains`
    refuses a point whose shape is not (dim,).
    """

    dim: int
    radius: float

    def __post_init__(self):
        dim = self.dim
        if not isinstance(dim, numbers.Integral) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {type(dim).__name__} "
                             f"{dim!r:.40}")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def contains(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValueError(f"expected a point of shape ({self.dim},), got {z.shape}")
        return _norm(z) <= self.radius * (1.0 + _FEAS_RTOL)

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


def project_ball(s: BallSet, z: np.ndarray) -> np.ndarray:
    return _project_ball(s, as_vector(z, s.dim))


def _project_ball(s: BallSet, z: np.ndarray) -> np.ndarray:
    """project_ball for a `z` already validated by as_vector."""
    nd = _norm(z)
    if nd <= s.radius:
        return z
    # + 0.0 turns a -0.0 entry into +0.0, the signed zeros of the
    # projection's textbook form 0 + t * (z - 0)
    return (s.radius / nd) * z + 0.0


def prox_box_indicator(b: BoxSet, z: np.ndarray, t: float) -> np.ndarray:
    """Prox of the box indicator: projection, for every step t > 0."""
    return _prox_value_box(b, z, t)[0]


def _prox_value_box(b: BoxSet, z: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """(the projection of z onto the box, b.h_value of it): the clip lies in the box."""
    if not t > 0:
        raise ValueError("t must be positive")
    # a native float64 vector of the box's shape whose square sums finitely
    # is what as_vector would return unchanged
    if (type(z) is not np.ndarray or z.dtype is not _F64 or z.shape != b.lower.shape
            or not math.isfinite(z.dot(z))):
        z = as_vector(z, b.lower.size)
    return z.clip(b.lower, b.upper), 0.0


def prox_l1_on_ball(h: L1OnBall, z: np.ndarray, t: float) -> np.ndarray:
    """Exact prox of weight*||.||_1 + indicator of the ball, which is centred
    at the origin.

    Soft-threshold by t*weight, then project onto the ball.  The composition
    is exact because the ball's normal cone at any boundary point is a
    positive multiple of the point itself, which commutes with the threshold.
    """
    return _prox_value_l1_on_ball(h, z, t)[0]


def _prox_value_l1_on_ball(h: L1OnBall, z: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """(prox_l1_on_ball(h, z, t), h.h_value of it).

    The prox lands in the ball up to a few ulps of the radius, far inside
    h.h_value's 1e-9 membership band, so only the l1 term is computed.
    Where the ball does not bind, |y_i| is the threshold's magnitude m_i
    bit for bit (a zero z_i has sign 0.0 and m_i = 0.0), so the term is
    summed from m, as ndarray.sum would sum |y|.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    # the fast path of _prox_value_box
    if (type(z) is not np.ndarray or z.dtype is not _F64 or z.shape != (h.ball.dim,)
            or not math.isfinite(z.dot(z))):
        z = as_vector(z, h.ball.dim)
    # a finite z thresholded by a positive tau stays finite and keeps its shape
    m = np.maximum(np.abs(z) - t * h.weight, 0.0)
    s = np.sign(z) * m
    y = _project_ball(h.ball, s)
    if y is s:
        return y, h.weight * float(np.add.reduce(m))
    return y, h.weight * float(np.abs(y).sum())
