"""Shared test helpers: brute-force oracles kept independent of the library
code paths they are used to check, and samplers of feasible points."""

from __future__ import annotations

import numpy as np
import pytest

from fistalab import LassoOnBallInstance, QuadraticInstance
from fistalab.prox import BallSet, BoxSet


def grid_min_1d_vec(fun_vec, lo: float, hi: float, points: int = 200_001, rounds: int = 4) -> float:
    """Same, for a vectorized objective (fun_vec maps array -> array)."""
    best_x = lo
    for _ in range(rounds):
        xs = np.linspace(lo, hi, points)
        vals = fun_vec(xs)
        best = int(np.argmin(vals))
        best_x = float(xs[best])
        span = (hi - lo) / (points - 1)
        lo = max(lo, best_x - 2 * span)
        hi = min(hi, best_x + 2 * span)
    return best_x


def grid_min_2d(fun_vec, lo, hi, points: int = 401, rounds: int = 6) -> np.ndarray:
    """Refined 2-D grid minimizer; fun_vec maps an (m, 2) array to (m,) values."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(2)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = fun_vec(mesh)
        best = mesh[int(np.argmin(vals))]
        span = (hi - lo) / (points - 1)
        lo = np.maximum(lo, best - 2 * span)
        hi = np.minimum(hi, best + 2 * span)
    return best


def sample_box(b: BoxSet, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Uniform samples from the box, shape (count, dim)."""
    return rng.uniform(b.lower, b.upper, size=(count, b.dim))


def sample_ball(s: BallSet, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Uniform samples from the origin-centred ball, shape (count, dim)."""
    g = rng.standard_normal((count, s.dim))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = s.radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / s.dim)
    return radii * g


def sample_feasible(inst, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Points from dom h of a generated instance, shape (count, dim)."""
    if isinstance(inst, QuadraticInstance):
        return sample_box(inst.box(), rng, count)
    if isinstance(inst, LassoOnBallInstance):
        return sample_ball(BallSet(inst.dim, inst.radius), rng, count)
    raise TypeError(f"unknown instance type {type(inst).__name__}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
