import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fistalab import (
    BallSet,
    BoxSet,
    L1OnBall,
    UnsupportedConfigError,
    project_ball,
    project_box,
    prox_box_indicator,
    prox_l1_on_ball,
    soft_threshold,
)
from fistalab.prox import sample_ball, sample_box

from conftest import grid_min_1d_vec, grid_min_2d


def vec(n, lo=-50.0, hi=50.0):
    return arrays(np.float64, (n,), elements=st.floats(lo, hi, allow_nan=False))


UNIT_BOX = BoxSet(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
UNIT_BALL = BallSet(np.zeros(2), 1.0)


# --- set construction ----------------------------------------------------

def test_set_invariants():
    with pytest.raises(ValueError):
        BoxSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        BoxSet(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        BallSet(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        L1OnBall(0.0, UNIT_BALL)


def test_box_h_value_and_bound():
    box = BoxSet(np.array([-1.0]), np.array([1.0]))
    assert box.h_value(np.array([0.3])) == 0.0
    assert box.h_value(np.array([1.5])) == math.inf


# --- projections ---------------------------------------------------------

def test_project_box_examples():
    b1 = BoxSet(np.array([-1.0]), np.array([1.0]))
    assert project_box(b1, np.array([0.3]))[0] == 0.3
    assert project_box(b1, np.array([1.9]))[0] == 1.0
    np.testing.assert_array_equal(project_box(UNIT_BOX, np.array([-3.0, 0.5])), [-1.0, 0.5])


def test_project_ball_examples():
    np.testing.assert_array_equal(project_ball(UNIT_BALL, np.array([0.5, 0.0])), [0.5, 0.0])
    np.testing.assert_allclose(project_ball(UNIT_BALL, np.array([3.0, 4.0])), [0.6, 0.8], rtol=1e-15)
    np.testing.assert_array_equal(project_ball(UNIT_BALL, np.zeros(2)), [0.0, 0.0])


def test_projection_dimension_mismatch():
    with pytest.raises(ValueError):
        project_box(UNIT_BOX, np.zeros(3))
    with pytest.raises(ValueError):
        project_ball(UNIT_BALL, np.zeros(3))


@given(x=vec(3), y=vec(3))
@settings(max_examples=200, deadline=None)
def test_projections_nonexpansive(x, y):
    box = BoxSet(-np.ones(3), np.ones(3))
    ball = BallSet(np.zeros(3), 2.0)
    for proj in (lambda z: project_box(box, z), lambda z: project_ball(ball, z)):
        dist = np.linalg.norm(proj(x) - proj(y))
        assert dist <= np.linalg.norm(x - y) + 1e-12 * (1.0 + np.linalg.norm(x - y))


@given(x=vec(3))
@settings(max_examples=100, deadline=None)
def test_projections_idempotent(x):
    box = BoxSet(-np.ones(3), np.ones(3))
    ball = BallSet(np.zeros(3), 2.0)
    np.testing.assert_array_equal(project_box(box, project_box(box, x)), project_box(box, x))
    px = project_ball(ball, x)
    np.testing.assert_allclose(project_ball(ball, px), px, rtol=0, atol=1e-15)


# --- prox operators ------------------------------------------------------

def test_prox_box_examples():
    b1 = BoxSet(np.array([-1.0]), np.array([1.0]))
    assert prox_box_indicator(b1, np.array([2.0]), 0.25)[0] == 1.0
    for t in (0.1, 1.0, 10.0):
        assert prox_box_indicator(b1, np.array([0.0]), t)[0] == 0.0
    b2 = BoxSet(np.zeros(2), 2.0 * np.ones(2))
    np.testing.assert_array_equal(prox_box_indicator(b2, np.array([-1.0, 3.0]), 1.0), [0.0, 2.0])
    with pytest.raises(ValueError):
        prox_box_indicator(b1, np.array([0.0]), 0.0)


def test_soft_threshold():
    np.testing.assert_array_equal(soft_threshold(np.array([3.0, -0.5, 0.2]), 1.0),
                                  [2.0, 0.0, 0.0])


def l1_ball_objective_1d(lam, z, t):
    return lambda ys: lam * np.abs(ys) + (ys - z) ** 2 / (2.0 * t)


def test_prox_l1_on_ball_1d_against_grid():
    h = L1OnBall(1.0, BallSet(np.zeros(1), 10.0))
    # z=3: grid oracle localizes the minimizer of |y| + (y-3)^2/2 at 2
    # (localization is sqrt(eps)-limited near a smooth minimum)
    oracle = grid_min_1d_vec(l1_ball_objective_1d(1.0, 3.0, 1.0), -10.0, 10.0)
    out = prox_l1_on_ball(h, np.array([3.0]), 1.0)
    assert abs(oracle - 2.0) < 1e-6
    assert out[0] == 2.0

    # z=0.5 is thresholded to zero
    oracle = grid_min_1d_vec(l1_ball_objective_1d(1.0, 0.5, 1.0), -10.0, 10.0)
    out = prox_l1_on_ball(h, np.array([0.5]), 1.0)
    assert abs(oracle) < 1e-6
    assert out[0] == 0.0


def test_prox_l1_on_ball_2d_against_grid():
    # tiny weight, tight ball: the ball projection dominates
    h = L1OnBall(0.001, BallSet(np.zeros(2), 1.0))
    z = np.array([5.0, 0.0])

    def objective(pts):
        vals = 0.001 * np.sum(np.abs(pts), axis=1) + 0.5 * np.sum((pts - z) ** 2, axis=1)
        vals[np.linalg.norm(pts, axis=1) > 1.0] = np.inf
        return vals

    oracle = grid_min_2d(objective, [-1.0, -1.0], [1.0, 1.0])
    out = prox_l1_on_ball(h, z, 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out, oracle, atol=1e-6)


def test_prox_l1_on_ball_rejects_off_center():
    h = L1OnBall(1.0, BallSet(np.ones(2), 1.0))
    with pytest.raises(UnsupportedConfigError):
        prox_l1_on_ball(h, np.zeros(2), 1.0)
    h0 = L1OnBall(1.0, BallSet(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        prox_l1_on_ball(h0, np.zeros(2), -1.0)


@given(z=vec(3, -20, 20), t=st.floats(0.01, 10.0), u=vec(3, -1, 1))
@settings(max_examples=200, deadline=None)
def test_prox_optimality(z, t, u):
    # the prox output must beat every feasible point on h(w) + ||w-z||^2/(2t)
    ball = BallSet(np.zeros(3), 2.0)
    h = L1OnBall(0.7, ball)
    y = prox_l1_on_ball(h, z, t)
    w = project_ball(ball, 2.0 * u)  # arbitrary feasible competitor
    fy = h.h_value(y) + np.sum((y - z) ** 2) / (2.0 * t)
    fw = h.h_value(w) + np.sum((w - z) ** 2) / (2.0 * t)
    assert fw >= fy - 1e-10

    box = BoxSet(-np.ones(3), np.ones(3))
    yb = prox_box_indicator(box, z, t)
    fyb = np.sum((yb - z) ** 2) / (2.0 * t)
    fwb = np.sum((np.clip(w, -1, 1) - z) ** 2) / (2.0 * t)
    assert fwb >= fyb - 1e-10


def test_prox_stays_in_domain(rng):
    h = L1OnBall(0.5, BallSet(np.zeros(4), 3.0))
    for _ in range(50):
        z = rng.uniform(-20, 20, 4)
        y = prox_l1_on_ball(h, z, rng.uniform(0.01, 5.0))
        assert math.isfinite(h.h_value(y))


def test_samplers_inside_sets(rng):
    box = BoxSet(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    pts = sample_box(box, rng, 200)
    assert np.all(pts >= box.lower) and np.all(pts <= box.upper)
    ball = BallSet(np.array([1.0, -1.0, 0.0]), 2.5)
    pts = sample_ball(ball, rng, 200)
    assert np.all(np.linalg.norm(pts - ball.center, axis=1) <= 2.5 + 1e-12)
