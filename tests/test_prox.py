import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fistalab.prox import (
    BallSet,
    BoxSet,
    L1OnBall,
    _prox_value_box,
    _prox_value_l1_on_ball,
    project_ball,
    prox_box_indicator,
    prox_l1_on_ball,
    soft_threshold,
)

from conftest import grid_min_1d_vec, grid_min_2d, sample_ball, sample_box


def vec(n, lo=-50.0, hi=50.0):
    return arrays(np.float64, (n,), elements=st.floats(lo, hi, allow_nan=False))


UNIT_BOX = BoxSet(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
UNIT_BALL = BallSet(2, 1.0)


# --- set construction ----------------------------------------------------

def test_set_invariants():
    with pytest.raises(ValueError):
        BoxSet(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        BoxSet(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        BallSet(2, 0.0)
    with pytest.raises(ValueError):
        L1OnBall(0.0, UNIT_BALL)


def test_box_h_value_and_bound():
    box = BoxSet(np.array([-1.0]), np.array([1.0]))
    assert box.h_value(np.array([0.3])) == 0.0
    assert box.h_value(np.array([1.5])) == math.inf


def test_box_membership_band():
    # each coordinate is accepted within 1e-9 * (1 + max(|lower|, |upper|))
    # of its bounds, the larger bound setting the band on both sides
    lower, upper = np.array([-2.0, -5.0]), np.array([3.0, 1.0])
    box = BoxSet(lower, upper)
    slack = 1e-9 * (1.0 + np.maximum(np.abs(lower), np.abs(upper)))
    mid = 0.5 * (lower + upper)
    for i in range(2):
        for value, expected in ((upper[i] + 0.5 * slack[i], 0.0),
                                (lower[i] - 0.5 * slack[i], 0.0),
                                (upper[i] + 2.0 * slack[i], math.inf),
                                (lower[i] - 2.0 * slack[i], math.inf),
                                (math.nan, math.inf)):
            z = mid.copy()
            z[i] = value
            assert box.h_value(z) == expected, (i, value)
            assert box.contains(z) is (expected == 0.0), (i, value)
    # a point of another length is refused, not broadcast against the bounds
    for z in (np.array([0.5]), np.array([2.0]), np.zeros(3)):
        with pytest.raises(ValueError, match=r"^expected a point of shape \(2,\), got "):
            box.contains(z)
        with pytest.raises(ValueError, match=r"^expected a point of shape \(2,\), got "):
            box.h_value(z)


@pytest.mark.parametrize("t", [0.01, 0.5, 40.0])
def test_prox_l1_on_ball_is_threshold_then_project(t, rng):
    # the prox validates z once and projects the thresholded point without
    # a second check; the result must be the composition's, signed zeros included
    h = L1OnBall(0.3, BallSet(6, 2.0))
    cases = [rng.uniform(-1.0, 1.0, 6),                     # inside the ball
             rng.uniform(-30.0, 30.0, 6),                   # projected onto it
             np.array([-0.0, 0.0, -0.0, 5.0, -7.0, 0.1]),   # zeros of both signs
             np.array([-0.0, -0.0, -0.0, -0.0, -0.0, -0.0]),
             rng.uniform(-3.0, 3.0, 12)[::2]]               # strided view
    for z in cases:
        got = prox_l1_on_ball(h, z, t)
        thresholded = soft_threshold(z, t * h.weight)
        want = project_ball(h.ball, thresholded)
        assert got.tobytes() == want.tobytes(), (z, t)
        assert got.tobytes() == _reference_project(h.ball, np.zeros(6), thresholded).tobytes()


def test_ball_membership_band():
    ball = BallSet(3, 3.0)
    unit = np.array([2.0, -1.0, 2.0]) / 3.0
    assert ball.h_value(3.0 * (1.0 + 0.5e-9) * unit) == 0.0
    assert ball.h_value(3.0 * (1.0 + 2e-9) * unit) == math.inf
    assert ball.h_value(np.array([1.0, math.nan, 0.5])) == math.inf


def test_l1_on_ball_value_is_weighted_l1_norm(rng):
    h = L1OnBall(0.7, BallSet(5, 10.0))
    for _ in range(20):
        z = rng.uniform(-4.0, 4.0, 5)
        assert h.h_value(z) == 0.7 * float(np.sum(np.abs(z)))
        assert h.h_value(z * (20.0 / np.linalg.norm(z))) == math.inf  # outside the ball


# --- projections ---------------------------------------------------------

def test_project_box_examples():
    # the box projection is the box prox at t=1
    b1 = BoxSet(np.array([-1.0]), np.array([1.0]))
    assert prox_box_indicator(b1, np.array([0.3]), 1.0)[0] == 0.3
    assert prox_box_indicator(b1, np.array([1.9]), 1.0)[0] == 1.0
    np.testing.assert_array_equal(prox_box_indicator(UNIT_BOX, np.array([-3.0, 0.5]), 1.0),
                                  [-1.0, 0.5])


def test_project_ball_examples():
    np.testing.assert_array_equal(project_ball(UNIT_BALL, np.array([0.5, 0.0])), [0.5, 0.0])
    np.testing.assert_allclose(project_ball(UNIT_BALL, np.array([3.0, 4.0])), [0.6, 0.8], rtol=1e-15)
    np.testing.assert_array_equal(project_ball(UNIT_BALL, np.zeros(2)), [0.0, 0.0])


def test_projection_dimension_mismatch():
    with pytest.raises(ValueError):
        prox_box_indicator(UNIT_BOX, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        project_ball(UNIT_BALL, np.zeros(3))


@given(x=vec(3), y=vec(3))
@settings(max_examples=200, deadline=None)
def test_projections_nonexpansive(x, y):
    box = BoxSet(-np.ones(3), np.ones(3))
    ball = BallSet(3, 2.0)
    for proj in (lambda z: prox_box_indicator(box, z, 1.0), lambda z: project_ball(ball, z)):
        dist = np.linalg.norm(proj(x) - proj(y))
        assert dist <= np.linalg.norm(x - y) + 1e-12 * (1.0 + np.linalg.norm(x - y))


@given(x=vec(3))
@settings(max_examples=100, deadline=None)
def test_projections_idempotent(x):
    box = BoxSet(-np.ones(3), np.ones(3))
    ball = BallSet(3, 2.0)
    bx = prox_box_indicator(box, x, 1.0)
    np.testing.assert_array_equal(prox_box_indicator(box, bx, 1.0), bx)
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
    h = L1OnBall(1.0, BallSet(1, 10.0))
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
    h = L1OnBall(0.001, BallSet(2, 1.0))
    z = np.array([5.0, 0.0])

    def objective(pts):
        vals = 0.001 * np.sum(np.abs(pts), axis=1) + 0.5 * np.sum((pts - z) ** 2, axis=1)
        vals[np.linalg.norm(pts, axis=1) > 1.0] = np.inf
        return vals

    oracle = grid_min_2d(objective, [-1.0, -1.0], [1.0, 1.0])
    out = prox_l1_on_ball(h, z, 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out, oracle, atol=1e-6)


@given(z=vec(3, -20, 20), t=st.floats(0.01, 10.0), u=vec(3, -1, 1))
@settings(max_examples=200, deadline=None)
def test_prox_optimality(z, t, u):
    # the prox output must beat every feasible point on h(w) + ||w-z||^2/(2t)
    ball = BallSet(3, 2.0)
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
    h = L1OnBall(0.5, BallSet(4, 3.0))
    for _ in range(50):
        z = rng.uniform(-20, 20, 4)
        y = prox_l1_on_ball(h, z, rng.uniform(0.01, 5.0))
        assert math.isfinite(h.h_value(y))


# (h, prox, fused prox, boundary point in the direction of u): the box's
# corner, the tight ball's sphere, and for the loose ball a sphere 300 times
# inside its own, so that no point below reaches it
_FUSED = {
    "box": (BoxSet(np.array([-1.0, -2.0, 0.0, -0.5, -3.0, 1.0]),
                   np.array([1.0, 0.5, 3.0, -0.5, 3.0, 4.0])),
            prox_box_indicator, _prox_value_box,
            lambda h, u: np.clip(1e6 * u, h.lower, h.upper)),
    "l1-ball-binding": (L1OnBall(0.05, BallSet(6, 2.0)), prox_l1_on_ball, _prox_value_l1_on_ball,
                        lambda h, u: h.ball.radius * u / np.linalg.norm(u)),
    "l1-ball-loose": (L1OnBall(0.05, BallSet(6, 1e3)), prox_l1_on_ball, _prox_value_l1_on_ball,
                      lambda h, u: 3.0 * u / np.linalg.norm(u)),
}
# multiples of the boundary point: inside, either side of the 1e-9
# membership band, and well outside
_SCALES = (0.0, 0.3, 0.999, 1.0 - 1e-10, 1.0 + 5e-10, 1.0 + 2e-9, 1.5, 10.0)


# an entry pinned to c * t * weight (c * t on the box): signed zeros, and
# magnitudes that the l1 threshold takes exactly to zero
_PINS = [None, 0.0, -0.0, 1.0, -1.0]
# a point near the ball's sphere with two threshold ties and two signed zeros,
# and a point well inside it with the same entries
_TIES = [1.0, -1.0, 0.0, -0.0, None, None]


@pytest.mark.parametrize("name", sorted(_FUSED))
@given(u=vec(6, -1, 1).filter(lambda u: np.linalg.norm(u) > 0.1),
       scale=st.sampled_from(_SCALES),
       pins=st.lists(st.sampled_from(_PINS), min_size=6, max_size=6),
       strided=st.booleans(), t=st.sampled_from([0.01, 0.5, 40.0]))
@example(u=np.full(6, 0.5), scale=10.0, pins=_TIES, strided=False, t=40.0)
@example(u=np.full(6, 0.5), scale=0.3, pins=_TIES, strided=True, t=0.5)
# a point where math.fsum's correctly rounded l1 term differs in its last
# bit from numpy's sum, on the tight sphere and inside the loose ball
@example(u=np.array([-0.4, -0.2, -0.9, -0.8, 0.3, 0.3]), scale=10.0, pins=[None] * 6,
         strided=False, t=0.5)
@settings(max_examples=150, deadline=None)
def test_fused_prox_value_is_prox_then_h_value(name, u, scale, pins, strided, t):
    # the fused operator returns the prox and h at it, bit for bit, which is
    # what lets a traced run skip the separate h_value call
    h, prox, fused, edge = _FUSED[name]
    z = scale * edge(h, u)
    tau = t * getattr(h, "weight", 1.0)
    for i, pin in enumerate(pins):
        if pin is not None:
            z[i] = pin * tau
    if strided:
        wide = np.full(12, 123.0)
        wide[::2] = z
        z = wide[::2]
    y = prox(h, z, t)
    got_y, got_h = fused(h, z, t)
    assert isinstance(got_h, float)
    assert got_y.tobytes() == y.tobytes()
    assert np.float64(got_h).tobytes() == np.float64(h.h_value(y)).tobytes()
    assert math.isfinite(got_h)
    with pytest.raises(ValueError):
        fused(h, z, 0.0)


def test_samplers_inside_sets(rng):
    box = BoxSet(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    pts = sample_box(box, rng, 200)
    assert np.all(pts >= box.lower) and np.all(pts <= box.upper)
    ball = BallSet(3, 2.5)
    pts = sample_ball(ball, rng, 200)
    assert np.all(np.linalg.norm(pts, axis=1) <= 2.5 + 1e-12)


# --- the ball is centred at the origin ------------------------------------

def _reference_contains(s, center, z):
    d = z - center
    return math.sqrt(d.dot(d)) <= s.radius * (1.0 + 1e-9)


def _reference_project(s, center, z):
    d = z - center
    nd = math.sqrt(d.dot(d))
    return z if nd <= s.radius else center + (s.radius / nd) * d


_N = 32
_SIGNED_ZEROS = np.where(np.arange(_N) % 3 == 0, -0.0, 0.0)


@pytest.mark.parametrize("center", [np.zeros(_N)], ids=["zeros"])
def test_ball_operations_match_the_subtracting_formulas(center, rng):
    # the library takes the norm of the point itself; the references
    # subtract a centre of zeros, and the two must agree bit for bit,
    # signed zeros of the projected point included
    ball = BallSet(_N, 2.0)
    h = L1OnBall(0.7, ball)
    points = [center + rng.standard_normal(_N) * scale for scale in (0.1, 0.3, 0.6, 2.0)]
    points += [_SIGNED_ZEROS + np.eye(_N)[3] * 3.0, -_SIGNED_ZEROS + np.eye(_N)[4] * 0.5]
    # strided views: BLAS sums their squares in another order than a fresh array's
    points += [(rng.standard_normal(2 * _N) * scale)[::2] for scale in (0.3,) + (1.0,) * 24]
    for z in points:
        assert ball.contains(z) is _reference_contains(ball, center, z)
        assert project_ball(ball, z).tobytes() == _reference_project(ball, center, z).tobytes()
        expected = 0.7 * float(np.abs(z).sum()) if _reference_contains(ball, center, z) else math.inf
        assert np.float64(h.h_value(z)).tobytes() == np.float64(expected).tobytes()
        for t in (0.05, 1.0):
            got = prox_l1_on_ball(h, z, t)
            want = _reference_project(ball, center, soft_threshold(z, t * 0.7))
            assert got.tobytes() == want.tobytes()
    assert ball.contains(list(points[0])) is _reference_contains(ball, center, points[0])
    # a point of another length is refused, even one that would broadcast
    with pytest.raises(ValueError):
        ball.contains(np.array([0.5]))


def test_ball_refuses_points_of_another_length_and_bad_dims():
    ball = BallSet(4, 2.0)
    h = L1OnBall(0.5, ball)
    for z in (np.array([0.5]), np.zeros(5), [0.0] * 5):
        for op in (ball.contains, ball.h_value, h.h_value):
            with pytest.raises(ValueError, match="shape"):
                op(z)
    # so is a vector in place of dim
    for dim in (0, -3, 2.0, "4", np.zeros(4)):
        with pytest.raises(ValueError, match="dim"):
            BallSet(dim, 1.0)
    assert BallSet(np.int64(4), 2.0).contains(np.ones(4))
    with pytest.raises(ValueError):
        prox_l1_on_ball(h, np.zeros(4), -1.0)
