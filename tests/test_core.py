import math

import numpy as np
import pytest

from fistalab import (
    CompositeProblem,
    CountedProblem,
    make_convex_qp,
    make_nonconvex_qp,
    sample_feasible,
)
from fistalab.core import as_vector


def quad_problem(dim, f, grad, L, h_value=None, h_prox=None):
    """Tiny problem wrapper with a [-1, 1]^dim box default for h."""
    if h_value is None:
        h_value = lambda y: 0.0 if np.all(np.abs(y) <= 1.0 + 1e-12) else math.inf
    if h_prox is None:
        h_prox = lambda z, t: np.clip(z, -1.0, 1.0)
    return CompositeProblem(dim=dim, smooth_value=f, smooth_grad=grad,
                            h_value=h_value, h_prox=h_prox, lipschitz_L=L)


# --- input coercion ------------------------------------------------------

def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector(np.zeros(3), dim=2)
    assert as_vector(1.5).shape == (1,)


# --- problems and their counted view -------------------------------------

def half_sq_norm(dim):
    return quad_problem(dim, lambda y: 0.5 * float(y @ y), lambda y: y.copy(), 1.0)


@pytest.mark.parametrize("maker,kwargs", [
    (make_convex_qp, {}),
    (make_nonconvex_qp, {"negfrac": 0.3}),
])
def test_lipschitz_envelope_on_instances(maker, kwargs, rng):
    p, inst = maker(6, 42, **kwargs)
    pts = sample_feasible(inst, rng, 60)
    for i in range(0, 60, 2):
        u1, u2 = pts[i], pts[i + 1]
        linearized = p.smooth_value(u2) + p.smooth_grad(u2) @ (u1 - u2)
        gap = abs(p.smooth_value(u1) - linearized)
        assert gap <= 0.5 * p.lipschitz_L * float(np.linalg.norm(u1 - u2)) ** 2 + 1e-9


def test_problem_validation():
    f = lambda y: 0.0
    g = lambda y: np.zeros(2)
    h = lambda y: 0.0
    pr = lambda z, t: z
    with pytest.raises(ValueError):
        CompositeProblem(2, f, g, h, pr, lipschitz_L=0.0)
    with pytest.raises(ValueError):
        CompositeProblem(0, f, g, h, pr, lipschitz_L=1.0)


def test_counted_problem_counts_and_validates():
    p = half_sq_norm(2)
    cp = CountedProblem(p)
    y = np.array([0.25, 0.0])
    cp.f(y)
    cp.grad(y)
    cp.prox(np.array([2.0, 0.0]), 0.5)
    assert cp.counters.f_evals == 1
    assert cp.counters.grad_evals == 1
    assert cp.counters.prox_evals == 1
    # identity projection is free: no oracle, no count
    out = cp.project(y)
    assert out is y
    assert cp.counters.proj_evals == 0

    with pytest.raises(ValueError):
        cp.prox(y, 0.0)


def test_counted_problem_flags_bad_oracles():
    from fistalab import OracleError

    bad = quad_problem(1, lambda y: float("nan"), lambda y: np.array([np.inf]), 1.0)
    cp = CountedProblem(bad)
    with pytest.raises(OracleError):
        cp.f(np.zeros(1))
    with pytest.raises(OracleError):
        cp.grad(np.zeros(1))


def test_counted_projection_idempotent_and_counted():
    box_proj = lambda x: np.clip(x, -1.0, 1.0)
    p = quad_problem(2, lambda y: 0.0, lambda y: np.zeros(2), 1.0)
    p = CompositeProblem(**{**p.__dict__, "omega_project": box_proj})
    cp = CountedProblem(p)
    x = np.array([3.0, 0.2])
    px = cp.project(x)
    np.testing.assert_array_equal(px, [1.0, 0.2])
    np.testing.assert_array_equal(cp.project(px), px)
    assert cp.counters.proj_evals == 2
