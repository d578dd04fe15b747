import math

import numpy as np
import pytest

from fistalab import (
    QuadraticInstance,
    brute_force_optimum,
    estimate_lipschitz_power,
    fine_grid_optimum,
    lasso_optimum,
    load_instance,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    sample_feasible,
    save_instance,
    to_problem,
)


def qp(Q, b, lo=None, hi=None, m=None):
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    b = np.asarray(b, dtype=float)
    n = b.size
    ev = np.linalg.eigvalsh(Q)
    L = float(np.max(np.abs(ev)))
    known_m = float(max(0.0, -ev[0])) if m is None else m
    kind = "convex-qp" if known_m == 0.0 else "nonconvex-qp"
    lo = -np.ones(n) if lo is None else np.asarray(lo, dtype=float)
    hi = np.ones(n) if hi is None else np.asarray(hi, dtype=float)
    return QuadraticInstance(kind, Q, b, lo, hi, L, known_m, seed=-1)


# --- generators ------------------------------------------------------------

def test_make_convex_qp_constants():
    for seed in (0, 1, 7):
        p, inst = make_convex_qp(5, seed)
        assert inst.known_m == 0.0
        assert inst.convex
        ev = np.linalg.eigvalsh(inst.Q)
        assert math.isclose(inst.lipschitz_L, float(np.max(np.abs(ev))), rel_tol=1e-12)
        assert ev.min() >= -1e-10


def test_make_convex_qp_designed_spectrum():
    eigs = np.geomspace(1e-6, 1.0, 8)
    p, inst = make_convex_qp(8, 3, eigenvalues=eigs)
    got = np.sort(np.linalg.eigvalsh(inst.Q))
    np.testing.assert_allclose(got, eigs, rtol=1e-8, atol=1e-12)
    with pytest.raises(ValueError):
        make_convex_qp(8, 3, eigenvalues=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        make_convex_qp(0, 3)
    with pytest.raises(ValueError):
        make_convex_qp(65, 3)


def test_make_nonconvex_qp_constants():
    for seed in (0, 4):
        p, inst = make_nonconvex_qp(6, seed, negfrac=0.3)
        assert 0.0 < inst.known_m <= inst.lipschitz_L
        assert not inst.convex
        ev = np.linalg.eigvalsh(inst.Q)
        assert math.isclose(inst.known_m, -float(ev[0]), rel_tol=1e-12)
    with pytest.raises(ValueError):
        make_nonconvex_qp(6, 0, negfrac=0.0)
    with pytest.raises(ValueError):
        make_nonconvex_qp(6, 0, negfrac=1.0)


def test_nonconvex_instances_violate_convexity(rng):
    p, inst = make_nonconvex_qp(6, 8, negfrac=0.4)
    pts = sample_feasible(inst, rng, 400)
    gaps = []
    for i in range(0, 400, 2):
        u1, u2 = pts[i], pts[i + 1]
        linearized = p.smooth_value(u2) + p.smooth_grad(u2) @ (u1 - u2)
        gaps.append(p.smooth_value(u1) - linearized)
    assert min(gaps) < -1e-6  # linearization overshoots somewhere


def test_make_lasso_on_ball_properties():
    p, inst = make_lasso_on_ball(8, 6, 2)
    assert inst.weight > 0
    AtA = inst.A.T @ inst.A
    assert math.isclose(inst.lipschitz_L, float(np.max(np.linalg.eigvalsh(AtA))), rel_tol=1e-12)
    # the ball is padding: the penalized optimum is strictly interior
    cert = lasso_optimum(p, inst)
    assert np.linalg.norm(cert.y_star) < 0.5 * inst.radius


# --- optimality oracles ------------------------------------------------------

def test_brute_force_hand_examples():
    cert = brute_force_optimum(None, qp([[1.0]], [-0.3]))
    assert abs(cert.y_star[0] - 0.3) < 1e-14
    assert abs(cert.phi_star - (-0.045)) < 1e-15  # 0.5*0.09 - 0.09
    assert cert.kkt_residual <= 1e-10
    assert cert.method == "active-set-enumeration"

    cert = brute_force_optimum(None, qp(np.eye(2), [-2.0, 0.0]))
    np.testing.assert_allclose(cert.y_star, [1.0, 0.0], atol=1e-14)

    cert = brute_force_optimum(None, qp([[-1.0]], [0.0]))
    assert abs(abs(cert.y_star[0]) - 1.0) < 1e-14
    assert abs(cert.phi_star - (-0.5)) < 1e-14

    cert = brute_force_optimum(None, qp(np.eye(2), [0.0, 0.0]))
    np.testing.assert_allclose(cert.y_star, [0.0, 0.0], atol=1e-14)
    assert cert.phi_star == 0.0

    # saddle: minimum sits on the boundary of the concave coordinate
    cert = brute_force_optimum(None, qp(np.diag([1.0, -1.0]), [0.0, 0.0]))
    assert abs(cert.y_star[0]) < 1e-14
    assert abs(abs(cert.y_star[1]) - 1.0) < 1e-14
    assert abs(cert.phi_star - (-0.5)) < 1e-14


def test_brute_force_dimension_cap():
    with pytest.raises(ValueError):
        brute_force_optimum(None, qp(np.eye(5), np.zeros(5)))


def test_brute_force_agrees_with_fine_grid(rng):
    for seed in range(6):
        _, inst = make_nonconvex_qp(2, seed, negfrac=0.5)
        enum_cert = brute_force_optimum(None, inst)
        grid_cert = fine_grid_optimum(inst)
        assert grid_cert.method == "fine-grid"
        assert abs(enum_cert.phi_star - grid_cert.phi_star) <= 1e-8
        assert enum_cert.phi_star <= grid_cert.phi_star + 1e-12


def test_certificates_pass_kkt(rng):
    for seed in range(8):
        maker = make_convex_qp if seed % 2 else make_nonconvex_qp
        _, inst = maker(3, seed)
        cert = brute_force_optimum(None, inst)
        assert cert.kkt_residual <= 1e-10
        # no feasible point sampled at random beats the certified optimum
        pts = sample_feasible(inst, rng, 200)
        vals = 0.5 * np.einsum("ij,jk,ik->i", pts, inst.Q, pts) + pts @ inst.b
        assert vals.min() >= cert.phi_star - 1e-10


def test_lasso_certificate_kkt():
    for seed in (0, 1, 2):
        p, inst = make_lasso_on_ball(8, 8, seed)
        cert = lasso_optimum(p, inst)
        assert cert.method == "projected-gradient-highacc"
        assert cert.kkt_residual <= 1e-10


# --- power iteration --------------------------------------------------------

def test_estimate_lipschitz_power_examples():
    assert math.isclose(estimate_lipschitz_power(np.diag([3.0, 1.0])), 3.03, rel_tol=1e-9)
    assert estimate_lipschitz_power(np.zeros((3, 3))) == 0.0
    assert math.isclose(estimate_lipschitz_power(np.eye(4)), 1.01, rel_tol=1e-12)
    with pytest.raises(ValueError):
        estimate_lipschitz_power(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        estimate_lipschitz_power(np.zeros((2, 3)))


def test_estimate_lipschitz_power_upper_bounds_spectrum(rng):
    for seed in range(5):
        _, inst = make_nonconvex_qp(6, seed)
        est = estimate_lipschitz_power(inst.Q)
        assert est >= inst.lipschitz_L * (1.0 - 1e-6)


# --- serialization -----------------------------------------------------------

def test_quadratic_round_trip(tmp_path):
    _, inst = make_nonconvex_qp(5, 17, negfrac=0.4)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.kind == inst.kind
    assert back.seed == inst.seed
    assert back.lipschitz_L == inst.lipschitz_L
    assert back.known_m == inst.known_m
    np.testing.assert_array_equal(back.Q, inst.Q)
    np.testing.assert_array_equal(back.b, inst.b)
    np.testing.assert_array_equal(back.lower, inst.lower)
    np.testing.assert_array_equal(back.upper, inst.upper)

    # saving the loaded instance reproduces the file byte for byte
    path2 = tmp_path / "inst2.txt"
    save_instance(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_lasso_round_trip(tmp_path):
    _, inst = make_lasso_on_ball(6, 4, 3)
    path = tmp_path / "lasso.txt"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.weight == inst.weight
    assert back.radius == inst.radius
    assert back.lipschitz_L == inst.lipschitz_L
    np.testing.assert_array_equal(back.A, inst.A)
    np.testing.assert_array_equal(back.target, inst.target)

    p = to_problem(back)
    y = np.full(6, 0.1)
    assert p.smooth_value(y) == to_problem(inst).smooth_value(y)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("convex-qp n=2 seed=0 L=1.0 m=0.0\n1.0 0.0\n")
    with pytest.raises(ValueError):
        load_instance(path)
    path.write_text("mystery n=1 seed=0 L=1.0 m=0.0\n1.0\n")
    with pytest.raises(ValueError):
        load_instance(path)


def test_sample_feasible_in_domain(rng):
    p, inst = make_lasso_on_ball(5, 5, 1)
    pts = sample_feasible(inst, rng, 100)
    assert np.all(np.linalg.norm(pts, axis=1) <= inst.radius + 1e-9)
    pq, instq = make_convex_qp(4, 2)
    pts = sample_feasible(instq, rng, 100)
    assert np.all(np.abs(pts) <= 1.0)
