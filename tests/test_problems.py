import dataclasses
import functools
import itertools
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fistalab import (
    LassoOnBallInstance,
    QuadraticInstance,
    brute_force_optimum,
    load_instance,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    to_problem,
)
from fistalab import problems
from fistalab.problems import (SPLIT_MIN_ENTRIES, _blas_threads, _split_dot, _support_polish,
                               lasso_optimum, save_instance)
from fistalab.prox import soft_threshold

from conftest import grid_min_2d, sample_feasible


def qp(Q, b, lo=None, hi=None, m=None):
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    b = np.asarray(b, dtype=float)
    n = b.size
    ev = np.linalg.eigvalsh(Q)
    # any positive number is a Lipschitz constant of a constant gradient
    L = float(np.max(np.abs(ev))) or 1.0
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


@pytest.mark.parametrize("n,rows", [(5, 3), (3, 5)], ids=["wide", "tall"])
def test_make_lasso_on_ball_designed_singular_values(n, rows):
    # the tall case builds A from the first n columns of its rows x rows basis
    svs = np.array([3.0, 1.0, 0.25])
    _, inst = make_lasso_on_ball(n, rows, 4, singular_values=svs)
    assert inst.A.shape == (rows, n)
    np.testing.assert_allclose(np.linalg.svd(inst.A, compute_uv=False), svs, rtol=1e-12)
    with pytest.raises(ValueError, match="need min"):
        make_lasso_on_ball(n, rows, 4, singular_values=np.ones(4))


def test_make_nonconvex_qp_constants():
    for seed in (0, 4):
        p, inst = make_nonconvex_qp(6, seed, negfrac=0.3)
        assert 0.0 < inst.known_m <= inst.lipschitz_L
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
    cert = lasso_optimum(inst)
    assert np.linalg.norm(cert.y_star) < 0.5 * inst.radius


def test_split_products_equal_the_whole_on_one_blas_thread():
    # the split is bit for bit on a BLAS that runs on one thread, as the benchmark's
    # does; this process's BLAS may run on more, so the bit-for-bit oracle test runs
    # again in a child whose BLAS is held to one
    if _blas_threads() == 0 or _cpus() < 2:
        pytest.skip("no split here: no readable OpenBLAS thread count, or one CPU")
    tests = Path(__file__).resolve().parent
    child = ("import sys; from fistalab.problems import _blas_threads; import test_problems\n"
             "assert _blas_threads() == 1\n"
             "for n in (1037, 2048):\n"
             "    test_problems.test_oracles_equal_matmul_expressions_bit_for_bit(n)\n")
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def _square_qp(n):
    return QuadraticInstance("convex-qp", np.eye(n), np.zeros(n), -np.ones(n), np.ones(n),
                             1.0, 0.0, 0)


@pytest.fixture
def one_blas_thread(monkeypatch):
    """Products of 2^20 entries or more split, on any host: two CPUs, one BLAS thread."""
    monkeypatch.setattr(problems, "_blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return monkeypatch


@pytest.mark.parametrize("n,half", [(2048, 1024), (1037, 512), (32, None)])
def test_product_split_at_a_multiple_of_8_rows_from_2_20_entries(one_blas_thread, n, half):
    inst = _square_qp(n)
    if half is None:
        assert inst._dot == inst.Q.dot
    else:
        assert inst._dot.func is _split_dot
        assert inst._dot.args[0] is inst.Q and inst._dot.args[1] == half
    lasso = LassoOnBallInstance("lasso-ball", np.ones((1024, 2048)), np.ones(1024), 0.1, 10.0,
                                1.0, 0)
    assert lasso._dot.func is _split_dot
    assert lasso._dot.args[0] is lasso.A and lasso._dot.args[1] == 512


@pytest.mark.parametrize("cpus,blas_threads", [({0}, 1), ({0, 1}, 2), ({0, 1}, 0)])
def test_product_stays_whole_on_one_cpu_or_a_threaded_blas(one_blas_thread, cpus, blas_threads):
    # a BLAS on two threads has both CPUs already, and splits at rows of its own
    one_blas_thread.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    one_blas_thread.setattr(problems, "_blas_threads", lambda: blas_threads)
    inst = _square_qp(2048)
    assert inst._dot == inst.Q.dot


def test_split_product_leaves_other_arguments_to_the_whole(one_blas_thread):
    rng = np.random.default_rng(3)
    inst = QuadraticInstance("convex-qp", rng.standard_normal((1037, 1037)), np.zeros(1037),
                             -np.ones(1037), np.ones(1037), 1.0, 0.0, 0)
    Q, y = inst.Q, rng.standard_normal(1037)
    assert isinstance(inst._dot, functools.partial)
    for other in (y.tolist(), y.astype(np.float32), y.astype(">f8"), y[:, None]):
        assert inst._dot(other).tobytes() == Q.dot(other).tobytes()
    with pytest.raises(ValueError) as whole:
        Q.dot(y[:5])
    with pytest.raises(ValueError, match=f"^{re.escape(str(whole.value))}$"):
        inst._dot(y[:5])


def _product_in_child(inst, y, expected):
    assert inst._dot(y).tobytes() == expected


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_forked_child_makes_split_products_of_its_own(one_blas_thread):
    # the parent's worker thread is not copied into a forked child, which would
    # wait on it for ever
    rng = np.random.default_rng(4)
    inst = _square_qp(1037)
    y = rng.standard_normal(1037)
    expected = inst._dot(y).tobytes()  # the parent's worker exists from here on
    child = multiprocessing.get_context("fork").Process(target=_product_in_child,
                                                        args=(inst, y, expected))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung on its split product")
    assert child.exitcode == 0


@pytest.mark.parametrize("n", [32, 1037])
def test_instances_pickle_with_their_product_and_one_copy_of_the_matrix(one_blas_thread, n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    qp_inst = QuadraticInstance("convex-qp", M.T @ M / n, rng.uniform(-0.5, 0.5, n),
                                -np.ones(n), np.ones(n), 1.0, 0.0, 0)
    lasso = LassoOnBallInstance("lasso-ball", M, rng.standard_normal(n), 0.1, 10.0, 1.0, 0)
    for inst, matrix in ((qp_inst, "Q"), (lasso, "A")):
        data = pickle.dumps(inst)
        assert len(data) < getattr(inst, matrix).nbytes * 1.1 + 4096
        copy = pickle.loads(data)
        assert vars(copy).keys() == vars(inst).keys()
        assert all(np.array_equal(value, getattr(copy, key)) for key, value in vars(inst).items())
        split = isinstance(inst._dot, functools.partial)
        assert split == (n == 1037)
        bound = copy._dot.args[0] if split else copy._dot.__self__
        assert bound is getattr(copy, matrix)
        for y in rng.uniform(-1.0, 1.0, (3, n)):
            for got, want in zip(copy.value_grad(y), inst.value_grad(y)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# --- optimality oracles ------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: make_convex_qp(12, seed),
    lambda seed: make_nonconvex_qp(12, seed),
    lambda seed: make_lasso_on_ball(12, 9, seed),
    lambda seed: make_lasso_on_ball(7, 20, seed),
], ids=["convex-qp", "nonconvex-qp", "lasso-wide", "lasso-tall"])
def test_fused_value_grad_is_bit_identical(make, rng):
    # the solver takes f and grad f from the fused oracle, so any difference
    # in the last bit would move every trace
    for seed in range(4):
        p, inst = make(seed)
        assert p.smooth_value_grad == inst.value_grad
        for y in rng.uniform(-3.0, 3.0, (6, inst.dim)):
            val, g = inst.value_grad(y)
            assert type(val) is float
            assert np.float64(val).tobytes() == np.float64(inst.f(y)).tobytes()
            assert g.shape == (inst.dim,) and g.tobytes() == inst.grad(y).tobytes()


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.parametrize("n", [1, 4, 32, 1037, 2048])
def test_oracles_equal_matmul_expressions_bit_for_bit(n):
    # the oracles call ndarray.dot, which is cheaper per call than @; both
    # must reach the same BLAS arithmetic, up to the n=2048 dense QP and the
    # 1024 x 2048 lasso of the large benchmark runs, which the trace
    # fingerprint (n <= 64) does not reach.  From 2^20 entries on, on one BLAS
    # thread, the product with Q or A is split in two row halves: the 1037 x
    # 1037 QP, odd in both sizes, and the n=2048 QP and lasso take the split
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n
    b = rng.uniform(-0.5, 0.5, n)
    qp_inst = QuadraticInstance("convex-qp", Q, b, -np.ones(n), np.ones(n), 1.0, 0.0, 0)
    rows = max(1, n // 2)
    A = rng.standard_normal((rows, n)) / math.sqrt(rows)
    target = rng.standard_normal(rows)
    lasso_inst = LassoOnBallInstance("lasso-ball", A, target, 0.1, 10.0, 1.0, 0)
    if _blas_threads() == 1 and _cpus() > 1:
        for inst, matrix in ((qp_inst, Q), (lasso_inst, A)):
            assert isinstance(inst._dot, functools.partial) == (matrix.size >= SPLIT_MIN_ENTRIES)

    def qp_old(y):
        Qy = Q @ y
        return (0.5 * float(y @ (Q @ y)) + float(b @ y), Q @ y + b,
                0.5 * float(y @ Qy) + float(b @ y), Qy + b)

    def lasso_old(y):
        r = A @ y - target
        return 0.5 * float(r @ r), A.T @ (A @ y - target), 0.5 * float(r @ r), A.T @ r

    wide = rng.uniform(-1.0, 1.0, 2 * n)
    for y in (rng.uniform(-1.0, 1.0, n), rng.standard_normal(n) * 1e3, wide[::2]):
        for inst, old in ((qp_inst, qp_old), (lasso_inst, lasso_old)):
            val, g = inst.value_grad(y)
            new = (inst.f(y), inst.grad(y), val, g)
            for got, want in zip(new, old(y)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (inst.kind, n)


def test_brute_force_hand_examples():
    cert = brute_force_optimum(qp([[1.0]], [-0.3]))
    assert abs(cert.y_star[0] - 0.3) < 1e-14
    assert abs(cert.phi_star - (-0.045)) < 1e-15  # 0.5*0.09 - 0.09
    assert cert.kkt_residual <= 1e-10
    assert cert.method == "active-set-enumeration"

    cert = brute_force_optimum(qp(np.eye(2), [-2.0, 0.0]))
    np.testing.assert_allclose(cert.y_star, [1.0, 0.0], atol=1e-14)

    cert = brute_force_optimum(qp([[-1.0]], [0.0]))
    assert abs(abs(cert.y_star[0]) - 1.0) < 1e-14
    assert abs(cert.phi_star - (-0.5)) < 1e-14

    cert = brute_force_optimum(qp(np.eye(2), [0.0, 0.0]))
    np.testing.assert_allclose(cert.y_star, [0.0, 0.0], atol=1e-14)
    assert cert.phi_star == 0.0

    # saddle: minimum sits on the boundary of the concave coordinate
    cert = brute_force_optimum(qp(np.diag([1.0, -1.0]), [0.0, 0.0]))
    assert abs(cert.y_star[0]) < 1e-14
    assert abs(abs(cert.y_star[1]) - 1.0) < 1e-14
    assert abs(cert.phi_star - (-0.5)) < 1e-14

    # flat second coordinate: every face that frees it has a singular reduced
    # system, so the optimum comes from its bound faces
    cert = brute_force_optimum(qp(np.diag([1.0, 0.0]), [0.3, -0.2]))
    np.testing.assert_allclose(cert.y_star, [-0.3, 1.0], atol=1e-15)
    assert abs(cert.phi_star - (-0.245)) < 1e-15  # 0.045 - 0.09 - 0.2


def brute_force_per_face(inst):
    """brute_force_optimum as it was before it grouped the faces by free set:
    one reduced solve per face, in itertools.product order."""
    n = inst.dim
    Q, b, lo, hi = inst.Q, inst.b, inst.lower, inst.upper
    best_y, best_phi = None, math.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        y = np.where(np.array(pattern) < 0, lo, hi).astype(float)
        free = [i for i in range(n) if pattern[i] == 0]
        fixed = [i for i in range(n) if pattern[i] != 0]
        if free:
            F = np.asarray(free)
            rhs = -b[F]
            if fixed:
                rhs = rhs - Q[np.ix_(F, fixed)] @ y[fixed]
            try:
                yF = np.linalg.solve(Q[np.ix_(F, F)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(yF < lo[F] - 1e-12) or np.any(yF > hi[F] + 1e-12):
                continue
            y[F] = np.clip(yF, lo[F], hi[F])
        g = Q @ y + b
        if any(pattern[i] < 0 and g[i] < -1e-10 or pattern[i] > 0 and g[i] > 1e-10
               for i in fixed):
            continue
        phi = inst.f(y)
        if phi < best_phi:
            best_phi, best_y = phi, y
    return best_y, best_phi, float(np.linalg.norm(np.clip(best_y - inst.grad(best_y), lo, hi)
                                                  - best_y))


def test_brute_force_matches_the_per_face_loop():
    # grouping the faces by free set changes no bit of the certificate; the
    # flat and zero Hessians make faces singular, and the zero one ties every
    # candidate, so that the first face in itertools.product order must win
    insts = [qp(np.diag([1.0, 0.0]), [0.3, -0.2]), qp(np.zeros((2, 2)), [0.0, 0.0]),
             qp([[-1.0]], [0.0]), qp([[1.0, 1.0], [1.0, 1.0]], [0.5, -0.5], [-1, 0], [2, 1]),
             qp(np.diag([2.0, 0.0, -1.0]), [0.0, 0.1, 0.0])]
    for n in (1, 2, 3, 4):
        for seed in range(4):
            insts += [make_convex_qp(n, seed)[1], make_nonconvex_qp(n, seed, negfrac=0.5)[1],
                      make_convex_qp(n, seed, eigenvalues=np.geomspace(1e-3, 1.0, n))[1]]
    for inst in insts:
        cert = brute_force_optimum(inst)
        y, phi, kkt = brute_force_per_face(inst)
        assert cert.y_star.tobytes() == y.tobytes()
        assert np.float64(cert.phi_star).tobytes() == np.float64(phi).tobytes()
        assert np.float64(cert.kkt_residual).tobytes() == np.float64(kkt).tobytes()


def test_brute_force_dimension_cap():
    with pytest.raises(ValueError, match=r"^oracle needs n <= 4 for quadratics$"):
        brute_force_optimum(qp(np.eye(5), np.zeros(5)))


def test_brute_force_agrees_with_fine_grid(rng):
    for seed in range(6):
        _, inst = make_nonconvex_qp(2, seed, negfrac=0.5)
        enum_cert = brute_force_optimum(inst)
        quad = lambda mesh: 0.5 * np.einsum("ij,jk,ik->i", mesh, inst.Q, mesh) + mesh @ inst.b
        grid_phi = inst.f(grid_min_2d(quad, inst.lower, inst.upper, points=801, rounds=8))
        assert abs(enum_cert.phi_star - grid_phi) <= 1e-8
        assert enum_cert.phi_star <= grid_phi + 1e-12


def test_certificates_pass_kkt(rng):
    for seed in range(8):
        maker = make_convex_qp if seed % 2 else make_nonconvex_qp
        _, inst = maker(3, seed)
        cert = brute_force_optimum(inst)
        assert cert.kkt_residual <= 1e-10
        # no feasible point sampled at random beats the certified optimum
        pts = sample_feasible(inst, rng, 200)
        vals = 0.5 * np.einsum("ij,jk,ik->i", pts, inst.Q, pts) + pts @ inst.b
        assert vals.min() >= cert.phi_star - 1e-10


def test_lasso_certificate_kkt():
    for seed in (0, 1, 2):
        p, inst = make_lasso_on_ball(8, 8, seed)
        cert = lasso_optimum(inst)
        assert cert.method == "projected-gradient-highacc"
        assert cert.kkt_residual <= 1e-10


def lasso_optimum_full_loop(inst):
    """lasso_optimum as it was before it tried the polish periodically:
    iterate until no coordinate moves by 1e-15, then polish once."""
    A, target, lam = inst.A, inst.target, inst.weight
    L = inst.lipschitz_L
    t = 1.0 / L
    y = np.zeros(inst.dim)
    x = y.copy()
    a_prev = 1.0
    for _ in range(200_000):
        g = A.T @ (A @ x - target)
        y_new = soft_threshold(x - t * g, t * lam)
        a_cur = (1.0 + math.sqrt(1.0 + 4.0 * a_prev * a_prev)) / 2.0
        x = y_new + ((a_prev - 1.0) / a_cur) * (y_new - y)
        if np.max(np.abs(y_new - y)) < 1e-15:
            y = y_new
            break
        y, a_prev = y_new, a_cur
    support = np.flatnonzero(np.abs(y) > 1e-12)
    if support.size:
        signs = np.sign(y[support])
        As = A[:, support]
        try:
            ys = np.linalg.solve(As.T @ As, As.T @ target - lam * signs)
            if np.all(np.sign(ys) == signs):
                resid = As @ ys - target
                if np.max(np.abs(A.T @ resid)) <= lam * (1.0 + 1e-9):
                    y = np.zeros(inst.dim)
                    y[support] = ys
        except np.linalg.LinAlgError:
            pass
    assert np.linalg.norm(y) < inst.radius
    g = inst.grad(y)
    kkt = L * float(np.linalg.norm(soft_threshold(y - t * g, t * lam) - y))
    phi = inst.f(y) + lam * float(np.sum(np.abs(y)))
    return y, phi, kkt


def assert_same_certificate(cert, full_loop):
    y, phi, kkt = full_loop
    assert cert.y_star.tobytes() == y.tobytes()
    assert np.float64(cert.phi_star).tobytes() == np.float64(phi).tobytes()
    assert np.float64(cert.kkt_residual).tobytes() == np.float64(kkt).tobytes()
    assert cert.method == "projected-gradient-highacc"


@pytest.mark.parametrize("weight_scale", [0.01, 0.05, 0.3])
@pytest.mark.parametrize("n,rows", [(12, 6), (6, 16), (8, 8)], ids=["wide", "tall", "square"])
def test_lasso_early_polish_matches_the_full_loop(n, rows, weight_scale):
    # the polished point depends only on the support and its signs, so
    # stopping at the first polish that passes must not move a single bit
    for seed in (3, 4):
        _, inst = make_lasso_on_ball(n, rows, seed, weight_scale=weight_scale)
        assert_same_certificate(lasso_optimum(inst), lasso_optimum_full_loop(inst))


def test_lasso_polish_that_never_passes_keeps_the_full_loop():
    # two equal columns: the support holds both, so its normal matrix As'As
    # is singular and the exact solve on it fails
    _, base = make_lasso_on_ball(6, 10, 1)
    A = base.A.copy()
    j = int(np.argmax(np.abs(A.T @ base.target)))  # a column the optimum uses
    assert j != 1
    A[:, 1] = A[:, j]
    weight = 0.05 * float(np.max(np.abs(A.T @ base.target)))
    L = float(np.max(np.linalg.eigvalsh(A.T @ A)))
    inst = LassoOnBallInstance("lasso-ball", A, base.target, weight, 100.0, L, seed=-1)
    cert = lasso_optimum(inst)
    assert cert.y_star[j] != 0.0 and cert.y_star[1] != 0.0
    assert _support_polish(inst, cert.y_star) is None
    # with no polish the point is the iteration's own, which stops on another
    # test than the full loop's, so the two agree to rounding, not bit for bit
    y_ref, phi_ref, _ = lasso_optimum_full_loop(inst)
    assert cert.kkt_residual <= 1e-13
    assert np.max(np.abs(cert.y_star - y_ref)) <= 1e-12
    assert abs(cert.phi_star - phi_ref) <= 4 * np.spacing(phi_ref)


@pytest.mark.parametrize("n,seed,weight_scale", [(1, 7, 0.05), (2, 3, 0.005), (3, 2, 0.005),
                                                  (3, 3, 0.005)])
def test_lasso_optimum_on_one_row_instances(n, seed, weight_scale):
    # the first optimum lay outside the old ridge-sized ball; on the others
    # the polish solved a singular system, and only the ball test caught its
    # huge point
    _, inst = make_lasso_on_ball(n, 1, seed, weight_scale=weight_scale)
    cert = lasso_optimum(inst)
    assert cert.kkt_residual <= 1e-15
    # the radius bound: ||y*||_1 <= ||y_ls||_1, and the ball is twice that
    y_ls = np.linalg.lstsq(inst.A, inst.target, rcond=None)[0]
    assert np.abs(cert.y_star).sum() <= np.abs(y_ls).sum() <= 0.5 * inst.radius


def test_support_polish_refuses_a_support_larger_than_the_rows():
    # one row and two free coordinates: As'As is singular, and its numerical
    # solve gave a point near 1e13 that passed the sign test and the dual bound
    _, inst = make_lasso_on_ball(2, 1, 3, weight_scale=0.005)
    for signs in ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)):
        assert _support_polish(inst, np.array(signs)) is None


def test_support_polish_refuses_a_point_past_the_dual_bound():
    # A = I, target (1, 1), weight 0.1: the optimum is (0.9, 0.9).  On the
    # support {0} the solve gives 0.9 with the right sign, but the dropped
    # coordinate's correlation |(A'r)_1| = 1 exceeds the weight
    inst = LassoOnBallInstance("lasso-ball", np.eye(2), np.ones(2), 0.1, 10.0, 1.0, seed=-1)
    assert _support_polish(inst, np.array([1.0, 0.0])) is None
    np.testing.assert_allclose(_support_polish(inst, np.array([1.0, 1.0])), [0.9, 0.9],
                               rtol=1e-15)


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


@pytest.mark.parametrize("number", [np.float64, np.int64])
def test_round_trip_of_numpy_scalar_constants(tmp_path, number):
    # the constants are stored as Python numbers, so the header holds their
    # plain repr, never 'np.float64(1.0)', and the file loads back
    seed = np.int64(3)
    qp_inst = QuadraticInstance("nonconvex-qp", np.eye(2), np.zeros(2), -np.ones(2), np.ones(2),
                                number(2), number(1), seed)
    lasso = LassoOnBallInstance("lasso-ball", np.ones((1, 2)), np.ones(1), number(1),
                                number(10), number(2), seed, number(0))
    for inst, names in ((qp_inst, ("lipschitz_L", "known_m")),
                        (lasso, ("lipschitz_L", "known_m", "weight", "radius"))):
        assert type(inst.seed) is int and inst.seed == 3
        for name in names:
            assert type(getattr(inst, name)) is float, name
        path = tmp_path / f"{inst.kind}.txt"
        save_instance(inst, path)
        assert " seed=3 L=2.0 " in path.read_text()
        back = load_instance(path)
        for name in ("seed", *names):
            assert getattr(back, name) == getattr(inst, name), name
        path2 = tmp_path / "again.txt"
        save_instance(back, path2)
        assert path2.read_bytes() == path.read_bytes()


def test_sets_are_built_once_outside_the_fields():
    # box() and regularizer() return the set built at construction, which
    # sits in a slot: vars() holds the fields alone, so a field-by-field
    # comparison of two instances never meets a set of arrays
    _, qp_inst = make_convex_qp(3, 1)
    _, lasso = make_lasso_on_ball(3, 2, 1)
    assert qp_inst.box() is qp_inst.box()
    assert lasso.regularizer() is lasso.regularizer()
    for inst in (qp_inst, lasso):
        assert set(vars(inst)) == {f.name for f in dataclasses.fields(inst)}


def _valid_fields(cls):
    if cls is QuadraticInstance:
        return dict(kind="convex-qp", Q=np.eye(2), b=np.zeros(2), lower=-np.ones(2),
                    upper=np.ones(2), lipschitz_L=1.0, known_m=0.0, seed=0)
    return dict(kind="lasso-ball", A=np.ones((1, 2)), target=np.ones(1), weight=0.1,
                radius=10.0, lipschitz_L=1.0, seed=0)


@pytest.mark.parametrize("cls,field,value", [
    (QuadraticInstance, "kind", "lasso-ball"),
    (QuadraticInstance, "Q", np.ones((2, 3))),
    (QuadraticInstance, "Q", np.ones(2)),
    (QuadraticInstance, "Q", np.array([[1.0, 0.0], [0.0, np.nan]])),
    (QuadraticInstance, "b", np.zeros(3)),
    (QuadraticInstance, "b", np.array([0.0, np.inf])),
    (QuadraticInstance, "lower", -np.ones((2, 1))),
    (QuadraticInstance, "lower", np.array([-np.inf, -1.0])),
    (QuadraticInstance, "upper", np.array([1.0, np.nan])),
    (QuadraticInstance, "upper", np.array([1.0, -2.0])),  # below its lower bound
    (QuadraticInstance, "lipschitz_L", 0.0),
    (QuadraticInstance, "lipschitz_L", -1.0),
    (QuadraticInstance, "lipschitz_L", np.inf),
    (QuadraticInstance, "known_m", -0.5),
    (QuadraticInstance, "known_m", np.nan),
    (LassoOnBallInstance, "kind", "convex-qp"),
    (LassoOnBallInstance, "A", np.ones(2)),
    (LassoOnBallInstance, "A", np.ones((0, 2))),
    (LassoOnBallInstance, "A", np.array([[1.0, np.nan]])),
    (LassoOnBallInstance, "target", np.ones(2)),
    (LassoOnBallInstance, "target", np.array([-np.inf])),
    (LassoOnBallInstance, "weight", 0.0),
    (LassoOnBallInstance, "weight", np.nan),
    (LassoOnBallInstance, "radius", -1.0),
    (LassoOnBallInstance, "radius", np.inf),
    (LassoOnBallInstance, "lipschitz_L", 0.0),
    (LassoOnBallInstance, "known_m", -1.0),
])
def test_construction_refuses_an_invalid_field_by_name(cls, field, value):
    cls(**_valid_fields(cls))
    with pytest.raises(ValueError, match=f"^{field}: "):
        cls(**{**_valid_fields(cls), field: value})


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -5e-324, -1.7976931348623157e308, 0.0]


def test_round_trip_keeps_signed_zero_subnormal_and_largest_double(tmp_path):
    # the payload parser must give back every double bit for bit (== would
    # equate 0.0 with -0.0; the raw bytes do not)
    edge = np.array(EDGE_FLOATS)
    Q = np.array([np.roll(edge, i)[:3] for i in range(3)])
    # the bounds keep lower <= upper and stay clear of the largest doubles
    qp_inst = QuadraticInstance("nonconvex-qp", Q, edge[3:], edge[[0, 3, 5]], edge[[5, 1, 5]],
                                1.0, 0.5, 1)
    lasso = LassoOnBallInstance("lasso-ball", edge.reshape(2, 3), edge[:2], 0.1, 10.0, 1.0, 2)
    for inst, arrays in ((qp_inst, ("Q", "b", "lower", "upper")), (lasso, ("A", "target"))):
        path = tmp_path / f"{inst.kind}.txt"
        save_instance(inst, path)
        back = load_instance(path)
        for name in arrays:
            assert getattr(back, name).tobytes() == getattr(inst, name).tobytes(), name
        assert "-0.0" in path.read_text() and "5e-324" in path.read_text()


QP_1D = "convex-qp n=1 seed=0 L=1.0 m=0.0\n1.0\n0.5\n-1.0\n1.0\n"
LASSO_2D = "lasso-ball n=2 rows=1 seed=0 L=1.0 m=0.0 lam=0.1 radius=10.0\n1.0 0.5\n0.3\n"
QP_2D_HEADER = "convex-qp n=2 seed=0 L=1.0 m=0.0\n"


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    for good in (QP_1D, LASSO_2D):  # each case below breaks one thing in these
        path.write_text(good)
        load_instance(path)
    cases = [
        (QP_2D_HEADER + "1.0 0.0\n", "expected 5 payload lines, got 1"),
        ("mystery n=1 seed=0 L=1.0 m=0.0\n1.0\n", "unknown instance kind 'mystery'"),
        # header fields: missing, or not a number of the right type
        (QP_1D.replace(" n=1", ""), "header has no n= field"),
        (QP_1D.replace("n=1", "n=abc"), "header field n='abc': invalid literal for int()"),
        (QP_1D.replace(" L=1.0", ""), "header has no L= field"),
        (QP_1D.replace(" m=0.0", ""), "header has no m= field"),
        (QP_1D.replace("m=0.0", "m=zero"), "header field m='zero': could not convert"),
        (QP_1D.replace(" seed=0", ""), "header has no seed= field"),
        (QP_1D.replace("seed=0", "seed=1.5"), "header field seed='1.5': invalid literal"),
        (LASSO_2D.replace(" rows=1", ""), "header has no rows= field"),
        (LASSO_2D.replace("rows=1", "rows=one"), "header field rows='one': invalid literal"),
        # sizes must be positive
        (QP_1D.replace("n=1", "n=0"), "header field n='0': must be a positive integer"),
        (QP_1D.replace("n=1", "n=-3"), "header field n='-3': must be a positive integer"),
        (LASSO_2D.replace("rows=1", "rows=0"), "header field rows='0': must be a positive integer"),
        (LASSO_2D.replace(" m=0.0", ""), "header has no m= field"),
        (LASSO_2D.replace(" lam=0.1", ""), "header has no lam= field"),
        (LASSO_2D.replace("lam=0.1", "lam=x"), "header field lam='x': could not convert"),
        (LASSO_2D.replace(" radius=10.0", ""), "header has no radius= field"),
        (LASSO_2D.replace("radius=10.0", "radius=big"), "header field radius='big': could not"),
        # payload lines: a token that is no number, or the wrong count of numbers
        (QP_1D.replace("\n0.5\n", "\nx\n"), "line 3: could not convert string to float: 'x'"),
        (QP_2D_HEADER + "1.0 0.0 0.0\n" * 5, "line 2: expected 2 numbers, got 3"),
        (QP_2D_HEADER + "1.0 0.0\n1.0\n0.1 0.2\n-1.0 -1.0\n1.0 1.0\n",
         "line 3: expected 2 numbers, got 1"),
        (LASSO_2D.replace("\n0.3\n", "\n0.3 0.4\n"), "line 3: expected 1 numbers, got 2"),
        (LASSO_2D.replace("1.0 0.5", "1.0"), "line 2: expected 2 numbers, got 1"),
        # every number must be finite, in the header and in the payload
        (QP_1D.replace("L=1.0", "L=nan"), "header field L='nan': expected a finite number"),
        (QP_1D.replace("m=0.0", "m=-inf"), "header field m='-inf': expected a finite number"),
        (LASSO_2D.replace("lam=0.1", "lam=inf"), "header field lam='inf': expected a finite"),
        (LASSO_2D.replace("radius=10.0", "radius=1e999"),
         "header field radius='1e999': expected a finite number"),
        (LASSO_2D.replace("L=1.0", "L=NaN"), "header field L='NaN': expected a finite number"),
        (QP_1D.replace("\n1.0\n0.5", "\nnan\n0.5"), "line 2: expected a finite number, got 'nan'"),
        (QP_1D.replace("\n0.5\n", "\n-inf\n"), "line 3: expected a finite number, got '-inf'"),
        (QP_2D_HEADER + "1.0 0.0\n0.0 1.0\n0.1 0.2\n-1.0 -1.0\n1.0 Infinity\n",
         "line 6: expected a finite number, got 'Infinity'"),
        (LASSO_2D.replace("1.0 0.5", "1.0 1e400"), "line 2: expected a finite number, got '1e400'"),
        (LASSO_2D.replace("\n0.3\n", "\nNaN\n"), "line 3: expected a finite number, got 'NaN'"),
        (QP_2D_HEADER + "1.0 0.0\n0.0 nan\n0.1 0.2\n-1.0 -1.0\n1.0 1.0\n",
         "line 3: expected a finite number, got 'nan'"),
        # in range: L, lam and radius positive, m nonnegative, every lower <= its upper
        (QP_1D.replace("L=1.0", "L=0.0"), "header field L='0.0': must be positive, got 0.0"),
        (QP_1D.replace("m=0.0", "m=-0.5"), "header field m='-0.5': must be nonnegative, got -0.5"),
        (LASSO_2D.replace("lam=0.1", "lam=0.0"), "header field lam='0.0': must be positive, got 0.0"),
        (LASSO_2D.replace("radius=10.0", "radius=-1.0"),
         "header field radius='-1.0': must be positive, got -1.0"),
        (QP_2D_HEADER + "1.0 0.0\n0.0 1.0\n0.1 0.2\n-1.0 0.0\n1.0 -1.0\n",
         "line 6: expected upper >= lower, got '-1.0'"),
        # a header key given twice
        (QP_1D.replace("m=0.0", "m=0.0 L=5.0"), "header field L is given twice"),
        # a header key the kind does not have, and a token that is no key=value
        (QP_1D.replace("m=0.0", "m=0.0 lam=3 junk"), "header field lam is not a convex-qp field"),
        (QP_1D.replace("n=1", "n=1 rows=1"), "header field rows is not a convex-qp field"),
        (LASSO_2D.replace("lam=0.1", "lam=0.1 cond=3"),
         "header field cond is not a lasso-ball field"),
        (QP_1D.replace("m=0.0", "m=0.0 junk"), "header field junk has no '=' and value"),
        (LASSO_2D.replace("rows=1", "rows"), "header field rows has no '=' and value"),
        # bytes that are not ASCII
        (QP_1D.replace("m=0.0", "m=0.0 caf\u00e9=1"),
         "'ascii' codec can't decode byte 0xc3 in position 36: ordinal not in range(128)"),
    ]
    for content, message in cases:
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            load_instance(path)


@pytest.mark.parametrize("content", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_load_rejects_file_without_header(tmp_path, content):
    path = tmp_path / "empty.txt"
    path.write_text(content)
    with pytest.raises(ValueError, match=f"^{path}: no instance header"):
        load_instance(path)


def test_sample_feasible_in_domain(rng):
    p, inst = make_lasso_on_ball(5, 5, 1)
    pts = sample_feasible(inst, rng, 100)
    assert np.all(np.linalg.norm(pts, axis=1) <= inst.radius + 1e-9)
    pq, instq = make_convex_qp(4, 2)
    pts = sample_feasible(instq, rng, 100)
    assert np.all(np.abs(pts) <= 1.0)
