"""Curated test instances with exactly known constants, plus optimality
oracles for tiny instances.

Two families: box-constrained quadratics (convex or not, the Lipschitz and
weak-convexity constants are exact eigenvalue quantities) and l1-regularized
least squares confined to a generous ball (the ball only keeps dom h bounded;
radii are chosen so it never binds).  Instances are deterministic functions
of their seed and serialize to a flat text format that round-trips
bit-identically.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeProblem
from .prox import BallSet, BoxSet, L1OnBall, prox_box_indicator, prox_l1_on_ball, sample_ball, sample_box

__all__ = [
    "QuadraticInstance",
    "LassoOnBallInstance",
    "OracleCertificate",
    "make_convex_qp",
    "make_nonconvex_qp",
    "make_lasso_on_ball",
    "to_problem",
    "brute_force_optimum",
    "fine_grid_optimum",
    "lasso_optimum",
    "estimate_lipschitz_power",
    "sample_feasible",
    "save_instance",
    "load_instance",
    "save_certificate",
    "load_certificate",
]

MAX_ENUM_DIM = 4   # active-set enumeration is 3^n reduced solves
MAX_GRID_DIM = 2


@dataclass
class QuadraticInstance:
    """f(y) = 0.5 y'Qy + b'y over a box; constants from the exact spectrum."""

    kind: str                # "convex-qp" or "nonconvex-qp"
    Q: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lipschitz_L: float
    known_m: float
    seed: int

    @property
    def dim(self) -> int:
        return self.b.size

    @property
    def convex(self) -> bool:
        return self.known_m == 0.0

    def f(self, y: np.ndarray) -> float:
        return 0.5 * float(y @ (self.Q @ y)) + float(self.b @ y)

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self.Q @ y + self.b

    def box(self) -> BoxSet:
        return BoxSet(self.lower, self.upper)


@dataclass
class LassoOnBallInstance:
    """f(y) = 0.5 ||A y - target||^2, h = weight*||y||_1 + ball indicator.

    The radius is padding only: it is set well clear of the unconstrained
    solution so the bounded-domain assumption holds without binding.
    """

    kind: str                # always "lasso-ball"
    A: np.ndarray
    target: np.ndarray
    weight: float
    radius: float
    lipschitz_L: float
    seed: int
    known_m: float = 0.0

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def convex(self) -> bool:
        return True

    def f(self, y: np.ndarray) -> float:
        r = self.A @ y - self.target
        return 0.5 * float(r @ r)

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self.A.T @ (self.A @ y - self.target)

    def regularizer(self) -> L1OnBall:
        return L1OnBall(self.weight, BallSet(np.zeros(self.dim), self.radius))


@dataclass
class OracleCertificate:
    """Certified optimum: accepted only when the fixed-point KKT residual is tiny."""

    y_star: np.ndarray
    phi_star: float
    kkt_residual: float
    method: str              # active-set-enumeration | fine-grid | projected-gradient-highacc


def _spectrum_to_qp(eigenvalues: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric matrix with the given spectrum (M'M when all >= 0)."""
    n = eigenvalues.size
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = (basis * eigenvalues) @ basis.T
    return 0.5 * (Q + Q.T)


def make_convex_qp(n: int, seed: int,
                   eigenvalues: Optional[np.ndarray] = None,
                   interior_opt: bool = False
                   ) -> tuple[CompositeProblem, QuadraticInstance]:
    """Random PSD quadratic over the box [-1, 1]^n.

    By default Q = M'M / n for Gaussian M.  Passing `eigenvalues` (all >= 0)
    fixes the spectrum instead, which is how the slow, deliberately
    ill-conditioned rate-study instances are built.  With `interior_opt` the
    linear term is chosen as b = -Q y with y well inside the box, so the
    unconstrained optimum is interior and no coordinate locks onto a bound
    (boundary optima make runs converge exactly in finitely many steps).
    """
    if not 1 <= n <= 64:
        raise ValueError("n must be in [1, 64]")
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        M = rng.standard_normal((n, n))
        Q = (M.T @ M) / n
    else:
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        if eigenvalues.size != n or np.any(eigenvalues < 0):
            raise ValueError("need n nonnegative eigenvalues")
        Q = _spectrum_to_qp(eigenvalues, rng)
    if interior_opt:
        b = -Q @ rng.uniform(-0.5, 0.5, n)
    else:
        b = rng.uniform(-0.5, 0.5, n)
    ev = np.linalg.eigvalsh(Q)
    L = float(np.max(np.abs(ev)))
    inst = QuadraticInstance("convex-qp", Q, b, -np.ones(n), np.ones(n), L, 0.0, seed)
    return to_problem(inst), inst


def make_nonconvex_qp(n: int, seed: int, negfrac: float = 0.25,
                      scale_min: float = 1e-2
                      ) -> tuple[CompositeProblem, QuadraticInstance]:
    """Indefinite quadratic over the box [-1, 1]^n.

    A `negfrac` fraction of the eigenvalues (at least one) is negative, with
    magnitudes in [scale_min, 1]; L is the largest magnitude and the
    weak-convexity modulus is the most negative eigenvalue's magnitude.
    """
    if not 1 <= n <= 64:
        raise ValueError("n must be in [1, 64]")
    if not 0.0 < negfrac < 1.0:
        raise ValueError("negfrac must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n_neg = min(n, max(1, int(round(negfrac * n))))
    mags_pos = rng.uniform(scale_min, 1.0, n - n_neg)
    mags_neg = rng.uniform(scale_min, 1.0, n_neg)
    eigenvalues = np.concatenate([mags_pos, -mags_neg])
    rng.shuffle(eigenvalues)
    Q = _spectrum_to_qp(eigenvalues, rng)
    b = rng.uniform(-0.3, 0.3, n)
    ev = np.linalg.eigvalsh(Q)
    L = float(np.max(np.abs(ev)))
    m = float(max(0.0, -ev[0]))
    inst = QuadraticInstance("nonconvex-qp", Q, b, -np.ones(n), np.ones(n), L, m, seed)
    return to_problem(inst), inst


def make_lasso_on_ball(n: int, rows: int, seed: int, weight_scale: float = 0.05,
                       singular_values: Optional[np.ndarray] = None
                       ) -> tuple[CompositeProblem, LassoOnBallInstance]:
    """l1-regularized least squares instance inside a padded ball.

    weight = weight_scale * ||A' target||_inf, so the penalty is active but
    never kills every coordinate.  The ball radius is 10x the ridge solution's
    norm, which keeps the unconstrained optimum strictly interior.
    """
    if not 1 <= n <= 64 or not 1 <= rows <= 64:
        raise ValueError("n and rows must be in [1, 64]")
    rng = np.random.default_rng(seed)
    if singular_values is None:
        A = rng.standard_normal((rows, n)) / math.sqrt(rows)
    else:
        svs = np.asarray(singular_values, dtype=float)
        if svs.size != min(rows, n) or np.any(svs < 0):
            raise ValueError("need min(rows, n) nonnegative singular values")
        U, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if rows <= n:
            A = (U * svs) @ V[:rows, :]
        else:
            A = (U[:, :n] * svs) @ V.T
    target = rng.standard_normal(rows)
    weight = weight_scale * float(np.max(np.abs(A.T @ target)))
    if weight <= 0:
        weight = 1e-6
    AtA = A.T @ A
    L = float(np.max(np.linalg.eigvalsh(AtA)))
    ridge = np.linalg.solve(AtA + weight * np.eye(n), A.T @ target)
    radius = 10.0 * max(1.0, float(np.linalg.norm(ridge)))
    inst = LassoOnBallInstance("lasso-ball", A, target, weight, radius, L, seed)
    return to_problem(inst), inst


def to_problem(inst) -> CompositeProblem:
    """Assemble the oracle bundle for a generated instance."""
    if isinstance(inst, QuadraticInstance):
        box = inst.box()
        return CompositeProblem(
            dim=inst.dim,
            smooth_value=inst.f,
            smooth_grad=inst.grad,
            h_value=box.h_value,
            h_prox=lambda z, t: prox_box_indicator(box, z, t),
            lipschitz_L=inst.lipschitz_L,
        )
    if isinstance(inst, LassoOnBallInstance):
        reg = inst.regularizer()
        return CompositeProblem(
            dim=inst.dim,
            smooth_value=inst.f,
            smooth_grad=inst.grad,
            h_value=reg.h_value,
            h_prox=lambda z, t: prox_l1_on_ball(reg, z, t),
            lipschitz_L=inst.lipschitz_L,
        )
    raise TypeError(f"unknown instance type {type(inst).__name__}")


def sample_feasible(inst, rng: np.random.Generator, count: int = 1) -> np.ndarray:
    """Points from dom h of the instance, shape (count, dim)."""
    if isinstance(inst, QuadraticInstance):
        return sample_box(inst.box(), rng, count)
    if isinstance(inst, LassoOnBallInstance):
        return sample_ball(BallSet(np.zeros(inst.dim), inst.radius), rng, count)
    raise TypeError(f"unknown instance type {type(inst).__name__}")


def _box_kkt_residual(inst: QuadraticInstance, y: np.ndarray) -> float:
    """Projected-gradient fixed-point residual ||P_box(y - grad) - y||."""
    g = inst.grad(y)
    return float(np.linalg.norm(np.clip(y - g, inst.lower, inst.upper) - y))


def brute_force_optimum(p: CompositeProblem, inst: QuadraticInstance) -> OracleCertificate:
    """Global box-QP optimum by enumerating all 3^n active sets.

    Every face's stationary point is a candidate (coordinates free, at the
    lower bound, or at the upper bound); candidates failing feasibility or
    the KKT sign conditions are dropped, and the best objective wins.  The
    global minimizer always appears: it is stationary on the face whose
    relative interior contains it.
    """
    n = inst.dim
    if n > MAX_ENUM_DIM:
        raise ValueError(f"active-set enumeration supports n <= {MAX_ENUM_DIM}")
    Q, b, lo, hi = inst.Q, inst.b, inst.lower, inst.upper
    best_y = None
    best_phi = math.inf
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        y = np.where(np.array(pattern) < 0, lo, hi).astype(float)
        free = [i for i in range(n) if pattern[i] == 0]
        fixed = [i for i in range(n) if pattern[i] != 0]
        if free:
            F = np.asarray(free)
            rhs = -b[F]
            if fixed:
                rhs = rhs - Q[np.ix_(F, fixed)] @ y[fixed]
            sub = Q[np.ix_(F, F)]
            try:
                yF = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                # singular reduced system: face has no isolated stationary
                # point; its minimizers live on sub-faces we also enumerate
                continue
            if np.any(yF < lo[F] - 1e-12) or np.any(yF > hi[F] + 1e-12):
                continue
            y[F] = np.clip(yF, lo[F], hi[F])
        g = Q @ y + b
        sign_ok = True
        for i in fixed:
            if pattern[i] < 0 and g[i] < -1e-10:
                sign_ok = False
            if pattern[i] > 0 and g[i] > 1e-10:
                sign_ok = False
        if not sign_ok:
            continue
        phi = inst.f(y)
        if phi < best_phi:
            best_phi = phi
            best_y = y
    if best_y is None:
        raise RuntimeError("no feasible KKT candidate found (should be impossible on a box)")
    return OracleCertificate(best_y, best_phi, _box_kkt_residual(inst, best_y),
                             "active-set-enumeration")


def fine_grid_optimum(inst: QuadraticInstance, points_per_dim: int = 801,
                      refinements: int = 8) -> OracleCertificate:
    """Grid-search fallback for n <= 2, refined around the best cell."""
    n = inst.dim
    if n > MAX_GRID_DIM:
        raise ValueError(f"fine grid supports n <= {MAX_GRID_DIM}")
    lo = inst.lower.copy()
    hi = inst.upper.copy()
    best_y = None
    for _ in range(refinements):
        axes = [np.linspace(lo[i], hi[i], points_per_dim) for i in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        vals = 0.5 * np.einsum("ij,jk,ik->i", mesh, inst.Q, mesh) + mesh @ inst.b
        best_y = mesh[int(np.argmin(vals))]
        span = (hi - lo) / (points_per_dim - 1)
        lo = np.maximum(inst.lower, best_y - 2 * span)
        hi = np.minimum(inst.upper, best_y + 2 * span)
    return OracleCertificate(best_y, inst.f(best_y), _box_kkt_residual(inst, best_y),
                             "fine-grid")


def lasso_optimum(p: CompositeProblem, inst: LassoOnBallInstance,
                  max_iters: int = 200_000) -> OracleCertificate:
    """High-accuracy l1 optimum: accelerated prox-gradient, then an exact
    solve on the identified support.

    The polish step solves the stationarity system restricted to the nonzero
    coordinates with their signs fixed, then verifies the off-support dual
    bound and interiority of the ball.  kkt_residual is the prox fixed-point
    residual at step 1/L, rescaled to gradient units.
    """
    A, target, lam = inst.A, inst.target, inst.weight
    L = inst.lipschitz_L
    t = 1.0 / L
    y = np.zeros(inst.dim)
    x = y.copy()
    a_prev = 1.0
    from .prox import soft_threshold  # local import keeps module load light

    for _ in range(max_iters):
        g = A.T @ (A @ x - target)
        y_new = soft_threshold(x - t * g, t * lam)
        a_cur = (1.0 + math.sqrt(1.0 + 4.0 * a_prev * a_prev)) / 2.0
        x = y_new + ((a_prev - 1.0) / a_cur) * (y_new - y)
        if np.max(np.abs(y_new - y)) < 1e-15:
            y = y_new
            break
        y, a_prev = y_new, a_cur

    # exact polish on the support
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

    if not np.linalg.norm(y) < inst.radius:
        raise RuntimeError("lasso optimum touched the padding ball; radius too small")
    g = inst.grad(y)
    kkt = L * float(np.linalg.norm(soft_threshold(y - t * g, t * lam) - y))
    phi = inst.f(y) + lam * float(np.sum(np.abs(y)))
    return OracleCertificate(y, phi, kkt, "projected-gradient-highacc")


def estimate_lipschitz_power(Q: np.ndarray, iters: int = 100) -> float:
    """Power-iteration estimate of the spectral radius of symmetric Q,
    inflated by 1% as an upper-bound surrogate.  Returns 0 for Q = 0."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square")
    if not np.allclose(Q, Q.T, atol=1e-12 * (1.0 + np.max(np.abs(Q)))):
        raise ValueError("Q must be symmetric")
    n = Q.shape[0]
    if not np.any(Q):
        return 0.0
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = Q @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        v = w / nw
        lam = abs(float(v @ (Q @ v)))
    return 1.01 * lam


# ---------------------------------------------------------------------------
# serialization: one header line, then row-major float payload.  Floats are
# printed with repr (shortest round-trip), so load(save(x)) is bit-identical.

def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def save_instance(inst, path) -> None:
    lines = []
    if isinstance(inst, QuadraticInstance):
        lines.append(f"{inst.kind} n={inst.dim} seed={inst.seed} "
                     f"L={inst.lipschitz_L!r} m={inst.known_m!r}")
        for row in inst.Q:
            lines.append(_fmt_floats(row))
        lines.append(_fmt_floats(inst.b))
        lines.append(_fmt_floats(inst.lower))
        lines.append(_fmt_floats(inst.upper))
    elif isinstance(inst, LassoOnBallInstance):
        lines.append(f"{inst.kind} n={inst.dim} rows={inst.A.shape[0]} seed={inst.seed} "
                     f"L={inst.lipschitz_L!r} m=0.0 lam={inst.weight!r} radius={inst.radius!r}")
        for row in inst.A:
            lines.append(_fmt_floats(row))
        lines.append(_fmt_floats(inst.target))
    else:
        raise TypeError(f"unknown instance type {type(inst).__name__}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(line: str) -> tuple[str, dict]:
    parts = line.split()
    kind = parts[0]
    fields = {}
    for tok in parts[1:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    return kind, fields


def load_instance(path):
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    kind, hdr = _parse_header(lines[0])
    n = int(hdr["n"])
    if kind in ("convex-qp", "nonconvex-qp"):
        body = [np.array([float(v) for v in ln.split()]) for ln in lines[1:]]
        if len(body) != n + 3:
            raise ValueError(f"expected {n + 3} payload lines, got {len(body)}")
        Q = np.vstack(body[:n])
        return QuadraticInstance(kind, Q, body[n], body[n + 1], body[n + 2],
                                 float(hdr["L"]), float(hdr["m"]), int(hdr["seed"]))
    if kind == "lasso-ball":
        rows = int(hdr["rows"])
        body = [np.array([float(v) for v in ln.split()]) for ln in lines[1:]]
        if len(body) != rows + 1:
            raise ValueError(f"expected {rows + 1} payload lines, got {len(body)}")
        A = np.vstack(body[:rows])
        return LassoOnBallInstance(kind, A, body[rows], float(hdr["lam"]),
                                   float(hdr["radius"]), float(hdr["L"]), int(hdr["seed"]))
    raise ValueError(f"unknown instance kind {kind!r}")


def save_certificate(cert: OracleCertificate, path) -> None:
    payload = {
        "y_star": [repr(float(v)) for v in cert.y_star],
        "phi_star": repr(float(cert.phi_star)),
        "kkt_residual": repr(float(cert.kkt_residual)),
        "method": cert.method,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)


def load_certificate(path) -> OracleCertificate:
    with open(path, encoding="ascii") as fh:
        payload = json.load(fh)
    return OracleCertificate(
        np.array([float(v) for v in payload["y_star"]]),
        float(payload["phi_star"]),
        float(payload["kkt_residual"]),
        payload["method"],
    )
