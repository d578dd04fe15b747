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

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeProblem
from .prox import (BallSet, BoxSet, L1OnBall, _prox_value_box, _prox_value_l1_on_ball,
                   prox_box_indicator, prox_l1_on_ball, soft_threshold)
from .solver import next_momentum

__all__ = [
    "QuadraticInstance",
    "LassoOnBallInstance",
    "OracleCertificate",
    "make_convex_qp",
    "make_nonconvex_qp",
    "make_lasso_on_ball",
    "to_problem",
    "brute_force_optimum",
    "lasso_optimum",
    "save_instance",
    "load_instance",
    "save_certificate",
    "load_certificate",
]

MAX_ENUM_DIM = 4   # active-set enumeration is 3^n reduced solves
POLISH_EVERY = 50  # lasso_optimum's prox-gradient iterations between support polishes


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

    def f(self, y: np.ndarray) -> float:
        return 0.5 * float(y.dot(self.Q.dot(y))) + float(self.b.dot(y))

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self.Q.dot(y) + self.b

    def value_grad(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(y), grad(y)) bit for bit, from one product Q y."""
        Qy = self.Q.dot(y)
        return 0.5 * float(y.dot(Qy)) + float(self.b.dot(y)), Qy + self.b

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

    def f(self, y: np.ndarray) -> float:
        r = self.A.dot(y) - self.target
        return 0.5 * float(r.dot(r))

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self.A.T.dot(self.A.dot(y) - self.target)

    def value_grad(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(y), grad(y)) bit for bit, from one residual A y - target."""
        r = self.A.dot(y) - self.target
        return 0.5 * float(r.dot(r)), self.A.T.dot(r)

    def regularizer(self) -> L1OnBall:
        return L1OnBall(self.weight, BallSet(self.dim, self.radius))


@dataclass
class OracleCertificate:
    """An optimum y_star with its value phi_star, found by `method`.
    kkt_residual is the fixed-point KKT residual at y_star, recorded for the
    reader; no code accepts or refuses a certificate on its size."""

    y_star: np.ndarray
    phi_star: float
    kkt_residual: float
    method: str              # active-set-enumeration | projected-gradient-highacc


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


def make_nonconvex_qp(n: int, seed: int, negfrac: float = 0.25
                      ) -> tuple[CompositeProblem, QuadraticInstance]:
    """Indefinite quadratic over the box [-1, 1]^n.

    A `negfrac` fraction of the eigenvalues (at least one) is negative, with
    magnitudes in [0.01, 1]; L is the largest magnitude and the
    weak-convexity modulus is the most negative eigenvalue's magnitude.
    """
    if not 1 <= n <= 64:
        raise ValueError("n must be in [1, 64]")
    if not 0.0 < negfrac < 1.0:
        raise ValueError("negfrac must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n_neg = min(n, max(1, int(round(negfrac * n))))
    mags_pos = rng.uniform(1e-2, 1.0, n - n_neg)
    mags_neg = rng.uniform(1e-2, 1.0, n_neg)
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
    never kills every coordinate.  The ball radius is the larger of 10x the
    ridge solution's norm (at least 10) and 2 ||y_ls||_1, where y_ls is the
    least-squares solution lstsq returns.  The second term keeps the
    unconstrained optimum y* strictly interior: phi(y*) <= phi(y_ls) and
    ||A y* - target|| >= ||A y_ls - target|| give ||y*||_1 <= ||y_ls||_1,
    and ||y*||_2 <= ||y*||_1.
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
    y_ls = np.linalg.lstsq(A, target, rcond=None)[0]
    radius = max(10.0 * max(1.0, float(np.linalg.norm(ridge))), 2.0 * float(np.abs(y_ls).sum()))
    inst = LassoOnBallInstance("lasso-ball", A, target, weight, radius, L, seed)
    return to_problem(inst), inst


def to_problem(inst) -> CompositeProblem:
    """Assemble the oracle bundle for a generated instance."""
    if isinstance(inst, QuadraticInstance):
        h, prox, prox_value = inst.box(), prox_box_indicator, _prox_value_box
    elif isinstance(inst, LassoOnBallInstance):
        h, prox, prox_value = inst.regularizer(), prox_l1_on_ball, _prox_value_l1_on_ball
    else:
        raise TypeError(f"unknown instance type {type(inst).__name__}")
    return CompositeProblem(
        dim=inst.dim,
        smooth_value=inst.f,
        smooth_grad=inst.grad,
        h_value=h.h_value,
        h_prox=functools.partial(prox, h),
        lipschitz_L=inst.lipschitz_L,
        smooth_value_grad=inst.value_grad,
        smooth_is_quadratic=True,
        h_prox_value=functools.partial(prox_value, h),
    )


def _box_kkt_residual(inst: QuadraticInstance, y: np.ndarray) -> float:
    """Projected-gradient fixed-point residual ||P_box(y - grad) - y||."""
    g = inst.grad(y)
    return float(np.linalg.norm(np.clip(y - g, inst.lower, inst.upper) - y))


def brute_force_optimum(inst: QuadraticInstance) -> OracleCertificate:
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


def _support_polish(inst: LassoOnBallInstance, y: np.ndarray) -> Optional[np.ndarray]:
    """The exact stationary point on y's support with y's signs fixed, or
    None when it fails the sign test or the off-support dual bound.

    A support larger than A's row count is refused too: As'As then has rank
    at most rows and fixes no unique point, and its numerical solve returns
    a huge point that can still pass both tests.
    """
    A, target, lam = inst.A, inst.target, inst.weight
    support = np.flatnonzero(np.abs(y) > 1e-12)
    if not 0 < support.size <= A.shape[0]:
        return None
    signs = np.sign(y[support])
    As = A[:, support]
    try:
        ys = np.linalg.solve(As.T @ As, As.T @ target - lam * signs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.sign(ys) == signs):
        return None
    resid = As @ ys - target
    if not np.max(np.abs(A.T @ resid)) <= lam * (1.0 + 1e-9):
        return None
    polished = np.zeros(inst.dim)
    polished[support] = ys
    return polished


def lasso_optimum(inst: LassoOnBallInstance) -> OracleCertificate:
    """High-accuracy l1 optimum: accelerated prox-gradient, then an exact
    solve on the identified support.

    The polish step solves the stationarity system restricted to the nonzero
    coordinates with their signs fixed, then verifies the off-support dual
    bound; a point that passes is determined by the support and signs alone.
    It is tried every POLISH_EVERY prox-gradient iterations, and the first
    one that passes is returned.  If none does, the iterations run until no
    coordinate moves by 1e-15 (or 200000 iterations) and the polish is tried
    once more on the last iterate, which is kept if that fails too.  The
    result must lie strictly inside the ball.  kkt_residual is the prox
    fixed-point residual at step 1/L, rescaled to gradient units.
    """
    lam = inst.weight
    L = inst.lipschitz_L
    t = 1.0 / L
    y = np.zeros(inst.dim)
    x = y.copy()
    a_prev = 1.0
    polished = None
    for k in range(1, 200_001):
        g = inst.grad(x)
        y_new = soft_threshold(x - t * g, t * lam)
        a_cur = next_momentum(a_prev)
        x = y_new + ((a_prev - 1.0) / a_cur) * (y_new - y)
        if np.max(np.abs(y_new - y)) < 1e-15:
            y = y_new
            break
        y, a_prev = y_new, a_cur
        if k % POLISH_EVERY == 0:
            polished = _support_polish(inst, y)
            if polished is not None:
                break
    if polished is None:
        polished = _support_polish(inst, y)
    if polished is not None:
        y = polished

    if not np.linalg.norm(y) < inst.radius:
        raise RuntimeError("lasso optimum touched the padding ball; radius too small")
    g = inst.grad(y)
    kkt = L * float(np.linalg.norm(soft_threshold(y - t * g, t * lam) - y))
    phi = inst.f(y) + inst.regularizer().h_value(y)
    return OracleCertificate(y, phi, kkt, "projected-gradient-highacc")


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


def load_instance(path):
    """Read a save_instance file; errors name the path and the bad field or line."""
    with open(path, encoding="ascii") as fh:
        lines = [(lineno, ln.split()) for lineno, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: no instance header (the file is empty)")
    kind, *tokens = lines[0][1]
    hdr = dict(tok.partition("=")[::2] for tok in tokens)

    def field(key, conv):
        try:
            return conv(hdr[key])
        except KeyError:
            raise ValueError(f"{path}: header has no {key}= field") from None
        except ValueError as e:
            raise ValueError(f"{path}: header field {key}={hdr[key]!r}: {e}") from None

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise ValueError("must be a positive integer")
        return value

    # every payload line holds n numbers, except the lasso's target, which holds rows
    n = field("n", positive_int)
    if kind in ("convex-qp", "nonconvex-qp"):
        widths = [n] * (n + 3)
    elif kind == "lasso-ball":
        rows = field("rows", positive_int)
        widths = [n] * rows + [rows]
    else:
        raise ValueError(f"{path}: unknown instance kind {kind!r}")
    if len(lines) - 1 != len(widths):
        raise ValueError(f"{path}: expected {len(widths)} payload lines, got {len(lines) - 1}")
    body = []
    for (lineno, values), width in zip(lines[1:], widths):
        if len(values) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} numbers, got {len(values)}")
        try:
            # numpy's str -> float64 cast parses and words its errors as float() does
            body.append(np.array(values, dtype=float))
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    if kind == "lasso-ball":
        return LassoOnBallInstance(kind, np.vstack(body[:rows]), body[rows], field("lam", float),
                                   field("radius", float), field("L", float), field("seed", int))
    return QuadraticInstance(kind, np.vstack(body[:n]), body[n], body[n + 1], body[n + 2],
                             field("L", float), field("m", float), field("seed", int))


def _load_json_object(path, keys=()) -> dict:
    """The JSON object in `path`; errors name the file and the first missing key."""
    with open(path, encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except ValueError as e:  # malformed JSON, or bytes that are not ASCII
            raise ValueError(f"{path}: {e}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
    return payload


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
    """Read a save_certificate file; errors name the path and the bad key."""
    payload = _load_json_object(path, ("y_star", "phi_star", "kkt_residual", "method"))

    def number(value, what):
        try:
            return float(value)
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: {what}: {e}") from None

    y_star = payload["y_star"]
    if not isinstance(y_star, list):
        raise ValueError(f"{path}: key 'y_star': expected a list, got {type(y_star).__name__}")
    return OracleCertificate(
        np.array([number(v, f"key 'y_star' entry {i}") for i, v in enumerate(y_star)]),
        number(payload["phi_star"], "key 'phi_star'"),
        number(payload["kkt_residual"], "key 'kkt_residual'"),
        payload["method"],
    )
