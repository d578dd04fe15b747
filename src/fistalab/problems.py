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
import operator
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CompositeProblem
from .prox import (BallSet, BoxSet, L1OnBall, _prox_value_box, _prox_value_l1_on_ball,
                   prox_box_indicator, prox_l1_on_ball, soft_threshold)
# imported by name: the benchmark wraps the solver module's run_* functions to
# time the runs cli makes, and these oracle solves are not among them
from .solver import SolverConfig, run_fista_baseline

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
POLISH_EVERY = 50  # lasso_optimum's first FISTA block; each later block is twice as long
# from this many entries on, a product with a matrix runs as two row halves on two threads,
# bit for bit: the halves meet at a multiple of 8 rows, as the BLAS kernel's row blocks do
# (at row 515 of 1031 the bits change).  µs per product on one BLAS thread of a 2-CPU
# host, whole vs split: 2^18 entries 53 vs 82, 2^19 172 vs 128, 2^20 340 vs 233, 2^22
# 1291 vs 762
SPLIT_MIN_ENTRIES = 1 << 20


class _FieldError(ValueError):
    """A field that breaks its instance class's rules, at flat `index` of an array."""

    def __init__(self, field: str, reason: str, index=None):
        self.field, self.reason, self.index = field, reason, index
        super().__init__(f"{field}: {reason}" + ("" if index is None else f" at entry {index}"))


def _check_fields(inst, names, square: bool, positive) -> None:
    """Check the rules both classes state; store each field as int, float or float64 array."""
    if inst.kind not in inst.KINDS:
        raise _FieldError("kind", f"expected one of {inst.KINDS}, got {inst.kind!r}")
    inst.seed = operator.index(inst.seed)
    for name in (*positive, "known_m"):
        value = float(getattr(inst, name))
        if not math.isfinite(value):
            raise _FieldError(name, "expected a finite number")
        if not (value > 0 if name in positive else value >= 0):
            sign = "positive" if name in positive else "nonnegative"
            raise _FieldError(name, f"must be {sign}, got {value!r}")
        setattr(inst, name, value)
    arrays = [np.asarray(getattr(inst, name), dtype=float) for name in names]
    shape = arrays[0].shape
    if len(shape) != 2 or 0 in shape or square and shape[0] != shape[1]:
        raise _FieldError(names[0], f"expected a nonempty {'square ' * square}matrix, got {shape}")
    for name, a in zip(names, arrays):
        if a is not arrays[0] and a.shape != shape[:1]:
            raise _FieldError(name, f"expected shape {shape[:1]}, got {a.shape}")
        if not np.isfinite(a).all():  # the bad entry is searched for only to name it
            raise _FieldError(name, "expected a finite number", int(np.argmin(np.isfinite(a))))
        setattr(inst, name, a)


def _blas_threads() -> int:
    """The thread count of numpy's bundled OpenBLAS, or 0 where none is found."""
    import ctypes
    import glob
    for lib in map(ctypes.CDLL, glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, name):  # the library numpy loaded, so numpy's thread count
                return getattr(lib, name)()
    return 0


def _matvec(M: np.ndarray):
    """M.dot, or from SPLIT_MIN_ENTRIES on, with two CPUs and one BLAS thread (a threaded
    BLAS holds both CPUs already), the same product in two row halves on two threads."""
    half = M.shape[0] // 2 // 8 * 8
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if M.size < SPLIT_MIN_ENTRIES or not half or cpus < 2 or not M.flags.c_contiguous \
            or _blas_threads() != 1:
        return M.dot
    return functools.partial(_split_dot, M, half)


@functools.cache  # of two made by two first calls at once, the one not kept exits when freed
def _worker(pid: int):
    """The thread that computes the second halves, made on the first split product in
    each process: a forked child has no copy of its parent's thread."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="fistalab-dot")


def _split_dot(M: np.ndarray, half: int, y) -> np.ndarray:
    """M.dot(y), rows half: on the worker thread while the caller computes rows :half."""
    if type(y) is not np.ndarray or y.dtype != np.float64 or y.shape != M.shape[1:]:
        return M.dot(y)  # M.dot's own result or error
    out = np.empty(M.shape[0])
    second = _worker(os.getpid()).submit(np.dot, M[half:], y, out[half:])
    try:
        np.dot(M[:half], y, out[:half])
    finally:  # out is whole, and written no more, once this returns or raises
        second.result()
    return out


@dataclass
class QuadraticInstance:
    """f(y) = 0.5 y'Qy + b'y over a box; constants from the exact spectrum.

    Rules, checked at construction by a ValueError naming the field: kind in KINDS; Q
    (n, n) and b, lower, upper (n,), all finite; lower <= upper; lipschitz_L > 0 and
    known_m >= 0, both finite.  The box is built then: fields are read at construction only.
    """

    KINDS = ("convex-qp", "nonconvex-qp")
    __slots__ = ("_box", "_dot", "__dict__", "__weakref__")  # vars(), like eq, sees fields alone
    kind: str
    Q: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    lipschitz_L: float
    known_m: float
    seed: int

    def __post_init__(self):
        _check_fields(self, ("Q", "b", "lower", "upper"), True, ("lipschitz_L",))
        above = self.lower > self.upper
        if above.any():
            raise _FieldError("upper", "expected upper >= lower", int(np.argmax(above)))
        self._box = BoxSet(self.lower, self.upper)
        self._dot = _matvec(self.Q)

    @property
    def dim(self) -> int:
        return self.b.size

    def f(self, y: np.ndarray) -> float:
        return 0.5 * float(y.dot(self._dot(y))) + float(self.b.dot(y))

    def grad(self, y: np.ndarray) -> np.ndarray:
        return self._dot(y) + self.b

    def value_grad(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(y), grad(y)) bit for bit, from one product Q y."""
        Qy = self._dot(y)
        return 0.5 * float(y.dot(Qy)) + float(self.b.dot(y)), Qy + self.b

    def box(self) -> BoxSet:
        return self._box


@dataclass
class LassoOnBallInstance:
    """f(y) = 0.5 ||A y - target||^2, h = weight*||y||_1 + ball indicator.

    The radius is padding only: it is set well clear of the unconstrained
    solution so the bounded-domain assumption holds without binding.

    Rules, checked at construction by a ValueError naming the field: kind in KINDS; A
    (rows, n) and target (rows,), all finite; weight, radius, lipschitz_L > 0 and
    known_m >= 0, all finite.  The regularizer is built then: fields are read then only.
    """

    KINDS = ("lasso-ball",)
    __slots__ = ("_h", "_dot", "__dict__", "__weakref__")  # vars(), like eq, sees fields alone
    kind: str
    A: np.ndarray
    target: np.ndarray
    weight: float
    radius: float
    lipschitz_L: float
    seed: int
    known_m: float = 0.0

    def __post_init__(self):
        _check_fields(self, ("A", "target"), False, ("weight", "radius", "lipschitz_L"))
        self._h = L1OnBall(self.weight, BallSet(self.dim, self.radius))
        self._dot = _matvec(self.A)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def f(self, y: np.ndarray) -> float:
        r = self._dot(y) - self.target
        return 0.5 * float(r.dot(r))

    def grad(self, y: np.ndarray) -> np.ndarray:
        # r.dot(A) is A'r without building the transposed view; unsplit, as the column
        # splits tried changed bits or ran slower (1.84 against 1.40 ms per gradient)
        return (self._dot(y) - self.target).dot(self.A)

    def value_grad(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(y), grad(y)) bit for bit, from one residual A y - target."""
        r = self._dot(y) - self.target
        return 0.5 * float(r.dot(r)), r.dot(self.A)

    def regularizer(self) -> L1OnBall:
        return self._h


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
    return float(np.linalg.norm(prox_box_indicator(inst.box(), y - g, 1.0) - y))


def brute_force_optimum(inst: QuadraticInstance) -> OracleCertificate:
    """Global box-QP optimum by enumerating all 3^n active sets.

    Every face's stationary point is a candidate (coordinates free, at the
    lower bound, or at the upper bound); candidates failing feasibility or
    the KKT sign conditions are dropped, and the best objective wins, the
    first in itertools.product((-1, 0, 1), repeat=n) order on a tie.  The
    global minimizer always appears: it is stationary on the face whose
    relative interior contains it.  Faces are taken by free set, whose
    reduced matrix serves every lower/upper pattern of the fixed coordinates.
    """
    n = inst.dim
    if n > MAX_ENUM_DIM:
        raise ValueError(f"oracle needs n <= {MAX_ENUM_DIM} for quadratics")
    Q, b, lo, hi = inst.Q, inst.b, inst.lower, inst.upper
    best_y = best_pattern = None
    best_phi = math.inf
    for is_free in itertools.product((False, True), repeat=n):
        free = [i for i in range(n) if is_free[i]]
        fixed = [i for i in range(n) if not is_free[i]]
        patterns = []
        for sides in itertools.product((-1, 1), repeat=len(fixed)):
            pattern = [0] * n
            for i, side in zip(fixed, sides):
                pattern[i] = side
            patterns.append(pattern)
        ys = [np.where(np.array(pattern) < 0, lo, hi).astype(float) for pattern in patterns]
        if free:
            F = np.asarray(free)
            rhs = -b[F]
            if fixed:
                coupling = Q[np.ix_(F, fixed)]
                rhs = [rhs - coupling @ y[fixed] for y in ys]
            sub = Q[np.ix_(F, F)]
            try:
                # one LAPACK solve per pattern, as for a single right-hand side
                yFs = np.linalg.solve(np.broadcast_to(sub, (len(ys), *sub.shape)),
                                      np.reshape(rhs, (len(ys), len(free), 1)))[..., 0]
            except np.linalg.LinAlgError:
                # singular reduced system: face has no isolated stationary
                # point; its minimizers live on sub-faces we also enumerate
                continue
            inside = ~(np.any(yFs < lo[F] - 1e-12, axis=1) | np.any(yFs > hi[F] + 1e-12, axis=1))
            patterns = [pt for pt, ok in zip(patterns, inside) if ok]
            ys = [y for y, ok in zip(ys, inside) if ok]
            for y, yF in zip(ys, yFs[inside]):
                y[F] = np.clip(yF, lo[F], hi[F])
        for pattern, y in zip(patterns, ys):
            g = Q @ y + b
            if any(pattern[i] < 0 and g[i] < -1e-10 or pattern[i] > 0 and g[i] > 1e-10
                   for i in fixed):
                continue
            phi = inst.f(y)
            # (-1, 0, 1) sort as they are listed, so itertools.product order
            # is the lexicographic order of the patterns
            if phi < best_phi or (best_y is not None and phi == best_phi
                                   and pattern < best_pattern):
                best_phi, best_y, best_pattern = phi, y, pattern
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
    """High-accuracy l1 optimum: FISTA at step 1/L, then an exact solve on
    the identified support.

    The polish step solves the stationarity system restricted to the nonzero
    coordinates with their signs fixed, then verifies the off-support dual
    bound; a point that passes is determined by the support and signs alone.
    FISTA runs through `run_fista_baseline` in blocks of POLISH_EVERY, then
    twice as many iterations as the block before, each block starting from
    the last one's iterate.  The polish is tried after every block and the
    first one that passes is returned.  If none does, the blocks run until
    one stops on ||v|| <= 1e-15 L (or 200000 iterations in all), and that
    block's iterate is kept.  The result must lie strictly inside the ball.
    kkt_residual is the prox fixed-point residual at step 1/L, rescaled to
    gradient units.
    """
    lam = inst.weight
    L = inst.lipschitz_L
    t = 1.0 / L
    p = to_problem(inst)
    y = np.zeros(inst.dim)
    block, left = POLISH_EVERY, 200_000
    while left > 0:
        block = min(block, left)
        res = run_fista_baseline(p, SolverConfig(1e-15 * L, block, record_trace=False), y, t)
        y, left, block = res.y, left - res.iterations, 2 * block
        polished = _support_polish(inst, y)
        if polished is not None:
            y = polished
            break
        if res.converged:
            break

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


# each class's file layout: header keys after n (and a lasso's rows) -> fields, then the
# payload's fields in line order: the matrix, n numbers a line, then the vectors, one a line
_CONSTANTS = {"seed": "seed", "L": "lipschitz_L", "m": "known_m"}
_LAYOUT = {QuadraticInstance: (_CONSTANTS, ("Q", "b", "lower", "upper")),
           LassoOnBallInstance: ({**_CONSTANTS, "lam": "weight", "radius": "radius"},
                                 ("A", "target"))}


def save_instance(inst, path) -> None:
    if type(inst) not in _LAYOUT:
        raise TypeError(f"unknown instance type {type(inst).__name__}")
    header, payload = _LAYOUT[type(inst)]
    rows = f" rows={inst.A.shape[0]}" if isinstance(inst, LassoOnBallInstance) else ""
    lines = [" ".join([f"{inst.kind} n={inst.dim}{rows}"]
                      + [f"{key}={getattr(inst, name)!r}" for key, name in header.items()])]
    lines += [_fmt_floats(row) for name in payload for row in np.atleast_2d(getattr(inst, name))]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path):
    """Read a save_instance file; errors name the path and the bad field or line.

    It only parses; a refusal by the instance class is given the header field or line.
    """
    with open(path, encoding="ascii") as fh:
        try:
            lines = [(lineno, ln.split()) for lineno, ln in enumerate(fh, start=1) if ln.strip()]
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: {e}") from None
    if not lines:
        raise ValueError(f"{path}: no instance header (the file is empty)")
    kind, *tokens = lines[0][1]
    cls = next((c for c in _LAYOUT if kind in c.KINDS), None)
    if cls is None:
        raise ValueError(f"{path}: unknown instance kind {kind!r}")
    header, payload = _LAYOUT[cls]
    # the keys of n and of the matrix's row count, which is n for a quadratic
    sizes = ("n", "rows") if cls is LassoOnBallInstance else ("n", "n")
    hdr = {}
    for key, eq, raw in (tok.partition("=") for tok in tokens):
        if not eq:
            raise ValueError(f"{path}: header field {key} has no '=' and value")
        if key in hdr:
            raise ValueError(f"{path}: header field {key} is given twice")
        if key not in sizes and key not in header:
            raise ValueError(f"{path}: header field {key} is not a {kind} field")
        hdr[key] = raw

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

    n, rows = (field(key, positive_int) for key in sizes)
    widths = [n] * rows + [rows] * (len(payload) - 1)
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
    constants = {name: field(key, int if key == "seed" else float) for key, name in header.items()}
    try:
        return cls(kind, np.vstack(body[:rows]), *body[rows:], **constants)
    except _FieldError as e:
        if e.index is None:
            key = next(key for key, name in header.items() if name == e.field)
            raise ValueError(f"{path}: header field {key}={hdr[key]!r}: {e.reason}") from None
        at = payload.index(e.field)
        line, col = divmod(e.index, n) if at == 0 else (rows + at - 1, e.index)
        lineno, values = lines[1 + line]
        raise ValueError(f"{path}: line {lineno}: {e.reason}, got {values[col]!r}") from None


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
    """Read a save_certificate file; errors name the path and the bad key.

    Each number must be finite, given as a JSON number or a repr string.
    """
    payload = _load_json_object(path, ("y_star", "phi_star", "kkt_residual", "method"))

    def number(value, what):
        # float() would read a JSON true as 1.0
        if isinstance(value, bool):
            raise ValueError(f"{path}: {what}: expected a number, got bool")
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError) as e:  # a JSON int past the float range
            raise ValueError(f"{path}: {what}: {e}") from None
        # json.load takes NaN and -Infinity, and float() takes "nan" and "-inf"
        if not math.isfinite(value):
            raise ValueError(f"{path}: {what}: expected a finite number, got {value!r}")
        return value

    y_star = payload["y_star"]
    if not isinstance(y_star, list):
        raise ValueError(f"{path}: key 'y_star': expected a list, got {type(y_star).__name__}")
    return OracleCertificate(
        np.array([number(v, f"key 'y_star' entry {i}") for i, v in enumerate(y_star)]),
        number(payload["phi_star"], "key 'phi_star'"),
        number(payload["kkt_residual"], "key 'kkt_residual'"),
        payload["method"],
    )
