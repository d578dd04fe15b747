"""The three workloads.  Each builds its inputs from the benchmark seed and
exposes one pass: a fixed list of operations, each timed on its own and then
verified outside the timed region.

small-batch  Many n=32 instances through the library API, three solvers each.
             At this size a matvec is negligible, so solver bookkeeping, core
             validation and prox call overhead dominate.
large-dense  run_mfista on one convex QP, one indefinite QP and one lasso at
             n=2048.  Dense matvecs dominate each iteration.
artifacts    The file pipeline a user runs through fistalab.cli.main: gen,
             run (norms and full traces, with oracles where they apply),
             sweep, and check on every trace.  The only workload that writes
             and reads trace, manifest, instance and certificate files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import fistalab
import fistalab.cli as cli
import fistalab.solver as solver_mod
from fistalab import LassoOnBallInstance, QuadraticInstance, SolverConfig, to_problem

from checks import certificate_errors, gate_and_advisory_fails, parse_check_lines

# bound at import, so the benchmark's own reads stay out of traced spans
read_trace_csv = cli.read_trace_csv

SOLVER_FUNCS = {"mfista": "run_mfista", "fista": "run_fista_baseline",
                "proxgrad": "run_proxgrad_baseline"}


@dataclass
class Op:
    key: str
    kind: str                                  # solve | gen | run | sweep | check
    call: Callable[[], object]
    verify: Callable[[object], "Outcome"]
    group: str = ""                            # ops timed as one unit; "" for the op alone


@dataclass
class Outcome:
    ok: bool = True                            # False: the operation failed
    correct: bool = True                       # False: an output is wrong
    iterations: int = 0
    certified: Optional[bool] = None           # set for operations that solve
    digest: bytes = b""                        # sha256 of the repr-formatted trace rows
    note: str = ""
    gate_fail: int = 0
    advisory_fail: int = 0


@dataclass
class Case:
    """One library solve: an instance, its assembled problem and a solver."""

    key: str
    inst: object
    problem: fistalab.CompositeProblem
    y0: np.ndarray
    solver: str
    epsilon: float
    max_iters: int


def row_bytes(rows) -> bytes:
    """Trace rows (k, a_k, L_k, vnorm, phi, dxy, dyy, gradevals, proxevals)
    formatted as the CSV writer formats them."""
    return "".join(f"{k},{a!r},{lk!r},{vn!r},{phi!r},{dxy!r},{dyy!r},{g},{p}\n"
                   for k, a, lk, vn, phi, dxy, dyy, g, p in rows).encode()


def trace_rows(trace) -> bytes:
    return row_bytes(zip(*(getattr(trace, c) for c in trace.COLUMNS)))


def solve(case: Case, record_trace: bool = True, trace_vectors: bool = False):
    cfg = SolverConfig(epsilon=case.epsilon, max_iters=case.max_iters,
                       record_trace=record_trace, trace_vectors=trace_vectors)
    run = getattr(solver_mod, SOLVER_FUNCS[case.solver])  # looked up per call so tracing sees it
    if case.solver == "fista":
        return run(case.problem, cfg, case.y0, 1.0 / case.problem.lipschitz_L)
    return run(case.problem, cfg, case.y0)


def verify_solve(case: Case, result) -> Outcome:
    errors = certificate_errors(case.inst, result.status, result.y, result.v, case.epsilon)
    certified = not errors
    # an unconverged run is a failed operation; a converged run whose
    # certificate does not hold is a wrong output
    correct = result.status != "converged" or certified
    return Outcome(ok=certified, correct=correct, iterations=result.iterations,
                   certified=certified, digest=sha256(trace_rows(result.trace)),
                   note="; ".join(errors))


def start_point(p) -> np.ndarray:
    """The CLI's start: prox of the origin."""
    return np.asarray(p.h_prox(np.zeros(p.dim), 1.0), dtype=float)


class LibraryWorkload:
    """Shared by small-batch and large-dense: a list of library solves."""

    name = ""
    setup_repeats = 1
    calibration_iters: Optional[int] = None   # None: calibration solves run to convergence
    calibration_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.cases: list[Case] = []
        self.gen_s = math.nan

    def build(self) -> list[Case]:
        raise NotImplementedError

    def setup(self) -> None:
        self.cases = []          # drop the previous set-up's arrays before building anew
        self.cases = self.build()

    def passes(self):
        while True:
            yield self.one_pass()

    def one_pass(self, recorder=None) -> list[Op]:
        """One pass; with a recorder, on traced copies of the problems."""
        cases = self.cases
        if recorder is not None:
            copies = {}
            for c in cases:
                if id(c.problem) not in copies:
                    copies[id(c.problem)] = recorder.traced_problem(c.problem, c.inst)
            cases = [dataclasses.replace(c, problem=copies[id(c.problem)]) for c in cases]
        return [Op(c.key, "solve", (lambda c=c: solve(c)), (lambda r, c=c: verify_solve(c, r)))
                for c in cases]

    def calibration_cases(self) -> list[Case]:
        """mfista cases for the off / norms / full / lean comparison."""
        return [c for c in self.cases if c.solver == "mfista"]

    def cleanup(self) -> None:
        pass


class SmallBatch(LibraryWorkload):
    name = "small-batch"
    n = 32
    rows = 48
    instance_seeds = 2
    epsilon = 1e-8
    setup_repeats = 11
    calibration_rounds = 3

    def build(self) -> list[Case]:
        rng = np.random.default_rng([self.seed, 1])
        seeds = [int(s) for s in rng.integers(0, 2**31 - 1, self.instance_seeds)]
        cases = []
        for s in seeds:
            for kind, (p, inst) in (("convex-qp", fistalab.make_convex_qp(self.n, s)),
                                    ("nonconvex-qp", fistalab.make_nonconvex_qp(self.n, s)),
                                    ("lasso-ball", fistalab.make_lasso_on_ball(self.n, self.rows, s))):
                y0 = start_point(p)
                for solver in SOLVER_FUNCS:
                    cases.append(Case(f"{kind}/s{s}/{solver}", inst, p, y0, solver,
                                      self.epsilon, 100_000))
        return cases


def _dense_convex_qp(n: int, rng) -> QuadraticInstance:
    M = rng.standard_normal((n, n))
    Q = (M.T @ M) / n
    L = float(np.linalg.eigvalsh(Q)[-1])
    b = rng.uniform(-0.5, 0.5, n)
    return QuadraticInstance("convex-qp", Q, b, -np.ones(n), np.ones(n), L, 0.0, 0)


def _dense_nonconvex_qp(n: int, rng, negfrac: float = 0.25) -> QuadraticInstance:
    """Same construction as make_nonconvex_qp, past its n <= 64 cap."""
    n_neg = max(1, int(round(negfrac * n)))
    eig = np.concatenate([rng.uniform(1e-2, 1.0, n - n_neg), -rng.uniform(1e-2, 1.0, n_neg)])
    rng.shuffle(eig)
    Q = fistalab.problems._spectrum_to_qp(eig, rng)
    ev = np.linalg.eigvalsh(Q)
    b = rng.uniform(-0.3, 0.3, n)
    return QuadraticInstance("nonconvex-qp", Q, b, -np.ones(n), np.ones(n),
                             float(np.max(np.abs(ev))), float(max(0.0, -ev[0])), 0)


def _dense_lasso(n: int, rows: int, rng) -> LassoOnBallInstance:
    """Same construction as make_lasso_on_ball, past its n <= 64 cap."""
    A = rng.standard_normal((rows, n)) / math.sqrt(rows)
    target = rng.standard_normal(rows)
    weight = 0.05 * float(np.max(np.abs(A.T @ target)))
    AtA = A.T @ A
    L = float(np.linalg.eigvalsh(AtA)[-1])
    ridge = np.linalg.solve(AtA + weight * np.eye(n), A.T @ target)
    radius = 10.0 * max(1.0, float(np.linalg.norm(ridge)))
    return LassoOnBallInstance("lasso-ball", A, target, weight, radius, L, 0)


class LargeDense(LibraryWorkload):
    name = "large-dense"
    n = 2048
    rows = 1024
    setup_repeats = 3
    calibration_iters = 60
    # loose enough that a pass of the three solves takes about 2.5 s on one
    # BLAS thread, so a run repeats each solve several times
    epsilons = {"convex-qp": 0.3, "nonconvex-qp": 0.3, "lasso-ball": 0.3}

    def build(self) -> list[Case]:
        rng = np.random.default_rng([self.seed, 2])
        cases = []
        for inst in (_dense_convex_qp(self.n, rng), _dense_nonconvex_qp(self.n, rng),
                     _dense_lasso(self.n, self.rows, rng)):
            p = to_problem(inst)
            cases.append(Case(f"{inst.kind}/n{self.n}/mfista", inst, p, start_point(p),
                              "mfista", self.epsilons[inst.kind], 20_000))
        return cases


# ---------------------------------------------------------------------------
# artifacts

@dataclass
class InstanceSpec:
    kind: str
    n: int
    rows: Optional[int] = None
    cond: Optional[float] = None
    seed: int = 0

    @property
    def certifiable(self) -> bool:
        return self.kind == "lasso-ball" or self.n <= 4

    @property
    def stem(self) -> str:
        return f"{self.kind}-n{self.n}-s{self.seed}"

    def generate(self):
        if self.kind == "convex-qp":
            eigs = None if self.cond is None else np.geomspace(1.0 / self.cond, 1.0, self.n)
            return fistalab.make_convex_qp(self.n, self.seed, eigenvalues=eigs)[1]
        if self.kind == "nonconvex-qp":
            return fistalab.make_nonconvex_qp(self.n, self.seed)[1]
        return fistalab.make_lasso_on_ball(self.n, self.rows, self.seed)[1]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _instances_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    for name, va in vars(a).items():
        vb = getattr(b, name)
        if isinstance(va, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


class Artifacts:
    name = "artifacts"
    setup_repeats = 11
    calibration_iters = None
    calibration_rounds = 2
    epsilon = 1e-8
    max_iters = 100_000
    # (kind, n, rows, cond).  Convex QPs use a designed spectrum and lassos have
    # rows = 2n, so iteration counts, and with them every timing, vary little
    # from seed to seed; n=4 quadratics and every lasso are certified by
    # --with-oracle.  Each shape gets seeds_per_shape instances, so that a
    # pass's total iteration count, and with it the share of fixed costs
    # per iteration, varies less from seed to seed.
    seeds_per_shape = 3
    shapes = (("convex-qp", 4, None, 10.0), ("nonconvex-qp", 4, None, None),
              ("lasso-ball", 8, 16, None), ("nonconvex-qp", 32, None, None),
              ("convex-qp", 64, None, 100.0))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.specs: list[InstanceSpec] = []
        self.expected: dict[str, object] = {}
        self.gen_s = math.nan
        self._pass_no = 0

    def setup(self) -> None:
        """Instance specs from the seed, and the instances `gen` must write."""
        rng = np.random.default_rng([self.seed, 3])
        self.specs = [InstanceSpec(kind, n, rows, cond, int(rng.integers(0, 2**31 - 1)))
                      for _ in range(self.seeds_per_shape) for kind, n, rows, cond in self.shapes]
        self.expected = {s.stem: s.generate() for s in self.specs}
        self.workdir.mkdir(parents=True, exist_ok=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def passes(self):
        while True:
            self._pass_no += 1
            yield self.pass_ops(self.workdir / f"pass-{self._pass_no}")

    def one_pass(self, recorder=None) -> list[Op]:
        """One fresh pass; tracing reaches its problems through cli.to_problem."""
        return next(self.passes())

    def pass_ops(self, root: Path) -> list[Op]:
        """One pipeline per group of instances, one group per seed of each
        shape.  Each group keeps its sweep to about half a second, so that
        the reference kernel timed around it follows the host's speed."""
        root.mkdir(parents=True)
        k = len(self.shapes)
        return [op for g in range(self.seeds_per_shape)
                for op in self.pipeline_ops(root / f"group-{g}", self.specs[g * k:(g + 1) * k])]

    def pipeline_ops(self, root: Path, specs: list[InstanceSpec]) -> list[Op]:
        """gen every instance, run each x solver x trace level, one sweep, then
        check every trace.  Operations run in list order."""
        root.mkdir(parents=True)
        ops: list[Op] = []
        certs: dict[str, Path] = {}
        inst_path = {s.stem: root / f"{s.stem}.txt" for s in specs}

        for spec in specs:
            argv = ["gen", "--kind", spec.kind, "--n", str(spec.n), "--seed", str(spec.seed),
                    "--out", str(inst_path[spec.stem])]
            if spec.rows is not None:
                argv += ["--rows", str(spec.rows)]
            if spec.cond is not None:
                argv += ["--cond", repr(spec.cond)]
            ops.append(Op(f"gen/{spec.stem}", "gen", (lambda a=argv: run_cli(a)),
                          (lambda r, s=spec: self._verify_gen(s, inst_path[s.stem], r)), root.name))

        traces: list[tuple[str, Path, Optional[Path]]] = []
        for spec in specs:
            for solver in SOLVER_FUNCS:
                for level in ("norms", "full"):
                    out = root / "runs" / f"{spec.stem}-{solver}-{level}"
                    argv = ["run", "--instance", str(inst_path[spec.stem]), "--solver", solver,
                            "--eps", repr(self.epsilon), "--max-iters", str(self.max_iters),
                            "--trace", level, "--out", str(out)]
                    cert = None
                    if spec.certifiable:
                        argv.append("--with-oracle")
                        cert = out / "oracle.json"
                        certs.setdefault(spec.stem, cert)
                    ops.append(Op(f"run/{spec.stem}/{solver}/{level}", "run",
                                  (lambda a=argv: run_cli(a)),
                                  (lambda r, s=spec, o=out, lv=level:
                                   self._verify_run(s, inst_path[s.stem], o, lv, r)), root.name))
                    traces.append((f"{spec.stem}/{solver}/{level}", out / "trace.csv", cert))

        sweep_cfg = root / "sweep.json"
        sweep_out = root / "sweep"
        with open(sweep_cfg, "w", encoding="ascii") as fh:
            json.dump({"instances": [str(inst_path[s.stem]) for s in specs],
                       "solvers": list(SOLVER_FUNCS), "epsilons": [self.epsilon],
                       "max_iters": self.max_iters}, fh)
        ops.append(Op(f"sweep/{root.name}", "sweep", lambda: run_cli(["sweep", str(sweep_cfg), "--out", str(sweep_out)]),
                      lambda r, n=len(specs): self._verify_sweep(sweep_out, n, r), root.name))
        cell = 0
        for spec in specs:
            for solver in SOLVER_FUNCS:
                cell += 1
                traces.append((f"sweep/{spec.stem}/{solver}",
                               sweep_out / f"cell-{cell:03d}" / "trace.csv", certs.get(spec.stem)))

        for key, trace_path, cert in traces:
            argv = ["check", str(trace_path)] + (["--oracle", str(cert)] if cert else [])
            ops.append(Op(f"check/{key}", "check", (lambda a=argv: run_cli(a)),
                          (lambda r, t=trace_path: self._verify_check(t, r)), root.name))
        return ops

    # -- verification ------------------------------------------------------

    def _verify_gen(self, spec: InstanceSpec, path: Path, out) -> Outcome:
        code, text = out
        try:
            loaded = fistalab.load_instance(path)
        except (OSError, ValueError) as e:
            return Outcome(ok=False, note=f"gen exit {code}: {e} {text.strip()}")
        same = _instances_equal(loaded, self.expected[spec.stem])
        return Outcome(ok=same, correct=same,
                       note="" if same else "instance file does not round-trip")

    def _verify_run(self, spec: InstanceSpec, inst_file: Path, out: Path, level: str,
                    result) -> Outcome:
        code, text = result
        try:
            with open(out / "manifest.json", encoding="ascii") as fh:
                manifest = json.load(fh)
            trace = read_trace_csv(out / "trace.csv", manifest["lipschitz_L"])
            csv_bytes = (out / "trace.csv").read_bytes()
        except (OSError, ValueError, KeyError) as e:
            return Outcome(ok=False, note=f"run exit {code}: {e} {text.strip()}")
        eps = manifest["config"]["eps"]
        errors = []
        if len(trace) != manifest["iterations"]:
            errors.append("trace rows differ from the manifest's iteration count")
        if len(trace) and trace.vnorm[-1] != manifest["final_vnorm"]:
            errors.append("last trace vnorm differs from the manifest")
        if level == "full":
            if not trace.has_vectors:
                errors.append("full trace without vectors")
            else:
                errors += certificate_errors(fistalab.load_instance(inst_file), manifest["status"],
                                             np.asarray(trace.ys[-1]),
                                             np.asarray(trace.vs[-1]), eps)
        elif not (manifest["status"] == "converged" and manifest["final_vnorm"] <= eps):
            errors.append(f"status {manifest['status']} final_vnorm {manifest['final_vnorm']!r}")
        if spec.certifiable:
            cert = fistalab.problems.load_certificate(out / "oracle.json")
            best_phi = min(trace.phi) if len(trace) else math.inf
            if cert.phi_star > best_phi + 1e-9 * (1.0 + abs(best_phi)):
                errors.append("oracle optimum above a feasible iterate's value")
        certified = not errors
        correct = manifest["status"] != "converged" or certified
        return Outcome(ok=certified, correct=correct, iterations=manifest["iterations"],
                       certified=certified, digest=sha256(csv_bytes), note="; ".join(errors))

    def _verify_sweep(self, sweep_out: Path, instances: int, result) -> Outcome:
        code, text = result
        try:
            lines = (sweep_out / "summary.csv").read_text(encoding="ascii").splitlines()[1:]
            cells = [line.split(",") for line in lines]
            paths = [sweep_out / f"cell-{i:03d}" / "trace.csv" for i in range(1, len(cells) + 1)]
            digest = sha256(b"".join(p.read_bytes() for p in paths))
            last_vnorms = [read_trace_csv(p).vnorm[-1] for p in paths]
        except (OSError, ValueError, IndexError) as e:
            return Outcome(ok=False, note=f"sweep exit {code}: {e}")
        errors, wrong = [], False
        if len(cells) != instances * len(SOLVER_FUNCS):
            errors.append(f"{len(cells)} sweep cells")
        # columns: instance,solver,eps,iterations,final_vnorm,slope,status
        for i, (c, vn) in enumerate(zip(cells, last_vnorms), 1):
            if c[6] != "converged":
                errors.append(f"cell {i}: status {c[6]}")
            elif vn != float(c[4]) or not vn <= float(c[2]):
                wrong = True
                errors.append(f"cell {i}: final_vnorm {c[4]} last trace vnorm {vn!r}")
        return Outcome(ok=not errors, correct=not wrong, digest=digest,
                       iterations=sum(max(0, int(c[3])) for c in cells), note="; ".join(errors))

    def _verify_check(self, trace_path: Path, result) -> Outcome:
        code, text = result
        statuses = parse_check_lines(text)
        gate, advisory = gate_and_advisory_fails(statuses)
        ok = "residual_bound" in statuses and gate == 0
        note = "" if ok else f"{trace_path.parent.name}: {statuses}"
        return Outcome(ok=ok, note=note, gate_fail=gate, advisory_fail=advisory)

    def calibration_cases(self) -> list[Case]:
        cases = []
        for spec in self.specs:
            inst = self.expected[spec.stem]
            p = to_problem(inst)
            cases.append(Case(f"{spec.stem}/mfista", inst, p, start_point(p), "mfista",
                              self.epsilon, self.max_iters))
        return cases


def sha256(data: bytes) -> bytes:
    """Outcomes keep a hash of their trace, not the trace: a run keeps every
    pass's outcomes, and peak_rss_mb should not grow with the pass count."""
    return hashlib.sha256(data).digest()


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.digest)
    return h.hexdigest()[:16]
