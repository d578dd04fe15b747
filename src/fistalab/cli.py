"""Experiment runner: generate instances, run solvers, persist traces, check them.

Subcommands: `run` (one solve, writes trace.csv + manifest.json), `gen`
(instance file), `check` (verify a trace), `sweep` (a matrix of runs with a
summary CSV).  Exit codes: 0 success, 1 error, 2 ran out of iterations.

The trace CSV schema is a stable contract:
`k,a_k,L_k,vnorm,phi,dxy,dyy,gradevals,proxevals`, one row per completed
iteration, floats printed with repr so files round-trip bit-identically.
Full-vector traces put the iterate/residual vectors in a sidecar
`*_vectors.npz` next to the CSV; a sidecar is read back only when it holds
one vector per CSV row.  Output directories default to $FISTALAB_OUT or
./runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from .analysis import (
    NOT_APPLICABLE,
    TraceCheckReport,
    check_function_value_bound,
    check_lyapunov_monotone,
    check_residual_bound,
    check_scaled_trend,
    fit_rate,
    iterates_settled,
)
from .core import CompositeProblem
from .problems import (
    QuadraticInstance,
    brute_force_optimum,
    lasso_optimum,
    load_certificate,
    load_instance,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    save_certificate,
    save_instance,
    to_problem,
    MAX_ENUM_DIM,
)
from .solver import (
    SolverConfig,
    SolveResult,
    Trace,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2

PROBLEM_KINDS = ("convex-qp", "nonconvex-qp", "lasso-ball")
SOLVERS = ("mfista", "fista", "proxgrad")
STEP_MODES = ("inverse-L", "quarter-L")


@dataclass
class RunConfig:
    """One run, fully determined: re-running an identical config reproduces
    the trace bit for bit."""

    problem: Optional[str] = None
    instance: Optional[str] = None
    n: int = 8
    seed: int = 0
    rows: Optional[int] = None
    negfrac: float = 0.25
    cond: Optional[float] = None
    solver: str = "mfista"
    eps: float = 1e-8
    max_iters: int = 20000
    step_mode: str = "inverse-L"
    trace: str = "norms"
    out: Optional[str] = None
    with_oracle: bool = False

    def validate(self) -> None:
        # config files are JSON, so check the types before comparing values
        for key, hint in get_type_hints(RunConfig).items():
            allowed = get_args(hint) or (hint,)  # Optional[X] -> (X, NoneType)
            value = getattr(self, key)
            if isinstance(value, bool):  # an int subclass, taken only by bool fields
                ok = bool in allowed
            else:
                ok = isinstance(value, allowed) or (float in allowed and isinstance(value, int))
            if not ok:
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
        if (self.problem is None) == (self.instance is None):
            raise ValueError("exactly one of --problem / --instance is required")
        if self.problem is not None and self.problem not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.problem!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"unknown step mode {self.step_mode!r}")
        if not self.eps > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max-iters must be >= 1")
        if self.trace not in ("norms", "full"):
            raise ValueError("trace verbosity must be 'norms' or 'full'")


RUN_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def output_root() -> Path:
    return Path(os.environ.get("FISTALAB_OUT", "runs"))


def _instance_from_config(cfg: RunConfig):
    if cfg.instance is not None:
        return load_instance(cfg.instance)
    if cfg.problem == "convex-qp":
        eigs = None
        if cfg.cond is not None:
            eigs = np.geomspace(1.0 / cfg.cond, 1.0, cfg.n)
        return make_convex_qp(cfg.n, cfg.seed, eigenvalues=eigs)[1]
    if cfg.problem == "nonconvex-qp":
        return make_nonconvex_qp(cfg.n, cfg.seed, cfg.negfrac)[1]
    rows = cfg.rows if cfg.rows is not None else cfg.n
    return make_lasso_on_ball(cfg.n, rows, cfg.seed)[1]


def initial_point(p: CompositeProblem) -> np.ndarray:
    """Deterministic feasible start: prox of the origin."""
    return p.h_prox(np.zeros(p.dim), 1.0)


def dispatch_solver(p: CompositeProblem, cfg: RunConfig) -> SolveResult:
    scfg = SolverConfig(epsilon=cfg.eps, max_iters=cfg.max_iters,
                        record_trace=True, trace_vectors=(cfg.trace == "full"))
    y0 = initial_point(p)
    if cfg.solver == "mfista":
        return run_mfista(p, scfg, y0)
    if cfg.solver == "fista":
        if cfg.step_mode == "quarter-L":
            return run_fista_baseline(p, scfg, y0, 1.0 / (4.0 * p.lipschitz_L),
                                      project_extrapolation=True)
        return run_fista_baseline(p, scfg, y0, 1.0 / p.lipschitz_L)
    return run_proxgrad_baseline(p, scfg, y0)


# ---------------------------------------------------------------------------
# trace + manifest files

def write_trace_csv(trace: Trace, path) -> None:
    path = Path(path)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(Trace.COLUMNS) + "\n")
        for i in range(len(trace)):
            fh.write(f"{trace.k[i]},{trace.a_k[i]!r},{trace.L_k[i]!r},{trace.vnorm[i]!r},"
                     f"{trace.phi[i]!r},{trace.dxy[i]!r},{trace.dyy[i]!r},"
                     f"{trace.gradevals[i]},{trace.proxevals[i]}\n")
    sidecar = _vectors_sidecar(path)
    if trace.has_vectors:
        np.savez(sidecar, y0=trace.y0, ys=np.asarray(trace.ys), vs=np.asarray(trace.vs))
    else:
        sidecar.unlink(missing_ok=True)  # an older run's vectors must not pair with this trace


def _vectors_sidecar(trace_path: Path) -> Path:
    return trace_path.with_name(trace_path.stem + "_vectors.npz")


def read_trace_csv(path, lipschitz_L: float = math.nan) -> Trace:
    path = Path(path)
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != ",".join(Trace.COLUMNS):
            raise ValueError(f"unexpected trace header: {header!r}")
        rows = [(lineno, line.strip().split(","))
                for lineno, line in enumerate(fh, start=2) if line.strip()]
    trace = Trace(lipschitz_L)
    for lineno, row in rows:
        if len(row) != len(Trace.COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(Trace.COLUMNS)} fields, "
                             f"got {len(row)}")
        trace.k.append(int(row[0]))
        trace.a_k.append(float(row[1]))
        trace.L_k.append(float(row[2]))
        trace.vnorm.append(float(row[3]))
        trace.phi.append(float(row[4]))
        trace.dxy.append(float(row[5]))
        trace.dyy.append(float(row[6]))
        trace.gradevals.append(int(row[7]))
        trace.proxevals.append(int(row[8]))
    sidecar = _vectors_sidecar(path)
    if sidecar.exists():
        data = np.load(sidecar)
        if len(data["ys"]) == len(trace):  # else the sidecar belongs to another run
            trace.y0 = data["y0"]
            trace.ys = list(data["ys"])
            trace.vs = list(data["vs"])
    return trace


def write_manifest(path, cfg: RunConfig, result: SolveResult, L: float,
                   wall_time: float) -> None:
    payload = {
        "config": asdict(cfg),
        "version": __version__,
        "wall_time_s": wall_time,
        "status": result.status,
        "final_vnorm": float(np.linalg.norm(result.v)),
        "iterations": result.iterations,
        "lipschitz_L": L,
    }
    tmp = Path(path).with_suffix(".tmp")
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)  # manifest appears atomically, only after the run


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(cfg: RunConfig) -> int:
    cfg.validate()
    inst = _instance_from_config(cfg)
    if cfg.with_oracle and isinstance(inst, QuadraticInstance) and inst.dim > MAX_ENUM_DIM:
        # checked before solving, so that a failed run leaves no trace behind
        print(f"error: oracle needs n <= {MAX_ENUM_DIM} for quadratics", file=sys.stderr)
        return EXIT_ERROR
    p = to_problem(inst)
    if cfg.out is not None:
        outdir = Path(cfg.out)
    else:
        tag = cfg.problem if cfg.problem else Path(cfg.instance).stem
        name = f"{tag}-n{inst.dim}-seed{cfg.seed}-{cfg.solver}"
        if cfg.solver == "fista":
            name += f"-{cfg.step_mode}"
        outdir = output_root() / name
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    result = dispatch_solver(p, cfg)
    wall = time.perf_counter() - t0

    write_trace_csv(result.trace, outdir / "trace.csv")
    if cfg.with_oracle:
        if isinstance(inst, QuadraticInstance):
            cert = brute_force_optimum(p, inst)
        else:
            cert = lasso_optimum(p, inst)
        save_certificate(cert, outdir / "oracle.json")
    write_manifest(outdir / "manifest.json", cfg, result, p.lipschitz_L, wall)
    print(f"{result.status} after {result.iterations} iterations, "
          f"final residual {np.linalg.norm(result.v):.3e}, trace in {outdir}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_gen(args) -> int:
    cfg = RunConfig(problem=args.kind, n=args.n, seed=args.seed, rows=args.rows,
                    negfrac=args.negfrac, cond=args.cond, instance=None)
    if cfg.problem not in PROBLEM_KINDS:
        print(f"error: unknown kind {cfg.problem!r}", file=sys.stderr)
        return EXIT_ERROR
    inst = _instance_from_config(cfg)
    save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _default_grid(length: int) -> np.ndarray:
    hi = max(length, 2)
    return np.unique(np.geomspace(10, hi, 16).astype(int))


def cmd_check(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.exists():
        print(f"error: no such trace {trace_path}", file=sys.stderr)
        return EXIT_ERROR
    manifest_path = trace_path.with_name("manifest.json")
    manifest = None
    if manifest_path.exists():
        with open(manifest_path, encoding="ascii") as fh:
            manifest = json.load(fh)
    L = args.lipschitz
    if L is None and manifest is not None:
        L = manifest["lipschitz_L"]
    if L is None:
        print("error: Lipschitz constant unavailable (pass --lipschitz or keep "
              "manifest.json next to the trace)", file=sys.stderr)
        return EXIT_ERROR
    try:
        trace = read_trace_csv(trace_path, float(L))
    except (OSError, ValueError) as e:
        print(f"error: unreadable trace: {e}", file=sys.stderr)
        return EXIT_ERROR

    gates = [check_residual_bound(trace, trace.lipschitz_L)]
    certificate = load_certificate(args.oracle) if args.oracle else None
    # without a manifest the trace is taken to be run_mfista's, whose step
    # 1/(4L) and curvature column the inequalities and trends assume
    solver = manifest["config"]["solver"] if manifest is not None else "mfista"
    mfista_only = f"holds for mfista traces only, this one is from {solver}"
    if solver == "mfista" and certificate is not None and trace.has_vectors:
        gates.append(check_lyapunov_monotone(trace, certificate))
        gates.append(check_function_value_bound(trace, certificate, trace.lipschitz_L))
    else:
        why = ("needs an oracle certificate and a full-vector trace" if solver == "mfista"
               else mfista_only)
        gates.append(TraceCheckReport("lyapunov_monotone", NOT_APPLICABLE, note=why))
        gates.append(TraceCheckReport("function_value_bound", NOT_APPLICABLE, note=why))
    # the trend lines are advisory: printed, never part of the exit code
    trend = None
    if solver != "mfista":
        trend = TraceCheckReport("scaled_trend", NOT_APPLICABLE, note=mfista_only)
    elif np.all(trace.column("L_k") == 0.0):  # the curvature shift never switched on
        trend = check_scaled_trend(trace, 1.5, _default_grid(len(trace)))
    elif iterates_settled(trace):
        trend = check_scaled_trend(trace, 0.5, _default_grid(len(trace)))
    for rep in gates:
        print(rep.format_line())
    if trend is not None:
        trend.note = f"{trend.note} -- advisory" if trend.note else "advisory"
        print(trend.format_line())
    return EXIT_OK if all(rep.passed for rep in gates) else EXIT_ERROR


SWEEP_AXES = ("instances", "solvers", "epsilons")


def _sweep_cells(matrix: dict, outdir: Path) -> list[tuple[str, RunConfig]]:
    """(label, validated config) per cell.  Keys beside the three axes are
    RunConfig fields shared by every cell; an instance is a file name or a
    mapping of RunConfig fields with `kind` for `problem`."""
    shared = {key: value for key, value in matrix.items() if key not in SWEEP_AXES}
    cells = []
    for inst_spec in matrix["instances"]:
        if isinstance(inst_spec, str):
            spec, label = {"instance": inst_spec}, Path(inst_spec).stem
        else:
            spec, label = dict(inst_spec), None
            if "kind" in spec:
                spec["problem"] = spec.pop("kind")
        for solver in matrix["solvers"]:
            for eps in matrix["epsilons"]:
                cfg = _apply_config(RunConfig(), {
                    **shared, **spec, "solver": solver, "eps": eps,
                    "out": str(outdir / f"cell-{len(cells) + 1:03d}")})
                cfg.validate()
                cells.append((label or f"{cfg.problem}-n{cfg.n}-seed{cfg.seed}", cfg))
    return cells


def cmd_sweep(args) -> int:
    with open(args.config, encoding="ascii") as fh:
        matrix = json.load(fh)
    outdir = Path(args.out) if args.out else output_root() / "sweep"
    cells = _sweep_cells(matrix, outdir)  # a bad matrix fails here, before any cell runs
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    worst = EXIT_OK
    for label, cfg in cells:
        try:
            code = cmd_run(cfg)
            with open(Path(cfg.out) / "manifest.json", encoding="ascii") as fh:
                manifest = json.load(fh)
            trace = read_trace_csv(Path(cfg.out) / "trace.csv", manifest["lipschitz_L"])
            slope = math.nan
            grid = _default_grid(len(trace))
            if grid.size >= 4 and math.log10(grid[-1] / grid[0]) >= 1.5:
                try:
                    slope = fit_rate(trace, grid).slope
                except ValueError:
                    pass
            rows.append((label, cfg.solver, cfg.eps, manifest["iterations"],
                         manifest["final_vnorm"], slope, manifest["status"]))
        except Exception as e:  # record the failure, keep sweeping
            code = EXIT_ERROR
            rows.append((label, cfg.solver, cfg.eps, -1, math.nan, math.nan, f"error: {e}"))
        worst = max(worst, code)

    summary = outdir / "summary.csv"
    with open(summary, "w", encoding="ascii", newline="\n") as fh:
        fh.write("instance,solver,eps,iterations,final_vnorm,slope,status\n")
        for r in rows:
            fh.write(f"{r[0]},{r[1]},{r[2]!r},{r[3]},{r[4]!r},{r[5]!r},{r[6]}\n")
    print(f"sweep finished: {len(rows)} cells, summary in {summary}")
    return worst


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fistalab",
                                     description="composite-optimization experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one instance and persist the trace")
    run_p.add_argument("--config", help="JSON file with defaults for the flags below")
    run_p.add_argument("--problem", choices=PROBLEM_KINDS)
    run_p.add_argument("--instance", help="instance file (alternative to --problem)")
    run_p.add_argument("--n", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--rows", type=int, help="rows of the design matrix (lasso-ball)")
    run_p.add_argument("--negfrac", type=float, help="fraction of negative eigenvalues")
    run_p.add_argument("--cond", type=float, help="condition number for designed convex-qp spectra")
    run_p.add_argument("--solver", choices=SOLVERS)
    run_p.add_argument("--eps", type=float)
    run_p.add_argument("--max-iters", dest="max_iters", type=int)
    run_p.add_argument("--step-mode", dest="step_mode", choices=STEP_MODES)
    run_p.add_argument("--trace", choices=("norms", "full"))
    run_p.add_argument("--out")
    run_p.add_argument("--with-oracle", dest="with_oracle", action="store_true", default=None)

    gen_p = sub.add_parser("gen", help="generate an instance file")
    gen_p.add_argument("--kind", required=True, choices=PROBLEM_KINDS)
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--rows", type=int)
    gen_p.add_argument("--negfrac", type=float, default=0.25)
    gen_p.add_argument("--cond", type=float)
    gen_p.add_argument("--out", required=True)

    check_p = sub.add_parser("check", help="verify the inequalities on a trace")
    check_p.add_argument("trace")
    check_p.add_argument("--oracle", help="certificate JSON for the optimum-based checks")
    check_p.add_argument("--lipschitz", type=float,
                         help="override the Lipschitz constant (else read manifest.json)")

    sweep_p = sub.add_parser("sweep", help="run an instance x solver x epsilon matrix")
    sweep_p.add_argument("config", help="JSON sweep description")
    sweep_p.add_argument("--out")
    return parser


def _apply_config(cfg: RunConfig, mapping: dict) -> RunConfig:
    """Set RunConfig fields from a JSON mapping, refusing unknown keys; the
    values are type-checked later by RunConfig.validate."""
    for key, value in mapping.items():
        if key not in RUN_CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    return cfg


def _run_config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config, encoding="ascii") as fh:
            _apply_config(cfg, json.load(fh))
    for key in RUN_CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:  # flags override the config file
            setattr(cfg, key, value)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_ERROR
    try:
        if args.command == "run":
            return cmd_run(_run_config_from_args(args))
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_sweep(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
