"""Experiment runner behind the `fistalab` command: `run`, `gen`, `check`
and `sweep`, as the README's CLI section describes them.  Exit codes: 0
success, 1 error, 2 ran out of iterations.  Trace floats are written with
repr, so files round-trip bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
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
    observed_convex,
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
    _load_json_object,
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
        for key, allowed in _run_config_types().items():
            value = getattr(self, key)
            if isinstance(value, bool):  # an int subclass, taken only by bool fields
                ok = bool in allowed
            else:  # a JSON int for a float key, if float() can hold it
                ok = isinstance(value, allowed) or (float in allowed and isinstance(value, int)
                                                    and abs(value) <= sys.float_info.max)
            if not ok:
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
        if (self.problem is None) == (self.instance is None):
            raise ValueError("exactly one of --problem / --instance is required")
        if self.problem is not None and self.problem not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.problem!r}")
        for key, kind in (("cond", "convex-qp"), ("rows", "lasso-ball")):  # else never read
            if getattr(self, key) is not None and self.problem != kind:
                raise ValueError(f"config key {key!r} applies only to --problem {kind}")
        if self.seed < 0:
            raise ValueError(f"config key 'seed' must be >= 0, got {self.seed!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.step_mode not in STEP_MODES:
            raise ValueError(f"unknown step mode {self.step_mode!r}")
        if not 0 < self.eps < math.inf:  # NaN fails too; inf stops at any point
            raise ValueError(f"epsilon must be positive and finite, got {self.eps!r}")
        if self.max_iters < 1:
            raise ValueError("max-iters must be >= 1")
        if self.trace not in ("norms", "full"):
            raise ValueError("trace verbosity must be 'norms' or 'full'")
        if self.cond is not None and not 1 <= self.cond < math.inf:  # NaN fails too
            raise ValueError(f"config key 'cond' must be a finite number >= 1, "
                             f"got {self.cond!r}")


@functools.cache
def _run_config_types() -> dict:
    """RunConfig field -> the types its value may have; Optional[X] -> (X, NoneType).
    Resolved on first use, not at import, and once per process."""
    return {key: get_args(hint) or (hint,) for key, hint in get_type_hints(RunConfig).items()}


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


def dispatch_solver(p: CompositeProblem, cfg: RunConfig) -> SolveResult:
    scfg = SolverConfig(epsilon=cfg.eps, max_iters=cfg.max_iters,
                        record_trace=True, trace_vectors=(cfg.trace == "full"))
    y0 = p.h_prox(np.zeros(p.dim), 1.0)  # deterministic feasible start: prox of the origin
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
    columns = (map(repr, getattr(trace, name)) for name in Trace.COLUMNS)
    lines = [",".join(Trace.COLUMNS), *map(",".join, zip(*columns))]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = _vectors_sidecar(path)
    if trace.has_vectors:
        np.savez(sidecar, y0=trace.y0, ys=np.asarray(trace.ys), vs=np.asarray(trace.vs))
    else:
        sidecar.unlink(missing_ok=True)  # an older run's vectors must not pair with this trace


def _vectors_sidecar(trace_path: Path) -> Path:
    return trace_path.with_name(trace_path.stem + "_vectors.npz")


def read_trace_csv(path, lipschitz_L: float = math.nan, vectors: bool = True) -> Trace:
    """The trace at `path`; with `vectors`, also the vectors of the sidecar
    beside it, if that holds one vector per CSV row."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != ",".join(Trace.COLUMNS):
            raise ValueError(f"unexpected trace header: {header!r}")
        rows = [(lineno, line.strip().split(","))
                for lineno, line in enumerate(fh, start=2) if line.strip()]
    for lineno, row in rows:
        if len(row) != len(Trace.COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(Trace.COLUMNS)} fields, "
                             f"got {len(row)}")
    trace = Trace(lipschitz_L)
    for name, conv, col in zip(Trace.COLUMNS, Trace.COLUMN_TYPES, zip(*(r for _, r in rows))):
        try:
            setattr(trace, name, list(map(conv, col)))
        except ValueError as e:
            # column by column is the fast path; find the line only on failure
            for (lineno, _), field in zip(rows, col):
                try:
                    conv(field)
                except ValueError:
                    raise ValueError(f"line {lineno}: {name}: {e}") from None
    sidecar = _vectors_sidecar(Path(path))
    if vectors and sidecar.exists():
        # np.load reads each member lazily, on every access, from a file it
        # leaves open; read each one once and close the file here
        with open(sidecar, "rb") as fh:
            data = np.load(fh)
            ys = data["ys"]
            if len(ys) == len(trace):  # else the sidecar belongs to another run
                trace.y0 = data["y0"]
                trace.ys = list(ys)
                trace.vs = list(data["vs"])
    return trace


def write_manifest(path, cfg: RunConfig, result: SolveResult, L: float,
                   wall_time: float) -> None:
    config = asdict(cfg)
    if cfg.instance is not None:  # the file fixed the instance; no generator setting was used
        for key in ("n", "seed", "rows", "negfrac", "cond"):
            del config[key]
    payload = {
        "config": config,
        "version": __version__,
        "wall_time_s": wall_time,
        "status": result.status,
        "final_vnorm": float(np.linalg.norm(result.v)),
        "iterations": result.iterations,
        "lipschitz_L": L,
        "counters": asdict(result.counters),
    }
    tmp = Path(path).with_suffix(".tmp")
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)  # manifest appears atomically, only after the run


# ---------------------------------------------------------------------------
# subcommands

def _run(cfg: RunConfig, inst=None) -> SolveResult:
    """Solve one config and write its files; a refused config raises ValueError.
    `inst` is cfg's instance when the caller has already built it."""
    cfg.validate()
    if inst is None:
        inst = _instance_from_config(cfg)
    certificate = None
    if cfg.with_oracle:
        # taken before solving, so that a refused certificate leaves no file behind
        oracle = brute_force_optimum if isinstance(inst, QuadraticInstance) else lasso_optimum
        certificate = oracle(inst)
    p = to_problem(inst)
    if cfg.out is not None:
        outdir = Path(cfg.out)
    else:
        tag = cfg.problem if cfg.problem else Path(cfg.instance).stem
        name = f"{tag}-n{inst.dim}-seed{inst.seed}-{cfg.solver}"
        if cfg.solver == "fista":
            name += f"-{cfg.step_mode}"
        outdir = output_root() / name
    outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    result = dispatch_solver(p, cfg)
    wall = time.perf_counter() - t0

    # an older run's manifest or certificate must not pair with this trace,
    # not even when this run fails before writing its own
    for stale in ("manifest.json", "oracle.json"):
        (outdir / stale).unlink(missing_ok=True)
    write_trace_csv(result.trace, outdir / "trace.csv")
    if certificate is not None:
        save_certificate(certificate, outdir / "oracle.json")
    write_manifest(outdir / "manifest.json", cfg, result, p.lipschitz_L, wall)
    print(f"{result.status} after {result.iterations} iterations, "
          f"final residual {np.linalg.norm(result.v):.3e}, trace in {outdir}")
    return result


def cmd_run(cfg: RunConfig) -> int:
    return EXIT_OK if _run(cfg).converged else EXIT_NOT_CONVERGED


def cmd_gen(args) -> int:
    cfg = RunConfig(problem=args.kind, n=args.n, seed=args.seed, rows=args.rows,
                    negfrac=args.negfrac, cond=args.cond, instance=None)
    cfg.validate()
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
        raise ValueError(f"no such trace {trace_path}")
    manifest_path = trace_path.with_name("manifest.json")
    # without a manifest the trace is taken to be run_mfista's, whose step
    # 1/(4L) and curvature column the inequalities and trends assume
    L, source, solver = args.lipschitz, "--lipschitz", "mfista"
    if manifest_path.exists():
        manifest = _load_json_object(manifest_path, ("config", "lipschitz_L"))
        config = manifest["config"]
        if not isinstance(config, dict):
            raise ValueError(f"{manifest_path}: key 'config': expected an object, "
                             f"got {type(config).__name__}")
        if "solver" not in config:
            raise ValueError(f"{manifest_path}: key 'config': missing key 'solver'")
        solver = config["solver"]
        if solver not in SOLVERS:
            raise ValueError(f"{manifest_path}: key 'config': unknown solver {solver!r}")
        if L is None:
            L, source = manifest["lipschitz_L"], f"{manifest_path}: key 'lipschitz_L'"
    elif L is None:
        raise ValueError("Lipschitz constant unavailable (pass --lipschitz or keep "
                         "manifest.json next to the trace)")
    # a JSON number: float() would read true as 1.0 and "2.5" as 2.5.  The
    # residual bound takes sqrt(L): an infinite L passes any trace, a negative
    # one has no root
    if isinstance(L, bool) or not isinstance(L, (int, float)) or not 0 < L <= sys.float_info.max:
        raise ValueError(f"{source}: Lipschitz constant must be a finite positive number, "
                         f"got {L!r}")
    certificate = load_certificate(args.oracle) if args.oracle else None
    # None when the energy gates run, else the note of their N/A lines; the
    # trend needs no certificate, so it shares only the mfista-only note
    no_certificate = "needs an oracle certificate"
    if solver != "mfista":
        why = f"holds for mfista traces only, this one is from {solver}"
    else:
        why = no_certificate if certificate is None else None
    try:  # the energy gates are the only readers of the trace's vectors
        trace = read_trace_csv(trace_path, float(L), vectors=why is None)
    except (OSError, ValueError) as e:
        raise ValueError(f"unreadable trace: {e}") from None

    gates = [check_residual_bound(trace, trace.lipschitz_L)]
    if why is None:
        try:
            gates.append(check_lyapunov_monotone(trace, certificate))
            gates.append(check_function_value_bound(trace, certificate, trace.lipschitz_L))
        except ValueError as e:  # L is valid by now: the certificate does not fit the trace
            raise ValueError(f"{args.oracle}: {e}") from None
    else:
        gates += [TraceCheckReport(name, NOT_APPLICABLE, note=why)
                  for name in ("lyapunov_monotone", "function_value_bound")]
    # the trend line is advisory: printed, never part of the exit code
    if why not in (None, no_certificate):
        trend = TraceCheckReport("scaled_trend", NOT_APPLICABLE, note=why)
    elif observed_convex(trace):  # the curvature shift never switched on
        trend = check_scaled_trend(trace, 1.5, _default_grid(len(trace)))
    elif iterates_settled(trace):
        trend = check_scaled_trend(trace, 0.5, _default_grid(len(trace)))
    else:
        trend = TraceCheckReport("scaled_trend", NOT_APPLICABLE,
                                 note="nonconvex run whose iterates have not settled")
    trend.note = f"{trend.note} -- advisory" if trend.note else "advisory"
    for rep in (*gates, trend):
        print(rep.format_line())
    return EXIT_OK if all(rep.passed for rep in gates) else EXIT_ERROR


SWEEP_AXES = ("instances", "solvers", "epsilons")


def _sweep_cells(matrix: dict, outdir: Path) -> list[list[tuple[str, RunConfig]]]:
    """Per entry of `instances`, (label, validated config) per cell.  Keys
    beside the three axes are RunConfig fields shared by every cell; an
    instance is a file name or a mapping of RunConfig fields with `kind` for
    `problem`."""
    shared = {key: value for key, value in matrix.items() if key not in SWEEP_AXES}
    entries, count = [], 0
    for inst_spec in matrix["instances"]:
        if isinstance(inst_spec, str):
            spec = {"instance": inst_spec}
        else:
            spec = dict(inst_spec)
            if "kind" in spec:
                spec["problem"] = spec.pop("kind")
        cells = []
        for solver in matrix["solvers"]:
            for eps in matrix["epsilons"]:
                count += 1
                cfg = _apply_config(RunConfig(), {
                    **shared, **spec, "solver": solver, "eps": eps,
                    "out": str(outdir / f"cell-{count:03d}")})
                cfg.validate()
                # plus the generator settings the entry sets, which tell its instance apart
                label = (Path(cfg.instance).stem if cfg.instance is not None
                         else f"{cfg.problem}-n{cfg.n}-seed{cfg.seed}" + "".join(
                             f"-{key}{getattr(cfg, key)}" for key in ("rows", "negfrac", "cond")
                             if spec.get(key) is not None))
                cells.append((label, cfg))
        entries.append(cells)
    return entries


def cmd_sweep(args) -> int:
    matrix = _load_json_object(args.config, SWEEP_AXES)
    for key in SWEEP_AXES:
        if not isinstance(matrix[key], list):
            raise ValueError(f"{args.config}: key {key!r}: expected a list, "
                             f"got {type(matrix[key]).__name__}")
    for i, spec in enumerate(matrix["instances"]):
        if not isinstance(spec, (str, dict)):
            raise ValueError(f"{args.config}: key 'instances': entry {i} (counted from 0): "
                             f"expected a file name or an object, got {type(spec).__name__}")
    outdir = Path(args.out) if args.out else output_root() / "sweep"
    entries = _sweep_cells(matrix, outdir)  # a bad matrix fails here, before any cell runs
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    worst = EXIT_OK
    for cells in entries:
        inst = None  # built by the entry's first cell, or by the next if that build fails
        for label, cfg in cells:
            # the row is this run's result, never files an older run left in cfg.out
            try:
                if inst is None:
                    inst = _instance_from_config(cfg)
                result = _run(cfg, inst)
            except Exception as e:  # record the failure, keep sweeping
                print(f"error: {e}", file=sys.stderr)
                worst = EXIT_ERROR
                rows.append((label, cfg.solver, cfg.eps, -1, math.nan, math.nan, f"error: {e}"))
                continue
            try:
                slope = fit_rate(result.trace, _default_grid(len(result.trace))).slope
            except ValueError:  # too short for the grid, or the residual hit zero
                slope = math.nan
            rows.append((label, cfg.solver, cfg.eps, result.iterations,
                         float(np.linalg.norm(result.v)), slope, result.status))
            worst = max(worst, EXIT_OK if result.converged else EXIT_NOT_CONVERGED)

    summary = outdir / "summary.csv"
    with open(summary, "w", encoding="utf-8", newline="") as fh:
        fh.write("instance,solver,eps,iterations,final_vnorm,slope,status\n")
        # quotes a field that holds a comma or a quote; a float is written as its repr
        csv.writer(fh, lineterminator="\n").writerows(rows)
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
        if key not in _run_config_types():
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    return cfg


def _run_config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        _apply_config(cfg, _load_json_object(args.config))
    for key in _run_config_types():
        value = getattr(args, key)
        if value is not None:  # flags override the config file
            setattr(cfg, key, value)
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first command and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
