#!/usr/bin/env python3
"""One digest over everything a battery of solves leaves behind.

Runs every solver on generated instances and hashes, per solve, the status,
the final (y, v), the oracle counters, every trace column and the stored
iterate and residual vectors.  A speed-up that must keep traces bit-identical
must print the same digests before and after the change:

    PYTHONPATH=src python scripts/trace_fingerprint.py

The default matrix is n in {4, 8, 32, 64} x 12 seeds x {convex QP,
nonconvex QP, lasso-ball} x {mfista, fista 1/L, projected fista 1/(4L),
proxgrad} x {untraced, norms, full}: 1728 solves.  It is run twice: once on
the problems as generated, which declare `smooth_is_quadratic` so that the
accelerated solvers derive the gradient at x_{k+1}, and once with that
declaration forced off, so that every gradient comes from the oracle.  Each
digest is printed on its own line; together they take about two minutes on
one core.

A third line digests the certificate oracles on the same battery:
`lasso_optimum` on its 48 lassos and `brute_force_optimum` on its 24 n=4
quadratics, over each certificate's y_star, phi_star, kkt_residual and
method.  A change to either oracle that must keep certificates
bit-identical must print the same third line before and after.

A fourth line digests the h operators directly: on every instance of the
battery, `h_prox(z, t)` and `h_value(z)` at seeded points inside, near and
outside the box or ball (points on the boundary come from the prox of a far
point), with zeros of both signs and strided views, for three steps t.  The
solves rarely or never reach some of these branches, such as the lasso
ball's projection, so this line is their bit-for-bit guard.  It uses only
the generators and the problems' `h_prox`/`h_value`; that the fused
`h_prox_value` returns the same bits is tested in tests/test_prox.py.

A fifth line runs the first battery again with the fused oracles
`smooth_value_grad` and `h_prox_value` set to None, so that every run
reaches f and grad f, and the prox and h, through separate calls.  It must
equal the first line: the fused oracles return the same bits, and the
counters count a fused call as the separate calls it replaces.

A sixth line digests what the `fistalab` command prints and writes.  In a
temporary working directory, with relative paths, it runs through
`cli.main`: a full-trace mfista run with its oracle for seeds 1-3 on a
convex QP (n=4, cond 10), a lasso (n=8, 16 rows) and a nonconvex QP (n=4),
each checked with and without `--oracle`; a fista and a proxgrad run,
checked the same way; one `check` refusal of each kind; and three `run`
refusals: a quadratic beyond the oracle's n <= 4, an n beyond the
generators' cap and an out-of-range `--negfrac`.  It hashes each command's
argv, exit code, stdout and stderr, and for each run whether its output
directory exists and every trace.csv, oracle.json and manifest.json it
writes, the manifest without its `wall_time_s`.  A refactor of `cli` that
must keep its output byte-identical must print the same sixth line before
and after.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from fistalab import (
    SolverConfig,
    Trace,
    brute_force_optimum,
    make_convex_qp,
    make_lasso_on_ball,
    make_nonconvex_qp,
    run_fista_baseline,
    run_mfista,
    run_proxgrad_baseline,
)
from fistalab.cli import main as cli_main
from fistalab.problems import MAX_ENUM_DIM, lasso_optimum

DIMS = (4, 8, 32, 64)
SEEDS = tuple(range(1, 13))
EPSILON = 1e-8
MAX_ITERS = 2000

# each returns (problem, instance)
PROBLEMS = {
    "convex-qp": make_convex_qp,
    "nonconvex-qp": make_nonconvex_qp,
    "lasso-ball": lambda n, s: make_lasso_on_ball(n, max(1, 3 * n // 4), s),
}

SOLVERS = {
    "mfista": lambda p, cfg, y0: run_mfista(p, cfg, y0),
    "fista": lambda p, cfg, y0: run_fista_baseline(p, cfg, y0, 1.0 / p.lipschitz_L),
    "fista-quarter": lambda p, cfg, y0: run_fista_baseline(
        p, cfg, y0, 1.0 / (4.0 * p.lipschitz_L), project_extrapolation=True),
    "proxgrad": lambda p, cfg, y0: run_proxgrad_baseline(p, cfg, y0),
}

TRACES = {"off": (False, False), "norms": (True, False), "full": (True, True)}


def _hash_result(h, res) -> None:
    c = res.counters
    h.update(repr((res.status, res.iterations, c.grad_evals, c.f_evals, c.prox_evals,
                   c.proj_evals)).encode())
    h.update(res.y.tobytes())
    h.update(res.v.tobytes())
    if res.trace is None:
        return
    for name in Trace.COLUMNS:
        h.update(name.encode())
        h.update(res.trace.column(name).tobytes())
    if res.trace.ys is not None:
        for vec in res.trace.ys + res.trace.vs:
            h.update(vec.tobytes())


def trace_fingerprint(dims=DIMS, seeds=SEEDS, epsilon: float = EPSILON,
                      quadratic: bool = True, fused: bool = True) -> str:
    """sha256 prefix over every solve of dims x seeds x problems x solvers x traces.

    With `quadratic` False the problems' `smooth_is_quadratic` is forced off;
    with `fused` False their `smooth_value_grad` and `h_prox_value` are None.
    """
    h = hashlib.sha256()
    for n in dims:
        for seed in seeds:
            for pname, make in PROBLEMS.items():
                p = make(n, seed)[0]
                if not quadratic:
                    p = dataclasses.replace(p, smooth_is_quadratic=False)
                if not fused:
                    p = dataclasses.replace(p, smooth_value_grad=None, h_prox_value=None)
                # the prox of the origin is a feasible start for every family
                y0 = p.h_prox(np.zeros(n), 1.0)
                for sname, solve in SOLVERS.items():
                    for tname, (record, vectors) in TRACES.items():
                        cfg = SolverConfig(epsilon=epsilon, max_iters=MAX_ITERS,
                                           record_trace=record, trace_vectors=vectors)
                        h.update(f"{n} {seed} {pname} {sname} {tname}".encode())
                        _hash_result(h, solve(p, cfg, y0))
    return h.hexdigest()[:16]


def oracle_fingerprint(dims=DIMS, seeds=SEEDS) -> str:
    """sha256 prefix over the oracle certificates of the battery's instances:
    every lasso, and the quadratics small enough to enumerate."""
    h = hashlib.sha256()
    for n in dims:
        for seed in seeds:
            for pname, make in PROBLEMS.items():
                if pname == "lasso-ball":
                    cert = lasso_optimum(make(n, seed)[1])
                elif n <= MAX_ENUM_DIM:
                    cert = brute_force_optimum(make(n, seed)[1])
                else:
                    continue
                h.update(f"{n} {seed} {pname} {cert.method}".encode())
                h.update(cert.y_star.tobytes())
                h.update(np.float64(cert.phi_star).tobytes())
                h.update(np.float64(cert.kkt_residual).tobytes())
    return h.hexdigest()[:16]


# multiples of a boundary point: inside, either side of the 1e-9 membership
# band, and well outside
BOUNDARY_SCALES = (0.0, 0.3, 0.999, 1.0 - 1e-10, 1.0 + 5e-10, 1.0 + 2e-9, 1.5, 10.0)


def _operator_points(p, rng) -> list:
    n = p.dim
    # the prox of a far point with a tiny step lands on the boundary of dom h
    edge = np.asarray(p.h_prox(1e6 * rng.standard_normal(n), 1e-9), dtype=float)
    centre = np.asarray(p.h_prox(np.zeros(n), 1.0), dtype=float)
    points = [s * edge for s in BOUNDARY_SCALES]
    points.append(centre + 1e-3 * rng.standard_normal(n))
    for z in points[1::2]:
        signed = z.copy()
        signed[::3] = -0.0
        signed[1::3] = 0.0
        points.append(signed)
    points.append(np.full(n, -0.0))
    # strided views of the same kinds of points
    for s in (0.5, 1.0 + 2e-9, 3.0):
        wide = np.repeat(s * edge, 2)
        wide[1::2] = rng.standard_normal(n)
        points.append(wide[::2])
    return points


def operator_fingerprint(dims=DIMS, seeds=SEEDS) -> str:
    """sha256 prefix over h_prox and h_value of every instance of the battery
    at seeded points inside, near and outside dom h."""
    h = hashlib.sha256()
    for n in dims:
        for seed in seeds:
            for pname, make in PROBLEMS.items():
                p = make(n, seed)[0]
                rng = np.random.default_rng([n, seed])
                steps = (1.0 / (4.0 * p.lipschitz_L), 1.0 / p.lipschitz_L, 10.0)
                h.update(f"{n} {seed} {pname}".encode())
                for z in _operator_points(p, rng):
                    h.update(np.float64(p.h_value(z)).tobytes())
                    for t in steps:
                        h.update(np.asarray(p.h_prox(z, t), dtype=float).tobytes())
    return h.hexdigest()[:16]


# the mfista runs' problems: (kind, generator flags)
CLI_PROBLEMS = (
    ("convex-qp", ("--n", "4", "--cond", "10")),
    ("lasso-ball", ("--n", "8", "--rows", "16")),
    ("nonconvex-qp", ("--n", "4")),
)


def _cli_call(h, *argv) -> None:
    """Run one command through cli.main and hash its argv, exit code, stdout
    and stderr, and for `run` whether its output directory exists and the
    files it wrote (the manifest without its wall time)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    h.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
    if argv[0] == "run":
        outdir = Path(argv[argv.index("--out") + 1])
        h.update(repr(outdir.exists()).encode())
        for name in ("trace.csv", "oracle.json", "manifest.json"):
            if (outdir / name).exists():
                lines = (outdir / name).read_text().splitlines(keepends=True)
                h.update(name.encode())
                h.update("".join(ln for ln in lines
                                 if not ln.startswith(' "wall_time_s": ')).encode())


def _refusal_dir(name: str, run: str, manifest=None) -> str:
    """A copy of `run`'s trace.csv in directory `name`, beside a manifest.json
    holding `manifest` (JSON text, or an object to dump) unless it is None;
    returns the trace's path."""
    Path(name).mkdir()
    shutil.copy(Path(run) / "trace.csv", Path(name) / "trace.csv")
    if manifest is not None:
        text = manifest if isinstance(manifest, str) else json.dumps(manifest)
        (Path(name) / "manifest.json").write_text(text)
    return f"{name}/trace.csv"


def _cli_battery(h, seeds, epsilon: float) -> None:
    common = ("--eps", repr(epsilon), "--max-iters", "100000", "--trace", "full",
              "--with-oracle")
    for kind, flags in CLI_PROBLEMS:
        for seed in seeds:
            out = f"{kind}-{seed}"
            _cli_call(h, "run", "--problem", kind, *flags, "--seed", str(seed), *common,
                      "--out", out)
            _cli_call(h, "check", f"{out}/trace.csv")
            _cli_call(h, "check", f"{out}/trace.csv", "--oracle", f"{out}/oracle.json")
    kind, flags = CLI_PROBLEMS[0]
    for solver in ("fista", "proxgrad"):
        _cli_call(h, "run", "--problem", kind, *flags, "--seed", str(seeds[0]),
                  "--solver", solver, *common, "--out", solver)
        _cli_call(h, "check", f"{solver}/trace.csv")
        _cli_call(h, "check", f"{solver}/trace.csv", "--oracle", f"{solver}/oracle.json")

    # one refusal of each kind, on copies of the first convex run
    run = f"{kind}-{seeds[0]}"
    manifest = json.loads((Path(run) / "manifest.json").read_text())
    broken = {
        "not-json": "{",
        "no-lipschitz-key": {k: v for k, v in manifest.items() if k != "lipschitz_L"},
        "config-not-object": {**manifest, "config": "mfista"},
        "no-solver": {**manifest, "config": {}},
        "unknown-solver": {**manifest, "config": {"solver": "newton"}},
        "string-lipschitz": {**manifest, "lipschitz_L": "2.5"},
        "null-lipschitz": {**manifest, "lipschitz_L": None},
        "no-manifest": None,
    }
    for name, text in broken.items():
        _cli_call(h, "check", _refusal_dir(name, run, text))
    _cli_call(h, "check", "missing/trace.csv")
    _cli_call(h, "check", f"{run}/trace.csv", "--lipschitz", "-1")
    certificate = json.loads((Path(run) / "oracle.json").read_text())
    Path("bad-oracle.json").write_text(json.dumps({**certificate, "phi_star": "abc"}))
    _cli_call(h, "check", f"{run}/trace.csv", "--oracle", "bad-oracle.json")
    # a certificate of another dimension does not fit the trace
    _cli_call(h, "check", f"{run}/trace.csv", "--oracle",
              f"{CLI_PROBLEMS[1][0]}-{seeds[0]}/oracle.json")
    short = _refusal_dir("short-row", run)
    lines = Path(short).read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:5])
    Path(short).write_text("\n".join(lines) + "\n")
    _cli_call(h, "check", short, "--lipschitz", "1")

    # run refusals: the oracle's dimension limit, the generators' size cap
    # and an out-of-range generator setting
    _cli_call(h, "run", "--problem", "convex-qp", "--n", "8", "--with-oracle", "--out", "big")
    _cli_call(h, "run", "--problem", "convex-qp", "--n", "65", "--out", "cap")
    _cli_call(h, "run", "--problem", "nonconvex-qp", "--n", "4", "--negfrac", "1.5",
              "--out", "neg")


def cli_fingerprint(seeds=(1, 2, 3), epsilon: float = EPSILON) -> str:
    """sha256 prefix over the output and files of a fixed battery of `fistalab`
    commands, run in a temporary working directory."""
    h = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _cli_battery(h, seeds, epsilon)
        finally:
            os.chdir(cwd)
    return h.hexdigest()[:16]


if __name__ == "__main__":
    print(f"{trace_fingerprint()} as generated (gradient at x_{{k+1}} derived)")
    print(f"{trace_fingerprint(quadratic=False)} smooth_is_quadratic forced off "
          "(every gradient from the oracle)")
    print(f"{oracle_fingerprint()} oracle certificates (lasso_optimum, brute_force_optimum)")
    print(f"{operator_fingerprint()} h operators (h_prox, h_value at fixed points)")
    print(f"{trace_fingerprint(fused=False)} fused oracles set to None (separate calls; "
          "must equal the first line)")
    print(f"{cli_fingerprint()} fistalab run and check (output, files and refusals)")
