"""Which public callables the traced run wraps, and the per-layer metrics
derived from the spans.

Layers are fistalab's modules: core (CountedProblem), prox (the h oracles),
problems (the smooth oracles, generators, optimality oracles, instance
files), solver (the run_* loops), analysis (the check_* functions and
fit_rate) and cli (main, trace and manifest files).  `cli` imports names from
`analysis`, `problems` and `solver` into its own namespace, so those are
patched where cli looks them up.
"""

from __future__ import annotations

import dataclasses
import os
import types

import numpy as np

import fistalab.cli as cli
import fistalab.core as core
import fistalab.solver as solver_mod

from tracing import Tracer

RAW_ORACLES = ("problems.f", "problems.grad", "prox.box", "prox.l1_ball", "prox.h_value",
               "prox.project")
CORE_SPANS = ("core.f", "core.grad", "core.prox", "core.project", "core.h")
MATVECS = {"qp": (1, 1), "lasso": (1, 2)}   # (per f call, per gradient call)


def family(kind: str) -> str:
    return "lasso" if kind == "lasso-ball" else "qp"


class Recorder:
    """The tracer plus what the spans alone do not hold: oracle counters at
    each prox call, per-solve results and per-problem array shapes."""

    def __init__(self):
        self.tracer = Tracer()
        self.solves: list[dict] = []
        self._snaps: dict[int, list] = {}
        self._shapes: dict[int, tuple] = {}

    def traced_problem(self, p, inst):
        """A copy of `p` whose oracle fields record spans."""
        t = self.tracer
        prox_name = "prox.l1_ball" if inst.kind == "lasso-ball" else "prox.box"
        q = dataclasses.replace(
            p, smooth_value=t.wrap("problems.f", p.smooth_value),
            smooth_grad=t.wrap("problems.grad", p.smooth_grad),
            h_value=t.wrap("prox.h_value", p.h_value),
            h_prox=t.wrap(prox_name, p.h_prox),
            omega_project=None if p.omega_project is None else t.wrap("prox.project", p.omega_project))
        rows = inst.A.shape[0] if inst.kind == "lasso-ball" else inst.dim
        self._shapes[id(q)] = (q, family(inst.kind), rows, inst.dim)
        return q

    def _prox_with_snapshot(self, prox):
        snaps = self._snaps

        def prox_counted(cp, z, t):
            c = cp.counters
            now = (c.grad_evals, c.f_evals, c.prox_evals, c.proj_evals)
            entry = snaps.get(id(c))
            if entry is None:
                snaps[id(c)] = [now, now]
            else:
                entry[1] = now
            return prox(cp, z, t)
        return prox_counted

    def _solver_work(self, name):
        def work(args, kwargs, result):
            first, last = self._snaps.pop(id(result.counters), (None, None))
            shape = self._shapes.get(id(args[0]))
            trace = result.trace
            self.solves.append({
                "solver": name, "iters": result.iterations, "first": first, "last": last,
                "curvature_active": sum(1 for x in trace.L_k if x > 0.0) if trace else 0,
                "shape": shape[1:] if shape else None})
            return {"iters": result.iterations}
        return work

    def replacements(self) -> list:
        """(owner, attribute, traced value) for every patched name."""
        t = self.tracer
        counted = core.CountedProblem
        out = [(counted, "f", t.wrap("core.f", counted.f)),
               (counted, "grad", t.wrap("core.grad", counted.grad)),
               (counted, "project", t.wrap("core.project", counted.project)),
               (counted, "h", t.wrap("core.h", counted.h)),
               # counters are read outside the core.prox span, so the read is
               # charged to the solver, not to core's overhead
               (counted, "prox", self._prox_with_snapshot(t.wrap("core.prox", counted.prox)))]
        for owner in (solver_mod, cli):
            for name, label in (("run_mfista", "mfista"), ("run_fista_baseline", "fista"),
                                ("run_proxgrad_baseline", "proxgrad")):
                out.append((owner, name, t.wrap("solver.run", getattr(owner, name),
                                                self._solver_work(label))))
        rows_arg = lambda a, k, r: {"rows": len(a[0])}  # noqa: E731
        for attr, name, *work in (
                ("write_trace_csv", "cli.write_trace_csv",
                 lambda a, k, r: {"rows": len(a[0]), "bytes": os.path.getsize(a[1])}),
                ("read_trace_csv", "cli.read_trace_csv", lambda a, k, r: {"rows": len(r)}),
                ("check_residual_bound", "analysis.check_residual_bound", rows_arg),
                ("check_lyapunov_monotone", "analysis.check_lyapunov_monotone", rows_arg),
                ("check_function_value_bound", "analysis.check_function_value_bound", rows_arg),
                ("check_scaled_trend", "analysis.check_scaled_trend"),
                ("fit_rate", "analysis.fit_rate"),
                ("save_instance", "problems.instance_io"),
                ("load_instance", "problems.instance_io"),
                ("brute_force_optimum", "problems.oracle"),
                ("lasso_optimum", "problems.oracle"),
                ("make_convex_qp", "problems.gen"),
                ("make_nonconvex_qp", "problems.gen"),
                ("make_lasso_on_ball", "problems.gen"),
                ("main", "cli.main")):
            out.append((cli, attr, t.wrap(name, getattr(cli, attr), *work)))

        # cli's own view of numpy, so that only the trace sidecar calls record
        npz = types.SimpleNamespace(**{k: getattr(np, k) for k in dir(np) if not k.startswith("__")})
        npz.savez = t.wrap("cli.npz_write", np.savez, lambda a, k, r: {"rows": len(k["ys"])})
        npz.load = t.wrap("cli.npz_read", _load_eager, lambda a, k, r: {"rows": len(r["ys"])})
        to_problem = cli.to_problem
        out += [(cli, "np", npz),
                (cli, "to_problem", lambda inst: self.traced_problem(to_problem(inst), inst))]
        return out


def _load_eager(path):
    """np.load with the arrays read inside the call (NpzFile reads lazily)."""
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec: Recorder, calib: dict, extra: dict) -> dict[str, float]:
    """Per-layer metrics from one traced pass (`rec`), the untraced mfista
    comparison (`calib`) and a few figures measured outside spans (`extra`)."""
    tab = rec.tracer.table()
    work = rec.tracer.work

    def calls(name):
        return tab.get(name, {}).get("calls", 0)

    def total(name):
        return tab.get(name, {}).get("total_ns", 0.0)

    def self_ns(name):
        return tab.get(name, {}).get("self_ns", 0.0)

    iters = sum(s["iters"] for s in rec.solves)
    mf = [s for s in rec.solves if s["solver"] == "mfista" and s["first"] is not None]
    steady = sum(s["iters"] - 1 for s in mf)
    diffs = np.array([np.subtract(s["last"], s["first"]) for s in mf]).reshape(-1, 4)
    grad_e, f_e, prox_e, proj_e = diffs.sum(axis=0) if len(mf) else (0, 0, 0, 0)
    mv = {"qp": [0, 0], "lasso": [0, 0]}
    bytes_sum = 0.0
    for s, d in zip(mf, diffs):
        if s["shape"] is None:
            continue
        fam, rows, n = s["shape"]
        per_f, per_g = MATVECS[fam]
        m = d[1] * per_f + d[0] * per_g
        mv[fam][0] += m
        mv[fam][1] += s["iters"] - 1
        bytes_sum += m * rows * n * 8.0

    out = {
        "core.overhead_us_per_call": _per(sum(self_ns(n) for n in CORE_SPANS),
                                          sum(calls(n) for n in CORE_SPANS)) / 1e3,
        "core.grad_evals_per_iter": _per(grad_e, steady),
        "core.f_evals_per_iter": _per(f_e, steady),
        "core.prox_evals_per_iter": _per(prox_e, steady),
        "core.proj_evals_per_iter": _per(proj_e, steady),
        "prox.box_us_per_call": _per(total("prox.box"), calls("prox.box")) / 1e3,
        "prox.l1_ball_us_per_call": _per(total("prox.l1_ball"), calls("prox.l1_ball")) / 1e3,
        "problems.f_us_per_call": _per(total("problems.f"), calls("problems.f")) / 1e3,
        "problems.grad_us_per_call": _per(total("problems.grad"), calls("problems.grad")) / 1e3,
        "problems.oracle_floor_us_per_iter": _per(sum(total(n) for n in RAW_ORACLES), iters) / 1e3,
        "problems.matvecs_per_iter.qp": _per(*mv["qp"]),
        "problems.matvecs_per_iter.lasso": _per(*mv["lasso"]),
        "problems.bytes_per_iter": _per(bytes_sum, steady),
        # set-up time, or the generators' time where cli generates
        "problems.gen_s": total("problems.gen") / 1e9 if calls("problems.gen") else extra["gen_s"],
        "problems.oracle_ms": _per(total("problems.oracle"), calls("problems.oracle")) / 1e6,
        "problems.instance_io_ms": _per(total("problems.instance_io"),
                                        calls("problems.instance_io")) / 1e6,
        "solver.self_us_per_iter": _per(self_ns("solver.run"), iters) / 1e3,
        "solver.iters": float(iters),
        "solver.curvature_active_iters": float(sum(s["curvature_active"] for s in rec.solves)),
        "analysis.residual_bound_us_per_row": _per(total("analysis.check_residual_bound"),
                                                   work["analysis.check_residual_bound.rows"]) / 1e3,
        "analysis.lyapunov_us_per_row": _per(total("analysis.check_lyapunov_monotone"),
                                             work["analysis.check_lyapunov_monotone.rows"]) / 1e3,
        "analysis.fit_rate_us": _per(total("analysis.fit_rate"), calls("analysis.fit_rate")) / 1e3,
        "analysis.gate_fail": float(extra["gate_fail"]),
        "analysis.advisory_fail": float(extra["advisory_fail"]),
        "cli.csv_write_us_per_row": _per(self_ns("cli.write_trace_csv"),
                                       work["cli.write_trace_csv.rows"]) / 1e3,
        "cli.csv_read_us_per_row": _per(self_ns("cli.read_trace_csv"),
                                       work["cli.read_trace_csv.rows"]) / 1e3,
        "cli.npz_write_us_per_row": _per(total("cli.npz_write"), work["cli.npz_write.rows"]) / 1e3,
        "cli.npz_read_us_per_row": _per(total("cli.npz_read"), work["cli.npz_read.rows"]) / 1e3,
        "cli.trace_bytes_per_row": _per(work["cli.write_trace_csv.bytes"],
                                        work["cli.write_trace_csv.rows"]),
        "cli.self_ms_per_op": _per(self_ns("cli.main"), calls("cli.main")) / 1e6,
    }
    out.update(calib)
    out["trace.overhead_frac"] = extra["overhead_frac"]
    out["trace.span_cost_us"] = extra["span_cost_us"]
    return out
