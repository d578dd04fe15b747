"""fistalab benchmark: time to an epsilon-stationarity certificate.

Run from the repository root:

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): small-batch, large-dense, artifacts.  Load is a
closed loop with one caller: one process solves one instance at a time.

--trace 0 repeats a pass over the workload's operations until --seconds is
used up and reports the end-to-end metrics named in BENCHMARK.json.  Each
operation is timed with a reference kernel timed just before and after it
(reference.py); gated times are normalised by it, to cancel the host's
drifting speed.
--trace 1 runs one pass untraced and one with spans recorded around
fistalab's public callables, plus an untraced comparison of run_mfista with
the trace off, norms and full against a lean reference loop, and reports the
per-layer metrics; it does not read --seconds.  Spans are written to
.bench_out/ in the working directory.

Every output is checked (see checks.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it give every metric by name and unit, with sample counts, the
environment, and the trace digest.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads.  On a shared 2-vCPU host a
# two-thread n=2048 matvec stalls whenever either vCPU is taken: one solve,
# repeated a second apart, ranged 4.9-10.7 ms per iteration with two threads
# and 10.9-14.5 ms with one.  Matvecs at n <= 64 run on one thread either way.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


IMPORT_REPEATS = 11
# the reference kernels (reference.py) whose times normalise each workload's
# timings: (operations, set-up); imports are normalised by the interp kernel
REFERENCE_KERNELS = {"small-batch": ("python", "python"), "large-dense": ("dense", "factor"),
                     "artifacts": ("python", "python")}


def import_fistalab(root: Path, ref) -> tuple[float, float]:
    """Import fistalab (package and cli) from `root`/src several times, each
    time afresh, with the reference kernel timed between repeats.  Returns
    the median import time in seconds, raw and normalised (see normalised).
    numpy is imported once beforehand and stays loaded."""
    src = root / "src"
    if not (src / "fistalab" / "__init__.py").is_file():
        raise SystemExit(f"error: no fistalab sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import importlib

    def fresh_import():
        for name in [m for m in sys.modules if m == "fistalab" or m.startswith("fistalab.")]:
            del sys.modules[name]
        importlib.import_module("fistalab")
        importlib.import_module("fistalab.cli")

    times = interleaved([fresh_import] * IMPORT_REPEATS, ref)
    where = Path(sys.modules["fistalab"].__file__).resolve().parent
    if where != (src / "fistalab").resolve():
        raise SystemExit(f"error: imported fistalab from {where}, not {src}")
    return (statistics.median(dt for _, dt, _ in times),
            statistics.median(normalised(dt, r, ref) for _, dt, r in times))


# ---------------------------------------------------------------------------
# environment

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def _online_cpus() -> int:
    count = 0
    for part in _read("/sys/devices/system/cpu/online").split(","):
        lo, _, hi = part.partition("-")
        if lo.isdigit():
            count += (int(hi) if hi.isdigit() else int(lo)) - int(lo) + 1
    return count


def _l3_size() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(str(index / "level")) == "3":
            return _read(str(index / "size"))
    return "unknown"


def _blas_threads() -> str:
    import ctypes
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" in path and path.endswith(".so") or "openblas" in path and ".so." in path:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": _online_cpus(), "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads(), "l3": _l3_size()}


# ---------------------------------------------------------------------------
# timing

def interleaved(calls, ref):
    """Runs each call with the reference kernel timed before and after it;
    returns [(result, seconds, reference seconds)], the reference time being
    the mean of the two beside the call."""
    out = []
    before = ref.time()
    for call in calls:
        t0 = time.perf_counter()
        result = call()
        dt = time.perf_counter() - t0
        after = ref.time()
        out.append((result, dt, 0.5 * (before + after)))
        before = after
    return out


def normalised(dt: float, ref_dt: float, ref) -> float:
    """`dt` in units of the host's current speed: dt / reference time, scaled
    by the reference kernel's nominal time so that it reads as seconds."""
    return dt / ref_dt * ref.nominal_s


def run_pass(ops, ref):
    """[(op, seconds, reference seconds, outcome)]: each op timed alone, with
    the reference kernel timed around it; ops are verified after the pass."""
    timed = interleaved([op.call for op in ops], ref)
    return [(op, dt, ref_dt, op.verify(out)) for op, (out, dt, ref_dt) in zip(ops, timed)]


OP_KINDS = ("solve", "gen", "run", "sweep", "check")


def by_key(passes, kinds, value) -> dict:
    """{op key: [value(dt, ref_dt, outcome) in each pass]} for ops of the given kinds."""
    out = {}
    for rows in passes:
        for op, dt, ref_dt, o in rows:
            if op.kind in kinds:
                out.setdefault(op.key, []).append(value(dt, ref_dt, o))
    return out


def add_timing(m: dict, name: str, samples: dict, unit: str, missing: str) -> None:
    """p50 over ops of each op's fastest repeat: interference from other
    tenants of a shared host only ever adds time, and it comes and goes
    within seconds, so an op's fastest repeat estimates the program's own
    cost and repeats well from run to run.  p90 over every measured repeat,
    and only with at least 100 of them, so that ten lie beyond it."""
    if not samples:
        m[f"{name}.p50"] = m[f"{name}.p90"] = (None, unit, 0, missing)
        return
    best = [min(v) for v in samples.values()]
    every = [x for v in samples.values() for x in v]
    m[f"{name}.p50"] = (statistics.median(best), unit, len(best), "ops, each its fastest repeat")
    m[f"{name}.p90"] = ((float(np.percentile(every, 90)), unit, len(every), "every repeat")
                        if len(every) >= 100 else (None, unit, len(every), "needs >= 100 samples"))


def per_iteration(passes, value) -> float:
    """Mean over a pass's timed units of a unit's time per solver iteration,
    in us.  A unit is one library solve, or on artifacts one pipeline (gen,
    run, sweep and check over one group of instances); its time is the sum of
    its ops' median `value(dt, ref_dt, outcome)` over passes.  Weighting
    units equally keeps the seed's mix of iteration counts out of the mean."""
    samples = by_key(passes, OP_KINDS, value)
    times, iters = {}, {}
    for op, *_, o in passes[0]:
        unit = op.group or op.key
        times[unit] = times.get(unit, 0.0) + statistics.median(samples[op.key])
        iters[unit] = iters.get(unit, 0) + o.iterations
    return statistics.mean(times[u] / iters[u] for u in times) * 1e6


def end_to_end(wl, passes, setup, ref) -> dict:
    """Every end-to-end metric as (value or None, unit, samples, note)."""
    solve_kinds = ("solve", "run")
    solves = [o for rows in passes for op, *_, o in rows if op.kind in solve_kinds]
    m = {"setup_s": (setup[1], "s", wl.setup_repeats, "normalised: median import + median set-up"),
         "setup_raw_s": (setup[0], "s", wl.setup_repeats, "median import + median set-up")}
    walls = [sum(dt for _, dt, _, _ in rows) for rows in passes]
    m["wall_s"] = (statistics.median(walls), "s", len(walls), "median pass")
    m["norm_us_per_iter"] = (per_iteration(passes, lambda dt, r, o: normalised(dt, r, ref)), "us",
                             len(passes), "normalised, per iteration, mean over units")
    m["pass_us_per_iter"] = (per_iteration(passes, lambda dt, r, o: dt), "us", len(passes),
                             "wall time, per iteration, mean over units")
    add_timing(m, "iter_us", by_key(passes, solve_kinds,
                                    lambda dt, r, o: dt * 1e6 / max(1, o.iterations)), "us", "")
    add_timing(m, "cert_ms", by_key(passes, solve_kinds, lambda dt, r, o: dt * 1e3), "ms", "")
    m["certified_frac"] = (sum(1 for o in solves if o.certified) / len(solves), "frac",
                           len(solves), "")
    attempted, failed = op_counts(passes)
    m["failed_frac"] = (failed / attempted, "frac", attempted, "distinct operations")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, "")
    for name, kind in (("cli_run_ms", "run"), ("cli_check_ms", "check")):
        add_timing(m, name, by_key(passes, (kind,), lambda dt, r, o: dt * 1e3), "ms",
                   "no CLI commands in this workload")
    sweeps = [sum(dt for op, dt, _, _ in rows if op.kind == "sweep") for rows in passes]
    m["sweep_s"] = ((statistics.median(sweeps), "s", len(sweeps), "a pass's sweeps, median pass")
                    if any(sweeps) else (None, "s", 0, "no sweep in this workload"))
    return m


def setup_time(wl, imports: tuple[float, float], ref) -> tuple[float, float]:
    """(raw, normalised) set-up time: median import plus median workload
    set-up over wl.setup_repeats, the reference kernel timed between them."""
    times = interleaved([wl.setup] * wl.setup_repeats, ref)
    wl.gen_s = statistics.median(dt for _, dt, _ in times)
    return (imports[0] + wl.gen_s,
            imports[1] + statistics.median(normalised(dt, r, ref) for _, dt, r in times))


def calibrate(wl) -> tuple[dict, int]:
    """Untraced run_mfista with the trace off / norms / full and the lean
    loop, interleaved per case; us per iteration, median over rounds.  Also
    counts the cases whose lean trace is bit-identical to run_mfista's."""
    import dataclasses
    from lean import lean_mfista
    from workloads import row_bytes, solve, trace_rows

    cases = [dataclasses.replace(c, max_iters=wl.calibration_iters or c.max_iters)
             for c in wl.calibration_cases()]
    rounds = {mode: [] for mode in ("off", "norms", "full", "lean")}
    matches = 0
    for r in range(wl.calibration_rounds):
        spent = dict.fromkeys(rounds, 0.0)
        iters = dict.fromkeys(rounds, 0)
        for c in cases:
            for mode in rounds:
                t0 = time.perf_counter()
                if mode == "lean":
                    *_, k, rows = lean_mfista(c.problem, c.epsilon, c.max_iters, c.y0)
                else:
                    res = solve(c, record_trace=mode != "off", trace_vectors=mode == "full")
                    k = res.iterations
                spent[mode] += time.perf_counter() - t0
                iters[mode] += k
                if mode == "norms":
                    ref = trace_rows(res.trace)
            if r == 0:
                matches += row_bytes(rows) == ref
        for mode in rounds:
            rounds[mode].append(spent[mode] * 1e6 / iters[mode])
    us = {mode: statistics.median(v) for mode, v in rounds.items()}
    calib = {
        "solver.mfista_off_us_per_iter": us["off"],
        "solver.mfista_norms_us_per_iter": us["norms"],
        "solver.mfista_full_us_per_iter": us["full"],
        "solver.lean_ref_us_per_iter": us["lean"],
        "solver.overhead_ratio": us["norms"] / us["lean"],
        "solver.trace_norms_us_per_iter": us["norms"] - us["off"],
        "solver.trace_full_us_per_iter": us["full"] - us["off"],
        "solver.lean_ref_match": float(matches),
    }
    return calib, len(cases)


# ---------------------------------------------------------------------------

def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def op_counts(passes) -> tuple[int, int]:
    """(attempted, failed) over the workload's distinct operations, not their
    repeats: every pass repeats the same operations, in the same order, for
    timing, and an operation has failed if any of its repeats failed.  Both
    counts then follow the seed alone, not how many passes fit in --seconds."""
    repeats = list(zip(*passes))
    return len(repeats), sum(1 for rs in repeats if any(not o.ok for *_, o in rs))


def summarize_outcomes(passes, label):
    correct = all(o.correct for rows in passes for *_, o in rows)
    for rs in zip(*passes):
        bad = [(op, o) for op, *_, o in rs if not o.ok or not o.correct]
        if bad:
            op, o = bad[0]
            print(f"{label} {'wrong' if not o.correct else 'failed'} {op.key} "
                  f"({len(bad)} of {len(rs)} repeats): {o.note}", file=sys.stderr)
    return (correct, *op_counts(passes))


def digests(passes):
    from workloads import digest
    return [digest(o for *_, o in rows) for rows in passes]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(BENCH_DIR))
    from reference import Reference
    ops_kind, setup_kind = REFERENCE_KERNELS[args.workload]
    setup_ref = Reference(setup_kind)
    ref = setup_ref if ops_kind == setup_kind else Reference(ops_kind)
    imports = import_fistalab(root, Reference("interp"))
    import workloads

    env = environment()
    if args.workload == "small-batch":
        wl = workloads.SmallBatch(args.seed)
    elif args.workload == "large-dense":
        wl = workloads.LargeDense(args.seed)
    else:
        wl = workloads.Artifacts(args.seed, root / ".bench_tmp" / f"artifacts-{args.seed}-{os.getpid()}")
    print(f"# fistalab benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    try:
        setup = setup_time(wl, imports, setup_ref)
        if args.trace:
            return traced_run(wl, args, root, ref)
        passes = []
        t_start = time.perf_counter()
        for ops in wl.passes():
            t0 = time.perf_counter()
            passes.append(run_pass(ops, ref))
            now = time.perf_counter()
            if now - t_start + (now - t0) > args.seconds:
                break
    finally:
        wl.cleanup()

    correct, attempted, failed = summarize_outcomes(passes, args.workload)
    pass_digests = digests(passes)
    if len(set(pass_digests)) != 1:
        correct = False
        print(f"{args.workload} wrong: traces differ between passes {pass_digests}", file=sys.stderr)
    metrics = end_to_end(wl, passes, setup, ref)
    for name, (value, unit, n, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} {shown} {unit} n={n}" + (f" ({note})" if note else ""))
    print(f"info trace_digest {pass_digests[0]} passes={len(passes)}")
    gated = {}
    for spec in SPEC["end_to_end"]:
        value, unit, _, _ = metrics[spec["name"]]
        gated[spec["name"]] = (value, unit)
    emit(correct, attempted, failed, gated)
    return 0


def traced_run(wl, args, root: Path, ref) -> int:
    from layers import Recorder, per_layer
    from tracing import patched, span_cost_ns

    untraced = run_pass(wl.one_pass(), ref)
    rec = Recorder()
    with patched(rec.replacements()):
        traced = run_pass(wl.one_pass(rec), ref)
    wall_u = sum(dt for _, dt, _, _ in untraced)
    wall_t = sum(dt for _, dt, _, _ in traced)
    calib, n_calib = calibrate(wl)
    tab = rec.tracer.table()
    extra = {"gen_s": wl.gen_s, "overhead_frac": wall_t / wall_u - 1.0,
             "span_cost_us": span_cost_ns() / 1e3,
             "gate_fail": sum(o.gate_fail for *_, o in traced),
             "advisory_fail": sum(o.advisory_fail for *_, o in traced)}
    layers = per_layer(rec, calib, extra)

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    rec.tracer.save(spans_path)

    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, value in layers.items():
        print(f"layer {name} {value:.6g} {units.get(name, '')}")
    for name, row in sorted(tab.items()):
        if row["calls"]:
            print(f"span {name} calls={row['calls']} total_ms={row['total_ns'] / 1e6:.3f} "
                  f"self_ms={row['self_ns'] / 1e6:.3f}")
    print(f"info lean_ref_match {calib['solver.lean_ref_match']:.0f}/{n_calib} spans={len(rec.tracer.start)} file={spans_path.name}")
    print(f"info traced_wall_s {wall_t:.4f} untraced_wall_s {wall_u:.4f}")
    iters_u = sum(o.iterations for *_, o in untraced)
    print(f"north_star mfista us/iter: off={calib['solver.mfista_off_us_per_iter']:.1f} "
          f"norms={calib['solver.mfista_norms_us_per_iter']:.1f} "
          f"lean={calib['solver.lean_ref_us_per_iter']:.1f}")
    print(f"north_star pass us/iter={wall_u * 1e6 / max(1, iters_u):.1f} "
          f"oracle_floor={layers['problems.oracle_floor_us_per_iter']:.1f}")
    passes = [untraced, traced]
    correct, attempted, failed = summarize_outcomes(passes, args.workload)
    d_u, d_t = digests(passes)
    if d_u != d_t:
        correct = False
        print(f"{args.workload} wrong: traced run changed the traces", file=sys.stderr)
    print(f"info trace_digest {d_u}")
    emit(correct, attempted, failed, {m["name"]: (layers[m["name"]], m["unit"]) for m in SPEC["per_layer"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
