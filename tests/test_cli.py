import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fistalab.cli as cli
from fistalab.cli import build_parser, main, read_trace_csv, write_trace_csv
from fistalab.problems import save_instance
from fistalab import (SolverConfig, Trace, make_convex_qp, make_lasso_on_ball,
                      make_nonconvex_qp, run_fista_baseline, run_mfista, run_proxgrad_baseline,
                      to_problem)


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("FISTALAB_OUT", str(tmp_path / "out"))
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def test_run_smoke(tmp_path, capsys):
    code = run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "7",
                   "--solver", "mfista", "--eps", "1e-8", "--out", str(tmp_path / "r1"))
    assert code == 0
    assert (tmp_path / "r1" / "trace.csv").exists()
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    assert manifest["status"] == "converged"
    assert manifest["final_vnorm"] <= 1e-8
    assert manifest["iterations"] >= 1
    assert "converged" in capsys.readouterr().out


def test_run_rejects_bad_epsilon(tmp_path, capsys):
    # an infinite epsilon used to converge after one iteration and write
    # "eps": Infinity, which is not JSON, into the manifest
    for eps in ("0", "inf", "nan", "-1e-8"):
        out = tmp_path / f"r{eps}"
        code = run_cli("run", "--problem", "convex-qp", "--n", "2", f"--eps={eps}",
                       "--out", str(out))
        assert code == 1, eps
        assert "epsilon must be positive" in capsys.readouterr().err, eps
        assert not out.exists(), eps


def test_sweep_refuses_an_infinite_epsilon_before_any_cell_runs(tmp_path, capsys):
    # json reads Infinity as float("inf"); the good first cell must not run either
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text('{"instances": [{"kind": "convex-qp", "n": 3}], '
                        '"solvers": ["mfista"], "epsilons": [1e-6, Infinity]}')
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert capsys.readouterr().err == "error: epsilon must be positive and finite, got inf\n"
    assert not (tmp_path / "sw").exists()


def test_sweep_refuses_an_epsilon_beyond_the_float_range_before_any_cell_runs(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": [{"kind": "convex-qp", "n": 3}],
                                    "solvers": ["mfista"], "epsilons": [1e-6, 10**400]}))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert capsys.readouterr().err == f"error: config key 'eps' must be float, got {10**400!r}\n"
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("cond", ["0", "nan", "inf", "-5", "0.5"])
@pytest.mark.parametrize("command", ["run", "gen"])
def test_cond_must_be_finite_and_at_least_one(tmp_path, capsys, command, cond):
    # geomspace(1/cond, 1, n) is a spectrum with condition number cond only
    # for a finite cond >= 1; 0.5 used to build a 2..1 spectrum silently
    out = tmp_path / "out-file"
    argv = ["run", "--problem"] if command == "run" else ["gen", "--kind"]
    assert run_cli(*argv, "convex-qp", "--n", "4", "--cond", cond, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: config key 'cond' must be a finite number >= 1, got {float(cond)!r}\n")
    assert not out.exists()


def test_run_requires_problem_or_instance(capsys):
    assert run_cli("run", "--eps", "1e-6") == 1
    assert "problem" in capsys.readouterr().err


def test_run_not_converged_exit_code(tmp_path):
    code = run_cli("run", "--problem", "convex-qp", "--n", "6", "--seed", "1",
                   "--eps", "1e-300", "--max-iters", "25", "--out", str(tmp_path / "r2"))
    assert code == 2


def test_default_out_dir_names_the_fista_step_mode(tmp_path):
    # out_root points FISTALAB_OUT at tmp_path / "out"
    assert run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "1",
                   "--solver", "fista", "--step-mode", "quarter-L") == 0
    assert (tmp_path / "out" / "convex-qp-n4-seed1-fista-quarter-L" / "trace.csv").exists()
    # without --step-mode a fista run takes, and is named by, the step 1/L
    assert run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "1",
                   "--solver", "fista") == 0
    assert (tmp_path / "out" / "convex-qp-n4-seed1-fista-inverse-L" / "trace.csv").exists()


def test_python_m_fistalab_runs(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fistalab", "run", "--problem", "convex-qp",
                           "--n", "4", "--seed", "1", "--out", str(tmp_path / "r")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("converged after ")
    assert (tmp_path / "r" / "trace.csv").exists()


def test_bad_subcommand_maps_to_error():
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1


def test_reproducible_traces(tmp_path):
    argv = ("run", "--problem", "nonconvex-qp", "--n", "5", "--seed", "3",
            "--eps", "1e-9", "--max-iters", "500")
    assert run_cli(*argv, "--out", str(tmp_path / "a")) in (0, 2)
    assert run_cli(*argv, "--out", str(tmp_path / "b")) in (0, 2)
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_gen_then_run_instance_file(tmp_path):
    inst_file = tmp_path / "inst.txt"
    assert run_cli("gen", "--kind", "lasso-ball", "--n", "6", "--rows", "4",
                   "--seed", "2", "--out", str(inst_file)) == 0
    assert inst_file.exists()
    code = run_cli("run", "--instance", str(inst_file), "--solver", "fista",
                   "--eps", "1e-6", "--out", str(tmp_path / "r3"))
    assert code == 0


def test_trace_csv_round_trip(tmp_path):
    p, _ = make_convex_qp(3, 5)
    res = run_mfista(p, SolverConfig(epsilon=1e-9, max_iters=200, trace_vectors=True),
                     np.zeros(3))
    path = tmp_path / "trace.csv"
    write_trace_csv(res.trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "k,a_k,L_k,vnorm,phi,dxy,dyy,gradevals,proxevals"
    back = read_trace_csv(path, p.lipschitz_L)
    assert len(back) == len(res.trace)
    for col in ("a_k", "L_k", "vnorm", "phi", "dxy", "dyy"):
        np.testing.assert_array_equal(back.column(col), res.trace.column(col))
    assert back.has_vectors  # sidecar written and picked up
    np.testing.assert_array_equal(back.ys[-1], res.trace.ys[-1])
    # write -> read -> write reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_trace_csv(back, again)
    assert again.read_bytes() == path.read_bytes()


def write_trace_csv_by_rows(trace, path):
    """Reference writer: one repr'd, comma-joined line per iteration."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(Trace.COLUMNS) + "\n")
        for row in zip(*(getattr(trace, name) for name in Trace.COLUMNS)):
            fh.write(",".join(map(repr, row)) + "\n")


def _traces_for_csv():
    qp, _ = make_convex_qp(5, 3)
    ncqp, _ = make_nonconvex_qp(6, 2, negfrac=0.4)
    lasso, _ = make_lasso_on_ball(6, 4, 1)
    solvers = {
        "mfista": lambda p, cfg: run_mfista(p, cfg, np.zeros(p.dim)),
        "fista": lambda p, cfg: run_fista_baseline(p, cfg, np.zeros(p.dim), 1.0 / p.lipschitz_L),
        "proxgrad": lambda p, cfg: run_proxgrad_baseline(p, cfg, np.zeros(p.dim)),
    }
    for vectors in (False, True):
        cfg = SolverConfig(epsilon=1e-9, max_iters=150, trace_vectors=vectors)
        for pname, p in (("qp", qp), ("lasso", lasso), ("nonconvex-qp", ncqp)):
            for sname, run in solvers.items():
                yield f"{pname}-{sname}-{'full' if vectors else 'norms'}", run(p, cfg).trace
    yield "empty", Trace(1.0)


def test_trace_csv_written_by_columns_matches_rows(tmp_path):
    traces = dict(_traces_for_csv())
    # the nonconvex mfista runs switch the curvature shift on, so L_k > 0 is written too
    assert max(traces["nonconvex-qp-mfista-norms"].L_k) > 0.0
    for name, trace in traces.items():
        path, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}-rows.csv"
        write_trace_csv(trace, path)
        write_trace_csv_by_rows(trace, ref)
        assert path.read_bytes() == ref.read_bytes(), name
    assert (tmp_path / "empty.csv").read_bytes() == (
        b"k,a_k,L_k,vnorm,phi,dxy,dyy,gradevals,proxevals\n")


def test_equivalence_mode_matches_mfista(tmp_path):
    common = ("--problem", "convex-qp", "--n", "6", "--seed", "5",
              "--eps", "1e-300", "--max-iters", "200")
    run_cli("run", *common, "--solver", "mfista", "--out", str(tmp_path / "m"))
    run_cli("run", *common, "--solver", "fista", "--step-mode", "quarter-L",
            "--out", str(tmp_path / "f"))
    tm = read_trace_csv(tmp_path / "m" / "trace.csv")
    tf = read_trace_csv(tmp_path / "f" / "trace.csv")
    assert len(tm) == len(tf) == 200
    for col in ("a_k", "L_k", "vnorm", "phi", "dxy", "dyy"):
        np.testing.assert_allclose(tm.column(col), tf.column(col), rtol=0, atol=1e-12)


def test_check_genuine_and_corrupted(tmp_path, capsys):
    rundir = tmp_path / "r4"
    run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "2",
            "--eps", "1e-9", "--out", str(rundir))
    assert run_cli("check", str(rundir / "trace.csv")) == 0
    out = capsys.readouterr().out
    assert "CHECK residual_bound PASS" in out
    assert "CHECK lyapunov_monotone N/A" in out  # norms-only trace, no oracle

    # forge one early row: zero the step norms so the aggregated bound
    # collapses while the best residual so far is still large
    lines = (rundir / "trace.csv").read_text().splitlines()
    j = 1 + len(lines) // 4
    cells = lines[j].split(",")
    cells[5] = "0.0"
    cells[6] = "0.0"
    lines[j] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = run_cli("check", str(bad), "--lipschitz",
                   str(json.loads((rundir / "manifest.json").read_text())["lipschitz_L"]))
    assert code == 1
    assert "CHECK residual_bound FAIL" in capsys.readouterr().out


def test_check_full_trace_with_oracle(tmp_path, capsys):
    for problem, expected_code in (
            # epsilon unreachable, that is fine here
            (("convex-qp", "--n", "3", "--seed", "4", "--eps", "1e-300", "--max-iters", "400"), 2),
            # the lasso's certificate comes from lasso_optimum, not enumeration
            (("lasso-ball", "--n", "6", "--rows", "8", "--seed", "1"), 0)):
        rundir = tmp_path / problem[0]
        code = run_cli("run", "--problem", *problem, "--trace", "full",
                       "--with-oracle", "--out", str(rundir))
        assert code == expected_code
        assert (rundir / "oracle.json").exists()
        capsys.readouterr()
        code = run_cli("check", str(rundir / "trace.csv"),
                       "--oracle", str(rundir / "oracle.json"))
        out = capsys.readouterr().out
        assert code == 0
        assert "CHECK residual_bound PASS" in out
        assert "CHECK lyapunov_monotone PASS" in out
        assert "CHECK function_value_bound PASS" in out


def test_check_refuses_an_oracle_of_another_length(tmp_path, capsys):
    # refused before any CHECK line, naming the file and both lengths
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "3", "--eps", "1e-9",
                   "--trace", "full", "--with-oracle", "--out", str(a)) == 0
    assert run_cli("run", "--problem", "lasso-ball", "--n", "8", "--rows", "8", "--seed", "1",
                   "--with-oracle", "--out", str(b)) == 0
    capsys.readouterr()
    assert run_cli("check", str(a / "trace.csv"), "--oracle", str(b / "oracle.json")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {b / 'oracle.json'}: certificate y_star has 8 entries, "
                            f"the trace's iterates have 4\n")


def test_check_norms_trace_with_oracle_leaves_the_energy_gates_not_applicable(tmp_path, capsys):
    rundir = tmp_path / "r"
    assert run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "3", "--eps", "1e-9",
                   "--with-oracle", "--out", str(rundir)) == 0
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv"),
                   "--oracle", str(rundir / "oracle.json")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line, name in zip(lines[1:3], ("lyapunov_monotone", "function_value_bound")):
        assert line.startswith(f"CHECK {name} N/A ")
        assert line.endswith(" -- needs a full-vector trace")


def test_run_removes_another_runs_oracle_and_manifest(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r12"
    common = ("run", "--problem", "convex-qp", "--n", "4", "--trace", "full", "--out", str(out))
    assert run_cli(*common, "--seed", "1", "--with-oracle") == 0
    assert (out / "oracle.json").exists()
    assert run_cli(*common, "--seed", "2") == 0
    # seed 1's optimum must not sit beside seed 2's trace, where check would
    # hold the genuine trace to the wrong optimum and fail its gates
    assert not (out / "oracle.json").exists()
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 2

    # a run that fails after writing its trace leaves no manifest to pair with it
    def broken(cert, path):
        raise OSError("disk full")
    monkeypatch.setattr("fistalab.cli.save_certificate", broken)
    assert run_cli(*common, "--seed", "3", "--with-oracle") == 1
    assert (out / "trace.csv").exists()
    assert not (out / "manifest.json").exists() and not (out / "oracle.json").exists()
    assert "disk full" in capsys.readouterr().err


@pytest.mark.parametrize("solver", ["mfista", "fista"])
def test_manifest_records_oracle_counters(tmp_path, solver, monkeypatch):
    for quadratic in (True, False):
        out = tmp_path / f"{solver}-{quadratic}"
        # generated problems declare smooth_is_quadratic; a run without the
        # declaration calls the gradient oracle at x_{k+1} too
        monkeypatch.setattr("fistalab.cli.to_problem", lambda inst, q=quadratic: (
            dataclasses.replace(to_problem(inst), smooth_is_quadratic=q)))
        assert run_cli("run", "--problem", "nonconvex-qp", "--n", "6", "--seed", "3",
                       "--solver", solver, "--eps", "1e-7", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        counters = manifest["counters"]
        assert set(counters) == {"grad_evals", "prox_evals", "proj_evals", "f_evals"}
        trace = read_trace_csv(out / "trace.csv")
        iters = manifest["iterations"]
        assert counters["prox_evals"] == iters == trace.proxevals[-1]
        assert counters["grad_evals"] == trace.gradevals[-1]
        assert counters["proj_evals"] == 0  # the generated problems have no omega_project
        if quadratic:
            # one gradient at the start, then one per iteration, at y_k
            assert counters["grad_evals"] == 1 + iters
            assert counters["f_evals"] == iters
        else:
            # a converged run evaluates f at y_k every iteration; mfista also at x_{k+1}
            assert counters["grad_evals"] == 2 * iters
            assert counters["f_evals"] == (2 * iters - 1 if solver == "mfista" else iters)


@pytest.mark.parametrize("problem", ["convex-qp", "nonconvex-qp", "lasso-ball"])
@pytest.mark.parametrize("solver", ["mfista", "fista", "proxgrad"])
def test_manifest_final_vnorm_is_the_traced_one(tmp_path, problem, solver):
    # sweep's summary and readers pairing a manifest with its trace rely on
    # the two residual norms being the same float, not merely close
    out = tmp_path / "r"
    assert run_cli("run", "--problem", problem, "--n", "6", "--seed", "4", "--solver", solver,
                   "--eps", "1e-7", "--max-iters", "3000", "--out", str(out)) in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["final_vnorm"] == read_trace_csv(out / "trace.csv").vnorm[-1]


def test_check_missing_trace(capsys):
    assert run_cli("check", "/nonexistent/trace.csv") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no such trace /nonexistent/trace.csv\n"
    assert captured.out == ""


def test_check_without_manifest_or_lipschitz_is_an_error(tmp_path, capsys):
    rundir = tmp_path / "r"
    run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1", "--out", str(rundir))
    (rundir / "manifest.json").unlink()
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: Lipschitz constant unavailable (pass --lipschitz or keep "
                            "manifest.json next to the trace)\n")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["inf", "-1", "0", "nan"])
def test_check_refuses_a_bad_lipschitz_flag(tmp_path, capsys, value):
    # an infinite L passes the residual bound on any trace, and a negative
    # one has no square root
    rundir = tmp_path / "r"
    run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1", "--out", str(rundir))
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv"), "--lipschitz", value) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --lipschitz: Lipschitz constant must be a finite positive "
                            f"number, got {float(value)!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("value", [-2.0, "abc", None, math.inf, [1.0], True, "2.5", 10**400],
                         ids=["negative", "string", "null", "infinite", "list", "boolean",
                              "numeric-string", "int-beyond-float"])
def test_check_refuses_a_bad_manifest_lipschitz_constant(tmp_path, capsys, value):
    rundir = tmp_path / "r"
    run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1", "--out", str(rundir))
    manifest_path = rundir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["lipschitz_L"] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 1
    captured = capsys.readouterr()
    # json reads its Infinity back as inf
    assert captured.err == (f"error: {manifest_path}: key 'lipschitz_L': Lipschitz constant "
                            f"must be a finite positive number, got {value!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("config,why", [
    ({"problem": "convex-qp"}, "missing key 'solver'"),
    ("mfista", "expected an object, got str"),
    ([], "expected an object, got list"),
    ({"solver": "newton"}, "unknown solver 'newton'"),
], ids=["no-solver", "string", "list", "unknown-solver"])
def test_check_refuses_a_bad_manifest_config(tmp_path, capsys, config, why):
    # check reads the solver from the manifest's config to pick its gates
    rundir = tmp_path / "r"
    run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1", "--out", str(rundir))
    manifest_path = rundir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"] = config
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {manifest_path}: key 'config': {why}\n"
    assert captured.out == ""


def test_run_lasso_with_oracle_on_a_one_row_instance(tmp_path, capsys):
    # the ridge-sized ball (radius 185) used to cut off this optimum (near 231)
    out = tmp_path / "r"
    assert run_cli("run", "--problem", "lasso-ball", "--n", "1", "--rows", "1", "--seed", "7",
                   "--with-oracle", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert run_cli("check", str(out / "trace.csv"), "--oracle", str(out / "oracle.json")) == 0


def test_run_designed_spectrum_records_its_lipschitz_constant(tmp_path):
    # --cond spreads the spectrum geometrically up to 1, so L is 1
    out = tmp_path / "r"
    assert run_cli("run", "--problem", "convex-qp", "--n", "4", "--cond", "100",
                   "--seed", "1", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["cond"] == 100.0
    assert manifest["lipschitz_L"] == pytest.approx(1.0, rel=1e-12)


def test_sweep_summary(tmp_path, capsys):
    inst_file = tmp_path / "qp.txt"
    run_cli("gen", "--kind", "convex-qp", "--n", "4", "--seed", "8",
            "--out", str(inst_file))
    config = {
        "instances": [str(inst_file),
                      {"kind": "nonconvex-qp", "n": 4, "seed": 1},
                      {"kind": "lasso-ball", "n": 6, "rows": 4, "seed": 2},
                      {"instance": str(inst_file)}],
        "solvers": ["mfista", "proxgrad"],
        "epsilons": [1e-7],
        "max_iters": 4000,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code = run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw"))
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert lines[0] == "instance,solver,eps,iterations,final_vnorm,slope,status"
    assert len(lines) == 1 + 4 * 2  # instances x solvers x epsilons
    # a file is labelled by its stem, whether named bare or under an instance key;
    # a generated instance by its kind, n, seed and the generator settings it sets
    labels = ["qp", "nonconvex-qp-n4-seed1", "lasso-ball-n6-seed2-rows4", "qp"]
    assert [ln.split(",")[0] for ln in lines[1:]] == [lab for lab in labels for _ in range(2)]
    assert code in (0, 2)
    statuses = [ln.split(",")[-1] for ln in lines[1:]]
    assert all(s in ("converged", "max_iters_reached") for s in statuses)
    float(lines[1].split(",")[5])  # slope column parses (may be nan)


def test_sweep_records_an_invalid_instance_file_and_keeps_going(tmp_path, capsys):
    good = tmp_path / "qp.txt"
    run_cli("gen", "--kind", "convex-qp", "--n", "4", "--seed", "8", "--out", str(good))
    bad = tmp_path / "zero-L.txt"
    bad.write_text("convex-qp n=1 seed=0 L=0.0 m=0.0\n1.0\n0.5\n-1.0\n1.0\n")
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": [str(good), str(bad), str(good)],
                                    "solvers": ["mfista"], "epsilons": [1e-7]}))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    rows = (tmp_path / "sw" / "summary.csv").read_text().splitlines()[1:]
    # the message holds a comma, so its field is quoted and the row still
    # reads as the header's 7 fields
    message = f"error: {bad}: header field L='0.0': must be positive, got 0.0"
    fields = list(csv.reader(rows))
    assert [len(f) for f in fields] == [7, 7, 7]
    assert [f[6] for f in fields] == ["converged", message, "converged"]
    assert rows[1].startswith("zero-L,mfista,1e-07,-1,nan,nan,")
    assert message in capsys.readouterr().err


def test_sweep_keeps_the_row_of_a_cell_whose_error_is_not_ascii(tmp_path, capsys):
    good = tmp_path / "good.txt"
    run_cli("gen", "--kind", "convex-qp", "--n", "4", "--seed", "8", "--out", str(good))
    missing = tmp_path / "caf\u00e9.txt"
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": [str(good), str(missing)],
                                    "solvers": ["mfista"], "epsilons": [1e-7]}))
    capsys.readouterr()
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    message = f"error: [Errno 2] No such file or directory: {str(missing)!r}"
    # every cell's row is written, the failed one with the cell's own error
    rows = (tmp_path / "sw" / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    fields = list(csv.reader(rows))
    assert [(f[0], f[6]) for f in fields] == [("good", "converged"), ("caf\u00e9", message)]
    assert capsys.readouterr().err == message + "\n"


def test_sweep_labels_each_generated_instance_by_the_settings_it_sets(tmp_path):
    # entries differing only in cond, negfrac or rows are different instances;
    # a setting shared by every cell is not part of any entry's label
    config = {"instances": [{"kind": "convex-qp", "n": 8, "cond": 10.0},
                            {"kind": "convex-qp", "n": 8, "cond": 1000.0},
                            {"kind": "convex-qp", "n": 8},
                            {"kind": "nonconvex-qp", "n": 8, "negfrac": 0.5},
                            {"kind": "lasso-ball", "n": 8, "rows": 6, "seed": 1}],
              "solvers": ["mfista"], "epsilons": [1e-6], "max_iters": 5}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw"))
    with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
        labels = [row[0] for row in csv.reader(fh)][1:]
    assert labels == ["convex-qp-n8-seed0-cond10.0", "convex-qp-n8-seed0-cond1000.0",
                      "convex-qp-n8-seed0", "nonconvex-qp-n8-seed0-negfrac0.5",
                      "lasso-ball-n8-seed1-rows6"]


def test_sweep_slope_is_nan_on_short_traces(tmp_path):
    # a trace too short for fit_rate's grid gets slope nan, a long one a number
    config = {"instances": [{"kind": "convex-qp", "n": 4, "seed": 2}],
              "solvers": ["mfista"], "epsilons": [1e-1, 1e-10]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "sw" / "summary.csv").read_text().splitlines()[1:]]
    assert int(rows[0][3]) < 10 and rows[0][5] == "nan"
    assert int(rows[1][3]) >= 400 and math.isfinite(float(rows[1][5]))


def test_sweep_cell_reports_its_own_run_not_older_files(tmp_path, capsys):
    # the second sweep's cell fails before writing anything, so the first
    # sweep's manifest and trace are still in its directory; its row must be
    # the failure, not those files
    out, cfg_path = tmp_path / "sw", tmp_path / "sweep.json"
    for seed, extra, expected_code in ((1, {}, 0), (2, {"with_oracle": True}, 1)):
        cfg_path.write_text(json.dumps({
            "instances": [{"kind": "convex-qp", "n": 8, "seed": seed, **extra}],
            "solvers": ["mfista"], "epsilons": [1e-6]}))
        assert run_cli("sweep", str(cfg_path), "--out", str(out)) == expected_code
    assert (out / "cell-001" / "manifest.json").exists()  # the first sweep's
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert rows == ["convex-qp-n8-seed2,mfista,1e-06,-1,nan,nan,"
                    "error: oracle needs n <= 4 for quadratics"]
    assert "oracle needs n <= 4" in capsys.readouterr().err


def test_run_config_file_with_flag_override(tmp_path):
    cfg = {"problem": "convex-qp", "n": 4, "seed": 9, "eps": 1e-7, "solver": "proxgrad"}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r6"
    code = run_cli("run", "--config", str(cfg_path), "--solver", "mfista",
                   "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["solver"] == "mfista"  # flag beat the file
    assert manifest["config"]["seed"] == 9


def test_default_out_root_env(tmp_path):
    code = run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1",
                   "--eps", "1e-7")
    assert code == 0
    root = tmp_path / "out"
    dirs = list(root.iterdir())
    assert len(dirs) == 1
    assert (dirs[0] / "trace.csv").exists()


def test_check_baseline_full_trace_skips_mfista_inequalities(tmp_path, capsys):
    # the energy and value inequalities belong to run_mfista's step 1/(4L);
    # a FISTA trace read through its manifest must not be gated on them
    inst_file = tmp_path / "inst.txt"
    run_cli("gen", "--kind", "nonconvex-qp", "--n", "4", "--seed", "5", "--out", str(inst_file))
    rundir = tmp_path / "fista"
    assert run_cli("run", "--instance", str(inst_file), "--solver", "fista", "--trace", "full",
                   "--with-oracle", "--out", str(rundir)) == 0
    capsys.readouterr()
    code = run_cli("check", str(rundir / "trace.csv"), "--oracle", str(rundir / "oracle.json"))
    out = capsys.readouterr().out
    assert code == 0
    for name in ("lyapunov_monotone", "function_value_bound"):
        line = next(ln for ln in out.splitlines() if ln.startswith(f"CHECK {name} "))
        assert line.startswith(f"CHECK {name} N/A")
        assert "from fista" in line


def test_run_with_oracle_checked_before_solving(tmp_path, capsys):
    rundir = tmp_path / "r7"
    code = run_cli("run", "--problem", "convex-qp", "--n", "8", "--with-oracle",
                   "--out", str(rundir))
    assert code == 1
    assert "oracle needs n <= 4" in capsys.readouterr().err
    assert not (rundir / "trace.csv").exists()


@pytest.mark.parametrize("refused,message", [
    ("lasso", "lasso optimum touched the padding ball; radius too small"),
    ("quadratic", "oracle needs n <= 4 for quadratics"),
], ids=["lasso", "quadratic"])
def test_refused_certificate_leaves_the_earlier_run_untouched(tmp_path, capsys, refused,
                                                              message):
    # the certificate is taken before the solve: a refused one writes nothing,
    # so the earlier run's files still pair with each other
    out = tmp_path / "r"
    assert run_cli("run", "--problem", "lasso-ball", "--n", "8", "--rows", "16", "--seed", "1",
                   "--with-oracle", "--trace", "full", "--out", str(out)) == 0
    names = ("trace.csv", "trace_vectors.npz", "oracle.json", "manifest.json")
    before = {name: (out / name).read_bytes() for name in names}
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    if refused == "lasso":
        inst = tmp_path / "small-ball.txt"
        assert run_cli("gen", "--kind", "lasso-ball", "--n", "8", "--rows", "16", "--seed", "1",
                       "--out", str(inst)) == 0
        header, rest = inst.read_text().split("\n", 1)
        inst.write_text(re.sub(r"radius=\S+", "radius=0.05", header) + "\n" + rest)
        argv = ("--instance", str(inst))
    else:
        argv = ("--problem", "convex-qp", "--n", "8")
    capsys.readouterr()
    assert run_cli("run", *argv, "--with-oracle", "--trace", "full", "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


GENERATOR_REFUSALS = [
    (("run", "--problem", "lasso-ball", "--n", "8", "--rows", "16", "--cond", "10"),
     "config key 'cond' applies only to --problem convex-qp"),
    (("run", "--problem", "convex-qp", "--n", "4", "--rows", "7"),
     "config key 'rows' applies only to --problem lasso-ball"),
    (("run", "--problem", "nonconvex-qp", "--n", "4", "--cond", "5"),
     "config key 'cond' applies only to --problem convex-qp"),
    (("gen", "--kind", "nonconvex-qp", "--n", "4", "--rows", "3", "--cond", "5"),
     "config key 'cond' applies only to --problem convex-qp"),
    (("gen", "--kind", "convex-qp", "--n", "4", "--rows", "3"),
     "config key 'rows' applies only to --problem lasso-ball"),
    (("gen", "--kind", "lasso-ball", "--n", "4", "--cond", "2"),
     "config key 'cond' applies only to --problem convex-qp"),
    (("run", "--problem", "convex-qp", "--n", "4", "--negfrac", "0.4"),
     "config key 'negfrac' applies only to --problem nonconvex-qp"),
    (("gen", "--kind", "lasso-ball", "--n", "4", "--negfrac", "0.4"),
     "config key 'negfrac' applies only to --problem nonconvex-qp"),
    (("run", "--problem", "convex-qp", "--n", "4", "--step-mode", "quarter-L"),
     "config key 'step_mode' applies only to --solver fista"),
]


@pytest.mark.parametrize("argv,message", GENERATOR_REFUSALS,
                         ids=[f"{argv[0]}-{argv[2]}-{message.split()[2]}"
                              for argv, message in GENERATOR_REFUSALS])
def test_generator_settings_the_problem_never_reads_are_refused(tmp_path, capsys, argv,
                                                                message):
    # a setting that never reaches the generator used to be recorded in the manifest
    out = tmp_path / "out-file"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("settings,message", [
    ({"problem": "nonconvex-qp", "rows": 4},
     "config key 'rows' applies only to --problem lasso-ball"),
    ({"problem": "lasso-ball", "cond": 10.0},
     "config key 'cond' applies only to --problem convex-qp"),
    ({"instance": "inst.txt", "cond": 10.0},
     "config key 'cond' applies only to --problem convex-qp"),
    ({"instance": "inst.txt", "rows": 4},
     "config key 'rows' applies only to --problem lasso-ball"),
    ({"problem": "convex-qp", "negfrac": 0.4},
     "config key 'negfrac' applies only to --problem nonconvex-qp"),
    ({"instance": "inst.txt", "negfrac": 0.4},
     "config key 'negfrac' applies only to --problem nonconvex-qp"),
    # a sweep cell takes its solver from the sweep's axis: mfista here
    ({"problem": "convex-qp", "solver": "proxgrad", "step_mode": "inverse-L"},
     "config key 'step_mode' applies only to --solver fista"),
], ids=["nonconvex-rows", "lasso-cond", "instance-cond", "instance-rows", "convex-negfrac",
        "instance-negfrac", "proxgrad-step_mode"])
def test_run_config_and_sweep_refuse_settings_the_problem_never_reads(tmp_path, capsys,
                                                                      settings, message):
    inst = tmp_path / "inst.txt"
    assert run_cli("gen", "--kind", "lasso-ball", "--n", "4", "--out", str(inst)) == 0
    settings = {k: str(inst) if k == "instance" else v for k, v in settings.items()}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(settings))
    capsys.readouterr()
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "r")) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "r").exists()
    # a sweep entry is refused the same way, before its good first entry runs
    entry = {("kind" if k == "problem" else k): v for k, v in settings.items()}
    cfg_path.write_text(json.dumps({"instances": [{"kind": "convex-qp", "n": 3}, entry],
                                    "solvers": ["mfista"], "epsilons": [1e-6]}))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "sw").exists()


def test_negative_seed_is_refused_by_name(tmp_path, capsys):
    # numpy's own refusal, "expected non-negative integer", named no field
    message = "error: config key 'seed' must be >= 0, got -1\n"
    out = tmp_path / "out-file"
    for argv in (("run", "--problem", "convex-qp", "--n", "4"),
                 ("gen", "--kind", "lasso-ball", "--n", "4")):
        assert run_cli(*argv, "--seed", "-1", "--out", str(out)) == 1
        assert capsys.readouterr() == ("", message)
        assert not out.exists()
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({
        "instances": [{"kind": "convex-qp", "n": 3}, {"kind": "nonconvex-qp", "n": 3, "seed": -1}],
        "solvers": ["mfista"], "epsilons": [1e-6]}))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "sw").exists()


SIZE_REFUSALS = [*[(kind, "--n", n) for kind in cli.PROBLEM_KINDS for n in ("0", "65")],
                 *[("lasso-ball", "--n", "4", "--rows", rows) for rows in ("0", "65")]]


@pytest.mark.parametrize("flags", SIZE_REFUSALS, ids=[" ".join(f) for f in SIZE_REFUSALS])
@pytest.mark.parametrize("command", ["run", "gen"])
def test_generator_size_refusals_through_the_cli(tmp_path, capsys, command, flags):
    out = tmp_path / "out-file"
    kind_flag = "--problem" if command == "run" else "--kind"
    message = ("n and rows" if flags[0] == "lasso-ball" else "n") + " must be in [1, 64]"
    assert run_cli(command, kind_flag, *flags, "--out", str(out)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("cfg,key", [
    ({"problem": "convex-qp", "n": "8"}, "n"),
    ({"problem": "convex-qp", "eps": "1e-6"}, "eps"),
    ({"problem": "convex-qp", "n": True}, "n"),
    ({"problem": "convex-qp", "with_oracle": "yes"}, "with_oracle"),
    ({"problem": ["convex-qp"]}, "problem"),
])
def test_run_config_file_types_checked(tmp_path, capsys, cfg, key):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "r8")) == 1
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "r8").exists()


@pytest.mark.parametrize("key,value,message", [
    ("problem", "qp", "unknown problem kind 'qp'"),
    ("solver", "ista", "unknown solver 'ista'"),
    ("step_mode", "half-L", "unknown step mode 'half-L'"),
    ("trace", "all", "trace verbosity must be 'norms' or 'full'"),
    ("max_iters", 0, "max-iters must be >= 1"),
    ("seeed", 3, "unknown config key 'seeed'"),
    # JSON integers float() cannot hold: eps used to stop after one iteration
    pytest.param("eps", 10**400, f"config key 'eps' must be float, got {10**400!r}",
                 id="eps-int-beyond-float"),
    pytest.param("cond", 10**400, f"config key 'cond' must be float or null, got {10**400!r}",
                 id="cond-int-beyond-float"),
    pytest.param("negfrac", -10**400,
                 f"config key 'negfrac' must be float or null, got {-10**400!r}",
                 id="negfrac-int-beyond-float"),
])
def test_run_config_file_values_checked(tmp_path, capsys, key, value, message):
    # a config file reaches these values without argparse's choices
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"problem": "convex-qp", "n": 4, key: value}))
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "r")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r").exists()


def test_read_trace_csv_refuses_a_bad_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("k,a_k,vnorm\n1,1.0,0.5\n")
    with pytest.raises(ValueError, match="^unexpected trace header: 'k,a_k,vnorm'$"):
        read_trace_csv(path)


def test_check_short_trace_row(tmp_path, capsys):
    rundir = tmp_path / "r9"
    run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1", "--eps", "1e-7",
            "--out", str(rundir))
    lines = (rundir / "trace.csv").read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:5])
    (rundir / "trace.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        read_trace_csv(rundir / "trace.csv")
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unreadable trace: line 3: expected 9 fields, got 5\n"
    assert captured.out == ""


@pytest.mark.parametrize("row,field,bad,lineno,why", [
    (0, 0, "x", 2, "k: invalid literal for int() with base 10: 'x'"),
    (2, 4, "1.0.0", 4, "phi: could not convert string to float: '1.0.0'"),
], ids=["int-field", "float-field"])
def test_check_unparsable_trace_field_names_its_line(tmp_path, capsys, row, field, bad, lineno,
                                                     why):
    rundir = tmp_path / "r10"
    run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1", "--eps", "1e-7",
            "--out", str(rundir))
    (rundir / "manifest.json").unlink()
    lines = (rundir / "trace.csv").read_text().splitlines()
    fields = lines[1 + row].split(",")
    fields[field] = bad
    lines[1 + row] = ",".join(fields)
    (rundir / "trace.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        read_trace_csv(rundir / "trace.csv")
    capsys.readouterr()
    assert run_cli("check", "--lipschitz", "1", str(rundir / "trace.csv")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: unreadable trace: line {lineno}: {why}\n"
    assert captured.out == ""


def test_run_empty_instance_file_names_it(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert run_cli("run", "--instance", str(path), "--out", str(tmp_path / "r")) == 1
    assert f"error: {path}: no instance header" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    ("convex-qp seed=0 L=1.0 m=0.0\n1.0\n0.5\n-1.0\n1.0\n", "header has no n= field"),
    ("convex-qp n=1 seed=0 L=1.0 m=0.0\n1.0\nx\n-1.0\n1.0\n",
     "line 3: could not convert string to float: 'x'"),
    ("convex-qp n=1 seed=0 L=nan m=0.0\n1.0\n0.5\n-1.0\n1.0\n",
     "header field L='nan': expected a finite number"),
    ("convex-qp n=1 seed=0 L=1.0 m=0.0\nnan\n0.5\n-1.0\n1.0\n",
     "line 2: expected a finite number, got 'nan'"),
    ("convex-qp n=1 seed=0 L=0.0 m=0.0\n1.0\n0.5\n-1.0\n1.0\n",
     "header field L='0.0': must be positive, got 0.0"),
    ("lasso-ball n=2 rows=1 seed=0 L=1.0 m=0.0 lam=0.1 radius=-1.0\n1.0 0.5\n0.3\n",
     "header field radius='-1.0': must be positive, got -1.0"),
    ("convex-qp n=2 seed=0 L=1.0 m=0.0\n1.0 0.0\n0.0 1.0\n0.1 0.2\n-1.0 0.0\n1.0 -1.0\n",
     "line 6: expected upper >= lower, got '-1.0'"),
    ("convex-qp n=1 seed=0 L=1.0 m=0.0 lam=3 junk\n1.0\n0.5\n-1.0\n1.0\n",
     "header field lam is not a convex-qp field"),
    ("convex-qp n=1 seed=0 L=1.0 m=0.0 junk\n1.0\n0.5\n-1.0\n1.0\n",
     "header field junk has no '=' and value"),
    ("convex-qp n=1 seed=0 L=1.0 m=0.0 caf\u00e9=1\n1.0\n0.5\n-1.0\n1.0\n",
     "'ascii' codec can't decode byte 0xc3 in position 36: ordinal not in range(128)"),
], ids=["header-field", "payload-line", "non-finite-header-field", "non-finite-payload-entry",
        "zero-lipschitz", "negative-radius", "upper-below-lower", "unknown-header-field",
        "token-without-equals", "non-ascii-byte"])
def test_run_malformed_instance_file_names_file_and_fault(tmp_path, capsys, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    assert run_cli("run", "--instance", str(path), "--out", str(tmp_path / "r")) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "r").exists()


def test_default_run_dir_names_the_instance_files_seed(tmp_path):
    inst_file = tmp_path / "i2.txt"
    assert run_cli("gen", "--kind", "convex-qp", "--n", "3", "--seed", "2",
                   "--out", str(inst_file)) == 0
    assert run_cli("run", "--instance", str(inst_file)) == 0
    # under $FISTALAB_OUT, set for every test here
    assert [d.name for d in (tmp_path / "out").iterdir()] == ["i2-n3-seed2-mfista"]


def test_file_run_manifest_names_no_generator_setting(tmp_path):
    # the instance file fixes n and the seed; --seed 9 and RunConfig's n=8 went unused
    inst_file = tmp_path / "i.txt"
    assert run_cli("gen", "--kind", "convex-qp", "--n", "4", "--out", str(inst_file)) == 0
    out = tmp_path / "r"
    assert run_cli("run", "--instance", str(inst_file), "--seed", "9", "--out", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["instance"] == str(inst_file)
    assert not {"n", "seed", "rows", "negfrac", "cond"} & set(config)
    assert run_cli("check", str(out / "trace.csv")) == 0


@pytest.mark.parametrize("argv,step_mode,negfrac", [
    (("--problem", "convex-qp"), None, None),
    (("--problem", "convex-qp", "--solver", "proxgrad"), None, None),
    (("--problem", "convex-qp", "--solver", "fista"), "inverse-L", None),
    (("--problem", "convex-qp", "--solver", "fista", "--step-mode", "quarter-L"),
     "quarter-L", None),
    (("--problem", "nonconvex-qp"), None, 0.25),
    (("--problem", "nonconvex-qp", "--negfrac", "0.4"), None, 0.4),
    (("--problem", "lasso-ball"), None, None),
], ids=["mfista", "proxgrad", "fista", "fista-quarter-L", "nonconvex", "nonconvex-negfrac",
        "lasso"])
def test_manifest_records_only_settings_the_run_read(tmp_path, argv, step_mode, negfrac):
    # mfista steps 1/(4L) and proxgrad 1/L whatever step_mode says, and only a
    # nonconvex QP reads negfrac; the manifest used to record both defaults on every run
    out = tmp_path / "r"
    assert run_cli("run", *argv, "--n", "4", "--eps", "1e-6", "--out", str(out)) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["step_mode"], config["negfrac"]) == (step_mode, negfrac)


def test_gen_negfrac_default_is_the_generators(tmp_path):
    path = tmp_path / "i.txt"
    assert run_cli("gen", "--kind", "nonconvex-qp", "--n", "6", "--seed", "4",
                   "--out", str(path)) == 0
    save_instance(make_nonconvex_qp(6, 4)[1], tmp_path / "ref.txt")
    assert path.read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_check_oracle_without_a_key_names_file_and_key(tmp_path, capsys):
    rundir = tmp_path / "r"
    assert run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "4", "--trace", "full",
                   "--with-oracle", "--out", str(rundir)) == 0
    oracle = rundir / "oracle.json"
    payload = json.loads(oracle.read_text())
    del payload["phi_star"]
    oracle.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv"), "--oracle", str(oracle)) == 1
    assert capsys.readouterr().err == f"error: {oracle}: missing key 'phi_star'\n"


@pytest.mark.parametrize("key,value,message", [
    ("phi_star", "abc", "key 'phi_star': could not convert string to float: 'abc'"),
    ("kkt_residual", None, "key 'kkt_residual': float() argument must be a string or a real"),
    ("y_star", ["0.5", "x", "0.0"], "key 'y_star' entry 1: could not convert string to float: 'x'"),
    ("y_star", 0.5, "key 'y_star': expected a list, got float"),
    ("y_star", [True, False, True], "key 'y_star' entry 0: expected a number, got bool"),
    ("y_star", ["0.5", 0.25, False], "key 'y_star' entry 2: expected a number, got bool"),
    ("phi_star", True, "key 'phi_star': expected a number, got bool"),
    ("kkt_residual", False, "key 'kkt_residual': expected a number, got bool"),
    # json.dumps writes these floats as the literals NaN and -Infinity, which json.load takes
    ("phi_star", "nan", "key 'phi_star': expected a finite number, got nan"),
    ("phi_star", -math.inf, "key 'phi_star': expected a finite number, got -inf"),
    ("kkt_residual", math.nan, "key 'kkt_residual': expected a finite number, got nan"),
    ("kkt_residual", "inf", "key 'kkt_residual': expected a finite number, got inf"),
    ("y_star", ["0.5", "-inf", "0.0"], "key 'y_star' entry 1: expected a finite number, got -inf"),
    ("y_star", [0.5, 0.25, math.nan], "key 'y_star' entry 2: expected a finite number, got nan"),
    # a JSON integer float() cannot hold
    ("phi_star", 10**400, "key 'phi_star': int too large to convert to float\n"),
    ("y_star", [0.5, -10**400, 0.0], "key 'y_star' entry 1: int too large to convert to float\n"),
], ids=["phi_star", "kkt_residual", "y_star-entry", "y_star-scalar", "y_star-booleans",
        "y_star-last-boolean", "phi_star-boolean", "kkt_residual-boolean", "phi_star-nan-string",
        "phi_star-minus-infinity", "kkt_residual-nan", "kkt_residual-inf-string",
        "y_star-minus-inf-string", "y_star-last-nan", "phi_star-int-beyond-float",
        "y_star-int-beyond-float"])
def test_check_oracle_with_a_bad_value_names_file_and_key(tmp_path, capsys, key, value, message):
    rundir = tmp_path / "r"
    assert run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "4", "--trace", "full",
                   "--with-oracle", "--out", str(rundir)) == 0
    oracle = rundir / "oracle.json"
    payload = json.loads(oracle.read_text())
    payload[key] = value
    oracle.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv"), "--oracle", str(oracle)) == 1
    assert capsys.readouterr().err.startswith(f"error: {oracle}: {message}")


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)

    def pipeline(outdir, fresh):
        outdir.mkdir()
        inst, rundir = outdir / "inst.txt", outdir / "run"
        commands = [
            ("gen", "--kind", "lasso-ball", "--n", "5", "--rows", "7", "--seed", "3",
             "--out", str(inst)),
            ("run", "--no-such-flag"),
            ("run", "--instance", str(inst), "--trace", "full", "--with-oracle",
             "--out", str(rundir)),
            ("check", "--no-such-flag"),
            ("check", str(rundir / "trace.csv"), "--oracle", str(rundir / "oracle.json")),
        ]
        codes = []
        for argv in commands:
            if fresh:
                cli._parser.cache_clear()
            codes.append(run_cli(*argv))
        files = [inst, rundir / "trace.csv", rundir / "trace_vectors.npz", rundir / "oracle.json"]
        return codes, [path.read_bytes() for path in files], capsys.readouterr()

    cli._parser.cache_clear()
    try:
        cached = pipeline(tmp_path / "cached", fresh=False)
        assert len(built) == 1
        fresh = pipeline(tmp_path / "fresh", fresh=True)
        assert len(built) == 1 + 5
    finally:
        cli._parser.cache_clear()
    assert cached[0] == fresh[0] == [0, 1, 0, 1, 0]
    assert cached[1] == fresh[1]
    # the same lines, up to the directory names in them
    assert cached[2].out.replace("cached", "fresh") == fresh[2].out
    assert cached[2].err == fresh[2].err


def test_check_corrupt_manifest_names_it(tmp_path, capsys):
    rundir = tmp_path / "r"
    run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "1", "--out", str(rundir))
    manifest = rundir / "manifest.json"
    manifest.write_text(manifest.read_text()[:-10])
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}: ")


def test_sweep_config_without_an_axis_names_file_and_key(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": [{"kind": "convex-qp", "n": 3}],
                                    "epsilons": [1e-6]}))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: missing key 'solvers'\n"
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("key,value,got", [("instances", "a.txt", "str"),
                                           ("epsilons", 1e-7, "float")])
def test_sweep_axis_that_is_not_a_list_names_file_and_key(tmp_path, capsys, key, value, got):
    # a string axis would run one cell per character, a number none at all
    matrix = {"instances": [{"kind": "convex-qp", "n": 3}], "solvers": ["mfista"],
              "epsilons": [1e-6], key: value}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(matrix))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert capsys.readouterr().err == (f"error: {cfg_path}: key {key!r}: expected a list, "
                                       f"got {got}\n")
    assert not (tmp_path / "sw" / "summary.csv").exists()


@pytest.mark.parametrize("entry,got", [(5, "int"), (["a.txt"], "list"), (None, "NoneType")])
def test_sweep_instance_that_is_no_file_name_or_object_names_its_index(tmp_path, capsys,
                                                                      entry, got):
    # such an entry used to reach dict() and fail with a bare TypeError
    matrix = {"instances": [{"kind": "convex-qp", "n": 3}, entry], "solvers": ["mfista"],
              "epsilons": [1e-6]}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(matrix))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg_path}: key 'instances': entry 1 (counted from 0): expected a file "
        f"name or an object, got {got}\n")
    assert not (tmp_path / "sw").exists()  # no cell ran, not even the good one


def test_run_config_file_must_hold_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("[1, 2]")
    assert run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "r")) == 1
    assert capsys.readouterr().err == f"error: {cfg_path}: expected a JSON object, got list\n"
    assert not (tmp_path / "r").exists()


def test_check_advisory_trend_does_not_set_exit_code(tmp_path, capsys):
    # 50 iterations of a genuine convex run are too few for the n^{-3/2}
    # trend, which is advisory: its FAIL is printed, the gates decide the code
    rundir = tmp_path / "r10"
    assert run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "2",
                   "--eps", "1e-300", "--max-iters", "50", "--out", str(rundir)) == 2
    capsys.readouterr()
    code = run_cli("check", str(rundir / "trace.csv"))
    lines = capsys.readouterr().out.splitlines()
    trend = next(ln for ln in lines if ln.startswith("CHECK scaled_trend_1.5 "))
    assert trend.startswith("CHECK scaled_trend_1.5 FAIL worst=")
    assert trend.endswith(" -- advisory")
    assert code == 0
    assert lines[-1] == trend  # gates first, the advisory line last


def test_check_settled_nonconvex_run_gets_the_half_power_trend(tmp_path, capsys):
    # the curvature shift switches on, so the convex n^{-3/2} trend does not
    # apply; the iterates settle, so the n^{-1/2} one does, as an advisory line
    rundir = tmp_path / "r"
    assert run_cli("run", "--problem", "nonconvex-qp", "--n", "4", "--seed", "1",
                   "--eps", "1e-300", "--max-iters", "400", "--out", str(rundir)) == 2
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("CHECK scaled_trend_0.5 PASS worst=")
    assert lines[-1].endswith(" -- advisory")
    assert not any(ln.startswith("CHECK scaled_trend_1.5") for ln in lines)


def test_check_unsettled_nonconvex_run_still_gets_an_advisory_line(tmp_path, capsys):
    # neither trend applies: the curvature shift switched on and the iterates
    # are still moving, which the advisory line says instead of staying away
    rundir = tmp_path / "r"
    assert run_cli("run", "--problem", "nonconvex-qp", "--n", "8", "--seed", "1",
                   "--out", str(rundir)) == 0
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[-1] == ("CHECK scaled_trend N/A worst=nan at_k=-1 -- nonconvex run whose "
                         "iterates have not settled -- advisory")


def test_stale_vector_sidecar_is_not_paired(tmp_path):
    out = tmp_path / "r11"
    common = ("run", "--problem", "nonconvex-qp", "--n", "4", "--eps", "1e-9",
              "--out", str(out))
    run_cli(*common, "--seed", "1", "--trace", "full")
    assert (out / "trace_vectors.npz").exists()
    run_cli(*common, "--seed", "2", "--trace", "norms")
    assert not (out / "trace_vectors.npz").exists()  # the writer removed it
    back = read_trace_csv(out / "trace.csv")
    assert not back.has_vectors and back.ys is None and back.y0 is None

    # a sidecar whose vector count differs from the CSV rows is not read
    run_cli(*common, "--seed", "1", "--trace", "full")
    lines = (out / "trace.csv").read_text().splitlines()
    (out / "trace.csv").write_text("\n".join(lines[:-1]) + "\n")
    back = read_trace_csv(out / "trace.csv")
    assert back.ys is None and back.vs is None and back.y0 is None


def test_sidecar_members_read_once_and_file_closed(tmp_path, monkeypatch):
    out = tmp_path / "r12"
    run_cli("run", "--problem", "convex-qp", "--n", "4", "--seed", "3", "--eps", "1e-9",
            "--trace", "full", "--out", str(out))
    reads, handles = [], []
    npz_file = np.lib.npyio.NpzFile
    getitem, load = npz_file.__getitem__, np.load

    def counted_getitem(self, key):
        reads.append(key)
        return getitem(self, key)

    def recorded_load(file, *args, **kwargs):
        data = load(file, *args, **kwargs)
        # the file np.load read from: the caller's, or one it opened itself.
        # Keeping `data` alive here means the file must be closed by the
        # reader, not by the NpzFile's garbage collection.
        handles.append((file if hasattr(file, "read") else data.fid, data))
        return data

    monkeypatch.setattr(npz_file, "__getitem__", counted_getitem)
    monkeypatch.setattr(np, "load", recorded_load)
    back = read_trace_csv(out / "trace.csv")
    assert back.has_vectors and len(back.ys) == len(back) == len(back.vs)
    # each member is decompressed on every access, so one read apiece
    assert sorted(reads) == ["vs", "y0", "ys"]
    assert len(handles) == 1 and handles[0][0].closed


def test_check_trend_not_applicable_to_baselines(tmp_path, capsys):
    # a FISTA trace has L_k == 0 on every row whatever the problem, so it
    # says nothing about convexity: the trend is run_mfista's only
    inst_file = tmp_path / "inst.txt"
    run_cli("gen", "--kind", "nonconvex-qp", "--n", "4", "--seed", "5", "--out", str(inst_file))
    rundir = tmp_path / "fista"
    assert run_cli("run", "--instance", str(inst_file), "--solver", "fista",
                   "--out", str(rundir)) == 0
    capsys.readouterr()
    assert run_cli("check", str(rundir / "trace.csv")) == 0
    out = capsys.readouterr().out
    trend = [ln for ln in out.splitlines() if ln.startswith("CHECK scaled_trend")]
    assert len(trend) == 1
    assert trend[0].startswith("CHECK scaled_trend N/A")
    assert "from fista" in trend[0] and trend[0].endswith(" -- advisory")


@pytest.mark.parametrize("instance,extra,key", [
    ({"kind": "convex-qp", "n": 4, "seeed": 3}, {}, "seeed"),
    ({"kind": "convex-qp", "n": 4}, {"max_iter": 5}, "max_iter"),
    ({"kind": "convex-qp", "n": "4"}, {}, "n"),
    ({"kind": "convex-qp", "n": 4}, {"trace": 1}, "trace"),
])
def test_sweep_rejects_bad_keys_before_running(tmp_path, capsys, instance, extra, key):
    matrix = {"instances": [{"kind": "convex-qp", "n": 4}, instance],
              "solvers": ["mfista"], "epsilons": [1e-6], **extra}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(matrix))
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()  # no cell ran, not even the good one


def test_check_opens_the_vectors_sidecar_only_for_its_readers(tmp_path, monkeypatch, capsys):
    # only the mfista gates that --oracle enables read ys and vs
    inst = tmp_path / "inst.txt"
    run_cli("gen", "--kind", "convex-qp", "--n", "4", "--seed", "2", "--out", str(inst))
    runs = {}
    for solver, trace in (("fista", "full"), ("mfista", "full"), ("mfista", "norms")):
        rundir = tmp_path / f"{solver}-{trace}"
        assert run_cli("run", "--instance", str(inst), "--solver", solver, "--trace", trace,
                       "--eps", "1e-9", "--with-oracle", "--out", str(rundir)) == 0
        runs[solver, trace] = rundir
    cases = [(("fista", "full"), True, 0), (("mfista", "full"), False, 0),
             (("mfista", "full"), True, 1), (("mfista", "norms"), True, 0)]
    opened = []
    read = cli.read_trace_csv

    def eager(path, lipschitz_L=math.nan, vectors=True):
        return read(path, lipschitz_L, vectors=True)

    def counting_open(path, *args, **kwargs):
        if str(path).endswith("_vectors.npz"):
            opened.append(path)
        return open(path, *args, **kwargs)

    capsys.readouterr()
    for key, with_oracle, expected in cases:
        rundir = runs[key]
        argv = ["check", str(rundir / "trace.csv")]
        if with_oracle:
            argv += ["--oracle", str(rundir / "oracle.json")]
        with monkeypatch.context() as m:
            m.setattr(cli, "open", counting_open, raising=False)
            opened.clear()
            code = run_cli(*argv)
            assert len(opened) == expected
        lean = capsys.readouterr().out
        # the same check with the vectors loaded up front prints the same lines
        with monkeypatch.context() as m:
            m.setattr(cli, "read_trace_csv", eager)
            assert run_cli(*argv) == code == 0
        assert capsys.readouterr().out == lean
        if expected:
            assert lean.startswith("CHECK residual_bound PASS")
            assert "\nCHECK lyapunov_monotone PASS" in lean


def test_sweep_builds_each_instance_once(tmp_path, monkeypatch):
    files = []
    for kind, seed in (("convex-qp", 1), ("lasso-ball", 2)):
        files.append(str(tmp_path / f"{kind}.txt"))
        run_cli("gen", "--kind", kind, "--n", "4", "--seed", str(seed), "--out", files[-1])
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": files, "solvers": list(cli.SOLVERS),
                                    "epsilons": [1e-6, 1e-9]}))
    loads = []
    load = cli.load_instance

    def counting_load(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_instance", counting_load)
    run = cli._run
    outputs = []
    for per_cell in (False, True):
        loads.clear()
        with monkeypatch.context() as m:
            if per_cell:  # each cell also builds its own instance, as `fistalab run` does
                m.setattr(cli, "_run", lambda cfg, inst: run(cfg))
            out = tmp_path / f"sw-{per_cell}"
            assert run_cli("sweep", str(cfg_path), "--out", str(out)) == 0
        assert len(loads) == (2 + 12 if per_cell else 2)
        cells = sorted(out.glob("cell-*"))
        assert len(cells) == 12
        outputs.append([(out / "summary.csv").read_bytes()]
                       + [(cell / "trace.csv").read_bytes() for cell in cells])
    assert outputs[0] == outputs[1]


def test_sweep_retries_a_failed_build_in_the_next_cell(tmp_path, monkeypatch, capsys):
    inst = str(tmp_path / "qp.txt")
    run_cli("gen", "--kind", "convex-qp", "--n", "4", "--seed", "1", "--out", inst)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"instances": [inst], "solvers": ["mfista", "fista"],
                                    "epsilons": [1e-6, 1e-9]}))
    loads = []
    load = cli.load_instance

    def fails_first(path):
        loads.append(path)
        if len(loads) == 1:
            raise ValueError("flaky read")
        return load(path)

    monkeypatch.setattr(cli, "load_instance", fails_first)
    assert run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw")) == 1
    rows = (tmp_path / "sw" / "summary.csv").read_text().splitlines()[1:]
    assert rows[0] == "qp,mfista,1e-06,-1,nan,nan,error: flaky read"
    assert [row.split(",")[-1] for row in rows[1:]] == ["converged"] * 3
    assert len(loads) == 2  # the second cell built it and the last two reused it
    assert "error: flaky read" in capsys.readouterr().err
