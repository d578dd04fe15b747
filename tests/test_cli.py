import json

import numpy as np
import pytest

from fistalab.cli import main, read_trace_csv, write_trace_csv
from fistalab import SolverConfig, make_convex_qp, run_mfista


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
    code = run_cli("run", "--problem", "convex-qp", "--n", "2", "--eps", "0")
    assert code == 1
    assert "epsilon must be positive" in capsys.readouterr().err


def test_run_requires_problem_or_instance(capsys):
    assert run_cli("run", "--eps", "1e-6") == 1
    assert "problem" in capsys.readouterr().err


def test_run_not_converged_exit_code(tmp_path):
    code = run_cli("run", "--problem", "convex-qp", "--n", "6", "--seed", "1",
                   "--eps", "1e-300", "--max-iters", "25", "--out", str(tmp_path / "r2"))
    assert code == 2


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
    rundir = tmp_path / "r5"
    code = run_cli("run", "--problem", "convex-qp", "--n", "3", "--seed", "4",
                   "--eps", "1e-300", "--max-iters", "400", "--trace", "full",
                   "--with-oracle", "--out", str(rundir))
    assert code == 2  # epsilon unreachable, that is fine here
    assert (rundir / "oracle.json").exists()
    code = run_cli("check", str(rundir / "trace.csv"),
                   "--oracle", str(rundir / "oracle.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "CHECK lyapunov_monotone PASS" in out
    assert "CHECK function_value_bound PASS" in out


def test_check_missing_trace(capsys):
    assert run_cli("check", "/nonexistent/trace.csv") == 1
    assert "no such trace" in capsys.readouterr().err


def test_sweep_summary(tmp_path, capsys):
    inst_file = tmp_path / "qp.txt"
    run_cli("gen", "--kind", "convex-qp", "--n", "4", "--seed", "8",
            "--out", str(inst_file))
    config = {
        "instances": [str(inst_file),
                      {"kind": "nonconvex-qp", "n": 4, "seed": 1},
                      {"kind": "lasso-ball", "n": 6, "rows": 4, "seed": 2}],
        "solvers": ["mfista", "proxgrad"],
        "epsilons": [1e-7],
        "max_iters": 4000,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code = run_cli("sweep", str(cfg_path), "--out", str(tmp_path / "sw"))
    lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
    assert lines[0] == "instance,solver,eps,iterations,final_vnorm,slope,status"
    assert len(lines) == 1 + 3 * 2  # instances x solvers x epsilons
    assert code in (0, 2)
    statuses = [ln.split(",")[-1] for ln in lines[1:]]
    assert all(s in ("converged", "max_iters_reached") for s in statuses)
    float(lines[1].split(",")[5])  # slope column parses (may be nan)


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
    assert "unreadable trace: line 3" in capsys.readouterr().err


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
