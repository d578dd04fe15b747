"""Smoke tests for the runnable scripts under scripts/."""

import importlib.util
import os
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_fingerprint_repeats_and_sees_epsilon():
    fp = load_script("trace_fingerprint")
    digest = fp.trace_fingerprint(dims=(4,), seeds=(1,))
    assert len(digest) == 16
    assert fp.trace_fingerprint(dims=(4,), seeds=(1,)) == digest
    assert fp.trace_fingerprint(dims=(4,), seeds=(1,), epsilon=1e-6) != digest
    assert fp.trace_fingerprint(dims=(4,), seeds=(1,), quadratic=False) != digest
    # separate oracle calls leave the same traces and counters as the fused ones
    assert fp.trace_fingerprint(dims=(4,), seeds=(1,), fused=False) == digest


def test_oracle_fingerprint_repeats_and_sees_seeds():
    fp = load_script("trace_fingerprint")
    digest = fp.oracle_fingerprint(dims=(4, 8), seeds=(1,))
    assert len(digest) == 16
    assert fp.oracle_fingerprint(dims=(4, 8), seeds=(1,)) == digest
    assert fp.oracle_fingerprint(dims=(4, 8), seeds=(2,)) != digest


def test_operator_fingerprint_repeats_and_sees_seeds():
    fp = load_script("trace_fingerprint")
    digest = fp.operator_fingerprint(dims=(4, 8), seeds=(1,))
    assert len(digest) == 16
    assert fp.operator_fingerprint(dims=(4, 8), seeds=(1,)) == digest
    assert fp.operator_fingerprint(dims=(4, 8), seeds=(2,)) != digest


def test_cli_fingerprint_repeats_and_sees_epsilon():
    fp = load_script("trace_fingerprint")
    cwd = os.getcwd()
    digest = fp.cli_fingerprint(seeds=(1,))
    assert len(digest) == 16
    assert os.getcwd() == cwd  # the battery runs in a temporary directory
    assert fp.cli_fingerprint(seeds=(1,)) == digest
    assert fp.cli_fingerprint(seeds=(1,), epsilon=1e-6) != digest


def test_rate_study_runs(monkeypatch, capsys):
    # the only caller of fit_rate, check_scaled_trend and iterates_settled
    # outside the tests; 3000 iterations are too few for the convex fits and
    # enough for four settling nonconvex runs
    monkeypatch.setattr(sys, "argv", ["rate_study.py", "--iters", "3000", "--seeds", "1"])
    load_script("rate_study").main()
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("==") for ln in lines) == 3
    assert len(lines) == 3 + 2 + 6  # one row per convex seed, six nonconvex seeds
    fitted = [ln for ln in lines if " slope " in ln]
    assert len(fitted) == 4
    assert all(ln.startswith("nonconvex-qp") and "trend[" in ln for ln in fitted)


def test_inequality_audit_passes(capsys):
    # the battery's own regression gate: every check on every run passes
    assert load_script("inequality_audit").main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all checks passed"


def test_bench_pairs_statistics_count_ties_for_neither_side():
    compare = load_script("bench_pairs").compare
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    # nine wins and one tie; the medians are 12.25 and 9.25, the parent's
    # quartiles 11.125 and 13.375
    change = [p - 3.0 for p in parent[:9]] + [14.5]
    c = compare(parent, change, "lower")
    assert (c["wins"], c["losses"], c["ties"]) == (9, 0, 1)
    assert c["parent"] == (11.125, 12.25, 13.375)
    assert c["change"][1] == 9.25
    assert (c["gap"], c["spread"]) == (3.0, 2.25)
    assert c["claim"]
    # eight wins of ten are too few, however large the gap
    assert not compare(parent, change[:8] + [14.0, 14.5], "lower")["claim"]
    # ten wins whose median gap is inside the parent's spread are not a claim
    assert not compare(parent, [p - 1.0 for p in parent], "lower")["claim"]
    # "higher" flips the sign; all ties win nothing
    c = compare(parent, [p + 3.0 for p in parent], "higher")
    assert (c["wins"], c["gap"], c["claim"]) == (10, 3.0, True)
    c = compare([1.0] * 4, [1.0] * 4, "higher")
    assert (c["wins"], c["losses"], c["ties"], c["claim"]) == (0, 0, 4, False)


def test_bench_pairs_no_regression_rule_scales_the_bound_by_the_parent_median():
    compare = load_script("bench_pairs").compare
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # median 12
    # lower is better: 25% of 12 is 3, so a median of 15 is at the bound
    assert compare(parent, [p + 3.0 for p in parent], "lower", 0.25)["no_regression"]
    assert not compare(parent, [p + 3.5 for p in parent], "lower", 0.25)["no_regression"]
    # a change that is better, or that loses every pair by little, passes
    assert compare(parent, [p - 5.0 for p in parent], "lower", 0.0)["no_regression"]
    c = compare(parent, [p + 0.5 for p in parent], "lower", 0.25)
    assert (c["losses"], c["no_regression"], c["claim"]) == (5, True, False)
    # higher is better: 1% of a median of 1.0 allows 0.995, not 0.98
    assert compare([1.0] * 3, [0.995] * 3, "higher", 0.01)["no_regression"]
    assert not compare([1.0] * 3, [0.98] * 3, "higher", 0.01)["no_regression"]
    # with no bound given, nothing is a regression
    assert compare(parent, [p * 100 for p in parent], "lower")["no_regression"]


def test_bench_pairs_no_regression_is_unresolved_when_the_parent_spreads_past_the_bound():
    compare = load_script("bench_pairs").compare
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]  # median 12, quartiles 11 and 13: spread 2
    # 10% of 12 allows 1.2, less than the spread: a median 0.5 worse, or even
    # 0.5 better, cannot be told from the parent's own scatter
    for shift in (0.5, -0.5):
        c = compare(parent, [p + shift for p in parent], "lower", 0.1)
        assert (c["no_regression"], c["unresolved"]) == (False, True)
    # every change run below every parent run resolves it
    c = compare(parent, [p - 4.5 for p in parent], "lower", 0.1)
    assert (c["no_regression"], c["unresolved"]) == (True, False)
    # a median worse by more than the allowance is a regression, spread or not
    c = compare(parent, [p + 2.0 for p in parent], "lower", 0.1)
    assert (c["no_regression"], c["unresolved"]) == (False, False)
    # higher is better: spread 1 against an allowance of 0.2
    assert compare([1.0, 2.0, 3.0], [2.5, 2.5, 2.5], "higher", 0.1)["unresolved"]
    c = compare([1.0, 2.0, 3.0], [3.5, 4.0, 5.0], "higher", 0.1)
    assert (c["no_regression"], c["unresolved"]) == (True, False)


def test_bench_pairs_claim_needs_no_more_failed_operations_than_the_parent(monkeypatch,
                                                                          capsys):
    bp = load_script("bench_pairs")
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [p - 3.0 for p in parent]
    assert bp.compare(parent, change, "lower")["claim"]
    assert bp.compare(parent, change, "lower", parent_failed=2, change_failed=2)["claim"]
    assert not bp.compare(parent, change, "lower", parent_failed=2, change_failed=3)["claim"]

    def run_side(root, workload, seed, seconds):
        # the change is better on every metric, by far, but fails one operation a run
        is_change = root == bp.ROOT
        return {"correct": True, "failed": int(is_change), "attempted": 4,
                "metrics": {m["name"]: {"value": 2.0 + seed * 1e-3 + is_change * (
                    1.0 if m["better"] == "higher" else -1.0)} for m in bp.SPEC["end_to_end"]}}

    monkeypatch.setattr(bp, "extract", lambda rev, dest: dest / "rev")
    monkeypatch.setattr(bp, "run_side", run_side)
    assert bp.main(["HEAD", "--workload", "small-batch", "--pairs", "10"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.split(" (")[0] in {m["name"] for m in bp.SPEC["end_to_end"]}]
    assert len(lines) == len(bp.SPEC["end_to_end"])
    for ln in lines:
        assert "change won 10, lost 0" in ln and "claim does not hold" in ln
        assert ln.endswith(" holds")


def test_bench_pairs_summarises_the_finished_pairs_when_a_run_fails(monkeypatch, capsys):
    bp = load_script("bench_pairs")
    calls = []

    def run_side(root, workload, seed, seconds):
        calls.append((root, seed))
        if len(calls) == 6:  # pair 3's second run, the change's
            raise bp.RunFailed(3, "".join(f"line {i}\n" for i in range(30)))
        value = 10.0 if root == bp.ROOT else 11.0
        return {"correct": True, "failed": 0, "attempted": 4,
                "metrics": {m["name"]: {"value": value} for m in bp.SPEC["end_to_end"]}}

    monkeypatch.setattr(bp, "extract", lambda rev, dest: dest / "rev")
    monkeypatch.setattr(bp, "run_side", run_side)
    assert bp.main(["HEAD", "--workload", "small-batch", "--pairs", "5", "--seed0", "7"]) == 1
    assert len(calls) == 6  # no run after the failed one
    out, err = capsys.readouterr()
    assert err.startswith("error: pair 3 seed 9 change: benchmark exited 3; its stderr ends:\n")
    assert err.splitlines()[1:] == [f"line {i}" for i in range(30 - bp.STDERR_TAIL_LINES, 30)]
    # pair 3's parent run finished, but its pair did not, so it is left out
    assert "2 pairs, seeds 7-8," in out
    assert "parent: correct in 2/2 runs, failed operations 0/8" in out
    assert "change: correct in 2/2 runs, failed operations 0/8" in out
    assert sum(ln.startswith(m["name"] + " (") for ln in out.splitlines()
               for m in bp.SPEC["end_to_end"]) == len(bp.SPEC["end_to_end"])


def test_bench_pairs_exits_1_when_no_pair_finishes(monkeypatch, capsys):
    bp = load_script("bench_pairs")

    def run_side(root, workload, seed, seconds):
        raise bp.RunFailed(2, "boom\n")

    monkeypatch.setattr(bp, "extract", lambda rev, dest: dest / "rev")
    monkeypatch.setattr(bp, "run_side", run_side)
    assert bp.main(["HEAD", "--workload", "artifacts"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: pair 1 seed 1 parent: benchmark exited 2; its stderr ends:\nboom\n"
    assert out == "# artifacts: no pair completed\n"
