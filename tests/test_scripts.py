"""Smoke tests for the runnable scripts under scripts/."""

import importlib.util
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
