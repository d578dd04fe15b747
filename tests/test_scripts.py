"""Smoke tests for the runnable scripts under scripts/."""

import importlib.util
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
