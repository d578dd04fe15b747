"""README's "Library use" example must run against the current API, so that
a change which breaks the documented API fails the suite."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "expected one python block under 'Library use'"
    return blocks[0]


def test_readme_library_use_runs(capsys):
    exec(compile(library_use_block(), f"{README}:Library use", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("converged ")
    assert out[1].startswith("CHECK residual_bound PASS")
    y = [float(t) for t in out[2].strip("[]").split()]
    np.testing.assert_allclose(y, [1.0, -0.3], atol=1e-8)
