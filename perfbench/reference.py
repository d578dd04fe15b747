"""Reference kernels: fixed numpy work that does not touch fistalab, timed
next to every timed operation.  The host this benchmark runs on is shared,
and its speed drifts by tens of percent over minutes; an operation's time
divided by the reference time measured beside it cancels that drift, while
any change to fistalab still moves the quotient, since the reference never
calls it.

Each kernel resembles the work of the workloads it serves:

python  a 300-step projected-gradient loop at n=32: interpreter overhead
        and small numpy calls, as in small-batch and artifacts.
dense   30 matrix-vector products at n=2048 on one BLAS thread, as in
        large-dense, where matvecs are most of each iteration.
factor  8 QR factorisations at n=384: compute-bound LAPACK work, as in
        large-dense's set-up, which builds its instances with QR
        factorisations, eigenvalue solves and matrix products.  Each
        reference time is the median of three runs: one run brackets a
        6-s set-up too thinly, and in one probe over seven processes the
        median of three cut the set-up's quartile spread from 0.10 to 0.03.
interp  compiling and executing six small dataclass definitions: bytecode
        and class creation, as in executing fistalab's module bodies on
        import.  Import times normalised by it varied by about 3% from one
        process to the next, against about 8% with the python kernel.

`nominal_s` is each kernel's typical time on the 2-vCPU host the bounds in
BENCHMARK.json were measured on.  Normalised times are reported as
time / reference * nominal_s, so they read close to wall time on that host.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

# six small dataclasses: the interp kernel's source, compiled on every run
CLASS_SOURCE = "".join(
    f"@dataclasses.dataclass\nclass C{i}:\n    a: int = 0\n    b: float = 0.0\n"
    f"    c: str = ''\n\n    def f(self, x):\n        return [self.a + k * x for k in range(3)]\n"
    for i in range(6))


class Reference:
    def __init__(self, kind: str):
        rng = np.random.default_rng(20250818)
        self.kind = kind
        self.repeats = 1
        if kind == "python":
            self.n, self.steps, self.nominal_s = 32, 300, 2.2e-3
        elif kind == "dense":
            self.n, self.steps, self.nominal_s = 2048, 30, 60e-3
        elif kind == "factor":
            self.n, self.steps, self.nominal_s = 384, 8, 0.1
            self.repeats = 3
        elif kind == "interp":
            self.n, self.steps, self.nominal_s = 1, 1, 5e-3
        else:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.M = rng.standard_normal((self.n, self.n)) / self.n
        self.x0 = rng.uniform(-1.0, 1.0, self.n)

    def _kernel(self) -> float:
        M, x = self.M, self.x0
        if self.kind == "interp":
            exec(compile(CLASS_SOURCE, "<reference>", "exec"), {"dataclasses": dataclasses})
            return 0.0
        if self.kind == "factor":
            for _ in range(self.steps):
                np.linalg.qr(M)
            return 0.0
        if self.kind == "dense":
            for _ in range(self.steps):
                x = M @ x
                x = x / np.linalg.norm(x)
            return float(x[0])
        acc = 0.0
        for _ in range(self.steps):
            g = M @ x
            x = np.clip(x - 0.5 * g, -1.0, 1.0)
            acc += float(np.dot(g, g))
        return acc

    def time(self) -> float:
        """Runs the kernel `repeats` times; returns the median wall time in
        seconds."""
        runs = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        return statistics.median(runs)
