"""Compare a git revision with this tree on one benchmark workload, in alternating pairs.

    python3 scripts/bench_pairs.py REV --workload small-batch [--pairs 10] [--seconds 30] [--seed0 S]

REV (a commit, branch or tag of this repository) is extracted with
`git archive` into a temporary directory.  Both sides run this tree's
`perfbench/run.py --trace 0`, each with its own root as the working
directory, so each imports its own `src/` but both are timed by the same
benchmark code.  Pair i runs seed S + i on both sides, and the side that
runs first alternates from one pair to the next.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles, the pairs the change won and lost, and two verdicts.  The
claim rule: the change better in at least 9 of every 10 pairs (ties count
for neither side), its median better than REV's by more than REV's
interquartile spread, and no more failed operations, summed over its runs,
than REV's.  The no-regression rule: the change's median not worse than
REV's by more than the metric's `bound` times REV's median; where REV's
interquartile spread is wider than that allowance, the verdict is
"unresolved" unless every run of the change is better than every run of
REV.  Quartiles interpolate linearly between order statistics
(statistics.quantiles, method "inclusive").

A run that exits nonzero ends the comparison: the script prints its side,
seed, exit code and the end of its stderr, then the summary over the pairs
that completed, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# how much of a failed run's stderr is printed
STDERR_TAIL_LINES = 20


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better: str, bound: float = math.inf,
            parent_failed: int = 0, change_failed: int = 0) -> dict:
    """Pair-by-pair comparison of one metric; `better` is "lower" or "higher".

    `parent[i]` and `change[i]` come from pair i.  A pair is won when the
    change is strictly better, lost when strictly worse, and tied otherwise.
    The claim holds when the change wins at least 9 of every 10 pairs, its
    median is better than the parent's by more than the parent's
    interquartile spread, and its failed operations (summed over its runs)
    are no more than the parent's.  There is no regression when the change's
    median is worse than the parent's by at most `bound` times the parent's
    median.  That verdict is unresolved when the parent's spread exceeds the
    allowance and not every change run is better than every parent run.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and at least one pair")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (cq[1] - pq[1])
    spread = pq[2] - pq[0]
    allowance = bound * abs(pq[1])
    unresolved = (-gap <= allowance and spread > allowance
                  and not all(sign * (c - p) > 0 for p in parent for c in change))
    return {"parent": pq, "change": cq, "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses, "gap": gap, "spread": spread,
            "claim": (10 * wins >= 9 * len(parent) and gap > spread
                      and change_failed <= parent_failed),
            "no_regression": -gap <= allowance and not unresolved, "unresolved": unresolved}


def extract(rev: str, dest: Path) -> Path:
    """The files of `rev` in this repository, unpacked under `dest`."""
    archive = dest / "rev.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                       stdout=fh, check=True)
    root = dest / "rev"
    with tarfile.open(archive) as tar:
        tar.extractall(root)
    archive.unlink()
    return root


class RunFailed(Exception):
    """A benchmark run exited nonzero."""

    def __init__(self, returncode: int, stderr: str):
        super().__init__(f"benchmark exited {returncode}")
        self.returncode = returncode
        self.stderr = stderr


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run with `root` as working directory; its final JSON
    object.  Raises RunFailed when the run exits nonzero."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the revision to compare this tree with")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    results = {"parent": [], "change": []}
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"parent": extract(args.rev, Path(tmp)), "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            try:
                for side in order:
                    out = pair[side] = run_side(sides[side], args.workload, seed, args.seconds)
                    vals = " ".join(f"{k}={v['value']}" for k, v in out["metrics"].items())
                    print(f"pair {i + 1} seed {seed} {side}: correct={out['correct']} "
                          f"failed={out['failed']}/{out['attempted']} {vals}", flush=True)
            except RunFailed as e:
                # the pairs already finished are still summarised below
                tail = "\n".join(e.stderr.splitlines()[-STDERR_TAIL_LINES:])
                print(f"error: pair {i + 1} seed {seed} {side}: {e}; its stderr ends:\n{tail}",
                      file=sys.stderr, flush=True)
                failed = True
                break
            for side, out in pair.items():
                results[side].append(out)

    done = len(results["parent"])
    if not done:
        print(f"# {args.workload}: no pair completed")
        return 1
    print(f"# {args.workload}: {args.rev} (parent) against this tree (change), "
          f"{done} pairs, seeds {args.seed0}-{args.seed0 + done - 1}, "
          f"--seconds {args.seconds:g}; median [first quartile, third quartile]")
    failed_ops = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        if None in parent or None in change:
            print(f"{name}: n/a in some run")
            continue
        c = compare(parent, change, spec["better"], spec["bound"],
                    failed_ops["parent"], failed_ops["change"])
        verdict = ("holds" if c["no_regression"] else
                   "unresolved" if c["unresolved"] else "does not hold")
        print(f"{name} ({spec['unit']}, {spec['better']} is better): parent {fmt(c['parent'])}, "
              f"change {fmt(c['change'])}; change won {c['wins']}, lost {c['losses']}, "
              f"tied {c['ties']}; gap {c['gap']:.6g} against spread {c['spread']:.6g}; "
              f"claim {'holds' if c['claim'] else 'does not hold'}; no regression beyond "
              f"bound {spec['bound']:g} {verdict}")
    for side in ("parent", "change"):
        runs = results[side]
        print(f"{side}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed operations {failed_ops[side]}"
              f"/{sum(r['attempted'] for r in runs)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
