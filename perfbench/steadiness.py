"""Steadiness check: two sets of benchmark runs of the same code must agree.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Two sets run every workload ``--runs`` times each, each run with another
seed (the first set seeds 1 to ``runs``, the second the next ``runs``), for
BENCHMARK.json's ``run_seconds``.  For every end-to-end metric the check
reports each set's median and its spread (distance between first and third
quartile over the median, from ``statistics.quantiles(values, n=4)``), and
the change of the second median from the first in the metric's worse
direction.  It fails (exit 1) if a spread other than ``setup_s``'s exceeds
the metric's bound, the two medians differ by more than the bound in
either direction, a run fails, or the share of failed operations differs
between sets.  ``setup_s`` is left out of the spread gate because set-up
time follows the host's speed, which can drift for minutes (README.md,
Steadiness check); its medians are still compared.  Spreads above a third of the bound are marked ``~``.  Raw
results go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with code {completed.returncode}")
    return json.loads(lines[-1])


def spread(values) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in declared["workloads"])
    )
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = declared["end_to_end"]
    seconds = declared["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for number in range(SETS):
        for workload in workloads:
            for run in range(args.runs):
                seed = FIRST_SEED + number * args.runs + run
                started = time.monotonic()
                result = run_once(workload, seed, seconds)
                results[workload][number].append(result)
                print(
                    f"set {number} {workload} seed {seed}: {time.monotonic() - started:.1f} s",
                    file=sys.stderr, flush=True,
                )

    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out_path.write_text(json.dumps({"args": vars(args), "results": results}, indent=1))

    failures = []
    for workload in workloads:
        sets = results[workload]
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if any(not r["correct"] for runs in sets for r in runs):
            failures.append(f"{workload}: a run reported incorrect output")
        if len(shares) > 1:
            failures.append(f"{workload}: failed shares differ: {sorted(shares)}")
        print(f"\n{workload}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values) if len(values) > 1 else 0.0)
            shift = sign * (medians[1] - medians[0]) / medians[0]
            marks = ["~" if s > bound / 3 else " " for s in spreads]
            print(
                f"  {name:20s} bound {bound:.2f}  medians "
                + " ".join(f"{m:12.5g}" for m in medians)
                + "  spreads " + " ".join(f"{s:6.3f}{k}" for s, k in zip(spreads, marks))
                + f"  worse by {shift:+.3f}"
            )
            if name != "setup_s":
                failures += [
                    f"{workload}/{name}: spread {s:.3f} > bound {bound}" for s in spreads if s > bound
                ]
            if abs(shift) > bound:
                failures.append(f"{workload}/{name}: medians differ by {shift:+.3f}, bound {bound}")
    print(f"\nraw results: {out_path.relative_to(ROOT)}")
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
