"""The VAQEM benchmark: one command for every workload and metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload vaqem_tfim6 --seed 1 --seconds 30 --trace 0

Workloads: ``vaqem_tfim6``, ``runtime_vqe_h2``, ``served_h2`` (README.md
says what each runs and why).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload once untraced and once with spans
around every layer's public calls and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed output check exits
non-zero without it.

This file uses the standard library only: it starts the workload in a
fresh Python process (``worker.py``) and times that process from its start
to the moment it is ready for its first timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("vaqem_tfim6", "runtime_vqe_h2", "served_h2")

#: Set-up is timed this many times per run (in fresh processes) and the
#: median reported.
SETUP_SAMPLES = 3
#: A run that has not finished by then is stopped and fails.
DEADLINE_S = 170.0


class WorkerFailed(Exception):
    pass


class Worker:
    """One ``worker.py`` process in its own process group."""

    def __init__(self, arguments, deadline: float):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), *arguments],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            start_new_session=True,
        )
        remaining = max(0.0, deadline - time.monotonic())
        self._timer = threading.Timer(remaining, self.kill)
        self._timer.daemon = True
        self._timer.start()

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait_ready(self) -> float:
        """Seconds from process start to its READY line."""
        for line in self.process.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.started
            print(line, end="", flush=True)
        self.finish(expect_result=False)
        raise WorkerFailed("the workload process ended during set-up")

    def finish(self, expect_result: bool = True) -> dict:
        """Forward information lines; return the RESULT payload."""
        result = None
        try:
            for line in self.process.stdout:
                if line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
                else:
                    print(line, end="", flush=True)
            code = self.process.wait()
        finally:
            self._timer.cancel()
            if self.process.poll() is None:
                self.kill()
                self.process.wait()
            # The served workload's server shares the process group.
            self.kill()
        if code != 0 or (expect_result and result is None):
            raise WorkerFailed(f"the workload process exited with code {code}")
        return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = Worker(common + ["--setup-only"], deadline)
                setup.append(probe.wait_ready())
                probe.finish(expect_result=False)
        run_arguments = common + ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else [])
        worker = Worker(run_arguments, deadline)
        setup.append(worker.wait_ready())
        result = worker.finish()
    except WorkerFailed as failure:
        print(f"benchmark failed: {failure}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        print("# " + json.dumps({"setup_s_samples": setup}), flush=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        print(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    result["metrics"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
