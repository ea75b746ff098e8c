"""One benchmark process: set up a workload, run its rounds, check, report.

``run.py`` starts this file and times it from process start to the
``READY`` line (set-up); it is not meant to be run by hand.  Lines starting
with ``#`` are information for the reader; the last line is
``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

#: Where the traced run writes its Chrome trace-event files.
TRACE_DIR = BENCH_DIR / "traces"

#: EngineStats fields reported per layer.
ENGINE_COUNTERS = (
    "executions",
    "instructions_simulated",
    "instructions_reused",
    "prefix_resumes",
    "segment_hits",
    "segment_misses",
    "cache_hits",
    "expectation_calls",
    "expectation_cache_hits",
    "ptm_matmuls",
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _info(payload) -> None:
    print("# " + json.dumps(payload, sort_keys=True), flush=True)


def _nearest_rank(ordered, percent: int) -> float:
    return ordered[max(1, -(-percent * len(ordered) // 100)) - 1]


def _summary(rounds, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of a set of rounds (defined in README.md)."""
    latencies = sorted(latency for r in rounds for latency in r.latencies)
    return {
        "time_to_solution_s": statistics.median(r.seconds for r in rounds),
        "vaqem_gain_x": statistics.median(r.gain for r in rounds),
        "served_rps": sum(r.attempted - r.failed for r in rounds) / sum(r.seconds for r in rounds),
        "served_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def run_timed(workload, seconds: float):
    """Whole rounds until ``seconds`` of timed work have been measured."""
    rounds = []
    while len(rounds) < workload.min_rounds or sum(r.seconds for r in rounds) < seconds:
        rounds.append(workload.run_round(len(rounds)))
    own_peak = _peak_rss_mb()
    server_peak = workload.close().get("peak_rss_mb", 0.0)
    latencies = sorted(latency for r in rounds for latency in r.latencies)
    p99 = _nearest_rank(latencies, 99)
    _info(
        {
            "rounds": len(rounds),
            "round_seconds": [r.seconds for r in rounds],
            "latency_samples": len(latencies),
            "latency_p99_ms": p99 * 1e3,
            "samples_beyond_p99": sum(1 for latency in latencies if latency > p99),
            "peak_rss_mb": {"benchmark": own_peak, "server": server_peak},
        }
    )
    return rounds, _summary(rounds, own_peak + server_peak)


def run_traced(workload, seed: int, seconds: float):
    """Pairs of rounds, each once untraced and once with every trace point wrapped.

    Both rounds of a pair have the same inputs and start from fresh engines
    (on served_h2, fresh servers), so their deterministic counters must
    agree exactly.  Pairs repeat until ``seconds`` of timed work have been
    measured, for the tracing overhead; the per-layer metrics and the span
    file come from the first pair's traced round.
    """
    import tracing
    from checks import CheckFailed

    served = workload.name == "served_h2"
    pairs, tracers, services, reports = [], [], [], []
    while not pairs or sum(p.seconds + t.seconds for p, t in pairs) < seconds:
        index = len(pairs)
        if served and index:
            reports.append(workload.restart_server(trace=False))
        plain = workload.run_round(index)
        if served:
            workload.restart_server(trace=True)
        tracer = tracing.Tracer()
        with tracer.patched(workload.trace_points()):
            traced = workload.run_round(index, tracer=tracer)
        if served:
            services.append(workload.server_metrics())
        differing = sorted(
            key
            for key in set(plain.deterministic) | set(traced.deterministic)
            if plain.deterministic.get(key) != traced.deterministic.get(key)
        )
        if differing:
            raise CheckFailed(f"tracing changed deterministic counters: {differing}")
        pairs.append((plain, traced))
        tracers.append(tracer)
    reports.append(workload.close())

    first = pairs[0][1]
    client_spans = tracers[0].finished()
    server_spans = reports[0].get("spans", []) if served else []
    spans = client_spans + server_spans
    layer = {
        "vaqem.angle_tuning_s": tracing.total_duration(spans, "vaqem.angle_tuning"),
        "vaqem.mitigation_tuning_s": tracing.total_duration(spans, "vaqem.mitigation_tuning"),
        "vaqem.candidates_evaluated": 0,
        "mitigation.candidate_build_s": tracing.total_duration(spans, "mitigation.candidate_build"),
        "mitigation.mem_build_s": tracing.total_duration(spans, "mitigation.mem_build"),
        "transpiler.calls": tracing.count(spans, "transpiler.transpile"),
        "transpiler.transpile_s": tracing.total_duration(spans, "transpiler.transpile"),
        "optimizers.self_s": tracing.self_time(
            spans, lambda span: span["name"] == "optimizers.minimize"
        ),
        "vqe.evaluations": 0,
        "engine.busy_s": tracing.union_length(
            (s["start"], s["end"]) for s in spans if tracing.layer_of(s) == "engine"
        ),
        "engine.ideal_expectation_calls": tracing.count(spans, "engine.ideal_expectation"),
        **{f"engine.{name}": 0 for name in ENGINE_COUNTERS},
        "service.server_p50_ms": 0.0,
        "service.transport_ms": 0.0,
        "service.store_hits": 0,
        "service.store_misses": 0,
        "service.shared_request_share": 0.0,
        "service.rejections": 0,
    }
    layer.update({key: value for key, value in first.layer.items() if key in layer})
    if served:
        fleet = services[0]["fleet"]
        tenants = list(services[0]["tenants"].values())
        server_p50 = statistics.median(t["latency"]["p50_ms"] for t in tenants)
        layer.update({f"engine.{name}": fleet["engine_stats"][name] for name in ENGINE_COUNTERS})
        layer["service.server_p50_ms"] = server_p50
        layer["service.transport_ms"] = _summary([first], 0.0)["served_p50_ms"] - server_p50
        layer["service.store_hits"] = fleet["store"]["hits"]
        layer["service.store_misses"] = fleet["store"]["misses"]
        layer["service.rejections"] = sum(sum(t["rejected"].values()) for t in tenants)
    plain_summary = _summary([p for p, _ in pairs], 0.0)
    traced_summary = _summary([t for _, t in pairs], 0.0)
    layer["trace.overhead_time_to_solution_s"] = (
        traced_summary["time_to_solution_s"] - plain_summary["time_to_solution_s"]
    )
    layer["trace.overhead_served_rps"] = plain_summary["served_rps"] - traced_summary["served_rps"]

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"{workload.name}-seed{seed}.json"
    processes = [(os.getpid(), "benchmark", client_spans)]
    if server_spans:
        processes.append((0, "engine server", server_spans))
    tracing.write_chrome_trace(str(trace_path), processes)
    _info({"trace_file": str(trace_path.relative_to(BENCH_DIR.parent)), "spans": len(spans)})
    _info({"self_time_s": tracing.layer_self_times(spans)})
    _info(
        {
            "pairs": len(pairs),
            "untraced_round_seconds": [p.seconds for p, _ in pairs],
            "traced_round_seconds": [t.seconds for _, t in pairs],
        }
    )
    return [r for pair in pairs for r in pair], layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy

    from checks import CheckFailed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    _info(
        {
            "workload": args.workload,
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "engine_kernel": os.environ.get("REPRO_ENGINE_KERNEL", "dense"),
            "os_kernel": platform.release(),
        }
    )
    try:
        if args.trace:
            rounds, metrics = run_traced(workload, args.seed, args.seconds)
        else:
            rounds, metrics = run_timed(workload, args.seconds)
    except CheckFailed as failure:
        workload.close()
        print(f"check failed: {failure}", file=sys.stderr, flush=True)
        return 1
    result = {
        "correct": True,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
