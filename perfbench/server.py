"""The served_h2 engine server, run in its own process by the benchmark.

Usage (the benchmark starts it; it is not meant to be run by hand)::

    python3 perfbench/server.py --engine-seed N [--trace]

Prints ``READY <port>`` once the server accepts connections, then serves
until its standard input closes.  On the way out it prints one JSON line:
the process's peak resident set size and, with ``--trace``, the spans it
recorded around ingestion and engine batches.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Admits far more than two closed-loop clients can send, so admission
#: never refuses a request of this workload (the default 50 rps would).
_OPEN_RATE = 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine-seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro import NoiseModel, NoisyDensityMatrixEngine, get_application
    from repro.service import EngineServer, ServiceConfig, TenantPolicy

    from tracing import Tracer

    device = get_application("UCCSD_H2").device()
    engine = NoisyDensityMatrixEngine(NoiseModel.from_device(device), seed=args.engine_seed)
    config = ServiceConfig(
        default_policy=TenantPolicy(rate_per_second=_OPEN_RATE, burst=int(_OPEN_RATE))
    )
    # Span ids apart from the benchmark process's, so the two sets merge.
    tracer = Tracer(first_id=1_000_000_000)
    points = []
    if args.trace:
        points = [
            ("repro.service.server", "ingest_json", "service.ingest", False),
            ("repro.engine.density_engine:NoisyDensityMatrixEngine",
             "submit_expectation_batch", "engine.submit_batch", True),
        ]
    with tracer.patched(points), tracer.recorded():
        server = EngineServer(engine, config, own_engine=True).start()
        try:
            print(f"READY {server.port}", flush=True)
            sys.stdin.read()
        finally:
            server.close(timeout=60.0)
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.finished(),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
