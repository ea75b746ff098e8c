"""The benchmark's three workloads, driven through the public API of ``repro``.

Each workload is a sequence of *rounds*: the same operations on fresh
inputs drawn from ``numpy.random.default_rng([seed, ..., round])``, so a
seed fixes every input and the program never sees the seed itself, only
the numbers drawn from it.  A round reports its wall time, the operations
it attempted and failed, each operation's latency, the workload's energy
gain and the deterministic counters the traced run compares.  Output checks
run after a round's timer has stopped.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    SPSA,
    VQE,
    DDConfig,
    ExpectationEstimator,
    MeasurementMitigator,
    NoiseModel,
    NoisyDensityMatrixEngine,
    RuntimeSession,
    TuningBudget,
    VAQEMConfig,
    VAQEMPipeline,
    get_application,
    improvement_over_baseline,
    insert_dd_sequences,
    transpile,
)
from repro.frontend import schedule_to_json
from repro.mitigation.dd import max_sequences_in_window
from repro.mitigation.gate_scheduling import GSConfig, movable_gate, reschedule_gate
from repro.service import ServiceClient

import checks
from checks import require, require_above_ground

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class RoundResult:
    """What one round measured (timed) and produced (checked afterwards)."""

    seconds: float
    attempted: int
    failed: int
    latencies: List[float]
    gain: float
    #: Counters that depend only on the round's inputs; a traced round must
    #: reproduce them exactly.
    deterministic: Dict[str, object] = field(default_factory=dict)
    #: Counters for the traced run's per-layer report.
    layer: Dict[str, float] = field(default_factory=dict)


class _LatencyLog:
    """Thread-safe list of per-operation latencies (seconds)."""

    def __init__(self):
        self.samples: List[float] = []
        self._lock = threading.Lock()

    def record(self, started: float) -> None:
        elapsed = time.perf_counter() - started
        with self._lock:
            self.samples.append(elapsed)


def _mem_mitigator(device, scheduled) -> MeasurementMitigator:
    """MEM for a compiled schedule, built as the pipeline builds it."""
    measured = sorted(scheduled.measured_positions(), key=lambda pair: pair[1])
    return MeasurementMitigator.from_device(
        device, [scheduled.physical_qubit(position) for position, _ in measured]
    )


@contextmanager
def _timed_region(tracer):
    """Where a traced round records spans: its timed part only."""
    if tracer is None:
        yield
    else:
        with tracer.recorded():
            yield


def _engine_counters(engine) -> Dict[str, float]:
    return {f"engine.{name}": value for name, value in engine.stats.as_dict().items()}


# ----------------------------------------------------------------------
# vaqem_tfim6
# ----------------------------------------------------------------------
class _TimedPipeline(VAQEMPipeline):
    """The pipeline with each machine evaluation's latency recorded.

    The tuner's sweep candidates go through the futures-returning objective
    (the pipeline's default, pipelined path); a candidate's latency runs
    from its submission to its resolution.  Baselines and the greedy
    combination go through the scalar objective.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.latencies = _LatencyLog()

    def make_objective(self, use_mem=None):
        inner = super().make_objective(use_mem)

        def objective(scheduled):
            started = time.perf_counter()
            value = inner(scheduled)
            self.latencies.record(started)
            return value

        return objective

    def make_async_batch_objective(self, use_mem=None):
        inner = super().make_async_batch_objective(use_mem)
        log = self.latencies

        def async_batch_objective(schedules):
            started = time.perf_counter()

            def resolved(value):
                log.record(started)
                return value

            return [future.map(resolved) for future in inner(schedules)]

        return async_batch_objective


class _InProcessWorkload:
    """A workload that drives ``repro`` in the benchmark's own process."""

    application = ""
    #: Rounds a timed run makes even when they outlast ``--seconds``.
    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._setup_noise_model: Optional[NoiseModel] = None

    def setup(self) -> None:
        self.app = get_application(self.application)
        self.device = self.app.device()
        self._setup_noise_model = NoiseModel.from_device(self.device)

    def _noise_model(self) -> NoiseModel:
        # Round 0 uses the model built in set-up; later rounds get a fresh
        # one so no round inherits another's warmed channel cache.
        model, self._setup_noise_model = self._setup_noise_model, None
        return model or NoiseModel.from_device(self.device)

    def trace_points(self):
        return IN_PROCESS_TRACE_POINTS

    def close(self) -> Dict[str, object]:
        return {}


class VaqemTfim6(_InProcessWorkload):
    """The paper's full flow on HW_TFIM_6q_c_4r (33 idle windows, 64x64 rho)."""

    name = "vaqem_tfim6"
    application = "HW_TFIM_6q_c_4r"
    #: The sweep resolution is the smallest the tuner accepts: one flow
    #: already takes about 20 s on a 2-core host.
    budget = dict(dd_resolution=2, gs_resolution=2)
    angle_iterations = 100
    #: Flows on different seeds differ by up to a fifth in time (the greedy
    #: combination step evaluates a seed-dependent number of schedules), so
    #: every run times two.
    min_rounds = 2

    def run_round(self, index: int, tracer=None) -> RoundResult:
        rng = np.random.default_rng([self.seed, index])
        flow_seed = int(rng.integers(2**31))
        pipeline = _TimedPipeline(
            self.app,
            VAQEMConfig(
                budget=TuningBudget(**self.budget),
                angle_tuning_iterations=self.angle_iterations,
                seed=flow_seed,
            ),
            device=self.device,
            noise_model=self._noise_model(),
        )
        with _timed_region(tracer):
            started = time.perf_counter()
            result = pipeline.run()
            seconds = time.perf_counter() - started
        pipeline.engine.close()

        attempted = sum(result.evaluation_counts.values())
        self._check(result, pipeline, flow_seed, attempted)
        counters = _engine_counters(pipeline.engine)
        angle_evaluations = result.angle_result.num_evaluations
        return RoundResult(
            seconds=seconds,
            attempted=attempted,
            failed=0,
            latencies=pipeline.latencies.samples,
            gain=result.improvement("vaqem_gs_xy"),
            deterministic={
                **counters,
                **{f"evaluations.{name}": n for name, n in result.evaluation_counts.items()},
                "angle_evaluations": angle_evaluations,
            },
            layer={
                **counters,
                "vaqem.candidates_evaluated": attempted,
                "vqe.evaluations": angle_evaluations,
            },
        )

    def _check(self, result, pipeline, flow_seed: int, attempted: int) -> None:
        hamiltonian = self.app.hamiltonian
        ground = checks.ground_energy(checks.wire_terms(hamiltonian))
        require_above_ground(
            [("angle tuning (ideal)", result.angle_result.optimal_value)]
            + [(strategy, energy) for strategy, energy in result.energies.items()],
            ground,
        )
        # The reported gain uses the program's ground energy; it must be ours.
        require(
            abs(result.optimal_energy - ground) <= 1e-9,
            f"the flow's ground energy {result.optimal_energy!r} differs from eigvalsh's {ground!r}",
        )
        require(
            len(pipeline.latencies.samples) == attempted,
            f"recorded {len(pipeline.latencies.samples)} evaluations, the pipeline counted {attempted}",
        )
        gain = result.improvement("vaqem_gs_xy")
        require(gain > 1.0, f"vaqem_gs_xy gains {gain!r} over MEM, expected > 1")
        scheduled = result.transpile_result.scheduled
        for strategy, tuning in result.tuning_results.items():
            require(
                tuning.tuned_value <= tuning.baseline_value,
                f"{strategy}: tuned energy {tuning.tuned_value!r} above its baseline "
                f"{tuning.baseline_value!r}",
            )
            # Cold recomputation: a fresh engine with every reuse path off.
            noise_model = NoiseModel.from_device(self.device)
            cold = NoisyDensityMatrixEngine(
                noise_model,
                seed=flow_seed,
                result_cache_bytes=0,
                enable_prefix_reuse=False,
                enable_segment_reuse=False,
            )
            estimator = ExpectationEstimator(
                noise_model,
                mitigator=_mem_mitigator(self.device, scheduled),
                seed=flow_seed,
                engine=cold,
            )
            recomputed = estimator.estimate(tuning.tuned_schedule, hamiltonian).value
            cold.close()
            require(
                abs(recomputed - tuning.tuned_value) <= 1e-9,
                f"{strategy}: tuned energy {tuning.tuned_value!r} but a cold engine "
                f"computes {recomputed!r}",
            )


# ----------------------------------------------------------------------
# runtime_vqe_h2
# ----------------------------------------------------------------------
class RuntimeVqeH2(_InProcessWorkload):
    """Noisy SPSA angle tuning of UCCSD_H2 through a Runtime session."""

    name = "runtime_vqe_h2"
    application = "UCCSD_H2"
    maxiter = 100
    shots = 1024

    def _objective(self, vqe_seed: int, noise_model: NoiseModel):
        engine = NoisyDensityMatrixEngine(noise_model, seed=vqe_seed)
        vqe = VQE(self.app.ansatz, self.app.hamiltonian, seed=vqe_seed)
        objective = vqe.noisy_objective_factory(
            self.device, noise_model, shots=self.shots, use_mem=True, engine=engine
        )
        return engine, objective

    def run_round(self, index: int, tracer=None) -> RoundResult:
        rng = np.random.default_rng([self.seed, index])
        initial_point = rng.uniform(-0.1 * np.pi, 0.1 * np.pi, self.app.num_parameters)
        vqe_seed = int(rng.integers(2**31))
        spsa_seed = int(rng.integers(2**31))
        engine, objective = self._objective(vqe_seed, self._noise_model())
        latencies = _LatencyLog()

        def timed_objective(parameters):
            started = time.perf_counter()
            value = objective(parameters)
            latencies.record(started)
            return value

        session = RuntimeSession(timed_objective, machine_name=self.device.name)
        optimizer = SPSA(maxiter=self.maxiter, seed=spsa_seed)
        with _timed_region(tracer):
            started = time.perf_counter()
            result = session.run_program(optimizer, initial_point)
            seconds = time.perf_counter() - started
        counters = _engine_counters(engine)

        ground = checks.ground_energy(checks.wire_terms(self.app.hamiltonian))
        final_energy = objective(result.optimal_parameters)
        initial_energy = session.history[0]
        engine.close()
        self._check(result, session, vqe_seed, final_energy, initial_energy, ground)
        deterministic = dict(counters)
        deterministic["evaluations"] = result.num_evaluations
        deterministic["final_energy"] = final_energy
        return RoundResult(
            seconds=seconds,
            attempted=result.num_evaluations,
            failed=0,
            latencies=latencies.samples,
            gain=improvement_over_baseline(final_energy, initial_energy, ground),
            deterministic=deterministic,
            layer={**counters, "vqe.evaluations": result.num_evaluations},
        )

    def _check(self, result, session, vqe_seed, final_energy, initial_energy, ground) -> None:
        expected = 1 + 2 * self.maxiter
        require(
            result.num_evaluations == expected and session.num_evaluations == expected,
            f"SPSA made {result.num_evaluations} evaluations "
            f"({session.num_evaluations} charged), expected {expected}",
        )
        fresh_engine, fresh_objective = self._objective(
            vqe_seed, NoiseModel.from_device(self.device)
        )
        again = fresh_objective(result.optimal_parameters)
        fresh_engine.close()
        require(
            again == final_energy,
            f"the tuned parameters measure {final_energy!r}, but {again!r} on a fresh engine",
        )
        require_above_ground(
            [
                ("initial point", initial_energy),
                ("tuned parameters", final_energy),
                ("last SPSA iterate", result.optimal_value),
            ],
            ground,
        )


# ----------------------------------------------------------------------
# served_h2
# ----------------------------------------------------------------------
class ServedH2:
    """Two closed-loop tenants asking an engine server for H2 sweep energies.

    A round draws three bound angle points: one whose window-sweep family
    both tenants request, and one private family per tenant.  Each tenant
    sends its requests one at a time, in its own seeded order, on its own
    thread and connection; the round ends when both have been answered.
    """

    name = "served_h2"
    application = "UCCSD_H2"
    min_rounds = 1
    tenants = ("tenant-a", "tenant-b")
    #: Gate positions swept per window with a movable gate (1.0 is baseline).
    gs_positions = (0.0, 0.5)
    dd_sequences = ("xx", "xy4")

    def __init__(self, seed: int):
        self.seed = seed
        self._server: Optional[subprocess.Popen] = None
        self._fresh_engine = None

    # -- server process ------------------------------------------------
    def setup(self) -> None:
        self.app = get_application(self.application)
        self.device = self.app.device()
        self.terms = checks.wire_terms(self.app.hamiltonian)
        # Wire terms, not the PauliSum: ServiceClient's own conversion sends
        # "PauliString(...)" labels, which the server rejects.
        self.observable = [[label, coefficient] for label, coefficient in self.terms]
        self.engine_seed = int(np.random.default_rng([self.seed, 0]).integers(2**31))
        self._start_server(trace=False)

    def _start_server(self, trace: bool) -> None:
        command = [sys.executable, str(BENCH_DIR / "server.py"), "--engine-seed", str(self.engine_seed)]
        if trace:
            command.append("--trace")
        self._server = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self._server.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self._stop_server()
            raise RuntimeError(f"the engine server did not start (said {line!r})")
        self.port = int(line[1])

    def _stop_server(self) -> dict:
        server, self._server = self._server, None
        if server is None:
            return {}
        try:
            server.stdin.close()
            output = server.stdout.read()
            server.wait(timeout=60)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        lines = output.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def restart_server(self, trace: bool) -> dict:
        """Stop the running server and start a fresh one; returns the old one's report."""
        report = self._stop_server()
        self._start_server(trace)
        return report

    def close(self) -> Dict[str, object]:
        if self._fresh_engine is not None:
            self._fresh_engine.close()
            self._fresh_engine = None
        return self._stop_server()

    # -- inputs ----------------------------------------------------------
    def _family(self, parameters) -> List[Tuple[object, dict]]:
        """(schedule, wire document) of every window-sweep candidate at one point."""
        circuit = self.app.ansatz.bind_parameters(list(parameters))
        circuit.measure_all()
        compiled = transpile(circuit, self.device)
        baseline = compiled.scheduled
        schedules = [baseline]
        for window in compiled.idle_windows:
            if movable_gate(baseline, window) is not None:
                schedules.extend(
                    reschedule_gate(baseline, window, GSConfig(position))
                    for position in self.gs_positions
                )
            for sequence in self.dd_sequences:
                count = max_sequences_in_window(window, baseline, sequence)
                if count > 0:
                    schedules.append(
                        insert_dd_sequences(baseline, window, DDConfig(sequence, count))
                    )
        return [(schedule, json.loads(schedule_to_json(schedule))) for schedule in schedules]

    def _round_inputs(self, index: int):
        rng = np.random.default_rng([self.seed, 1, index])
        points = rng.uniform(-0.3, 0.3, (3, self.app.num_parameters))
        families = [self._family(point) for point in points]
        # Family 0 is shared; tenant t also asks for its own family t + 1.
        requests = []
        for tenant in range(len(self.tenants)):
            items = [(0, member) for member in range(len(families[0]))]
            items += [(tenant + 1, member) for member in range(len(families[tenant + 1]))]
            requests.append([items[k] for k in rng.permutation(len(items))])
        return families, requests

    # -- one round -------------------------------------------------------
    def run_round(self, index: int, tracer=None) -> RoundResult:
        families, requests = self._round_inputs(index)
        served: Dict[Tuple[int, int], float] = {}
        latencies = _LatencyLog()
        failures: List[str] = []
        lock = threading.Lock()

        def tenant_loop(tenant: str, items) -> None:
            client = ServiceClient("127.0.0.1", self.port, tenant=tenant)
            for number, (family, member) in enumerate(items):
                entry = {
                    "op": "expectation",
                    "program": families[family][member][1],
                    "observable": self.observable,
                }
                span = None
                if tracer is not None:
                    span = tracer.begin("service.request", request_id=f"{tenant}/{index}/{number}")
                started = time.perf_counter()
                try:
                    value = float(client.submit([entry])[0]["value"])
                except Exception as error:  # noqa: BLE001 - counted as a failed operation
                    with lock:
                        failures.append(f"{tenant}: {type(error).__name__}: {error}")
                    continue
                finally:
                    if span is not None:
                        tracer.end(span)
                latencies.record(started)
                with lock:
                    served[(family, member)] = value

        threads = [
            threading.Thread(target=tenant_loop, args=(tenant, items), name=tenant)
            for tenant, items in zip(self.tenants, requests)
        ]
        with _timed_region(tracer):
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - started

        attempted = sum(len(items) for items in requests)
        self._check(families, served, failures)
        gains = []
        ground = checks.ground_energy(self.terms)
        for number, family in enumerate(families):
            values = [served[(number, member)] for member in range(len(family))]
            gains.append(improvement_over_baseline(min(values), values[0], ground))
        shared_requests = 2 * len(families[0])
        return RoundResult(
            seconds=seconds,
            attempted=attempted,
            failed=len(failures),
            latencies=latencies.samples,
            gain=statistics.median(gains),
            deterministic={"served_values": sorted(served.items())},
            layer={"service.shared_request_share": shared_requests / attempted},
        )

    def _check(self, families, served, failures) -> None:
        require(not failures, f"{len(failures)} requests failed, e.g. {failures[:1]}")
        if self._fresh_engine is None:
            self._fresh_engine = NoisyDensityMatrixEngine(
                NoiseModel.from_device(self.device), seed=self.engine_seed
            )
        ground = checks.ground_energy(self.terms)
        for number, family in enumerate(families):
            expected = self._fresh_engine.expectation_batch(
                [schedule for schedule, _ in family], self.app.hamiltonian
            )
            for member, value in enumerate(expected):
                got = served[(number, member)]
                require(
                    got == value,
                    f"family {number} program {member}: served {got!r}, "
                    f"a fresh in-process engine computes {value!r}",
                )
            require_above_ground(
                [(f"family {number} program {m}", served[(number, m)]) for m in range(len(family))],
                ground,
            )

    def server_metrics(self) -> dict:
        return ServiceClient("127.0.0.1", self.port, tenant="observer").metrics()

    def trace_points(self):
        return []


#: Public functions wrapped in the traced run, as
#: ``(module[:Class], attribute, span name, ends when its futures resolve)``.
IN_PROCESS_TRACE_POINTS = [
    ("repro.vaqem.framework:VAQEMPipeline", "tune_angles", "vaqem.angle_tuning", False),
    ("repro.vaqem.framework:VAQEMPipeline", "evaluate_strategy", "vaqem.mitigation_tuning", False),
    ("repro.vaqem.framework", "transpile", "transpiler.transpile", False),
    ("repro.vqe.vqe", "transpile", "transpiler.transpile", False),
    ("repro.vaqem.window_tuner", "insert_dd_sequences", "mitigation.candidate_build", False),
    ("repro.vaqem.window_tuner", "reschedule_gate", "mitigation.candidate_build", False),
    ("repro.vaqem.framework", "uniform_dd", "mitigation.candidate_build", False),
    ("repro.vaqem.window_tuner:IndependentWindowTuner", "apply_configurations",
     "mitigation.candidate_build", False),
    ("repro.mitigation.mem:MeasurementMitigator", "from_device", "mitigation.mem_build", False),
    ("repro.optimizers.spsa:SPSA", "minimize", "optimizers.minimize", False),
    ("repro.optimizers.scipy_optimizers:ScipyOptimizer", "minimize", "optimizers.minimize", False),
    ("repro.vqe.vqe:VQE", "ideal_objective", "vqe.objective", False),
    ("repro.runtime.session:RuntimeSession", "evaluate", "vqe.objective", False),
    ("repro.vqe.expectation:ExpectationEstimator", "estimate", "engine.estimate", False),
    ("repro.vqe.expectation:ExpectationEstimator", "estimate_batch", "engine.estimate_batch", False),
    ("repro.vqe.expectation:ExpectationEstimator", "submit_batch", "engine.submit_batch", True),
    ("repro.engine.statevector_engine:StatevectorEngine", "expectation", "engine.ideal_expectation", False),
]

WORKLOADS = {cls.name: cls for cls in (VaqemTfim6, RuntimeVqeH2, ServedH2)}
