"""The benchmark workloads and the measurements they take.

* ``fit_refresh`` — one thread, one building at a time, through a
  write-through :class:`~repro.serving.BuildingRegistry`: ``register`` +
  ``get`` (the fit), in-process ``label`` requests over the post-drift wave
  (which fill the refresh buffer), then ``refresh``.
* ``label_paced`` — open loop, Poisson arrivals at :data:`PACED_RATE`
  requests/s of 1-8 :class:`~repro.signals.record.SignalRecord` each,
  Zipf(1.0)-skewed over a 20-building store, into a
  :class:`~repro.serving.ShardedFleetServer` with library defaults.

label_paced serves a model store made by the fit path: a child process
(``run.py --build-store``) runs the fit/refresh cycle over the store's
buildings before the fleet comes up, so the driver never holds a fitted
model when it forks the shards, and the fit/refresh metrics of that
workload describe the store build.  ``setup_s`` then times fleet bring-up.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import contextlib
import gc
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from inputs import (
    BuildingInput,
    LabelRequestInput,
    Scale,
    fit_building,
    paced_traffic,
    pipeline_config,
    store_ids,
    store_models,
    wave_requests,
)
from repro.serving import (
    BuildingRegistry,
    RefreshRejectedError,
    ShardedFleetServer,
    load_artifacts,
)
from repro.signals.batch import RecordBatch
from repro.telemetry import LatencyHistogram, MetricsSnapshot
from spans import LABEL_SPANS, Tracer

#: Offered load of label_paced, far below the default fleet's capacity.
PACED_RATE = 200.0

#: Unmeasured traffic before each label phase, so caches and lazy set-up
#: are settled when timing starts.
WARMUP_S = 1.0

#: Label requests per run whose served floors are re-derived in process.
REFERENCE_SAMPLE = 64

#: Minimum agreement between served and in-process labels.  Not 1.0:
#: coalescing changes the BLAS batch composition, which can flip a label
#: sitting on a decision boundary.
MIN_AGREEMENT = 0.99


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def ms(seconds: float) -> float:
    return seconds * 1e3


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    return ms(float(np.percentile(latencies_s, q))) if latencies_s else 0.0


def valid_floors(floors: np.ndarray, expected: int, num_floors: int) -> bool:
    """One floor per record, each within ``[0, num_floors)``."""
    floors = np.asarray(floors)
    return floors.shape == (expected,) and bool(
        np.all((floors >= 0) & (floors < num_floors))
    )


@dataclass
class Ledger:
    """Operations attempted and failed, and output-check violations.

    A failure is an operation that raised; it is counted, its traceback
    goes to stderr, and the run goes on.  A violation is an output that
    failed a check; any violation makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: {what} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.violations.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def merge(self, other: Dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        for what in other["violations"]:
            self.check(False, what)

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)


def host_calibration_ms() -> float:
    """Wall time of a fixed pure-Python + NumPy kernel (host-speed probe)."""
    matrix = np.random.default_rng(0).standard_normal((120, 120))
    started = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    for _ in range(20):
        matrix = np.tanh(matrix @ matrix.T / 120.0)
    return ms(time.perf_counter() - started)


#: The busy loop of :func:`cpus_kept_awake`; it also ends when its parent
#: dies, so a killed run leaves no spinner behind.
_SPINNER = """
import os, sys
os.nice(19)
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextlib.contextmanager
def cpus_kept_awake() -> Iterator[None]:
    """Run one lowest-priority busy loop per core for the duration of the block.

    On a virtual machine an idle vCPU halts, and waking it for the next
    request costs the host a reschedule whose delay follows the host's load,
    not the program's.  A ``nice 19`` spinner keeps each vCPU out of halt
    and yields to every real thread at once (a software ``idle=poll``).
    Only the label phase uses it: its requests wait on thread wake-ups,
    while the single-threaded fit loop never idles and would only share its
    core with the spinner.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPINNER, str(os.getpid())], stdin=subprocess.DEVNULL)
        for _ in range(len(os.sched_getaffinity(0)))
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest live multiprocessing child."""
    driver_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        worker_kb = max(worker_kb, int(line.split()[1]))
        except OSError:
            continue
    return (driver_kb + worker_kb) / 1024.0


# -- the fit/refresh cycle ------------------------------------------------------


@dataclass
class BuildingOutcome:
    """What one fit + label + refresh cycle of one building measured."""

    fit_records: int
    fit_s: float
    fit_accuracy: float
    fit_labels: np.ndarray
    label_latencies_s: List[float]
    label_records: int
    refresh_records: int = 0
    refresh_s: float = 0.0
    refresh_attempted: bool = False
    refresh_accepted: bool = False
    label_stability: float = 0.0
    refresh_accuracy: float = 0.0


def phase_span(tracer: Optional[Tracer]):
    """A fit or refresh phase as a span: what no traced layer covers is its self time."""
    return contextlib.nullcontext() if tracer is None else tracer.span("fit.unattributed_s")


def run_building(
    registry: BuildingRegistry,
    building: BuildingInput,
    label_requests: int,
    ledger: Ledger,
    tracer: Optional[Tracer] = None,
) -> Optional[BuildingOutcome]:
    """Fit, label the post-drift wave, and refresh one building."""
    building_id = building.building_id
    ledger.attempted += 1
    try:
        registry.register(
            building_id, building.observed, anchor_record_id=building.anchor_record_id
        )
        started = time.perf_counter()
        with phase_span(tracer):
            fitted = registry.get(building_id)
        fit_s = time.perf_counter() - started
    except Exception:  # noqa: BLE001 - counted, reported, run continues
        ledger.fail(f"fit of {building_id}")
        return None
    fit_labels = np.array(fitted.floor_labels, copy=True)
    ledger.check(
        valid_floors(fit_labels, len(building.truth), building.num_floors),
        f"fit labels of {building_id}",
    )
    outcome = BuildingOutcome(
        fit_records=len(building.truth),
        fit_s=fit_s,
        fit_accuracy=float(np.mean(fit_labels == building.truth)),
        fit_labels=fit_labels,
        label_latencies_s=[],
        label_records=0,
    )

    rng = random.Random(building.seed)
    for records in wave_requests(building, label_requests, rng):
        ledger.attempted += 1
        started = time.perf_counter()
        try:
            labels = registry.label(building_id, records)
        except Exception:  # noqa: BLE001
            ledger.fail(f"label request to {building_id}")
            continue
        outcome.label_latencies_s.append(time.perf_counter() - started)
        outcome.label_records += len(records)
        ledger.check(
            valid_floors([label.floor for label in labels], len(records), building.num_floors),
            f"labels of a request to {building_id}",
        )

    outcome.refresh_records = registry.buffered_record_count(building_id)
    outcome.refresh_attempted = True
    ledger.attempted += 1
    started = time.perf_counter()
    try:
        with phase_span(tracer):
            report = registry.refresh(building_id)
        outcome.refresh_accepted = True
    except RefreshRejectedError as rejection:
        # The canary gate working as designed: a valid outcome, not a failure.
        report = rejection.report
    except Exception:  # noqa: BLE001
        ledger.fail(f"refresh of {building_id}")
        outcome.refresh_attempted = False
        return outcome
    outcome.refresh_s = time.perf_counter() - started
    outcome.label_stability = report.label_stability
    served = registry.get(building_id)
    floors, _, _ = served.online_floors(list(building.wave))
    ledger.check(
        valid_floors(floors, len(building.wave), building.num_floors),
        f"post-refresh labels of {building_id}",
    )
    outcome.refresh_accuracy = float(np.mean(floors == building.wave_truth))
    return outcome


def cycle_metrics(cycles: List[List[BuildingOutcome]]) -> Dict[str, float]:
    """Fit/refresh end-to-end metrics over whole cycles of the floor mix.

    Rates are total records over total wall time of one cycle, and the
    median over cycles is reported, so a host slow spell that hits one
    cycle does not move the run's figure.
    """
    fit_rates, refresh_rates, label_rates = [], [], []
    for cycle in cycles:
        fit_s = sum(o.fit_s for o in cycle)
        refresh_s = sum(o.refresh_s for o in cycle if o.refresh_attempted)
        label_s = sum(sum(o.label_latencies_s) for o in cycle)
        if fit_s > 0:
            fit_rates.append(sum(o.fit_records for o in cycle) / fit_s)
        if refresh_s > 0:
            refresh_rates.append(
                sum(o.refresh_records for o in cycle if o.refresh_attempted) / refresh_s
            )
        if label_s > 0:
            label_rates.append(sum(o.label_records for o in cycle) / label_s)
    outcomes = [o for cycle in cycles for o in cycle]
    refreshed = [o for o in outcomes if o.refresh_attempted]
    latencies = [s for o in outcomes for s in o.label_latencies_s]
    return {
        "fit_records_per_s": median(fit_rates),
        "refresh_records_per_s": median(refresh_rates),
        # Medians over buildings: one badly-surveyed building does not set them.
        "accuracy": median([o.fit_accuracy for o in outcomes]),
        "refresh_accuracy": median([o.refresh_accuracy for o in refreshed]),
        "label_stability": median([o.label_stability for o in refreshed]),
        "p50_ms": percentile_ms(latencies, 50),
        "p90_ms": percentile_ms(latencies, 90),
        "records_per_s": median(label_rates),
        "canary_rejections": float(sum(not o.refresh_accepted for o in refreshed)),
        "fit_refresh_s": sum(o.fit_s + o.refresh_s for o in outcomes),
    }


def run_cycles(
    registry: BuildingRegistry,
    buildings,
    floors_per_cycle: int,
    scale: Scale,
    ledger: Ledger,
    tracer: Optional[Tracer] = None,
    deadline: Optional[float] = None,
) -> List[List[BuildingOutcome]]:
    """Run whole cycles over ``buildings`` (an iterator) until it or the deadline ends."""
    cycles: List[List[BuildingOutcome]] = []
    exhausted = False
    while not exhausted:
        cycle = []
        for _ in range(floors_per_cycle):
            building = next(buildings, None)
            if building is None:
                exhausted = True
                break
            outcome = run_building(
                registry, building, scale.label_requests_per_building, ledger, tracer
            )
            if outcome is not None:
                cycle.append(outcome)
        if cycle:
            cycles.append(cycle)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return cycles


def fit_refresh(seed: int, seconds: float, scale: Scale, trace: bool, work: Path) -> Dict:
    """The fit_refresh workload; returns the run's result payload."""
    config = pipeline_config(scale)
    ledger = Ledger()
    per_cycle = len(scale.fit_floors)

    # Set-up: a fresh write-through registry plus one full cycle of an
    # out-of-fleet building, repeated.  The first repetition absorbs the
    # process's first-fit penalty (lazy imports, allocator growth), so the
    # measured loop never pays it; setup_s is the median repetition.
    warmup = fit_building(seed, -1, scale)
    setup_times = []
    for repeat in range(scale.setup_repeats):
        started = time.perf_counter()
        registry = BuildingRegistry(store_dir=work / f"setup-{repeat}", config=config)
        run_building(registry, warmup, scale.label_requests_per_building, Ledger())
        setup_times.append(time.perf_counter() - started)

    def fleet():
        index = 0
        while True:
            yield fit_building(seed, index, scale)
            index += 1

    registry = BuildingRegistry(store_dir=work / "store", config=config)
    started = time.perf_counter()
    cycles = run_cycles(registry, fleet(), per_cycle, scale, ledger, deadline=started + seconds)
    summary = cycle_metrics(cycles)
    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        **{name: summary[name] for name in FIT_METRICS + LABEL_METRICS},
    }
    result = {"ledger": ledger, "metrics": metrics, "layers": {}}
    if not trace:
        return result

    # Traced pass: the same buildings again, under the span wrappers, into
    # a fresh store.  Its fit labels must equal the untraced pass's.
    num_buildings = sum(len(cycle) for cycle in cycles)
    tracer = Tracer()
    traced_registry = BuildingRegistry(store_dir=work / "traced", config=config)
    with tracer.installed():
        traced_cycles = run_cycles(
            traced_registry,
            (fit_building(seed, index, scale) for index in range(num_buildings)),
            per_cycle,
            scale,
            ledger,
            tracer=tracer,
        )
    untraced_labels = [o.fit_labels for cycle in cycles for o in cycle]
    traced_labels = [o.fit_labels for cycle in traced_cycles for o in cycle]
    ledger.check(
        len(untraced_labels) == len(traced_labels)
        and all(np.array_equal(a, b) for a, b in zip(untraced_labels, traced_labels)),
        "traced fit labels equal untraced fit labels",
    )
    traced = cycle_metrics(traced_cycles)
    layers = {name: tracer.self_seconds.get(name, 0.0) for name in FIT_LAYERS}
    layers["gnn.pairs"] = tracer.counts.get("gnn.pairs", 0.0)
    layers["graph.edges"] = tracer.counts.get("graph.edges", 0.0)
    layers["core.canary_rejections"] = traced["canary_rejections"]
    layers["fit.unattributed_s"] = tracer.self_seconds.get("fit.unattributed_s", 0.0)
    layers["fit.wall_s"] = traced["fit_refresh_s"]
    layers["trace.overhead"] = traced["fit_refresh_s"] / max(summary["fit_refresh_s"], 1e-9)
    snapshot = traced_registry.telemetry.metrics.snapshot()
    layers["registry.label_ms"] = p50_ms(_hist_delta(snapshot, EMPTY, "fisone_label_seconds"))
    result["layers"] = layers
    return result


#: End-to-end metrics the fit/refresh cycle produces.
FIT_METRICS = [
    "fit_records_per_s",
    "refresh_records_per_s",
    "accuracy",
    "refresh_accuracy",
    "label_stability",
]
LABEL_METRICS = ["p50_ms", "p90_ms", "records_per_s"]

#: Layers timed by the span wrappers of the fit/refresh path.
FIT_LAYERS = [
    "graph.build_s",
    "graph.alias_s",
    "graph.walks_s",
    "graph.grow_s",
    "gnn.init_s",
    "gnn.train_s",
    "gnn.infer_s",
    "gnn.snapshot_s",
    "clustering.hier_s",
    "clustering.kmeans_s",
    "indexing.s",
    "core.canary_s",
    "artifacts.save_s",
]


def build_store(seed: int, scale: Scale, store: Path, out: Path) -> None:
    """Child-process half of label_paced: fit + refresh the store.

    Fits and refreshes the distinct store models through the same cycle as
    fit_refresh, then copies each model's artifact directory under the
    building ids it serves.  Writes ``out/store.json`` (the fit/refresh
    metrics and the operation ledger) and ``out/traffic.pkl`` (each served
    id's traffic pool with its ground truth) for the driver.
    """
    models = store_models(scale)
    config = pipeline_config(scale)
    # Warm-up outside the store, as in fit_refresh.
    run_building(
        BuildingRegistry(store_dir=out / "warmup", config=config),
        fit_building(seed, -1, scale),
        scale.label_requests_per_building,
        Ledger(),
    )
    ledger = Ledger()
    fitted = out / "fitted"
    registry = BuildingRegistry(store_dir=fitted, config=config, capacity=len(models))
    cycles = run_cycles(registry, iter(models), len(scale.store_floors), scale, ledger)
    summary = cycle_metrics(cycles)
    traffic = []
    for index, building_id in enumerate(store_ids(scale)):
        model = models[index % len(models)]
        shutil.copytree(fitted / model.building_id, store / building_id)
        traffic.append((building_id, model.num_floors, model.pool, model.pool_truth))
    payload = {
        "metrics": {name: summary[name] for name in FIT_METRICS},
        "ledger": {
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "violations": ledger.violations,
        },
    }
    (out / "store.json").write_text(json.dumps(payload), encoding="utf-8")
    with open(out / "traffic.pkl", "wb") as handle:
        pickle.dump(traffic, handle)


# -- label_paced ---------------------------------------------------------------------


@dataclass
class ServedBuilding:
    building_id: str
    num_floors: int
    pool: tuple
    pool_truth: np.ndarray


def _hist_delta(after: MetricsSnapshot, before: MetricsSnapshot, name: str, **match):
    """Merged histogram of every child of ``name`` matching ``match``, after - before."""

    def merged(snapshot):
        family = snapshot.family(name)
        total, counts = {}, {}
        if family is None:
            return counts, total
        for sample in family.samples:
            labels = dict(sample.labels)
            if sample.histogram is None or any(labels.get(k) != v for k, v in match.items()):
                continue
            counts[sample.labels] = sample.histogram.counts
            total[sample.labels] = sample.histogram.sum
        return counts, total

    counts_after, sums_after = merged(after)
    counts_before, sums_before = merged(before)
    counts = None
    total = 0.0
    for labels, values in counts_after.items():
        delta = values - counts_before.get(labels, 0)
        counts = delta if counts is None else counts + delta
        total += sums_after[labels] - sums_before.get(labels, 0.0)
    if counts is None:
        return LatencyHistogram()
    return LatencyHistogram.from_state(np.asarray(counts), total)


def _counter_delta(after: MetricsSnapshot, before: MetricsSnapshot, name: str, **match) -> float:
    def total(snapshot):
        family = snapshot.family(name)
        if family is None:
            return 0.0
        return sum(
            sample.value
            for sample in family.samples
            if all(dict(sample.labels).get(k) == v for k, v in match.items())
        )

    return total(after) - total(before)


EMPTY = MetricsSnapshot(families=())


def p50_ms(histogram: LatencyHistogram) -> float:
    return ms(histogram.quantile(0.5)) if histogram.count else 0.0


def fleet_layers(after: MetricsSnapshot, before: MetricsSnapshot) -> Dict[str, float]:
    """Per-layer metrics of the sharded path from the fleet's own telemetry."""
    roundtrip = _hist_delta(after, before, "fleet_shard_roundtrip_seconds")
    request = _hist_delta(after, before, "fleet_request_latency_seconds")
    batch = _hist_delta(after, before, "fleet_batch_label_seconds")
    label = _hist_delta(after, before, "fisone_label_seconds")
    load = _hist_delta(after, before, "fisone_model_op_seconds", op="load")
    loads = _counter_delta(after, before, "fisone_registry_model_ops_total", op="load")
    records = _counter_delta(after, before, "fleet_records_total")
    return {
        "sharded.roundtrip_ms": p50_ms(roundtrip),
        "server.wait_ms": max(p50_ms(request) - p50_ms(batch), 0.0),
        "server.batch_ms": p50_ms(batch),
        "server.records_per_batch": records / batch.count if batch.count else 0.0,
        "registry.label_ms": p50_ms(label),
        "registry.miss_ratio": loads / label.count if label.count else 0.0,
        "registry.load_ms": ms(load.mean) if load.count else 0.0,
        "sharded.rejections": _counter_delta(after, before, "fleet_shard_rejections_total"),
        "server.failures": _counter_delta(after, before, "fleet_request_failures_total"),
    }


@dataclass
class Completed:
    """One finished label request: its input, served floors and timings."""

    request: LabelRequestInput
    floors: np.ndarray
    latency_s: float
    done_at: float


class _Phase:
    """Bookkeeping of one measured label phase."""

    def __init__(self, ledger: Ledger, floors_of: Dict[str, int]) -> None:
        self.ledger = ledger
        self.floors_of = floors_of
        self.completed: List[Completed] = []
        self.lags: List[float] = []

    def finish(self, request: LabelRequestInput, future, due: float) -> None:
        """Collect one response; its latency runs from ``due``."""
        try:
            response = future.result(timeout=60)
        except Exception:  # noqa: BLE001
            self.ledger.fail(f"label request to {request.building_id}")
            return
        done_at = getattr(future, "done_at", time.perf_counter())
        floors = np.asarray([label.floor for label in response.labels], dtype=np.int64)
        self.ledger.check(
            valid_floors(floors, len(request.records), self.floors_of[request.building_id]),
            f"served labels of a request to {request.building_id}",
        )
        self.completed.append(Completed(request, floors, done_at - due, done_at))


def _stamp(future) -> None:
    future.done_at = time.perf_counter()


def drive_paced(server, requests: Sequence[LabelRequestInput], phase: _Phase) -> float:
    """Send ``requests`` on their schedule; returns the phase's wall time.

    Latency runs from each request's *due* time, so a stall that delays
    later sends is charged to them; ``phase.lags`` records how late the
    generator itself ran.
    """
    pending = []
    start = time.perf_counter() + 0.005
    for request in requests:
        due = start + request.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        phase.lags.append(sent - due)
        phase.ledger.attempted += 1
        try:
            future = server.submit(request.building_id, list(request.records))
        except Exception:  # noqa: BLE001
            phase.ledger.fail(f"submit to {request.building_id}")
            continue
        future.add_done_callback(_stamp)
        pending.append((request, future, due))
    for request, future, due in pending:
        phase.finish(request, future, due)
    last = max((c.done_at for c in phase.completed), default=time.perf_counter())
    return last - start


def served_metrics(phase: _Phase, wall_s: float) -> Dict[str, float]:
    """Latency, throughput and accuracy of one measured label phase."""
    latencies = [c.latency_s for c in phase.completed]
    records = sum(len(c.request.records) for c in phase.completed)
    by_building: Dict[str, List[float]] = {}
    for c in phase.completed:
        by_building.setdefault(c.request.building_id, []).append(
            float(np.mean(c.floors == c.request.truth))
        )
    return {
        "p50_ms": percentile_ms(latencies, 50),
        "p90_ms": percentile_ms(latencies, 90),
        "records_per_s": records / wall_s if wall_s > 0 else 0.0,
        # Median over served buildings, so the hottest building does not set it.
        "accuracy": median([float(np.mean(v)) for v in by_building.values()]),
    }


def check_against_reference(phase: _Phase, store: Path, ledger: Ledger) -> float:
    """Agreement of served floors with in-process ``online_floors_batch``."""
    step = max(1, len(phase.completed) // REFERENCE_SAMPLE)
    sample = phase.completed[::step][:REFERENCE_SAMPLE]
    models = {}
    agree = total = 0
    for completed in sample:
        building_id = completed.request.building_id
        if building_id not in models:
            models[building_id] = load_artifacts(store / building_id)
        floors, _, _ = models[building_id].online_floors_batch(
            RecordBatch.from_records(list(completed.request.records))
        )
        agree += int(np.sum(floors == completed.floors))
        total += len(floors)
    agreement = agree / total if total else 0.0
    ledger.check(
        total > 0 and agreement >= MIN_AGREEMENT,
        f"served labels agree with in-process labels ({agreement:.4f} >= {MIN_AGREEMENT})",
    )
    return agreement


def label_paced(seed: int, seconds: float, scale: Scale, trace: bool, work: Path) -> Dict:
    """The label_paced workload; returns the run's result payload."""
    store = work / "store"
    subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve().parent / "run.py"),
            "--build-store",
            str(store),
            "--seed",
            str(seed),
            "--scale",
            "tiny" if scale.tiny else "full",
            "--out",
            str(work),
        ],
        check=True,
        timeout=600,
    )
    built = json.loads((work / "store.json").read_text(encoding="utf-8"))
    ledger = Ledger()
    ledger.merge(built["ledger"])
    with open(work / "traffic.pkl", "rb") as handle:
        served = [ServedBuilding(*entry) for entry in pickle.load(handle)]
    floors_of = {b.building_id: b.num_floors for b in served}

    def measure(server, requests, phase_ledger: Ledger) -> tuple:
        phase = _Phase(phase_ledger, floors_of)
        with cpus_kept_awake():
            wall = drive_paced(server, requests, phase)
        return phase, wall

    # Keep the inputs out of the cyclic collector of the driver and of the
    # shards it forks, so collector pauses scale with the program's own
    # objects only.
    gc.collect()
    gc.freeze()

    # Set-up: fleet bring-up (fork the shards, answer pings) plus the first
    # label of every served building, repeated; setup_s is the median.
    setup_times = []
    server = None
    for repeat in range(scale.setup_repeats):
        started = time.perf_counter()
        server = ShardedFleetServer(store)
        server.start()
        for building in served:
            server.submit(building.building_id, [building.pool[0]]).result(timeout=60)
        setup_times.append(time.perf_counter() - started)
        if repeat < scale.setup_repeats - 1:
            server.stop()
    try:
        measured = paced_traffic(served, PACED_RATE, seconds, seed)
        warmup = paced_traffic(served, PACED_RATE, WARMUP_S, seed + 7_777_777)
        gc.collect()
        gc.freeze()
        measure(server, warmup, Ledger())
        phase, wall = measure(server, measured, ledger)
        rss = peak_rss_mb()
        result_metrics = served_metrics(phase, wall)
        check_against_reference(phase, store, ledger)
        layers: Dict[str, float] = {}
        if trace:
            tracer = Tracer(LABEL_SPANS)
            before = server.fleet_metrics()
            with tracer.installed():
                traced_phase, traced_wall = measure(server, measured, ledger)
            after = server.fleet_metrics()
            traced = served_metrics(traced_phase, traced_wall)
            layers = fleet_layers(after, before)
            calls = tracer.calls.get("sharded.submit_s", 0)
            layers["sharded.submit_ms"] = (
                ms(tracer.self_seconds["sharded.submit_s"] / calls) if calls else 0.0
            )
            layers["sharded.start_s"] = median(setup_times)
            layers["driver.lag_p99_ms"] = (
                ms(float(np.percentile(traced_phase.lags, 99))) if traced_phase.lags else 0.0
            )
            # Wall time is fixed by the schedule; compare request latency.
            layers["trace.overhead"] = traced["p50_ms"] / max(result_metrics["p50_ms"], 1e-9)
    finally:
        server.stop()
    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        **{name: built["metrics"][name] for name in FIT_METRICS if name != "accuracy"},
        **result_metrics,
    }
    return {"ledger": ledger, "metrics": metrics, "layers": layers}
