"""Seeded workload inputs: simulated buildings, drift waves and label traffic.

Everything here is a pure function of ``(seed, scale)``; the program under
test only ever sees the generated records.  Buildings come from
:func:`repro.simulate.drift.generate_drift_scenario`: a labeled pre-drift
survey (the fit input, labels stripped except the single anchor) and a
post-drift collection wave whose records are split in two by position —
even indices form the *refresh wave* (labeled online, then refreshed on),
odd indices the held-out *traffic pool* label_paced draws requests from.  Ground-truth floors are kept beside the records for the accuracy
metrics and never sent to the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.config import FisOneConfig
from repro.gnn.model import RFGNNConfig
from repro.signals.dataset import SignalDataset
from repro.signals.record import SignalRecord
from repro.simulate.drift import DriftScenarioConfig, generate_drift_scenario
from repro.simulate.generators import BuildingConfig


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    #: Floor counts cycled through by the fit/refresh fleet; one cycle is
    #: the unit the fit and refresh rates are taken over.
    fit_floors: Tuple[int, ...]
    #: Floor counts cycled through by label_paced's store.
    store_floors: Tuple[int, ...]
    samples_per_floor: int
    #: Survey samples per floor of the store buildings (smaller, as the
    #: store is rebuilt in every label run).
    store_samples_per_floor: int
    #: Post-drift records per floor (half refresh wave, half traffic pool).
    post_samples_per_floor: int
    #: Building ids in label_paced's store.
    store_buildings: int
    #: Distinct fitted models behind those ids (id ``i`` serves model
    #: ``i % store_models``), which keeps the per-run store build short.
    store_models: int
    #: In-process label requests per building in the fit/refresh cycle.
    label_requests_per_building: int
    setup_repeats: int
    tiny: bool


#: The measured scale.  Fits use the pipeline settings of
#: ``benchmarks/common.py:fast_config``; default-config fits take 7-20 s per
#: small building on a 2-core host, too slow for a 10 s run.
FULL = Scale(
    fit_floors=(3, 4, 5, 6),
    store_floors=(3, 4),
    samples_per_floor=40,
    store_samples_per_floor=30,
    post_samples_per_floor=40,
    store_buildings=20,
    store_models=10,
    label_requests_per_building=192,
    setup_repeats=3,
    tiny=False,
)

#: A seconds-long scale for the benchmark's own tests: same code paths,
#: fewer and smaller buildings, one training epoch.
TINY = Scale(
    fit_floors=(3,),
    store_floors=(3,),
    samples_per_floor=12,
    store_samples_per_floor=12,
    post_samples_per_floor=8,
    store_buildings=3,
    store_models=2,
    label_requests_per_building=8,
    setup_repeats=2,
    tiny=True,
)

SCALES = {"full": FULL, "tiny": TINY}


def pipeline_config(scale: Scale) -> FisOneConfig:
    """The FIS-ONE configuration every workload fits with."""
    if scale.tiny:
        return FisOneConfig(
            gnn=RFGNNConfig(embedding_dim=8, neighbor_sample_sizes=(6, 3)),
            num_epochs=1,
            max_pairs_per_epoch=2000,
            inference_passes=1,
            inference_sample_sizes=(8, 4),
        )
    return FisOneConfig(
        gnn=RFGNNConfig(embedding_dim=16, neighbor_sample_sizes=(10, 5)),
        num_epochs=3,
        max_pairs_per_epoch=15_000,
        inference_passes=2,
        inference_sample_sizes=(30, 15),
    )


@dataclass(frozen=True)
class BuildingInput:
    """One simulated building, as the workloads feed it to the program."""

    building_id: str
    num_floors: int
    #: Simulator seed; also seeds the building's request sizes.
    seed: int
    #: The survey with every label stripped except the anchor's.
    observed: SignalDataset
    anchor_record_id: str
    #: Ground-truth floor of every survey record, in dataset order.
    truth: np.ndarray
    wave: Tuple[SignalRecord, ...]
    wave_truth: np.ndarray
    pool: Tuple[SignalRecord, ...]
    pool_truth: np.ndarray


def make_building(
    building_id: str, num_floors: int, seed: int, samples_per_floor: int, scale: Scale
) -> BuildingInput:
    """Simulate one building with AP churn and RSS drift between its waves."""
    config = DriftScenarioConfig(
        building=BuildingConfig(
            num_floors=num_floors, building_id=building_id
        ).with_samples_per_floor(samples_per_floor),
        churn_fraction=0.25,
        rss_shift_db=3.0,
        post_samples_per_floor=scale.post_samples_per_floor,
    )
    scenario = generate_drift_scenario(config, seed=seed)
    anchor = scenario.initial.pick_labeled_sample(floor=0)
    post = list(scenario.drifted)
    wave, pool = post[0::2], post[1::2]
    return BuildingInput(
        building_id=building_id,
        num_floors=num_floors,
        seed=seed,
        observed=scenario.initial.strip_labels(keep_record_ids=[anchor.record_id]),
        anchor_record_id=anchor.record_id,
        truth=np.asarray([record.floor for record in scenario.initial], dtype=np.int64),
        wave=tuple(record.without_floor() for record in wave),
        wave_truth=np.asarray([record.floor for record in wave], dtype=np.int64),
        pool=tuple(record.without_floor() for record in pool),
        pool_truth=np.asarray([record.floor for record in pool], dtype=np.int64),
    )


#: Simulator seed of label_paced's store fleet.
STORE_SEED = 20230101


def building_seed(seed: int, index: int) -> int:
    """Simulator seed of the ``index``-th building of a workload seed."""
    return seed * 1009 + index


def fit_building(seed: int, index: int, scale: Scale) -> BuildingInput:
    """The ``index``-th building of the fit/refresh fleet (index -1: warm-up)."""
    floors = scale.fit_floors[max(index, 0) % len(scale.fit_floors)]
    name = "warmup" if index < 0 else f"fit-{index:03d}"
    return make_building(
        name, floors, building_seed(seed, index), scale.samples_per_floor, scale
    )


def store_models(scale: Scale) -> List[BuildingInput]:
    """The distinct buildings fitted for label_paced's model store.

    A fixed fleet, the same for every workload seed: label_paced varies its
    traffic with the seed, so its accuracy reflects the serving path rather
    than which buildings happened to be simulated.
    """
    return [
        make_building(
            f"model-{index:03d}",
            scale.store_floors[index % len(scale.store_floors)],
            building_seed(STORE_SEED, index),
            scale.store_samples_per_floor,
            scale,
        )
        for index in range(scale.store_models)
    ]


def store_ids(scale: Scale) -> List[str]:
    """Building ids of the store; id ``i`` serves ``store_models(...)[i % store_models]``."""
    return [f"store-{index:03d}" for index in range(scale.store_buildings)]


def wave_requests(
    building: BuildingInput, count: int, rng: random.Random
) -> List[List[SignalRecord]]:
    """``count`` label requests of 1-8 records over a building's refresh wave.

    The first requests cover the wave once in order, so every wave record
    reaches the refresh buffer; the rest re-send random wave records, as
    repeated uploads do.
    """
    size = len(building.wave)
    requests = []
    start = 0
    for _ in range(count):
        request_size = rng.randint(1, 8)
        if start < size:
            indices = range(start, min(start + request_size, size))
            start += request_size
        else:
            indices = rng.sample(range(size), min(request_size, size))
        requests.append([building.wave[i] for i in indices])
    return requests


@dataclass(frozen=True)
class LabelRequestInput:
    """One label_paced request (records plus their truth)."""

    building_id: str
    records: Tuple[SignalRecord, ...]
    truth: np.ndarray
    #: Due time in seconds from the start of the phase.
    due_s: float


def zipf_weights(count: int, exponent: float = 1.0) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return weights / weights.sum()


def _draw_request(building, size: int, rng: np.random.Generator, due_s: float) -> LabelRequestInput:
    picks = rng.integers(0, len(building.pool), size=size)
    return LabelRequestInput(
        building_id=building.building_id,
        records=tuple(building.pool[i] for i in picks),
        truth=building.pool_truth[picks],
        due_s=due_s,
    )


def paced_traffic(
    buildings: Sequence, rate: float, seconds: float, seed: int
) -> List[LabelRequestInput]:
    """Poisson arrivals at ``rate``/s over ``seconds``, Zipf(1.0) over buildings.

    The arrival count is fixed at ``rate * seconds`` and the arrival times
    are its sorted uniform draws (a Poisson process conditioned on its
    count), so runs differ in timing and content, not in offered load.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(buildings))
    weights = zipf_weights(len(buildings))
    count = max(1, int(round(rate * seconds)))
    dues = np.sort(rng.uniform(0.0, seconds, size=count))
    chosen = order[rng.choice(len(buildings), size=count, p=weights)]
    sizes = rng.integers(1, 9, size=count)
    return [
        _draw_request(buildings[b], int(size), rng, float(due))
        for b, size, due in zip(chosen, sizes, dues)
    ]
