"""The benchmark's own tests: metric coverage and trace transparency.

Tiny-scale runs only and no wall-clock asserts, so they are quick and
steady enough for the repository's bare ``pytest`` collection.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import TINY, fit_building, pipeline_config  # noqa: E402
from spans import FIT_SPANS, LABEL_SPANS, Tracer, resolve  # noqa: E402

from repro.core.pipeline import FisOne  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_emits_every_metric_with_its_unit(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run_tiny(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), name
            if kind == "end_to_end":
                assert metric["value"] > 0, name


def _fit(building, config):
    return FisOne(config).fit(building.observed, building.anchor_record_id)


def test_trace_wrappers_leave_outputs_unchanged():
    building = fit_building(seed=5, index=0, scale=TINY)
    config = pipeline_config(TINY)
    untraced = _fit(building, config)
    tracer = Tracer(FIT_SPANS + LABEL_SPANS)
    originals = {target: vars(resolve(target)[0])[resolve(target)[1]]
                 for _, target, _ in tracer.spans}
    with tracer.installed():
        traced = _fit(building, config)
        refreshed = traced.refresh(list(building.wave))
    untraced_refreshed = untraced.refresh(list(building.wave))

    np.testing.assert_array_equal(traced.floor_labels, untraced.floor_labels)
    np.testing.assert_array_equal(traced.centroids, untraced.centroids)
    np.testing.assert_array_equal(
        refreshed.fitted.floor_labels, untraced_refreshed.fitted.floor_labels
    )
    assert tracer.self_seconds["gnn.train_s"] > 0
    assert tracer.self_seconds["clustering.kmeans_s"] > 0
    assert tracer.counts["gnn.pairs"] > 0
    for _, target, _ in tracer.spans:
        owner, attr = resolve(target)
        assert vars(owner)[attr] is originals[target], f"{target} was not restored"

