"""CI perf-guard: fail when a key benchmark number regresses past tolerance.

The bench-smoke suite writes fresh ``BENCH_*.json`` files at the repository
root on every run; this script compares a curated set of *guarded metrics*
in them against the committed baselines under ``benchmarks/baselines/`` and
exits non-zero when any fresh value falls more than ``--tolerance`` (default
30%) below its baseline.

Guarded metrics are deliberately **relative** (speedups and ratios between
two code paths measured on the same host in the same run), never absolute
records-per-second: absolute throughput varies wildly across laptops and CI
runners, but "the batch path is ~4x the record path" or "4 sharded workers
beat 1 by ≥2x" is a property of the *code*, and it is exactly what a
performance regression erodes.  Rising numbers never fail the guard.

Usage::

    python benchmarks/perf_guard.py                       # compare and gate
    python benchmarks/perf_guard.py --tolerance 0.30
    python benchmarks/perf_guard.py --fresh-dir . --baseline-dir benchmarks/baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: Fraction a fresh value may fall below its baseline before the guard fails.
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class GuardedMetric:
    """One higher-is-better number extracted from a ``BENCH_*.json`` file.

    ``path`` addresses a (possibly nested) value; ``denominator_path``, when
    set, turns the metric into the ratio ``path / denominator_path`` — how
    the batch-size and worker sweeps (stored as absolute rates) are guarded
    as machine-portable gains.
    """

    file: str
    name: str
    path: Tuple[str, ...]
    denominator_path: Optional[Tuple[str, ...]] = None

    def extract(self, payload: Dict) -> float:
        value = _dig(payload, self.path)
        if self.denominator_path is not None:
            value = value / _dig(payload, self.denominator_path)
        return float(value)


GUARDED_METRICS: Sequence[GuardedMetric] = (
    # Serving: online labeling must stay orders of magnitude over refit.
    GuardedMetric("BENCH_serving.json", "online_vs_refit_speedup", ("speedup",)),
    # Batch-1 overhead: the share of a lone request's p50 latency that is
    # labeling work.  Falls if an idle building is ever made to wait again.
    GuardedMetric(
        "BENCH_serving.json",
        "batch1_compute_vs_request_p50",
        ("batch1_compute_vs_request_p50",),
    ),
    # Sharding: 4 worker processes over 1 on mixed-building traffic.
    GuardedMetric(
        "BENCH_serving.json", "sharded_speedup_4w_vs_1w", ("sharded_speedup_4w_vs_1w",)
    ),
    # Cache misses: one shard worker thrashing 8 buildings through 2 LRU
    # slots vs the same worker holding all 8 hot, on the same trace.  Falls
    # when an artifact load (the miss path) gets dearer.
    GuardedMetric("BENCH_serving.json", "thrash_vs_hot_1w", ("thrash_vs_hot_1w",)),
    # Columnar RecordBatch path over the per-record path.
    GuardedMetric("BENCH_batching.json", "batch_vs_record_speedup", ("speedup",)),
    # Incremental refresh over a cold refit, and its label stability.
    GuardedMetric("BENCH_refresh.json", "refresh_vs_refit_speedup", ("speedup",)),
    GuardedMetric("BENCH_refresh.json", "refresh_label_stability", ("label_stability",)),
    # Guarded lifecycle: canary validation must stay near-free next to the
    # refresh it gates, and rollback must stay far cheaper than re-refreshing.
    GuardedMetric(
        "BENCH_refresh.json",
        "refresh_vs_canary_speedup",
        ("refresh_vs_canary_speedup",),
    ),
    GuardedMetric(
        "BENCH_refresh.json",
        "rollback_vs_refresh_speedup",
        ("rollback_vs_refresh_speedup",),
    ),
    # Graph core: vectorised CSR build, shared alias tables, end-to-end fit.
    GuardedMetric("BENCH_graph.json", "csr_build_speedup", ("build_speedup",)),
    GuardedMetric("BENCH_graph.json", "alias_tables_speedup", ("alias_tables_speedup",)),
    GuardedMetric("BENCH_graph.json", "fit_speedup", ("fit_speedup",)),
    # Telemetry: full-stack instrumentation must stay near-free (ratio ~1.0).
    GuardedMetric(
        "BENCH_serving.json",
        "telemetry_throughput_ratio",
        ("telemetry_throughput_ratio",),
    ),
    # Training engine: the shared-memory store's per-worker RSS saving at
    # 4 workers (1 - shared/private, higher-better).
    GuardedMetric(
        "BENCH_training.json",
        "rss_reduction_at_4_workers",
        ("shared_store", "rss_reduction_at_4_workers"),
    ),
)


def _dig(payload: Dict, path: Tuple[str, ...]):
    value = payload
    for key in path:
        value = value[key]
    return value


def compare(
    fresh_dir: Path, baseline_dir: Path, tolerance: float
) -> Tuple[bool, str]:
    """Compare fresh benchmark outputs against the baselines.

    Returns ``(ok, report)``; ``ok`` is False when any guarded metric is
    missing from the fresh results or regressed past the tolerance.  A
    missing *baseline* entry is reported but does not fail — that is how a
    newly added metric rides one release before being pinned.
    """
    lines = []
    ok = True
    payload_cache: Dict[Path, Optional[Dict]] = {}

    def read(path: Path) -> Optional[Dict]:
        if path not in payload_cache:
            try:
                payload_cache[path] = json.loads(path.read_text())
            except (OSError, ValueError):
                payload_cache[path] = None
        return payload_cache[path]

    header = f"{'metric':42} {'baseline':>10} {'fresh':>10} {'floor':>10}  verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for metric in GUARDED_METRICS:
        fresh_payload = read(fresh_dir / metric.file)
        baseline_payload = read(baseline_dir / metric.file)
        if fresh_payload is None:
            ok = False
            lines.append(
                f"{metric.name:42} {'':>10} {'MISSING':>10} {'':>10}  FAIL "
                f"({metric.file} not produced by the bench run)"
            )
            continue
        try:
            fresh_value = metric.extract(fresh_payload)
        except (KeyError, TypeError, ZeroDivisionError):
            ok = False
            lines.append(
                f"{metric.name:42} {'':>10} {'MISSING':>10} {'':>10}  FAIL "
                f"(key {'/'.join(metric.path)} absent in fresh {metric.file})"
            )
            continue
        if baseline_payload is None:
            lines.append(
                f"{metric.name:42} {'NONE':>10} {fresh_value:>10.3f} "
                f"{'':>10}  SKIP (no baseline file)"
            )
            continue
        # Baselines pin the metric under its *guard name* (a flat, reviewable
        # dict of floors); raw-shaped baseline files work too.
        if metric.name in baseline_payload:
            baseline_value = float(baseline_payload[metric.name])
        else:
            try:
                baseline_value = metric.extract(baseline_payload)
            except (KeyError, TypeError, ZeroDivisionError):
                lines.append(
                    f"{metric.name:42} {'NONE':>10} {fresh_value:>10.3f} "
                    f"{'':>10}  SKIP (no baseline entry)"
                )
                continue
        floor = baseline_value * (1.0 - tolerance)
        regressed = fresh_value < floor
        ok = ok and not regressed
        verdict = "FAIL (regression)" if regressed else "ok"
        lines.append(
            f"{metric.name:42} {baseline_value:>10.3f} {fresh_value:>10.3f} "
            f"{floor:>10.3f}  {verdict}"
        )
    return ok, "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="directory holding the freshly generated BENCH_*.json "
        "(default: the repository root)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path(__file__).resolve().parent / "baselines",
        help="directory holding the committed baseline BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below baseline (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not (0.0 <= args.tolerance < 1.0):
        parser.error("--tolerance must lie in [0, 1)")
    ok, report = compare(args.fresh_dir, args.baseline_dir, args.tolerance)
    print(report)
    if not ok:
        print(
            "\nperf-guard: FAIL — a guarded benchmark number regressed more "
            f"than {args.tolerance:.0%} below its committed baseline "
            f"({args.baseline_dir}).  If the change is intentional, "
            "regenerate the baselines from a trusted run and commit them."
        )
        return 1
    print("\nperf-guard: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
