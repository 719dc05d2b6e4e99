"""FIS-ONE end-to-end benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fit_refresh --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once under the span
wrappers of ``spans.py`` and reports the per-layer metrics instead.  The
last line of standard output is the result object; diagnostics go to
standard error.  See ``perfbench/README.md`` for the workloads and metrics.
"""

import os

# Pin BLAS/OpenMP pools to one thread before NumPy loads: by default
# OpenBLAS runs one thread per core, and a fit then burns twice its wall
# time in CPU and fights the shard workers for the cores.  Forked shards and
# the store-building child inherit the setting.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fit_refresh", "label_paced")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument("--build-store", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build_store is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from inputs import SCALES
    import workloads

    scale = SCALES[args.scale]
    if args.build_store is not None:
        workloads.build_store(args.seed, scale, args.build_store, args.out)
        return 0

    spec = benchmark_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calib_start = workloads.host_calibration_ms()
        if args.workload == "fit_refresh":
            result = workloads.fit_refresh(args.seed, args.seconds, scale, bool(args.trace), work)
        else:
            result = workloads.label_paced(args.seed, args.seconds, scale, bool(args.trace), work)
        calib_end = workloads.host_calibration_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ledger = result["ledger"]
    if args.trace:
        # A layer the workload never calls reads 0: that is the prediction
        # the README's layer table makes for it on this workload.
        values = {metric["name"]: 0.0 for metric in wanted}
        values.update(result["layers"])
        values["host.calib_ms"] = (calib_start + calib_end) / 2.0
    else:
        values = dict(result["metrics"], success_rate=ledger.success_rate)
    print(
        f"perfbench: host.calib_ms start {calib_start:.1f} end {calib_end:.1f}",
        file=sys.stderr,
    )
    missing = [metric["name"] for metric in wanted if metric["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    payload = {
        "correct": not ledger.violations,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in wanted
        },
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
