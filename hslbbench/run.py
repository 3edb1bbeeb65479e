"""Run one workload of the HSLB benchmark and print its metrics.

    python3 hslbbench/run.py --workload cesm-table3 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  The line
before it stamps the run with the host, the inputs and the sample counts.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here: imports included

import os  # noqa: E402

#: BLAS and OpenMP pools get one thread, before numpy is imported here or in
#: any child: the benchmark keeps to nproc threads, and on a 2-core host the
#: default pool's idle threads made the FMO pass time drift 20% between runs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cesm-table3", "fmo-fragments", "serve-zipf", "batch-sweep")
#: Set-up is timed in this process and in this many fresh ones; the
#: median is reported.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "latency_p50_ms": "ms",
    "slo_attainment": "ratio",
    "batch_rps": "1/s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help="time set-up only, print it, exit"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_fingerprint() -> dict:
    import numpy
    import scipy

    from hslbbench.workloads import host_cores, tier_config

    config = tier_config()
    return {
        "cores": host_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tier_worker_mode": config.worker_mode,
        "tier_shards": config.shards,
        "blas_threads": int(BLAS_THREADS),
    }


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up seconds of one fresh process."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hslbbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from hslbbench.stats import median
    from hslbbench.workloads import PER_LAYER_UNITS, WORKLOADS, per_layer

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    m = workload.run(traced=bool(args.trace), probe=args.setup_probe)
    setup = m.setup_done - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

    if args.trace:
        values, units = per_layer(m), PER_LAYER_UNITS
    else:
        values = {"setup_s": median(setups), **m.end_to_end()}
        units = END_TO_END_UNITS
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "host": host_fingerprint(),
                "setup_samples_s": setups,
                "pass_walls_s": m.pass_walls,
                "details": m.details,
                "wrong": m.wrong[:20],
                "degraded": m.degraded[:20],
            },
            default=str,
        )
    )
    print(
        json.dumps(
            {
                "correct": not m.wrong,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
