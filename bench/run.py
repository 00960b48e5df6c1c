"""swinscan benchmark: one run of one workload, result as JSON on the last line.

    python3 bench/run.py --workload serve-64 --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of a traced run together with the tracing overhead.
The line before the result carries the machine facts and run details.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("serve-64", "report-512", "train-64")
# one BLAS thread everywhere: the server runs one request per thread
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_line_count(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((root / "src" / "swinscan").rglob("*.py")))


def machine_info(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_library = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "blas_library": blas_library,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "src_swinscan_lines": src_line_count(ROOT),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "swinscan" / "__init__.py").is_file():
        print(f"bench: no swinscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("bench: --seconds must be at least 1", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"  # before numpy loads, here and in every child
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    work = ROOT / ".bench_cache" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "train-64":
            import training

            metrics, attempted, failed, info = training.run(args.seed, args.seconds, args.trace)
        else:
            import serve

            metrics, attempted, failed, info = serve.run(
                args.workload, args.seed, args.seconds, args.trace, ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        import spans

        units = dict(spans.per_layer_metrics())
    else:
        units = END_TO_END_UNITS
    info.update(machine_info(args), failed_frac=failed / attempted)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
