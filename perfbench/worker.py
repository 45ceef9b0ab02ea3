"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload gap-sweep --seed 1 --mode pass

Modes: ``setup`` imports the package and builds the inputs, then stops;
``pass`` also runs the workload once, timed, and checks the outputs;
``trace`` does the same with the layer functions wrapped in spans and adds
the per-layer metrics.  ``--tamper`` corrupts one output before the checks.
The ``ready`` field is the monotonic clock when the inputs were ready; the
parent subtracts the moment it started this process to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    """Interpreter, library and BLAS versions, and the BLAS thread count."""
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = get()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    workdir = ROOT / "perfbench" / ".work"
    workdir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    out: dict = {"ready": time.monotonic()}
    if args.mode == "setup":
        out["env"] = environment()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install(also=[workloads])
    cpu0 = _rusage_cpu()
    t0 = time.perf_counter()
    outputs, items = workload.run()
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = _rusage_cpu() - cpu0
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["items_s"] = items

    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans, out["wall_s"], len(items), spans.gemm_gflops())
        bytes_written = getattr(workload, "bytes_written", None)
        layers["report.bytes"] = bytes_written() if bytes_written else 0
        out["layers"] = layers

    if args.tamper:
        workload.tamper(outputs)
    results = list(workload.check(outputs))
    out["attempted"] = len(results)
    out["failures"] = [label for label, ok in results if not ok]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
