"""Benchmark command: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload gap-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; paths are taken from this file's location.  The
package is imported from ``src/`` of the same checkout.  Every timed pass
runs in a fresh interpreter (``worker.py``), so the package's caches start
cold, as they do for every CLI call, and the peak RSS belongs to that pass.
Before the passes, a few set-up-only interpreters are started as well;
``setup_s`` is the median set-up time over all of them.  Passes repeat for
about ``--seconds`` seconds, and each metric is the median over the passes.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is the result object; the lines before it record the
environment, each pass and a summary with ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up-only interpreters started before the timed passes.
SETUP_PROBES = 3

#: Seconds one worker may take before it is killed.
WORKER_TIMEOUT = 150

#: Percentiles considered for ``item_tail_ms``: the highest one with at
#: least ten item latencies beyond it in TAIL_PASSES passes is reported.
#: The latencies of all passes of a run are pooled.  Fixing the pass count
#: keeps the percentile the same from run to run, and the run lasts long
#: enough for that many passes.
TAIL_PERCENTILES = (99, 97, 95, 90, 80, 75, 50)
TAIL_PASSES = 4


class BenchError(RuntimeError):
    pass


def spawn(args, mode: str) -> dict:
    """Run one worker in a fresh interpreter and return its record."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
    ]
    cmd += ["--smoke"] * args.smoke + ["--tamper"] * args.tamper
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - start
    return record


def tail_percentile(items_per_pass: int) -> int:
    samples = items_per_pass * TAIL_PASSES
    return next((p for p in TAIL_PERCENTILES if samples * (1 - p / 100.0) >= 10), 50)


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, float]:
    tail = tail_percentile(len(passes[0]["items_s"]))
    latencies = [t for p in passes for t in p["items_s"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "item_tail_ms": 1000.0 * statistics.quantiles(latencies, n=100, method="inclusive")[tail - 1],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, tail


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--tamper", action="store_true", help="corrupt one output before checking")
    args = parser.parse_args()

    if not (ROOT / "src" / "multislice" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'multislice'}", file=sys.stderr)
        return 2

    try:
        probes = [spawn(args, "setup") for _ in range(SETUP_PROBES)]
        env = {
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            **probes[0]["env"],
        }
        print("env", json.dumps(env, sort_keys=True))
        modes = ("pass", "trace") if args.trace else ("pass",)
        runs: dict[str, list[dict]] = {mode: [] for mode in modes}
        begin = time.monotonic()
        rounds: list[float] = []
        min_rounds = 1 if args.trace else TAIL_PASSES
        # stop when one more round would end further past the budget than short of it
        while (
            len(rounds) < min_rounds
            or time.monotonic() - begin + statistics.median(rounds) / 2 < args.seconds
        ):
            start = time.monotonic()
            for mode in modes:
                record = spawn(args, mode)
                runs[mode].append(record)
                print(
                    f"{mode} {len(runs[mode])}: wall_s={record['wall_s']:.4f} "
                    f"cpu_s={record['cpu_s']:.4f} peak_rss_mb={record['peak_rss_mb']:.1f} "
                    f"items={len(record['items_s'])} checks={record['attempted']} "
                    f"failed={len(record['failures'])}"
                )
            rounds.append(time.monotonic() - start)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    done = [r for records in runs.values() for r in records]
    attempted = sum(r["attempted"] for r in done)
    failures = [label for r in done for label in r["failures"]]
    for label in sorted(set(failures))[:20]:
        print(f"check failed: {label}", file=sys.stderr)

    setups = [r["setup_s"] for r in probes + done]
    metrics, tail = end_to_end(setups, runs["pass"])
    metrics["fail_ratio"] = len(failures) / attempted
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units["fail_ratio"] = "ratio"
    print(
        f"summary {args.workload} seed={args.seed} passes={len(runs['pass'])} "
        f"item_tail=p{tail} of {sum(len(r['items_s']) for r in runs['pass'])} latencies "
        f"checks={attempted}: "
        + ", ".join(f"{name}={value:.6g} {units[name]}" for name, value in metrics.items())
    )

    if args.trace:
        declared = bench["per_layer"]
        values = {
            key: statistics.median(r["layers"][key] for r in runs["trace"])
            for key in runs["trace"][0]["layers"]
        }
        traced_wall = statistics.median(r["wall_s"] for r in runs["trace"])
        values["trace.overhead_frac"] = traced_wall / metrics["wall_s"] - 1.0
    else:
        declared, values = bench["end_to_end"], metrics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
