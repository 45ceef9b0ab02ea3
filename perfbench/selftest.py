"""Self-test of the benchmark on tiny inputs (N <= 4, few walk steps).

    python3 perfbench/selftest.py

For every workload it runs the benchmark command in smoke mode three ways
and exits non-zero unless:

* ``--trace 0`` emits every end-to-end metric declared in BENCHMARK.json,
  with its declared unit and a numeric value, and no check fails;
* ``--trace 1`` does the same for every per-layer metric;
* ``--tamper``, which corrupts one output before the checks (a certificate
  flipped to fail, a report entry marked failed, a containment denied, a
  walk ratio moved), raises ``fail_ratio`` above zero and clears ``correct``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, *flags: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--smoke", *flags,
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170
    )
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} {flags}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok: bool, message: str, errors: list[str]) -> None:
    if not ok:
        errors.append(message)


def check_metrics(result: dict, declared: list[dict], where: str, errors: list[str]) -> None:
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in declared}, f"{where}: metric names differ", errors)
    for m in declared:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"], f"{where}: {m['name']} unit {got.get('unit')!r}", errors)
        value = got.get("value")
        expect(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}: {m['name']} value {value!r}",
            errors,
        )


def main() -> int:
    errors: list[str] = []
    for workload in (w["name"] for w in BENCH["workloads"]):
        plain = run(workload, "--trace", "0")
        check_metrics(plain, BENCH["end_to_end"], f"{workload} trace 0", errors)
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: checks failed untampered", errors)

        traced = run(workload, "--trace", "1")
        check_metrics(traced, BENCH["per_layer"], f"{workload} trace 1", errors)
        expect(traced["correct"], f"{workload}: traced checks failed", errors)

        tampered = run(workload, "--trace", "0", "--tamper")
        ratio = tampered["failed"] / tampered["attempted"]
        expect(
            ratio > plain["failed"] / plain["attempted"] and not tampered["correct"],
            f"{workload}: tampering left fail_ratio at {ratio}",
            errors,
        )
        print(f"{workload}: ok" if not errors else f"{workload}: {len(errors)} errors so far", flush=True)
    for message in errors:
        print(f"FAIL {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
