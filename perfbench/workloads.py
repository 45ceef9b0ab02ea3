"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

A workload is built from ``(seed, smoke, workdir)``.  Building it is the
input generation that counts toward ``setup_s``.  ``run()`` is one pass: it
returns the outputs and the seconds each item took.  ``check(outputs)``
returns ``(label, ok)`` pairs, one per check, and ``tamper(outputs)``
corrupts one output so that the self-test can show that the checks bite.
The seed changes the inputs but not the amount of work: it picks random
functions, walk seeds and one of six isomorphic level orders, never sizes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np

from multislice import cli, report
from multislice.coarsening import all_coarsenings, intertwine_audit, spectrum_containment
from multislice.core import Composition
from multislice.spectral import gap_certificate
from multislice.walk import WalkConfig, relaxation_estimate, simulate

#: A walk's pooled decay ratio must lie within this many standard errors of
#: 1 - 2/(N-1); see NOTES.md for why it is 4 and not 3.
WALK_SE_TOLERANCE = 4.0


def compositions(n: int) -> list[tuple[int, ...]]:
    """Every composition of ``n`` into at least two positive parts, sorted.

    There are 2^(n-1) - 1 of them: one per non-empty set of cut points.
    They are generated here, not by the package, so that a package change
    cannot shrink the workload unnoticed.
    """
    out = []
    for cuts in range(1, 2 ** (n - 1)):
        parts, last = [], 0
        for i in range(1, n):
            if cuts >> (i - 1) & 1:
                parts.append(i - last)
                last = i
        parts.append(n - last)
        out.append(tuple(parts))
    return sorted(out)


def sweep(top: int) -> list[Composition]:
    return [Composition(c) for n in range(2, top + 1) for c in compositions(n)]


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _timed(fn, args_list):
    outputs, items = [], []
    for args in args_list:
        t0 = time.perf_counter()
        outputs.append(fn(*args))
        items.append(time.perf_counter() - t0)
    return outputs, items


class GapSweep:
    """``gap_certificate`` on every reduced composition with N <= 6, then on
    one level order of (2,1^5), the largest slice under the dense cap."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        top, big = (4, (2, 1, 1)) if smoke else (6, (2, 1, 1, 1, 1, 1))
        # the level orders of ``big`` are isomorphic graphs: same work, other input
        order = random.Random(seed).sample(range(len(big)), len(big))
        self.inputs = sweep(top) + [Composition(tuple(big[i] for i in order))]

    def run(self):
        return _timed(gap_certificate, [(k,) for k in self.inputs])

    def check(self, outputs):
        for k, cert in zip(self.inputs, outputs, strict=True):
            n, r = k.n, k.r
            yield f"{k}: passed", cert.passed
            yield f"{k}: gap == N", cert.gap == n
            yield (
                f"{k}: nullity bound == family rank == (N-1)(r-1)",
                cert.nullity_upper_bound == cert.family_rank == (n - 1) * (r - 1),
            )

    def tamper(self, outputs):
        outputs[0] = dataclasses.replace(outputs[0], float_ok=False)


class VerifySuite:
    """``multislice verify --sweep N=2..6 --format json`` run in-process."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        top = 4 if smoke else 6
        self.expected = sum(2 ** (n - 1) - 1 for n in range(2, top + 1))
        self.path = workdir / f"verify-{os.getpid()}.json"
        self.argv = [
            "verify", "--sweep", f"N=2..{top}", "--format", "json",
            "-o", str(self.path), "--seed", str(seed), "--jobs", "1",
        ]

    def run(self):
        # one item per composition: time each certification_suite call the CLI makes
        items = []
        suite = cli.certification_suite

        def timed_suite(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return suite(*args, **kwargs)
            finally:
                items.append(time.perf_counter() - t0)

        cli.certification_suite = timed_suite
        try:
            code = cli.main(self.argv)
        finally:
            cli.certification_suite = suite
        return [code], items

    def bytes_written(self) -> int:
        return self.path.stat().st_size

    def check(self, outputs):
        import jsonschema  # the benchmark's checker, not part of the set-up

        yield "exit code 0", outputs[0] == 0
        doc = json.loads(self.path.read_text(encoding="utf-8"))
        self.path.unlink()
        try:
            jsonschema.validate(doc, report.ENVELOPE_SCHEMA)
            valid = True
        except jsonschema.ValidationError:
            valid = False
        yield "envelope matches ENVELOPE_SCHEMA", valid
        summary = doc["results"]["summary"]
        yield f"summary passed == {self.expected}", summary["passed"] == self.expected
        yield "summary failed == 0", summary["failed"] == 0
        for inst in doc["results"]["instances"]:
            yield f"{inst['composition']}: status pass", inst["status"] == "pass"

    def tamper(self, outputs):
        doc = json.loads(self.path.read_text(encoding="utf-8"))
        doc["results"]["instances"][0]["status"] = "fail"
        doc["results"]["summary"]["passed"] -= 1
        doc["results"]["summary"]["failed"] += 1
        self.path.write_text(json.dumps(doc), encoding="utf-8")


class CoarsenAudit:
    """``intertwine_audit`` and ``spectrum_containment`` on every pair that
    ``all_coarsenings`` gives for the reduced compositions with N <= 6."""

    #: Pair counts by largest N, counted independently of the pairs built.
    EXPECTED_PAIRS = {4: 17, 6: 440}

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.top = 4 if smoke else 6
        pairs = [(phi, k) for k in sweep(self.top) for phi in all_coarsenings(k).values()]
        self.inputs = [(phi, k, s) for (phi, k), s in zip(pairs, _seeds(seed, len(pairs)))]

    @staticmethod
    def _audit(phi, k, seed):
        return intertwine_audit(phi, k, seed=seed), spectrum_containment(phi, k)

    def run(self):
        return _timed(self._audit, self.inputs)

    def check(self, outputs):
        yield "pair count", len(outputs) == self.EXPECTED_PAIRS[self.top]
        for (phi, k, _), (audit, cont) in zip(self.inputs, outputs, strict=True):
            label = f"{k} -> {cont.coarse}"
            yield f"{label}: all_exact", audit["all_exact"]
            yield f"{label}: contained", cont.contained
            yield f"{label}: gap_monotone", cont.gap_monotone

    def tamper(self, outputs):
        audit, cont = outputs[0]
        outputs[0] = (audit, dataclasses.replace(cont, contained=False))


class Walk:
    """``simulate`` on (1^8), through the rank table, and on (3,1^7), whose
    table exceeds TABLE_ENTRY_CAP so it walks on tuples: 2e6 steps each,
    as 10 runs of 2e5 steps with independent seeds."""

    COMPOSITIONS = ((1,) * 8, (3,) + (1,) * 7)
    RUNS = 10

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        steps = 50_000 if smoke else 200_000
        seeds = iter(_seeds(seed, self.RUNS * len(self.COMPOSITIONS)))
        self.inputs = [
            (WalkConfig(Composition(c), steps, seed=next(seeds)),)
            for c in self.COMPOSITIONS
            for _ in range(self.RUNS)
        ]

    def run(self):
        return _timed(simulate, self.inputs)

    def check(self, outputs):
        groups: dict[str, list] = {}
        for (cfg,), stats in zip(self.inputs, outputs, strict=True):
            ok = not stats.degenerate and not stats.periodic and stats.ratio_stderr is not None
            yield f"{cfg.composition} seed {cfg.seed}: ratio and stderr", ok
            if ok:
                groups.setdefault(str(cfg.composition), []).append((cfg, stats))
        for name, runs in groups.items():
            n = runs[0][0].composition.n
            ratios, errs = zip(*(relaxation_estimate(stats) for _, stats in runs))
            # equal-length independent runs: pool by the mean, errors in quadrature
            ratio = sum(ratios) / len(ratios)
            stderr = math.sqrt(sum(e * e for e in errs)) / len(errs)
            target = 1.0 - 2.0 / (n - 1)
            yield (
                f"{name}: decay ratio {ratio:.5f} within {WALK_SE_TOLERANCE:g} SE "
                f"({stderr:.5f}) of {target:.5f}",
                abs(ratio - target) <= WALK_SE_TOLERANCE * stderr,
            )

    def tamper(self, outputs):
        for stats in outputs[: self.RUNS]:
            stats.ratio += 0.05


WORKLOADS = {
    "gap-sweep": GapSweep,
    "verify-suite": VerifySuite,
    "coarsen-audit": CoarsenAudit,
    "walk": Walk,
}
