"""Command-line front end.

One command per invocation:

    multislice info -k 2,1,1
    multislice spectrum -k 2,2 --format json
    multislice verify --sweep N=2..6
    multislice coarsen --from 1,1,1 --to 2,1
    multislice walk -k 2,2,2 --steps 1e6 --seed 7
    multislice export -k 2,1 --format edgelist

One runner, :func:`main`, times each command and writes the text it returns,
or else the JSON envelope {command, config, results, certificates, timing}.
Exit code 0 means every requested certificate passed, 1 that one failed or
that the vertex budget refused the input, 2 a usage error.  ``verify`` records
a refused slice as ``budget-exceeded`` and exits 0 unless a certificate failed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import time
from collections import Counter

from . import report
from .coarsening import intertwine_audit, is_coarser, spectrum_containment
from .core import (
    DEFAULT_BUDGET,
    BudgetError,
    Composition,
    check_budget,
    reduced_compositions,
    to_dot,
    write_edge_list,
)
from .exactla import BAREISS_CAP, exact_nullity
from .operators import laplacian, laplacian_dense, write_coo
from .spectral import certification_suite, laplacian_spectrum
from .walk import WalkConfig, relaxation_estimate, simulate

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...], composition: bool = True) -> None:
    """The shared options; ``--format`` takes only the ``formats`` the command writes,
    the first by default."""
    if composition:
        parser.add_argument("-k", "--composition", help="comma-separated counts, e.g. 2,1,1")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("-o", "--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=formats, default=formats[0], help="output format")


def positive_int(text: str) -> int:
    """A worker count: a whole number, at least 1."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multislice",
        description="Multislice graphs: enumeration, spectra, certificates, walks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_info = sub.add_parser("info", help="cardinality, degree, and status of a slice")
    _add_common(p_info, ("text", "json"))

    p_spec = sub.add_parser("spectrum", help="Laplacian spectrum with multiplicities")
    _add_common(p_spec, ("json", "csv", "text"))
    p_spec.add_argument(
        "--exact",
        action="store_true",
        help="also check each multiplicity by exact nullity of the dense Laplacian",
    )

    p_verify = sub.add_parser("verify", help="run the full certification suite")
    _add_common(p_verify, ("json", "text"))
    p_verify.add_argument("--sweep", help="certify all reduced compositions, e.g. N=2..6")
    p_verify.add_argument(
        "--seed", type=int, default=0, help="accepted and ignored: verify samples nothing"
    )
    p_verify.add_argument(
        "--jobs", type=positive_int, default=1, help="parallel workers for sweeps (at least 1)"
    )

    p_coarsen = sub.add_parser("coarsen", help="audit a coarsening pair")
    _add_common(p_coarsen, ("json",), composition=False)
    p_coarsen.add_argument("--from", dest="fine", required=True, help="fine composition")
    p_coarsen.add_argument("--to", dest="coarse", required=True, help="coarse composition")

    p_walk = sub.add_parser("walk", help="random transposition walk statistics")
    _add_common(p_walk, ("json", "csv"))
    p_walk.add_argument("--steps", default="1e6", help="step count (accepts 1e6 notation)")
    p_walk.add_argument("--seed", type=int, default=0)
    p_walk.add_argument("--burn-in", type=int, default=0, help="initial steps the statistics skip")
    p_walk.add_argument("--thin", type=int, default=1, help="occupation counts keep every THIN-th state")
    p_walk.add_argument("--lags", type=int, default=12, help="autocorrelation lags 1..LAGS")
    p_walk.add_argument(
        "--dump-trajectory",
        action="store_true",
        help="include the raw visited-rank sequence in the report (size-capped)",
    )

    p_export = sub.add_parser("export", help="graph and matrix exports")
    _add_common(p_export, ("edgelist", "dot", "coo", "json"))

    return parser


def _parse_composition(text: str | None) -> Composition:
    if not text:
        print("error: missing -k/--composition", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return Composition.parse(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_steps(text: str) -> int:
    """A whole step count, written plainly or in ``1e6`` notation; anything else is a ValueError."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():  # a fraction, inf, nan or no number at all
        raise ValueError(f"--steps {text!r} is not a whole number")
    return int(value)


def cmd_info(args):
    k = _parse_composition(args.composition)
    reduced, mapping = k.reduce()
    results = {
        "composition": str(k),
        "cardinality": k.cardinality(),
        "degree": k.degree(),
        "trivial": k.is_trivial,
        "reduced": k.is_reduced,
        "reduction": {"composition": str(reduced), "level_map": mapping},
        "particles": k.n,
        "levels": k.r,
        "active_levels": k.r_active,
    }
    text = None
    if args.format == "text":
        text = "\n".join([
            f"composition {k}: {k.cardinality()} vertices, degree {k.degree()}",
            f"particles N={k.n}, levels r={k.r} (active {k.r_active})",
            f"trivial: {k.is_trivial}, reduced: {k.is_reduced}"
            + ("" if k.is_reduced else f" (reduces to {reduced})"),
        ])
    return {"composition": str(k)}, results, [], text


def cmd_spectrum(args):
    k = _parse_composition(args.composition)
    spec = laplacian_spectrum(k, args.budget)
    results = {
        "composition": str(k),
        "cardinality": k.cardinality(),
        "degree": k.degree(),
        "spectrum": spec.as_dict(),
    }
    certificates = []
    if args.exact:
        if k.cardinality() > BAREISS_CAP:  # refused before a |V| x |V| matrix is built
            raise ValueError(
                f"--exact: {k} has {k.cardinality()} vertices, over the elimination cap {BAREISS_CAP}"
            )
        dense = laplacian_dense(k, args.budget)
        for value, mult in spec.pairs:
            exact_mult = exact_nullity(dense, shift=value)
            certificates.append(
                {"name": f"multiplicity[{value}]",
                 "passed": exact_mult == mult,
                 "details": {"formula_multiplicity": mult, "exact_multiplicity": exact_mult}}
            )
    text = None
    if args.format == "csv":
        text = report.csv_lines(("eigenvalue", "multiplicity"), spec.pairs)
    elif args.format == "text":
        text = f"spectrum of {k}: " + ", ".join(f"{v} (x{m})" for v, m in spec.pairs)
    return {"composition": str(k), "exact": args.exact}, results, certificates, text


def _sweep_compositions(spec_text: str) -> list[Composition]:
    match = re.fullmatch(r"N=(\d+)(?:\.\.(\d+))?", spec_text.strip())
    if not match:
        print(f"error: bad sweep range {spec_text!r}; use N=2..6", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    lo = int(match.group(1))
    hi = int(match.group(2) or match.group(1))
    out: list[Composition] = []
    for n in range(lo, hi + 1):
        out.extend(sorted(reduced_compositions(n), key=lambda c: c.counts))
    return out


def _verify_one(payload) -> dict:
    counts, budget = payload
    k = Composition(counts)
    try:
        rep = certification_suite(k, budget=budget)
        doc = rep.as_dict()
        doc["status"] = "trivial-skipped" if rep.trivial else ("pass" if rep.passed else "fail")
        return doc
    except BudgetError as exc:
        return {"composition": str(k), "status": "budget-exceeded", "reason": str(exc)}


def cmd_verify(args):
    comps = _sweep_compositions(args.sweep) if args.sweep else [_parse_composition(args.composition)]
    payloads = [(k.counts, args.budget) for k in comps]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(args.jobs, len(payloads), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so other starts do not import it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, payloads))
    else:
        results = [_verify_one(p) for p in payloads]

    certificates = [
        {"composition": doc["composition"], **cert} for doc in results for cert in doc.get("certificates", [])
    ]
    statuses = Counter(doc["status"] for doc in results)
    summary = {
        "instances": len(results),
        "passed": statuses["pass"],
        "failed": statuses["fail"],
        "skipped_trivial": statuses["trivial-skipped"],
        "budget_exceeded": statuses["budget-exceeded"],
    }
    text = None
    if args.format == "text":
        lines = [
            f"{doc['composition']}: {doc['status']}"
            + ("" if doc.get("gap") is None else f" gap={doc['gap']:g} delta={doc['delta']:g}")
            for doc in results
        ]
        text = "\n".join([*lines, f"summary: {summary}"])
    config = {"sweep": args.sweep, "compositions": [str(k) for k in comps]}
    return config, {"summary": summary, "instances": results}, certificates, text


def cmd_coarsen(args):
    fine = Composition.parse(args.fine)
    coarse = Composition.parse(args.coarse)
    check_budget(fine, args.budget)  # |V| >= s! for s occupied levels bounds the search
    config = {"from": str(fine), "to": str(coarse)}
    phi = is_coarser(coarse, fine)
    if phi is None:
        results = {"witness": None, "reason": "no surjection merges the counts"}
        return config, results, [{"name": "coarsening-witness", "passed": False}], None
    audit = intertwine_audit(phi, fine, budget=args.budget)
    containment = spectrum_containment(phi, fine, budget=args.budget)
    certs = [
        {"name": "intertwining", "passed": audit["all_exact"], "details": audit},
        {"name": "spectrum-containment", "passed": containment.contained and containment.gap_monotone,
         "details": containment.as_dict()},
    ]
    results = {"witness": json.loads(phi.to_json()), "containment": containment.as_dict()}
    return config, results, certs, None


def cmd_walk(args):
    k = _parse_composition(args.composition)
    steps = _parse_steps(args.steps)
    cfg = WalkConfig(
        composition=k,
        steps=steps,
        seed=args.seed,
        burn_in=args.burn_in,
        thin=args.thin,
        lags=args.lags,
        dump_trajectory=args.dump_trajectory,
    )
    stats = simulate(cfg, budget=args.budget)
    config = {"composition": str(k), "steps": steps, "seed": args.seed, "thin": args.thin}
    if args.format == "csv":
        return config, None, [], report.csv_lines(("lag", "autocorrelation", "stderr"), stats.csv_rows())
    results = stats.as_dict()
    if not stats.degenerate:
        ratio, stderr = relaxation_estimate(stats)
        results["relaxation"] = {
            "ratio": ratio, "stderr": stderr, "target": 1.0 - 2.0 / (k.n - 1), "periodic": stats.periodic
        }
    return config, results, [], None


def cmd_export(args):
    k = _parse_composition(args.composition)
    config = {"composition": str(k)}
    if args.format == "json":
        return config, {"composition": json.loads(k.to_json())}, [], None
    if args.format == "dot":
        return config, None, [], to_dot(k, args.budget)
    buf = io.StringIO()
    if args.format == "edgelist":
        write_edge_list(k, buf, args.budget)
    else:
        write_coo(laplacian(k, args.budget), buf)
    return config, None, [], buf.getvalue()


COMMANDS = {
    "info": cmd_info, "spectrum": cmd_spectrum, "verify": cmd_verify,
    "coarsen": cmd_coarsen, "walk": cmd_walk, "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    clock = time.perf_counter
    t0 = clock()
    try:
        config, results, certificates, text = COMMANDS[args.cmd](args)
        if text is None:
            doc = report.envelope(args.cmd, config, results, certificates, clock() - t0)
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text if text.endswith("\n") else text + "\n")
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_FAILED if any(c["passed"] is False for c in certificates) else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
