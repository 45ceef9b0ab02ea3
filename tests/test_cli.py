"""Command-line interface: envelopes, exit codes, exports."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import time
from fractions import Fraction
from typing import Any

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from multislice import cli, core, operators, spectral
from multislice.cli import main
from multislice.report import ENVELOPE_SCHEMA, to_jsonable
from test_graph import FAULTS, SLICE, inject


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestInfo:
    def test_text(self, capsys):
        code, out = run(capsys, "info", "-k", "2,1,1")
        assert code == 0
        assert "12 vertices" in out and "degree 5" in out

    def test_json(self, capsys):
        code, doc = run_json(capsys, "info", "-k", "2,1,1", "--format", "json")
        assert code == 0
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        assert doc["results"]["cardinality"] == 12
        assert doc["results"]["degree"] == 5

    def test_trivial(self, capsys):
        code, doc = run_json(capsys, "info", "-k", "4", "--format", "json")
        assert code == 0
        assert doc["results"]["trivial"] is True
        assert doc["results"]["cardinality"] == 1

    def test_two_levels(self, capsys):
        code, doc = run_json(capsys, "info", "-k", "1,1", "--format", "json")
        assert code == 0
        assert doc["results"]["cardinality"] == 2
        assert doc["results"]["degree"] == 1

    def test_bad_composition(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["info", "-k", "2,x"])
        assert err.value.code == 2


class TestSpectrum:
    def test_json_multiset(self, capsys):
        code, doc = run_json(capsys, "spectrum", "-k", "2,2", "--format", "json")
        assert code == 0
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        pairs = [tuple(p) for p in doc["results"]["spectrum"]["eigenvalues"]]
        assert pairs == [(0.0, 1), (4.0, 3), (6.0, 2)]

    def test_csv(self, capsys):
        code, out = run(capsys, "spectrum", "-k", "1,1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "eigenvalue,multiplicity"

    def test_young_rule_answers_large_slices(self, capsys):
        start = time.perf_counter()
        code, doc = run_json(capsys, "spectrum", "-k", "10,10,10", "--format", "json")
        assert time.perf_counter() - start < 1.0
        spec = doc["results"]["spectrum"]
        assert code == 0 and spec["source"] == "young-rule" and spec["arithmetic"] == "exact"
        assert len(spec["eigenvalues"]) == 63 and spec["eigenvalues"][1] == [30, 58]
        assert sum(m for _, m in spec["eigenvalues"]) == 5550996791340
        assert all(isinstance(v, int) for v, _ in spec["eigenvalues"])
        assert "tolerance" not in spec

    def test_budget_bounds_the_shapes(self, capsys):
        assert main(["spectrum", "-k", "10,10,10", "--budget", "100"]) == 1

    def test_exact_mode_refuses_before_building_the_matrix(self, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("built a dense Laplacian over the elimination cap")

        monkeypatch.setattr(cli, "laplacian_dense", no_build)
        assert main(["spectrum", "-k", "2,2,2,2,2", "--exact"]) == 2  # 113,400 vertices

    def test_exact_mode_certifies_multiplicities(self, capsys):
        code, doc = run_json(capsys, "spectrum", "-k", "2,2", "--exact", "--format", "json")
        assert code == 0
        certs = {c["name"]: c for c in doc["certificates"]}
        assert certs["multiplicity[4]"]["passed"] is True
        assert certs["multiplicity[4]"]["details"]["exact_multiplicity"] == 3
        assert certs["multiplicity[0]"]["passed"] is True
        assert certs["multiplicity[6]"]["passed"] is True


class TestVerify:
    def test_single_composition(self, capsys):
        code, doc = run_json(capsys, "verify", "-k", "1,1,1")
        assert code == 0
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        (instance,) = doc["results"]["instances"]
        assert instance["status"] == "pass"
        assert instance["delta"] == 3.0

    def test_trivial_skipped(self, capsys):
        code, doc = run_json(capsys, "verify", "-k", "3")
        assert code == 0
        (instance,) = doc["results"]["instances"]
        assert instance["status"] == "trivial-skipped"

    def test_sweep(self, capsys):
        code, doc = run_json(capsys, "verify", "--sweep", "N=2..4")
        assert code == 0
        summary = doc["results"]["summary"]
        assert summary["instances"] == 1 + 3 + 7
        assert summary["failed"] == 0
        assert summary["passed"] == summary["instances"]

    def test_budget_exceeded_does_not_abort_sweep(self, capsys):
        code, doc = run_json(
            capsys, "verify", "--sweep", "N=4..4", "--budget", "5"
        )
        assert code == 0  # nothing failed; oversized instances are reported
        statuses = {d["composition"]: d["status"] for d in doc["results"]["instances"]}
        assert statuses["2,2"] == "budget-exceeded"
        assert statuses["3,1"] == "pass"

    def test_table_entry_cap_reports_budget_exceeded(self, capsys, monkeypatch):
        # (5,5,5) is within the vertex budget, but its transposition table is not
        def no_build(*args, **kwargs):
            raise AssertionError("built a table or counted G above the table entry cap")

        for module in (core, operators):  # operators holds its own binding of core's builder
            monkeypatch.setattr(module, "_vertex_array", no_build)
        monkeypatch.setattr(spectral, "_cooccurrence", no_build)
        monkeypatch.setattr(spectral, "_count_pairs", no_build)
        code, doc = run_json(capsys, "verify", "-k", "5,5,5", "--format", "json")
        (inst,) = doc["results"]["instances"]
        assert code == 0 and inst["status"] == "budget-exceeded"
        assert "entries" in inst["reason"]

    def test_sweep_output_is_pinned(self, tmp_path):
        # sha256 of `verify --sweep N=2..5`: the JSON with its "seconds" masked, and the text
        digests = {}
        for fmt in ("json", "text"):
            out = tmp_path / f"sweep.{fmt}"
            assert main(["verify", "--sweep", "N=2..5", "--format", fmt, "-o", str(out)]) == 0
            text = re.sub(r'"seconds": [^,}\n]*', '"seconds": 0', out.read_text(encoding="utf-8"))
            digests[fmt] = hashlib.sha256(text.encode()).hexdigest()
        assert digests == {
            "json": "0552d2276f20b74d21d87a09a3d76be98134129dbc2367645f6482e32b59dd75",
            "text": "0707842b32c508da0be0fac3ec324782e2769454f841fb27f6680d4950ea8312",
        }

    def test_unsorted_slice_builds_no_table_of_its_sorted_counts(self, capsys, monkeypatch, fresh_bounds):
        # the witness of (2,2,1) reads the slice's own table; its children are (1,1,2) and (2,2)
        def refuse(build):
            def guarded(counts):
                if counts == (1, 2, 2):
                    raise AssertionError("built a table or a vertex array of (1,2,2)")
                return build(counts)

            return guarded

        for module in (core, operators):  # operators holds its own binding of core's builders
            monkeypatch.setattr(module, "_vertex_array", refuse(module._vertex_array))
            monkeypatch.setattr(module, "_swap_table", refuse(module._swap_table))
        code, doc = run_json(capsys, "verify", "-k", "2,2,1", "--format", "json")
        assert code == 0 and doc["results"]["instances"][0]["status"] == "pass"

    @pytest.mark.parametrize("counts", [(5, 5, 4), (4, 5, 5)], ids=str)
    def test_large_slice_builds_one_table(self, capsys, monkeypatch, fresh_bounds, counts):
        # the witnesses of the slice and of every child read the slice's own
        # table; fresh builders, so no array outlives the test
        built = []
        vertex_array = functools.lru_cache(core._vertex_array.__wrapped__)
        for module in (core, operators):  # operators holds its own binding of core's builders
            monkeypatch.setattr(module, "_vertex_array", vertex_array)
        monkeypatch.setattr(operators, "_swap_table", lambda c: built.append(c) or core._swap_table.__wrapped__(c))
        code, doc = run_json(capsys, "verify", "-k", ",".join(map(str, counts)), "--format", "json")
        assert code == 0 and doc["results"]["instances"][0]["status"] == "pass"
        assert built == [counts]

    def test_bad_sweep_spec(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--sweep", "2..4"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [(100000, 64, 4), (3, 64, 3), (100000, 2, 2), (100000, 1, None), (1, 64, None)],
    )
    def test_pool_has_at_most_one_worker_per_slice_and_cpu(self, capsys, monkeypatch, jobs, cpus, workers):
        # a pool that starts no process records the worker count it was given
        import concurrent.futures

        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        code, doc = run_json(capsys, "verify", "--sweep", "N=2..3", "--jobs", str(jobs))
        assert code == 0 and doc["results"]["summary"]["passed"] == 4
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_are_refused(self, capsys, jobs):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--sweep", "N=2..3", "--jobs", jobs])
        assert err.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err

    def test_deterministic_results(self, capsys):
        code1, doc1 = run_json(capsys, "verify", "-k", "2,1", "--seed", "3")
        code2, doc2 = run_json(capsys, "verify", "-k", "2,1", "--seed", "4")
        assert code1 == code2 == 0
        assert doc1["results"] == doc2["results"]
        assert doc1["certificates"] == doc2["certificates"]


class Label(str):
    """A str subclass: the report keeps it as it is."""


@dataclasses.dataclass(frozen=True)
class Pair:
    first: Any
    second: Any


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.builds(Label, st.text(max_size=3)),
    st.fractions(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.sampled_from([np.float64("nan"), np.float64("inf"), np.float64("-inf"), float("-inf")]),
    st.lists(st.integers(-9, 9), max_size=3).map(np.array),
    st.sets(st.one_of(st.integers(), st.text(max_size=2)), max_size=3),
)
_KEYS = st.one_of(
    st.text(max_size=3), st.builds(Label, st.text(max_size=3)), st.integers(), st.booleans(),
    st.none(), st.fractions(), st.tuples(st.integers()),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=24,
)


def _typed(value):
    """``value`` with the type of every leaf and key beside it: True is not 1, a Label is not a str."""
    if type(value) is dict:
        return "dict", [(_typed(key), _typed(v)) for key, v in value.items()]
    if type(value) is list:
        return "list", [_typed(v) for v in value]
    return type(value), value


class TestReport:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    @example([True, 1, 1.0, np.True_, np.int64(1), Fraction(1)])
    @example({True: [np.float64("nan"), np.float64("inf")], 2: (Label("a"), {3, 4}), None: Pair(1, -0.0)})
    def test_fast_path_matches_the_isinstance_chain(self, value):
        assert _typed(to_jsonable(value)) == _typed(oracles.to_jsonable(value))


class TestCoarsen:
    def test_pass(self, capsys):
        code, doc = run_json(capsys, "coarsen", "--from", "1,1,1", "--to", "2,1")
        assert code == 0
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        assert all(c["passed"] for c in doc["certificates"])
        assert doc["results"]["witness"]["table"] is not None
        assert doc["results"]["containment"]["max_mismatch"] == 0.0  # by proof
        assert "functions" not in doc["certificates"][0]["details"]  # nothing is sampled

    def test_no_witness(self, capsys):
        code, doc = run_json(capsys, "coarsen", "--from", "2,2", "--to", "3,1")
        assert code == 1
        assert doc["results"]["witness"] is None

    def test_budget_refuses_before_the_search(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched for a witness above the budget")

        monkeypatch.setattr(cli, "is_coarser", no_search)
        assert main(["coarsen", "--from", "1,1,1,1", "--to", "2,2", "--budget", "23"]) == 1


class TestWalk:
    def test_json_summary(self, capsys):
        code, doc = run_json(
            capsys, "walk", "-k", "2,2,2", "--steps", "2e4", "--seed", "7", "--format", "json"
        )
        assert code == 0
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        relax = doc["results"]["relaxation"]
        assert relax["target"] == pytest.approx(0.6)
        assert abs(relax["ratio"] - 0.6) < 0.05

    def test_json_has_no_bare_nan(self, capsys):
        # lags past a 10-step trajectory and missing standard errors are null, not NaN
        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        code, out = run(capsys, "walk", "-k", "2,2", "--steps", "10", "--lags", "20", "--format", "json")
        assert code == 0
        results = json.loads(out, parse_constant=refuse)["results"]
        assert results["autocorr"][10:] == [None] * 10
        assert None in results["autocorr_stderr"]

    def test_csv(self, capsys):
        code, out = run(capsys, "walk", "-k", "2,1", "--steps", "1000", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lag,autocorrelation,stderr"
        assert len(lines) == 13

    def test_steps_in_e_notation(self, capsys):
        code, doc = run_json(capsys, "walk", "-k", "2,1", "--steps", "2e3")
        assert code == 0 and doc["config"]["steps"] == 2000

    @pytest.mark.parametrize("steps", ["inf", "nan", "1e400", "2.5"])
    def test_steps_that_are_no_whole_number_are_refused(self, capsys, steps):
        assert main(["walk", "-k", "2,1", "--steps", steps]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: --steps '{steps}'")


class TestExport:
    def test_edgelist_default(self, capsys):
        code, out = run(capsys, "export", "-k", "1,1")
        assert code == 0
        assert out.strip() == "0 1"

    def test_dot(self, capsys):
        code, out = run(capsys, "export", "-k", "1,1", "--format", "dot")
        assert code == 0
        assert out.startswith("graph") and "0 -- 1;" in out

    def test_coo(self, capsys):
        code, out = run(capsys, "export", "-k", "1,1", "--format", "coo")
        assert code == 0
        assert out.splitlines() == ["0 0 1", "0 1 -1", "1 0 -1", "1 1 1"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "edges.txt"
        code = main(["export", "-k", "2,1", "-o", str(target)])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 3  # triangle


def _nullity_off_by_one(monkeypatch):
    nullity = cli.exact_nullity
    monkeypatch.setattr(cli, "exact_nullity", lambda dense, shift: nullity(dense, shift=shift) + 1)


def _edgeless_table(monkeypatch):
    inject(monkeypatch, SLICE, FAULTS["edgeless table"])


@pytest.mark.parametrize(
    "argv, fault, code, envelope, marker",
    [
        (["spectrum", "-k", "2,2,1", "--exact", "--format", "text"], _nullity_off_by_one, 1, False, "spectrum of"),
        (["spectrum", "-k", "2,2,1", "--exact", "--format", "json"], _nullity_off_by_one, 1, True, "multiplicity["),
        (["verify", "-k", "2,1,1,1", "--format", "text"], _edgeless_table, 1, False, "2,1,1,1: fail"),
        (["coarsen", "--from", "2,1", "--to", "1,1,1"], None, 1, True, "coarsening-witness"),
        (["walk", "-k", "2,1", "--steps", "1e3", "--format", "csv"], None, 0, False, "lag,autocorrelation"),
        (["export", "-k", "2,1", "--format", "coo"], None, 0, False, "0 0 2"),
    ],
    ids=["spectrum-text", "spectrum-json", "verify-text", "coarsen", "walk-csv", "export-coo"],
)
def test_exit_code_is_one_when_a_certificate_failed(
    capsys, monkeypatch, fresh_bounds, argv, fault, code, envelope, marker
):
    # one rule for every command and format: 1 when any certificate has passed
    # False, else 0, whether the envelope is written or not
    if fault:
        fault(monkeypatch)
    assert main(argv) == code
    out = capsys.readouterr().out
    assert marker in out
    if envelope:
        doc = json.loads(out)
        jsonschema.validate(doc, ENVELOPE_SCHEMA)
        assert any(c["passed"] is False for c in doc["certificates"]) == (code == 1)
    else:
        assert '"timing"' not in out and not out.startswith("{")


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "-k", "2,1", "--format", "csv"],
        ["spectrum", "-k", "2,1", "--format", "dot"],
        ["verify", "-k", "2,1", "--format", "csv"],
        ["coarsen", "--from", "1,1,1", "--to", "2,1", "--format", "text"],
        ["walk", "-k", "2,1", "--format", "text"],
        ["export", "-k", "2,1", "--format", "text"],
    ],
    ids=lambda argv: argv[0],
)
def test_formats_a_command_does_not_write_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestFloatFlags:
    """No command takes --tolerance or --dense-cap: none runs a float eigensolve."""

    @pytest.mark.parametrize("flag", [("--tolerance", "1e-3"), ("--dense-cap", "5")])
    @pytest.mark.parametrize("command", ["info", "verify", "walk", "export"])
    def test_refused_where_nothing_reads_them(self, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, "-k", "2,1", *flag])
        assert err.value.code == 2

    def test_spectrum_refuses_them(self, capsys):
        # the spectrum comes from Young's rule in integers: no tolerance, no cap, no float mode
        for flag in [("--tolerance", "1e-6"), ("--dense-cap", "6"), ("--float",)]:
            with pytest.raises(SystemExit) as err:
                main(["spectrum", "-k", "2,2", *flag])
            assert err.value.code == 2, flag

    @pytest.mark.parametrize(
        "flag",
        [("--tolerance", "1e-3"), ("--dense-cap", "5"), ("--functions", "3"), ("--seed", "1")],
        ids=["tolerance", "dense-cap", "functions", "seed"],
    )
    def test_coarsen_refuses_them(self, capsys, flag):
        # coarsening is proved by one integer comparison: no eigensolve, no sampled functions
        with pytest.raises(SystemExit) as err:
            main(["coarsen", "--from", "1,1,1", "--to", "2,1", *flag])
        assert err.value.code == 2
