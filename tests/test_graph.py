"""The graph proof: the vertex array and the transposition table are the slice.

Faults are injected into the table or the vertex array that the package reads,
through the names :mod:`multislice.operators` looks them up by.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import numpy as np
import pytest

from multislice import core, operators
from multislice.cli import main
from multislice.core import Composition, reduced_compositions
from multislice.operators import _graph_ok, identity_audit, transposition_table, vertex_array
from multislice.spectral import _at_gap, gap_eigenbasis, induction_audit

SLICE = Composition((2, 1, 1, 1))


def _edgeless(table, varr):
    return np.repeat(np.arange(len(table))[:, None], table.shape[1], axis=1), varr


def _pair_columns_swapped(table, varr):
    out = table.copy()
    out[:, [0, 1]] = table[:, [1, 0]]
    return out, varr


def _rank_off_by_one(table, varr):
    out = table.copy()
    out[0, 0] = (out[0, 0] + 1) % len(out)
    return out, varr


def _duplicated_vertex_row(table, varr):
    out = varr.copy()
    out[1] = varr[0]
    return table, out


def _swap_moves_a_third_position(table, varr):
    # pair 0 swaps positions 0 and 1; this column cycles positions 0, 1 and 2
    out = table.copy()
    out[:, 0] = core._ranks(SLICE.counts, varr[:, [1, 2, 0, *range(3, varr.shape[1])]])
    return out, varr


def _rows_out_of_rank_order(table, varr):
    # the same graph with vertices 0 and 1 relabelled, table and vertex array alike:
    # every swap still lands on its image, only the rank order is wrong
    order = np.arange(len(varr))
    order[[0, 1]] = 1, 0
    return np.argsort(order)[table[order]], varr[order]


FAULTS = {
    "edgeless table": _edgeless,
    "two pair columns swapped": _pair_columns_swapped,
    "one rank off by one": _rank_off_by_one,
    "duplicated vertex row": _duplicated_vertex_row,
    "swap moves a third position": _swap_moves_a_third_position,
    "rows out of rank order": _rows_out_of_rank_order,
}
TABLE_FAULTS = [FAULTS[name] for name in FAULTS if name not in ("duplicated vertex row", "rows out of rank order")]


def inject(patch, k: Composition, fault) -> None:
    """Serve ``fault``'s table and vertex array for ``k``; every other slice is untouched."""
    table, varr = fault(core._swap_table(k.counts), core._vertex_array(k.counts))
    swap_table, vertex_array = operators._swap_table, operators._vertex_array
    patch.setattr(operators, "_swap_table", lambda c: table if c == k.counts else swap_table(c))
    patch.setattr(operators, "_vertex_array", lambda c: varr if c == k.counts else vertex_array(c))


class TestGraphProof:
    def test_true_slices_pass(self):
        slices = [k for n in range(1, 7) for k in reduced_compositions(n, min_levels=1)]
        slices += [Composition(c) for c in [(2, 0, 2), (0, 1, 1), (1, 0, 0, 2), (3,)]]
        for k in slices:
            assert _graph_ok(k, transposition_table(k)), k

    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_fault_fails_the_proof(self, monkeypatch, fault):
        inject(monkeypatch, SLICE, fault)
        assert not _graph_ok(SLICE, transposition_table(SLICE))

    def test_rows_of_another_slice_fail(self, monkeypatch):
        # every level raised by one: distinct rows in increasing order, and
        # the table still swaps them, but no row is a vertex of the slice
        inject(monkeypatch, SLICE, lambda table, varr: (table, varr + 1))
        assert not _graph_ok(SLICE, transposition_table(SLICE))

    def test_a_replaced_table_is_proved_again(self, monkeypatch):
        assert _graph_ok(SLICE, transposition_table(SLICE))  # memoized for the true arrays
        with monkeypatch.context() as patch:
            inject(patch, SLICE, _edgeless)
            assert not _graph_ok(SLICE, transposition_table(SLICE))
        assert _graph_ok(SLICE, transposition_table(SLICE))

    def test_out_of_range_entries_fail_without_an_index_error(self, monkeypatch):
        for bad in (-1, SLICE.cardinality()):
            def fault(table, varr, bad=bad):
                out = table.copy()
                out[-1, -1] = bad
                return out, varr

            with monkeypatch.context() as patch:
                inject(patch, SLICE, fault)
                assert not _graph_ok(SLICE, transposition_table(SLICE)), bad

    def test_every_fault_the_sampled_audit_kills_fails_the_proof(self, monkeypatch, fresh_bounds):
        # the five named table faults, and random pair-column shuffles and
        # single-entry corruptions on every reduced slice with 3 <= N <= 5
        rng = random.Random(3)

        def shuffled(table, varr):
            return table[:, rng.sample(range(table.shape[1]), table.shape[1])], varr

        def corrupted(table, varr):
            out = table.copy()
            v, p = rng.randrange(len(out)), rng.randrange(out.shape[1])
            out[v, p] = (out[v, p] + rng.randrange(1, len(out))) % len(out)
            return out, varr

        cases = [(SLICE, fault) for fault in TABLE_FAULTS]
        cases += [(k, f) for n in range(3, 6) for k in reduced_compositions(n) for f in (shuffled, corrupted)]
        killed = 0
        for k, fault in cases:
            with monkeypatch.context() as patch:
                inject(patch, k, fault)
                audit = identity_audit(k, n_functions=20, seed=1)
                proof = _graph_ok(k, transposition_table(k))
            if min(audit[key] for key in ("averaging_ok", "shift_ok", "decomposition_ok")) < 20:
                killed += 1
                assert not proof, (k, fault.__name__)
            assert audit["graph_ok"] is proof
        assert killed >= len(cases) // 2  # the catalogue exercises the implication


def test_induction_needs_the_proof_on_the_sorted_slice(monkeypatch, fresh_bounds):
    # a child's upper bound reads the table of its sorted counts, (1,1,2) for
    # the child (2,1,1); relabelled there, its eigen equation still holds, but
    # it is unproved
    inject(monkeypatch, Composition((1, 1, 2)), _rows_out_of_rank_order)
    rep = induction_audit(SLICE)
    assert not rep.holds and not rep.equality


def test_induction_reads_the_slice_s_own_table(monkeypatch, fresh_bounds):
    # the slice's own upper bound reads its own table, not that of its sorted counts (1,1,1,2)
    with monkeypatch.context() as patch:
        inject(patch, SLICE, _rows_out_of_rank_order)
        rep = induction_audit(SLICE)
        assert not rep.holds and not rep.equality and math.isnan(rep.delta)
    inject(monkeypatch, Composition((1, 1, 1, 2)), _edgeless)
    assert induction_audit(SLICE).equality


class TestVerify:
    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_fault_fails_verify_and_names_graph(self, monkeypatch, tmp_path, fresh_bounds, fault):
        inject(monkeypatch, SLICE, fault)
        out = tmp_path / "verify.json"
        code = main(["verify", "-k", "2,1,1,1", "--format", "json", "-o", str(out)])
        doc = json.loads(out.read_text())
        failed = [c["name"] for c in doc["certificates"] if c["passed"] is False]
        assert code == 1 and doc["results"]["instances"][0]["status"] == "fail"
        assert {"graph", "gap-and-eigenbasis", "identities"} <= set(failed)

    def test_graph_comes_first_and_identities_rest_on_it(self, capsys):
        code = main(["verify", "-k", "2,1,1", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        certs = doc["certificates"]
        assert code == 0 and certs[0]["name"] == "graph" and certs[0]["passed"] is True
        (identities,) = [c for c in certs if c["name"] == "identities"]
        assert identities["passed"] is True
        assert set(identities["details"]) == {
            "composition", "graph_ok", "measure_decomposition_ok", "applicable"
        }
        assert identities["details"]["graph_ok"] is True

    def test_verify_never_runs_the_sampled_audit(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("verify ran identity_audit")

        monkeypatch.setattr(operators, "identity_audit", refuse)
        monkeypatch.setattr(operators, "_identity_verdicts", refuse)
        assert main(["verify", "--sweep", "N=2..5", "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)["results"]["summary"]
        assert summary["failed"] == 0 and summary["passed"] == summary["instances"]

    def test_seed_is_accepted_and_functions_refused(self, capsys):
        assert main(["verify", "-k", "2,1", "--seed", "5", "--format", "json"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["verify", "-k", "2,1", "--functions", "3"])
        assert err.value.code == 2


def test_at_gap_reads_only_the_moving_columns():
    # a column avoiding pos 0 made edgeless changes nothing for f(x) = g(x_0);
    # the column of pair (0, 1) made edgeless breaks the eigen equation, and
    # so does one entry of the member moved by 1
    k = Composition((2, 2, 1))
    member = np.take(gap_eigenbasis(k).scaled_generators()[0], vertex_array(k)[:, 0])
    pairs = list(itertools.combinations(range(k.n), 2))
    table = transposition_table(k)
    assert _at_gap(table, member, 0, k.n)
    for pair, holds in [((1, 2), True), ((0, 1), False)]:
        broken = table.copy()
        broken[:, pairs.index(pair)] = np.arange(len(table))
        assert _at_gap(broken, member, 0, k.n) is holds, pair
    moved = member.copy()
    moved[len(moved) // 2] += 1
    assert not _at_gap(table, moved, 0, k.n)
