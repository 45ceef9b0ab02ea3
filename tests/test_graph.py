"""The graph proof: the vertex array and the transposition table are the slice.

Faults are injected into the table or the vertex array that the package reads,
through the names :mod:`multislice.operators` looks them up by.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest

from multislice import core, operators, spectral
from multislice.cli import main
from multislice.core import Composition, reduced_compositions
from multislice.operators import _graph_ok, identity_audit, transposition_table, vertex_array
from multislice.spectral import CertifiedSlice, _at_gap, _scaled_generators, induction_audit

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


def proof(k: Composition) -> bool:
    """The graph proof of the vertex array and the table that the package reads for ``k``."""
    return _graph_ok(k, vertex_array(k), transposition_table(k))


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
            assert proof(k), k

    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_fault_fails_the_proof(self, monkeypatch, fresh_bounds, fault):
        inject(monkeypatch, SLICE, fault)
        assert not proof(SLICE)

    def test_rows_of_another_slice_fail(self, monkeypatch, fresh_bounds):
        # every level raised by one: distinct rows in increasing order, and
        # the table still swaps them, but no row is a vertex of the slice
        inject(monkeypatch, SLICE, lambda table, varr: (table, varr + 1))
        assert not proof(SLICE)

    def test_the_memoized_slice_keeps_the_arrays_it_proved(self, monkeypatch, fresh_bounds):
        sl = CertifiedSlice.build(SLICE)
        assert sl.graph_ok and sl.table is transposition_table(SLICE) and sl.varr is vertex_array(SLICE)
        with monkeypatch.context() as patch:
            inject(patch, SLICE, _edgeless)
            # the memo serves the slice it proved: the true arrays with their verdict
            assert CertifiedSlice.build(SLICE) is sl and sl.graph_ok and sl.table is not transposition_table(SLICE)
            core._MEMO.clear()
            faulty = CertifiedSlice.build(SLICE)  # built again: the replaced table with its own verdict
            assert faulty.table is transposition_table(SLICE) and not faulty.graph_ok
        core._MEMO.clear()
        assert CertifiedSlice.build(SLICE).graph_ok

    def test_witnesses_fail_unread_on_a_table_longer_than_the_vertex_array(self, fresh_bounds):
        # one more table row, fixed by every swap, points past the vertex array; proven or not, no verdict holds
        sl = CertifiedSlice.build(SLICE)
        assert sl.witnesses[0] and sl.witnesses[1].all()
        table = np.vstack([sl.table, np.full(sl.table.shape[1], len(sl.table))])
        for graph_ok in (True, False):
            top, children = dataclasses.replace(sl, table=table, graph_ok=graph_ok).witnesses
            assert not top and not children.any(), graph_ok

    def test_out_of_range_entries_fail_without_an_index_error(self, monkeypatch):
        for bad in (-1, SLICE.cardinality()):
            def fault(table, varr, bad=bad):
                out = table.copy()
                out[-1, -1] = bad
                return out, varr

            with monkeypatch.context() as patch:
                inject(patch, SLICE, fault)
                assert not proof(SLICE), bad

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
                proved = proof(k)
            if min(audit[key] for key in ("averaging_ok", "shift_ok", "decomposition_ok")) < 20:
                killed += 1
                assert not proved, (k, fault.__name__)
            assert audit["graph_ok"] is proved
        assert killed >= len(cases) // 2  # the catalogue exercises the implication


def test_a_fault_in_one_block_fails_the_induction(monkeypatch, fresh_bounds):
    # on the block x_4 = 1 of (2,1,1,1), a copy of the child (2,0,1,1), the
    # swap (0,1) of (0,2,0,3,1) is sent to (3,0,0,2,1).  The slice's member,
    # 5 g(x_0) with g centred on level 1, does not tell levels 2 and 3 apart;
    # the child's, centred on level 2, does
    def fault(table, varr):
        x, y = core._ranks(SLICE.counts, np.array([[0, 2, 0, 3, 1], [3, 0, 0, 2, 1]]))
        out = table.copy()
        out[x, 0] = y
        return out, varr

    inject(monkeypatch, SLICE, fault)
    sl = CertifiedSlice.build(SLICE)
    rep = induction_audit(SLICE)
    assert not sl.graph_ok and not rep.holds and not rep.equality and math.isnan(rep.delta)
    assert all(math.isnan(delta) for _, _, delta in rep.children)  # the proof covers every block
    # accepted as a graph anyway, the fault fails the witness of that block's child alone
    forced = spectral._induction_audit(dataclasses.replace(sl, graph_ok=True))
    assert forced.delta == 10 / 4 and not forced.holds and not forced.equality
    assert [m for m, _, delta in forced.children if math.isnan(delta)] == [1]


def test_induction_reads_the_slice_s_own_table(monkeypatch, fresh_bounds):
    # the slice's own upper bound reads its own table, not that of its sorted counts (1,1,1,2)
    with monkeypatch.context() as patch:
        inject(patch, SLICE, _rows_out_of_rank_order)
        rep = induction_audit(SLICE)
        assert not rep.holds and not rep.equality and math.isnan(rep.delta)
    core._MEMO.clear()  # the memo holds the slice of the faulty arrays
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
    # a column avoiding position 0 made edgeless changes no residual of the
    # members f(x) = g(x_0); that of the pair (0, 1) breaks both members'
    # equations, and that of (0, N-1), which leaves the blocks {x : x_{N-1} = m},
    # the slice's own only; so does one entry of the slice's member moved by 1
    k = Composition((2, 2, 1))
    varr, table = vertex_array(k), transposition_table(k)
    children = np.array([_scaled_generators(k.decremented(m).counts)[0] for m in range(k.r)])
    members = np.stack([_scaled_generators(k.counts)[0][varr[:, 0]], children[varr[:, -1], varr[:, 0]]], axis=1)
    pairs = operators.transposition_pairs(k.n)
    assert not _at_gap(table, members, k.n).any()
    for pair, holds in [((1, 2), [True, True]), ((0, 1), [False, False]), ((0, 4), [False, True])]:
        broken = table.copy()
        broken[:, pairs.index(pair)] = np.arange(len(table))
        assert (~_at_gap(broken, members, k.n).any(axis=0)).tolist() == holds, pair
    moved = members.copy()
    moved[len(moved) // 2, 0] += 1
    assert (~_at_gap(table, moved, k.n).any(axis=0)).tolist() == [False, True]
