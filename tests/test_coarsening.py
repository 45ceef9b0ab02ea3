"""Level merging: induced maps, intertwining, and spectrum containment."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multislice import coarsening, core, operators, spectral
from multislice.coarsening import (
    CoarseningMap,
    all_coarsenings,
    coarsen_composition,
    intertwine_audit,
    is_coarser,
    spectrum_containment,
    vertex_map,
)
from multislice.core import BudgetError, Composition, reduced_compositions, vertices
from multislice.operators import laplacian_dense, transposition_table
from multislice.spectral import gap_eigenbasis
from oracles import all_compositions, family, is_eigenpair, laplacian_action, vertex_rank

MERGE_012 = CoarseningMap((0, 0, 1), 2)


class TestCoarseningMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoarseningMap((0, 2), 3)  # misses target level 1
        with pytest.raises(ValueError):
            CoarseningMap(())

    def test_identity(self):
        phi = CoarseningMap(range(3))  # the target count is read off the table
        assert phi.table == (0, 1, 2)
        assert phi.source_levels == phi.target_levels == 3

    def test_json_roundtrip(self):
        phi = CoarseningMap((1, 0, 0), 2)
        data = json.loads(phi.to_json())
        assert data == {"s": 3, "r": 2, "table": [1, 0, 0]}
        assert CoarseningMap(data["table"], data["r"]) == phi

    def test_compose(self):
        # merging in two steps is merging once by the composed table
        first = CoarseningMap((0, 0, 1, 2), 3)
        second = CoarseningMap((0, 1, 1), 2)
        combined = CoarseningMap([second(t) for t in first.table], 2)
        assert combined.table == (0, 0, 1, 1)
        k = Composition((1, 2, 3, 4))
        assert coarsen_composition(second, coarsen_composition(first, k)) == coarsen_composition(combined, k)


class TestCompositionAndVertexMaps:
    def test_merge_all(self):
        phi = CoarseningMap((0, 0, 0), 1)
        assert coarsen_composition(phi, Composition((1, 2, 1))).counts == (4,)

    def test_identity(self):
        k = Composition((2, 1, 1))
        assert coarsen_composition(CoarseningMap(range(3)), k) == k

    def test_example(self):
        assert coarsen_composition(MERGE_012, Composition((1, 1, 1))).counts == (2, 1)

    def test_vertex_example(self):
        # (0, 1, 2) relabels to (0, 0, 1)
        k = Composition((1, 1, 1))
        vmap = vertex_map(MERGE_012, k)
        assert vmap[vertex_rank((0, 1, 2), k)] == vertex_rank((0, 0, 1), Composition((2, 1)))

    def test_surjective_on_vertices(self):
        k = Composition((1, 1, 1))
        coarse = coarsen_composition(MERGE_012, k)
        assert set(vertex_map(MERGE_012, k).tolist()) == set(range(coarse.cardinality()))

    def test_commutes_with_transpose(self):
        # relabelling commutes with swapping: the vertex map carries every
        # column of the fine table onto the same column of the coarse one
        k = Composition((1, 2, 1))
        vmap = vertex_map(MERGE_012, k)
        coarse = coarsen_composition(MERGE_012, k)
        assert np.array_equal(vmap[transposition_table(k)], transposition_table(coarse)[vmap])

    def test_level_count_mismatch(self):
        with pytest.raises(ValueError):
            coarsen_composition(MERGE_012, Composition((1, 1)))

    def test_vertex_map_ranks(self):
        k = Composition((1, 1, 1))
        vmap = vertex_map(MERGE_012, k)
        coarse = coarsen_composition(MERGE_012, k)
        coarse_verts = list(vertices(coarse))
        for i, x in enumerate(vertices(k)):
            assert coarse_verts[vmap[i]] == tuple(map(MERGE_012, x))

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(
            [
                (k, phi)
                for n in range(2, 7)
                for k in reduced_compositions(n)
                for phi in all_coarsenings(k).values()
            ]
        )
    )
    def test_vertex_map_is_vertex_rank_of_image(self, pair):
        # every coarsening pair with N <= 6: the bulk map against the scalar ranks
        k, phi = pair
        coarse = coarsen_composition(phi, k)
        vmap = vertex_map(phi, k)
        assert vmap.tolist() == [vertex_rank(tuple(map(phi, x)), coarse) for x in vertices(k)]


def intertwine_check(phi: CoarseningMap, k: Composition, f: list) -> bool:
    """(L' f) o phi = L (f o phi) for a coarse function f, by the oracle's Laplacian on both slices."""
    vmap = vertex_map(phi, k).tolist()
    coarse_lf = laplacian_action(coarsen_composition(phi, k), f)
    return [coarse_lf[t] for t in vmap] == laplacian_action(k, [f[t] for t in vmap])


class TestIntertwining:
    def test_constants(self):
        k = Composition((1, 1, 1))
        coarse = coarsen_composition(MERGE_012, k)
        assert intertwine_check(MERGE_012, k, [Fraction(3)] * coarse.cardinality())

    def test_random_rational_batch(self):
        k = Composition((1, 1, 1))
        rng = random.Random(0)
        coarse_size = coarsen_composition(MERGE_012, k).cardinality()
        for _ in range(100):
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(coarse_size)]
            assert intertwine_check(MERGE_012, k, f)

    def test_audit_batch(self):
        rep = intertwine_audit(MERGE_012, Composition((1, 1, 1)), n_functions=100, seed=1)
        assert rep["all_exact"]
        assert rep["coarse"] == "2,1"

    def test_eigenfunction_lifts(self):
        k = Composition((1, 1, 1, 1))
        phi = CoarseningMap((0, 0, 1, 1), 2)
        coarse = coarsen_composition(phi, k)  # (2,2)
        f = family(gap_eigenbasis(coarse))[0]
        vmap = vertex_map(phi, k)
        lifted = [f[t] for t in vmap.tolist()]
        assert is_eigenpair(k, lifted, coarse.n)

    def test_pullback_of_nonzero_is_nonzero(self):
        k = Composition((1, 1, 1))
        coarse = coarsen_composition(MERGE_012, k)
        vmap = vertex_map(MERGE_012, k)
        rng = random.Random(2)
        for _ in range(20):
            f = [Fraction(rng.randint(-5, 5)) for _ in range(coarse.cardinality())]
            if all(v == 0 for v in f):
                continue
            assert any(f[t] != 0 for t in vmap.tolist())

    def test_float_path(self):
        # the dense Laplacians intertwine float functions too
        k = Composition((1, 1, 1))
        coarse = coarsen_composition(MERGE_012, k)
        f = np.random.default_rng(3).standard_normal(coarse.cardinality())
        vmap = vertex_map(MERGE_012, k)
        assert np.allclose(laplacian_dense(k) @ f[vmap], (laplacian_dense(coarse) @ f)[vmap])


class TestContainment:
    def test_coarse_slice_with_an_empty_level(self, fresh_bounds):
        # phi sends no occupied level to coarse level 1, so the coarse slice
        # (2,0,2) keeps an empty level: it gets the verdicts of the reduced pair
        pairs = [
            (CoarseningMap((0, 1, 2, 2)), Composition((2, 0, 1, 1))),
            (CoarseningMap((0, 1, 1)), Composition((2, 1, 1))),
        ]
        assert [spectrum_containment(phi, k).coarse for phi, k in pairs] == ["2,0,2", "2,2"]
        for phi, k in pairs:
            rep = spectrum_containment(phi, k)
            assert intertwine_audit(phi, k)["all_exact"] and rep.contained and rep.gap_monotone, k
            assert (rep.gap_fine, rep.gap_coarse, rep.max_mismatch) == (4.0, 4.0, 0.0), k

    def test_three_into_two(self):
        rep = spectrum_containment(MERGE_012, Composition((1, 1, 1)))
        assert rep.contained and rep.gap_monotone
        assert rep.gap_fine == rep.gap_coarse == 3.0

    def test_four_particles(self):
        phi = CoarseningMap((0, 0, 1, 1), 2)
        rep = spectrum_containment(phi, Composition((1, 1, 1, 1)))
        assert rep.contained and rep.gap_monotone

    def test_identity_map(self):
        k = Composition((2, 2))
        rep = spectrum_containment(CoarseningMap(range(2)), k)
        assert rep.contained and rep.max_mismatch < 1e-10

    def test_every_map_without_an_eigensolve(self, monkeypatch):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("containment ran an eigensolve")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        k = Composition((2, 1, 1, 1))
        maps = [
            CoarseningMap(table, r)
            for r in range(2, k.r)
            for table in itertools.product(range(r), repeat=k.r)
            if len(set(table)) == r
        ]
        assert len(maps) == 50
        for phi in maps:
            rep = spectrum_containment(phi, k)
            assert rep.contained and rep.gap_monotone and rep.max_mismatch == 0.0, phi
            assert rep.gap_fine == rep.gap_coarse == 5.0, phi

    def test_swapped_vertex_map_fails(self, monkeypatch, fresh_bounds):
        # two fine vertices with different images trade them: no longer equivariant
        pairs = [
            (k, phi) for n in range(3, 6) for k in reduced_compositions(n) for phi in all_coarsenings(k).values()
        ]
        for k, phi in pairs:
            vmap = vertex_map(phi, k)
            j = int(np.flatnonzero(vmap != vmap[0])[0])
            swapped = vmap.copy()
            swapped[[0, j]] = vmap[[j, 0]]
            with monkeypatch.context() as patch:
                patch.setattr(coarsening, "vertex_map", lambda *args: swapped)
                assert not intertwine_audit(phi, k)["all_exact"], (k, phi)
                rep = spectrum_containment(phi, k)
            assert not rep.contained and not rep.gap_monotone and math.isnan(rep.max_mismatch), (k, phi)

    def test_both_audits_share_one_equivariance_check(self, monkeypatch, fresh_bounds):
        built = []
        real = coarsening.vertex_map

        def counted(phi, k, budget=None):
            built.append((phi, k))
            return real(phi, k, budget)

        monkeypatch.setattr(coarsening, "vertex_map", counted)
        for k in reduced_compositions(5):
            for phi in all_coarsenings(k).values():
                assert intertwine_audit(phi, k)["all_exact"]
                assert spectrum_containment(phi, k).contained
        assert len(built) == len(set(built)) > 0

    def test_vertex_map_not_onto_fails(self, monkeypatch, fresh_bounds):
        k = Composition((1, 1, 1, 1))
        phi = CoarseningMap((0, 0, 1, 2), 3)
        vmap = vertex_map(phi, k)
        missed = np.where(vmap == vmap.max(), 0, vmap)  # the last coarse vertex has no preimage
        with monkeypatch.context() as patch:
            patch.setattr(coarsening, "vertex_map", lambda *args: missed)
            rep = spectrum_containment(phi, k)
        assert not rep.contained and not rep.gap_monotone

        # a coarse vertex fixed by every swap and hit by nothing: still equivariant, not onto
        memo = coarsening._certified_slice
        coarse = coarsen_composition(phi, k)

        def padded(proof):
            def certified_slice(counts):
                sl = memo(counts)
                if counts != coarse.counts:
                    return sl
                table = np.vstack([sl.table, np.full(sl.table.shape[1], len(sl.table))])
                return dataclasses.replace(sl, table=table, graph_ok=proof(coarse, sl.varr, table))

            return certified_slice

        monkeypatch.setattr(coarsening, "_certified_slice", padded(operators._graph_ok))
        coarsening._equivariant.cache_clear()  # its verdicts came from the patched map above
        assert not intertwine_audit(phi, k)["all_exact"]  # the padded table is not the coarse slice
        # accepted as a graph anyway, the map is equivariant there, and only onto refuses it
        monkeypatch.setattr(coarsening, "_certified_slice", padded(lambda *args: True))
        coarsening._equivariant.cache_clear()
        assert intertwine_audit(phi, k)["all_exact"]
        rep = spectrum_containment(phi, k)
        assert not rep.contained and not rep.gap_monotone

    @pytest.mark.parametrize("failing", ["fine", "coarse"])
    def test_failed_gap_proof_fails_monotonicity(self, monkeypatch, fresh_bounds, failing):
        k = Composition((1, 1, 1, 1))
        phi = CoarseningMap((0, 0, 1, 2), 3)  # onto (2,1,1), whose proof does not read (1,1,1,1)
        key = spectral._key(k if failing == "fine" else coarsen_composition(phi, k))
        bound = spectral._gap_bound
        monkeypatch.setattr(spectral, "_gap_bound", lambda counts: (None, 0) if counts == key else bound(counts))
        rep = spectrum_containment(phi, k)
        assert rep.contained and not rep.gap_monotone
        assert math.isnan(rep.gap_fine if failing == "fine" else rep.gap_coarse)
        assert (rep.gap_coarse if failing == "fine" else rep.gap_fine) == 4.0

    def test_table_cap_refuses_before_allocating(self, monkeypatch, fresh_bounds):
        def no_build(*args, **kwargs):
            raise AssertionError("built an array of |V| rows above the table entry cap")

        monkeypatch.setattr(core, "_vertex_array", no_build)
        monkeypatch.setattr(operators, "_vertex_array", no_build)
        k = Composition((5, 5, 5))  # 756,756 vertices, inside the vertex budget
        phi = CoarseningMap((0, 0, 1), 2)
        with pytest.raises(BudgetError, match="entries"):
            intertwine_audit(phi, k)
        with pytest.raises(BudgetError, match="entries"):
            spectrum_containment(phi, k)


class TestIsCoarser:
    def test_witness_exists(self):
        phi = is_coarser(Composition((2, 1)), Composition((1, 1, 1)))
        assert phi is not None
        assert coarsen_composition(phi, Composition((1, 1, 1))).counts == (2, 1)

    def test_no_witness(self):
        assert is_coarser(Composition((3, 1)), Composition((2, 2))) is None

    def test_everything_coarsens_the_all_ones(self):
        ones = Composition((1,) * 5)
        for counts in [(2, 3), (1, 2, 2), (4, 1), (1, 1, 1, 1, 1)]:
            assert is_coarser(Composition(counts), ones) is not None

    def test_different_totals(self):
        assert is_coarser(Composition((2, 1)), Composition((1, 1))) is None

    def test_agrees_with_the_exhaustive_search(self):
        def exhaustive(coarse, fine):
            """Search over every assignment table: the oracle."""
            if coarse.n != fine.n:
                return None
            for table in itertools.product(range(coarse.r), repeat=fine.r):
                if len(set(table)) == coarse.r:
                    phi = CoarseningMap(table, coarse.r)
                    if coarsen_composition(phi, fine) == coarse:
                        return phi
            return None

        groups = [reduced_compositions(n, min_levels=1) for n in range(1, 7)]
        groups += [[c for r in range(1, 5) for c in all_compositions(n, r)] for n in range(1, 5)]
        for comps in groups:  # s <= 6 source levels, empty levels on either side
            for fine in comps:
                for coarse in comps:
                    phi = is_coarser(coarse, fine)
                    assert (phi is None) == (exhaustive(coarse, fine) is None), (fine, coarse)
                    if phi is not None:
                        assert coarsen_composition(phi, fine) == coarse

    @pytest.mark.parametrize(
        "fine, coarse",
        [((3, 3, 2, 2, 2), (7, 5)), ((1,) * 9, (3, 3, 3)), ((1,) * 12, (4, 4, 4)), ((2, 0, 1), (0, 3))],
        ids=["largest-first-fails", "nine-levels", "twelve-levels", "empty-levels"],
    )
    def test_witness_beyond_the_old_cap(self, fine, coarse):
        # largest-first greedy fails the first: 3+2+2 and 3+2 is the only split
        phi = is_coarser(Composition(coarse), Composition(fine))
        assert phi is not None and coarsen_composition(phi, Composition(fine)).counts == coarse

    def test_transitivity_via_composition(self):
        fine = Composition((1, 1, 1, 1))
        mid_phi = is_coarser(Composition((2, 1, 1)), fine)
        mid = coarsen_composition(mid_phi, fine)
        top_phi = is_coarser(Composition((3, 1)), mid)
        combined = CoarseningMap([top_phi(t) for t in mid_phi.table], top_phi.target_levels)
        assert coarsen_composition(combined, fine).counts == (3, 1)


class TestAllCoarsenings:
    def test_inventory_three_levels(self):
        got = all_coarsenings(Composition((1, 1, 1)))
        assert {k.counts for k in got} == {(2, 1), (1, 2)}
        for target, phi in got.items():
            assert coarsen_composition(phi, Composition((1, 1, 1))) == target

    def test_agrees_with_the_exhaustive_search(self):
        def exhaustive(k):
            """Every onto table, r ascending, tables in lexicographic order: the oracle."""
            out = {}
            for r in range(2, k.r):
                for table in itertools.product(range(r), repeat=k.r):
                    if len(set(table)) == r:
                        phi = CoarseningMap(table, r)
                        out.setdefault(coarsen_composition(phi, k), phi)
            return out

        comps = [k for n in range(1, 7) for k in reduced_compositions(n, min_levels=1)]
        comps += [Composition(c) for c in itertools.product(range(3), repeat=5) if any(c)]
        for k in comps:  # s <= 6 source levels, empty levels among them
            assert list(all_coarsenings(k).items()) == list(exhaustive(k).items()), k

    @pytest.mark.parametrize("s", range(3, 9))
    def test_one_target_per_composition_of_s(self, s):
        # merging (1^s) onto r levels gives every composition of s into r
        # positive parts, and there are 2^(s-1) - 2 of them for 2 <= r < s
        ones = Composition((1,) * s)
        got = all_coarsenings(ones)
        assert len(got) == 2 ** (s - 1) - 2
        assert all(target.is_reduced and 2 <= target.r < s for target in got)
        for target, phi in got.items():
            assert coarsen_composition(phi, ones) == target

    def test_level_cap(self):
        with pytest.raises(ValueError, match="search cap"):
            all_coarsenings(Composition((1,) * 9))
