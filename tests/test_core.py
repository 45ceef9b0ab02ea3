"""Enumeration, ranking, adjacency and the transposition table."""

from __future__ import annotations

import functools
import inspect
import io
import itertools
import json
import math
import random
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multislice
from multislice import core, operators, spectral
from multislice.core import (
    BudgetError,
    Composition,
    edges,
    reduced_compositions,
    to_dot,
    vertex_unrank,
    vertices,
    write_edge_list,
)
from multislice.operators import transposition_table
from conftest import count_builds
from oracles import all_compositions, composition_of, neighbors, slice_vertices, transpose, vertex_rank


def brute_vertices(k: Composition) -> list[tuple[int, ...]]:
    """Independent oracle: filter the full product space by level counts."""
    out = []
    for x in itertools.product(range(k.r), repeat=k.n):
        counts = [0] * k.r
        for v in x:
            counts[v] += 1
        if tuple(counts) == k.counts:
            out.append(x)
    return out


SMALL = [(1, 1), (2, 0), (2, 2), (2, 1), (2, 1, 1), (1, 1, 1), (3, 2), (2, 0, 1)]


class TestComposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Composition(())
        with pytest.raises(ValueError):
            Composition((1, -1))
        with pytest.raises(ValueError):
            Composition((0, 0))

    def test_parse_roundtrip(self):
        k = Composition.parse("2,1,1")
        assert k.counts == (2, 1, 1)
        assert str(k) == "2,1,1"
        assert Composition(json.loads(k.to_json())) == k

    def test_derived_quantities(self):
        k = Composition((2, 1, 1))
        assert k.n == 4 and k.r == 3
        assert not k.is_trivial and k.is_reduced
        assert Composition((4,)).is_trivial
        assert Composition((0, 4)).is_trivial
        assert not Composition((2, 0, 1)).is_reduced

    def test_cardinality_examples(self):
        assert Composition((4,)).cardinality() == 1
        assert Composition((1, 1)).cardinality() == 2
        # oracle: exhaustive enumeration of all 4-tuples over 3 levels
        k = Composition((2, 1, 1))
        assert k.cardinality() == len(brute_vertices(k)) == 12

    def test_cardinality_is_computed_once_per_counts(self, monkeypatch):
        # budget checks ask for it on every build; a new Composition of the same counts hits the memo
        core._multinomial.cache_clear()
        assert Composition((340, 1)).cardinality() == 341
        monkeypatch.setattr(math, "factorial", None)
        assert Composition((340, 1)).cardinality() == 341
        assert core._multinomial.cache_info().hits == 1

    def test_degree_examples(self):
        assert Composition((4,)).degree() == 0
        assert Composition((1, 1)).degree() == 1
        k = Composition((2, 1, 1))
        assert k.degree() == 2 * 1 + 2 * 1 + 1 * 1 == 5
        # oracle: brute-force neighbor count from an enumerated vertex
        x = next(vertices(k))
        assert len(neighbors(x)) == k.degree()

    def test_decremented(self):
        k = Composition((2, 1, 1))
        assert k.decremented(0).counts == (1, 1, 1)
        with pytest.raises(ValueError):
            k.decremented(3)
        with pytest.raises(ValueError):
            Composition((2, 0)).decremented(1)

    def test_reduce(self):
        k, mapping = Composition((2, 0, 1)).reduce()
        assert k.counts == (2, 1)
        assert mapping == {0: 0, 2: 1}
        k2, mapping2 = Composition((1, 1)).reduce()
        assert k2.counts == (1, 1) and mapping2 == {0: 0, 1: 1}


class TestEnumeration:
    def test_small_orders(self):
        assert list(vertices(Composition((1, 1)))) == [(0, 1), (1, 0)]
        assert list(vertices(Composition((2, 0)))) == [(0, 0)]
        assert len(list(vertices(Composition((2, 2))))) == 6

    @pytest.mark.parametrize("counts", SMALL)
    def test_matches_bruteforce_in_lex_order(self, counts):
        k = Composition(counts)
        assert list(vertices(k)) == sorted(brute_vertices(k))

    @pytest.mark.parametrize("counts", SMALL)
    def test_count_matches_cardinality(self, counts):
        k = Composition(counts)
        assert sum(1 for _ in vertices(k)) == k.cardinality()

    def test_budget(self):
        with pytest.raises(BudgetError):
            list(vertices(Composition((5, 5)), budget=10))


class TestRanking:
    @pytest.mark.parametrize("counts", SMALL)
    def test_roundtrip_exhaustive(self, counts):
        k = Composition(counts)
        for i, x in enumerate(vertices(k)):
            assert vertex_rank(x, k) == i
            assert vertex_unrank(i, k) == x

    def test_examples(self):
        assert vertex_unrank(0, Composition((1, 1))) == (0, 1)
        k = Composition((2, 1))
        assert [vertex_rank(vertex_unrank(i, k), k) for i in range(3)] == [0, 1, 2]
        k22 = Composition((2, 2))
        last = list(vertices(k22))[-1]
        assert vertex_rank(last, k22) == 5

    def test_errors(self):
        k = Composition((2, 1))
        with pytest.raises(ValueError):
            vertex_unrank(3, k)
        with pytest.raises(ValueError):
            vertex_unrank(-1, k)
        with pytest.raises(ValueError):
            vertex_rank((0, 1, 1), k)


class TestTranspose:
    def test_basic(self):
        assert transpose((0, 1), 0, 1) == (1, 0)
        assert transpose((0, 0, 1), 0, 1) == (0, 0, 1)

    def test_involution_random(self):
        rng = random.Random(7)
        k = Composition((2, 2, 1))
        verts = list(vertices(k))
        for _ in range(50):
            x = rng.choice(verts)
            i = rng.randrange(0, k.n - 1)
            j = rng.randrange(i + 1, k.n)
            y = transpose(x, i, j)
            assert transpose(y, i, j) == x
            assert composition_of(y, k.r).counts == k.counts

    def test_position_errors(self):
        with pytest.raises(ValueError):
            transpose((0, 1), 1, 1)
        with pytest.raises(ValueError):
            transpose((0, 1), 0, 2)
        with pytest.raises(ValueError):
            transpose((0, 1), -1, 1)


class TestNeighbors:
    def test_examples(self):
        assert neighbors((0, 1)) == [(1, 0)]
        assert neighbors((0, 0, 0)) == []

    @pytest.mark.parametrize("counts", [(2, 1, 1), (2, 2), (1, 1, 1)])
    def test_regular_and_symmetric(self, counts):
        k = Composition(counts)
        degree = k.degree()
        verts = list(vertices(k))
        for x in verts:
            nbrs = neighbors(x)
            assert len(nbrs) == degree
            assert len(set(nbrs)) == degree
            assert all(x in neighbors(y) for y in nbrs)


def is_connected(k: Composition) -> bool:
    """Breadth-first search over the transposition table: does it reach every vertex?"""
    table = transposition_table(k)
    seen = np.zeros(len(table), dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        frontier = np.unique(table[frontier])
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
    return bool(seen.all())


class TestConnectivity:
    """The swap graph of the table is connected: each multislice is one component."""

    @pytest.mark.parametrize("counts", [(1, 1, 1), (3, 2), (2, 1, 1), (2, 2, 1)])
    def test_connected(self, counts):
        assert is_connected(Composition(counts))

    def test_single_vertex(self):
        assert is_connected(Composition((4,)))

    def test_sweep(self):
        for n in range(2, 6):
            for k in reduced_compositions(n):
                assert is_connected(k), k


class TestExports:
    def test_edges_two_vertices(self):
        assert list(edges(Composition((1, 1)))) == [(0, 1)]

    def test_edge_count_matches_regularity(self):
        k = Composition((2, 1, 1))
        edge_list = list(edges(k))
        assert len(edge_list) == k.cardinality() * k.degree() // 2
        assert all(u < v for u, v in edge_list)

    def test_write_edge_list(self):
        buf = io.StringIO()
        count = write_edge_list(Composition((2, 1)), buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == count
        assert all(len(line.split()) == 2 for line in lines)

    def test_dot(self):
        text = to_dot(Composition((1, 1)))
        assert "graph" in text and "0 -- 1;" in text


def test_reduced_compositions_counts():
    # compositions of n into >= 2 positive parts number 2^(n-1) - 1
    for n in range(2, 8):
        assert len(reduced_compositions(n)) == 2 ** (n - 1) - 1


def test_all_compositions_count():
    assert sum(1 for _ in all_compositions(6, 3)) == math.comb(8, 2)


#: Every composition with N <= 6, empty levels allowed.
UP_TO_SIX = st.sampled_from(
    [k for n in range(1, 7) for r in range(1, n + 1) for k in all_compositions(n, r)]
)


class TestRankProperties:
    @settings(max_examples=60, deadline=None)
    @given(UP_TO_SIX)
    def test_rank_unrank_bijection(self, k):
        size = k.cardinality()
        unranked = [vertex_unrank(i, k) for i in range(size)]
        assert [vertex_rank(x, k) for x in unranked] == list(range(size))
        assert unranked == sorted(set(unranked))  # distinct, in lexicographic order
        assert all(composition_of(x, k.r) == k for x in unranked)


class TestTranspositionTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(UP_TO_SIX)
    def test_involution(self, k):
        # table[table[v, p], p] == v: swapping the same pair twice is the identity
        table = transposition_table(k)
        twice = table[table, np.arange(table.shape[1])]
        assert (twice == np.arange(len(table))[:, None]).all()

    @settings(max_examples=60, deadline=None)
    @given(UP_TO_SIX)
    def test_rows_are_neighbors_plus_self_entries(self, k):
        # row v lists the swap images in pair order: a neighbor for each pair of
        # distinct entries (core.neighbors keeps the same order), v itself otherwise
        table = transposition_table(k)
        for v, x in enumerate(vertices(k)):
            row = table[v].tolist()
            assert [t for t in row if t != v] == [vertex_rank(y, k) for y in neighbors(x)]
            assert row.count(v) == len(row) - k.degree()


#: Slices whose vertices need wide keys: (63,1) has N = 64 (a radix-2 int64
#: key would overflow); the others have levels above 255 (a uint8 key
#: truncates), and levels 254, 255, 256 lose their order if it does.
WIDE = [
    Composition((63, 1)),
    Composition((0,) * 300 + (1, 1)),
    Composition((0,) * 254 + (1, 1, 1)),
]


class TestVertexArray:
    """The vertex array, built by blocks, against the oracles' listed slices."""

    @pytest.mark.parametrize(
        "counts",
        [k.counts for n in range(1, 8) for k in reduced_compositions(n, min_levels=1)]
        + [(2, 0, 2), (0, 1, 1), (1, 0, 0, 2), (3,), (2, 0)],
        ids=str,
    )
    def test_rows_are_the_listed_slice(self, counts):
        # every composition with N <= 7 in every level order, and slices with empty levels
        varr = core._vertex_array(counts)
        assert varr.tolist() == [list(x) for x in slice_vertices(Composition(counts))]
        assert varr.dtype == np.min_scalar_type(len(counts) - 1) and not varr.flags.writeable

    @pytest.mark.parametrize("k", WIDE, ids=str)
    def test_wide_rows_are_in_rank_order(self, k):
        # levels above 255 need two bytes; (63,1) has too many permutations to list
        varr = core._vertex_array(k.counts)
        assert varr.dtype == np.min_scalar_type(k.r - 1) and not varr.flags.writeable
        assert [vertex_rank(x, k) for x in varr.tolist()] == list(range(k.cardinality()))

    @pytest.mark.parametrize("counts", [(340, 1), (1, 340)], ids=str)
    def test_deep_slices_build_without_recursion(self, monkeypatch, fresh_bounds, counts):
        # 341 layers below the slice, built from cold under a stack of about 100 frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            varr = core._vertex_array(counts)
        finally:
            sys.setrecursionlimit(limit)
        assert varr.shape == (341, 341)
        assert varr[::170].tolist() == [list(vertex_unrank(i, counts)) for i in (0, 170, 340)]

    def test_a_wide_build_holds_two_layers(self, fresh_bounds):
        # (400,1) lists the (c,1) and (c+1,) below it; holding every layer would peak near 21 MB
        tracemalloc.start()
        try:
            varr = core._vertex_array((400, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert varr.shape == (401, 401) and peak < 2 * 2**20
        assert list(core._MEMO) == [(400, 1)]  # only the slice asked for is memoized

    def test_a_build_reads_the_sub_slices_that_the_memo_holds(self, fresh_bounds):
        # a stand-in for (1,1,1) in the memo, its rows reversed, fills (2,1,1)'s block x_0 = 0
        def _vertex_array(counts):
            return core._vertex_array.__wrapped__(counts)[::-1]

        held = core._memo(_vertex_array)((1, 1, 1))
        varr = core._vertex_array((2, 1, 1))
        assert varr[:6, 1:].tolist() == held.tolist() != core._vertex_array.__wrapped__((1, 1, 1)).tolist()
        assert varr[6:].tolist() == [list(x) for x in slice_vertices(Composition((2, 1, 1)))][6:]
        assert list(core._MEMO) == [(1, 1, 1), (2, 1, 1)]

    def test_budget_refuses_before_the_array(self, monkeypatch, fresh_bounds):
        def no_build(counts):
            raise AssertionError("vertex array built for a refused slice")

        monkeypatch.setattr(core, "_vertex_array", no_build)
        with pytest.raises(BudgetError):
            vertices(Composition((5, 5)), budget=10)


def _zeros(counts: tuple[int, ...]) -> np.ndarray:
    return np.zeros(counts[0], dtype=np.uint8)


class TestSliceMemo:
    """One memo per counts, least recently used first, weighed in bytes."""

    def test_least_recently_used_slices_go_first(self, monkeypatch, fresh_bounds):
        monkeypatch.setattr(core, "MEMO_BYTES", 1000)
        zeros = core._memo(_zeros)
        first, second = zeros((600,)), zeros((300,))
        assert zeros((600,)) is first and core._MEMO.held == 900
        zeros((200,))  # 1,100 bytes: the least recently used, (300,), goes
        assert list(core._MEMO) == [(600,), (200,)] and core._MEMO.held == 800
        assert zeros((300,)) is not second

    def test_the_slice_asked_for_last_stays_over_the_cap(self, monkeypatch, fresh_bounds):
        monkeypatch.setattr(core, "MEMO_BYTES", 1000)
        zeros = core._memo(_zeros)
        zeros((600,))
        big = zeros((2000,))
        assert list(core._MEMO) == [(2000,)] and core._MEMO.held == 2000 and zeros((2000,)) is big
        monkeypatch.setattr(core, "MEMO_BYTES", 0)
        assert zeros((5,)).nbytes == core._MEMO.held == 5 and list(core._MEMO) == [(5,)]

    def test_clear_zeroes_the_total_and_peek_keeps_the_order(self, fresh_bounds):
        zeros = core._memo(_zeros)
        first = zeros((6,))
        zeros((3,))
        assert core._MEMO.peek((6,), "_zeros") is first and core._MEMO.peek((6,), "_swap_table") is None
        assert core._MEMO.peek((7,), "_zeros") is None and list(core._MEMO) == [(6,), (3,)]
        core._MEMO.clear()
        assert not core._MEMO and core._MEMO.held == 0
        zeros((4,))
        assert core._MEMO.held == 4

    def test_threads_keep_the_running_total(self, monkeypatch, fresh_bounds):
        # four threads hit, build and evict the same few slices; the total stays the bytes held
        monkeypatch.setattr(core, "MEMO_BYTES", 40)
        zeros = core._memo(_zeros)

        def work(seed: int) -> None:
            for i in range(2000):
                zeros(((i * 7 + seed) % 13 + 1,))

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert core._MEMO.held == sum(weight for weight, _ in core._MEMO.values()) <= 40 + 13
        assert all(weight == counts[0] for counts, (weight, _) in core._MEMO.items())

    def test_shared_arrays_weigh_once(self, fresh_bounds):
        # a certified slice holds the vertex array that the memo keeps beside it, and no table
        sl = spectral.CertifiedSlice.build(Composition((2, 2, 1)))
        assert sl.closed_ok
        weight, results = core._MEMO[(2, 2, 1)]
        assert set(results) == {"_vertex_array", "_certified_slice", "_count_pairs"}
        assert weight == sum(a.nbytes for a in (sl.varr, sl.counts, sl.pairs, sl.g)) == core._MEMO.held


class TestBulkIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(UP_TO_SIX, st.sampled_from(WIDE)), st.randoms(use_true_random=False))
    def test_ranks_match_vertex_rank(self, k, rnd):
        # the bulk rank of any rows, in any order, is vertex_rank of each row
        rows = [vertex_unrank(i, k) for i in range(k.cardinality())]
        rnd.shuffle(rows)
        ranks = core._ranks(k.counts, np.array(rows, dtype=np.int64))
        assert ranks.tolist() == [vertex_rank(x, k) for x in rows]

    def test_vertex_keys_are_a_read_only_view(self, monkeypatch, fresh_bounds):
        # the vertex array is keyed once per slice, not once per _ranks call: its keys are a view of it
        calls, builds = count_builds(monkeypatch, "_vertex_array")
        for k in (Composition((2, 2, 1)), Composition((1,) * 8)):
            rows = np.array(core._vertex_array(k.counts)[::-1][:core.SEARCH_ROWS - 1])
            expected = list(range(k.cardinality()))[::-1][:core.SEARCH_ROWS - 1]
            assert core._ranks(k.counts, rows).tolist() == core._ranks(k.counts, rows).tolist() == expected
            varr = core._vertex_array(k.counts)
            keys = core._keys(varr, k.r)
            assert np.shares_memory(keys, varr) and not keys.flags.writeable
            with pytest.raises(ValueError):
                keys[0] = keys[1]
        assert builds == [(2, 2, 1), (1,) * 8] and calls.count((2, 2, 1)) == 4

    @pytest.mark.parametrize("k", WIDE, ids=str)
    def test_wide_table(self, k):
        table = transposition_table(k)
        assert table.shape == (k.cardinality(), math.comb(k.n, 2))
        twice = table[table, np.arange(table.shape[1])]
        assert (twice == np.arange(len(table))[:, None]).all()
        for v, x in enumerate(vertices(k)):
            row = table[v].tolist()
            assert [t for t in row if t != v] == [vertex_rank(y, k) for y in neighbors(x)]
            assert row.count(v) == len(row) - k.degree()

    def test_edges_in_vertex_then_pair_order(self):
        # every composition with N <= 5: u ascending, then position-pair order
        for k in (k for n in range(1, 6) for r in range(1, n + 1) for k in all_compositions(n, r)):
            expected = []
            for u, x in enumerate(vertices(k)):
                expected += [(u, v) for v in (vertex_rank(y, k) for y in neighbors(x)) if u < v]
            assert list(edges(k)) == expected, k

    def test_table_refused_over_cap_before_allocation(self, monkeypatch, fresh_bounds):
        # a fresh cache, so the builder runs; it must refuse before building the vertex array
        fresh = functools.lru_cache(core._swap_table.__wrapped__)
        monkeypatch.setattr(core, "_swap_table", fresh)
        monkeypatch.setattr(operators, "_swap_table", fresh)
        monkeypatch.setattr(core, "TABLE_ENTRY_CAP", 8)

        def no_vertex_array(counts):
            raise AssertionError("vertex array built for a refused table")

        monkeypatch.setattr(core, "_vertex_array", no_vertex_array)
        with pytest.raises(BudgetError):
            list(edges(Composition((2, 1))))  # 3 vertices x 3 pairs = 9 entries
        with pytest.raises(BudgetError):
            transposition_table(Composition((2, 1)))
        with pytest.raises(BudgetError):
            to_dot(Composition((2, 1)))


def per_pair_table(counts: tuple[int, ...]) -> np.ndarray:
    """The transposition table one :func:`core._ranks` call per pair column: the
    reference that the batched build must match byte for byte."""
    k = Composition(counts)
    varr = core._vertex_array(counts)
    table = np.empty((k.cardinality(), math.comb(k.n, 2)), dtype=np.int64)
    swapped = varr.copy()
    for p, (i, j) in enumerate(itertools.combinations(range(k.n), 2)):
        swapped[:, [i, j]] = varr[:, [j, i]]
        table[:, p] = core._ranks(counts, swapped)
        swapped[:, [i, j]] = varr[:, [i, j]]
    return table


class TestBatchedTable:
    """``_swap_table`` ranks a batch of pair columns per call; the per-pair loop is its oracle."""

    @staticmethod
    def assert_as_oracle(counts):
        built = core._swap_table.__wrapped__(counts)  # a fresh build, past the cache
        expected = per_pair_table(counts)
        assert built.dtype == expected.dtype and built.shape == expected.shape, counts
        assert built.tobytes() == expected.tobytes(), counts

    def test_every_slice_up_to_six(self):
        for k in (k for n in range(1, 7) for k in reduced_compositions(n, min_levels=1)):
            self.assert_as_oracle(k.counts)

    @pytest.mark.parametrize("counts", [(2, 0, 2), (3, 0, 1), (0, 1, 1, 1), (1, 0, 0, 2, 2), (0, 3, 0, 3)], ids=str)
    def test_empty_levels(self, counts):
        self.assert_as_oracle(counts)

    @pytest.mark.parametrize("counts, counted", [((1,) * 8, True), ((30, 1), False)], ids=str)
    def test_counted_and_searched_paths(self, counts, counted, monkeypatch):
        # fresh half tables, so a looked-up build counts them whatever ran before
        monkeypatch.setattr(core, "_half_tables", functools.lru_cache(core._half_tables.__wrapped__))
        calls = []
        count_ranks = core._count_ranks
        monkeypatch.setattr(core, "_count_ranks", lambda *a: calls.append(len(a[1])) or count_ranks(*a))
        self.assert_as_oracle(counts)
        assert bool(calls) is counted

    @pytest.mark.parametrize("chunk", [1, 150, 450, 600, 1500, 4500, 6000])
    def test_batches(self, chunk, monkeypatch):
        # (2,2,1): 30 vertices of 5 one-byte levels and 10 pairs; a batch's working
        # set is 2 * 5 + 40 = 50 bytes a row, 1,500 a pair.  A chunk under one pair
        # still takes one, and 3 pairs per batch end part-way
        counts, step = (2, 2, 1), max(1, chunk // 1500)
        monkeypatch.setattr(core, "_CHUNK_BYTES", chunk)
        batches = []
        ranks = core._ranks
        monkeypatch.setattr(core, "_ranks", lambda c, rows: batches.append(len(rows)) or ranks(c, rows))
        built = core._swap_table.__wrapped__(counts)
        assert batches == [30 * min(step, 10 - start) for start in range(0, 10, step)]
        monkeypatch.setattr(core, "_ranks", ranks)
        assert built.tobytes() == per_pair_table(counts).tobytes()


class TestCountedRanks:
    """The counted ranks that fill the half tables, and which batches look ranks up."""

    @pytest.mark.parametrize("k", WIDE, ids=str)
    def test_wide_slices(self, k):
        rows = core._vertex_array(k.counts)[::-1]
        assert core._count_ranks(k.counts, rows).tolist() == list(range(k.cardinality()))[::-1]

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_random_rows_match_vertex_rank(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(1, n), replace=False))
            k = Composition(np.diff(np.concatenate(([0], cuts, [n]))))
            base = np.repeat(np.arange(k.r), k.counts)
            rows = np.array([rng.permutation(base) for _ in range(50)], dtype=np.uint8)
            assert core._count_ranks(k.counts, rows).tolist() == [vertex_rank(x, k) for x in rows]

    def test_every_slice_up_to_six_exhaustively(self):
        for k in (k for n in range(1, 7) for r in range(1, n + 1) for k in all_compositions(n, r)):
            rows = core._vertex_array(k.counts)
            assert core._count_ranks(k.counts, rows).tolist() == list(range(len(rows))), k

    @pytest.mark.parametrize("size", [core.SEARCH_ROWS - 1, core.SEARCH_ROWS])
    def test_branches_agree_at_the_crossover(self, size, monkeypatch, fresh_bounds):
        # (2,2,1,1,1): 1,260 vertices, so rows repeat, and 5**4 = 625 suffix entries,
        # so SEARCH_ROWS rows are looked up without the vertex keys; one row fewer is searched
        k = Composition((2, 2, 1, 1, 1))
        rows = core._vertex_array(k.counts)[np.random.default_rng(size).integers(0, 1260, size)]
        searched = np.searchsorted(core._keys(core._vertex_array(k.counts), k.r), core._keys(rows, k.r))
        calls = []
        varr = core._vertex_array
        monkeypatch.setattr(core, "_vertex_array", lambda counts: calls.append(1) or varr(counts))
        assert np.array_equal(core._ranks(k.counts, rows), searched)
        assert calls == ([] if size >= core.SEARCH_ROWS else [1])

    def test_long_rows_are_searched(self, monkeypatch):
        # the lookup needs r**(N - N//2) suffix entries, at most |V|: 2**9 = 512 of
        # 48,620 on (9,9), but 2**9 of 17 on (16,1) and 302 of 2 on (0^300,1,1)
        for counts, looked_up in [((16, 1), False), ((99, 1), False), ((0,) * 300 + (1, 1), False), ((9, 9), True)]:
            k = Composition(counts)
            repeats = -(-core.SEARCH_ROWS // k.cardinality())
            rows = np.repeat(core._vertex_array(k.counts), repeats, axis=0)
            assert (core._half_tables(k.counts) is not None) is looked_up, k
            with monkeypatch.context() as patch:
                patch.setattr(core, "_vertex_array" if looked_up else "_codes", None)
                ranks = core._ranks(k.counts, rows)
            assert np.array_equal(ranks, np.repeat(np.arange(k.cardinality()), repeats)), k

    def test_float_exactness_guard(self):
        # |V| * N is about 2.7e21 on (5^6), past 2**53: refused, not rounded
        k = Composition((5,) * 6)
        rows = np.array([vertex_unrank(0, k)] * 2, dtype=np.uint8)
        with pytest.raises(OverflowError):
            core._count_ranks(k.counts, rows)


#: Compositions with N <= 12, empty levels allowed, of at most 10**5 vertices
#: so that a draw builds its half tables in milliseconds.
UP_TO_TWELVE = (
    st.lists(st.integers(0, 6), min_size=1, max_size=7)
    .filter(lambda c: 1 <= sum(c) <= 12)
    .map(Composition)
    .filter(lambda k: k.cardinality() <= 10**5)
)


class TestHalfTables:
    """The looked-up branch of the bulk rank, against the oracle rank."""

    @settings(max_examples=40, deadline=None)
    @given(
        UP_TO_TWELVE,
        st.sampled_from([1, core.SEARCH_ROWS - 1, core.SEARCH_ROWS, core.SEARCH_ROWS + 5]),
        st.integers(0, 2**32 - 1),
    )
    def test_ranks_match_vertex_rank(self, k, size, seed):
        # rows drawn from a pool of 50 vertices, so the oracle ranks 50 rows at most
        rng = np.random.default_rng(seed)
        base = np.repeat(np.arange(k.r), k.counts)
        pool = np.array([rng.permutation(base) for _ in range(50)], dtype=np.uint8)
        picks = rng.integers(0, len(pool), size)
        expected = np.array([vertex_rank(x, k) for x in pool])[picks]
        assert np.array_equal(core._ranks(k.counts, pool[picks]), expected)
        tables = core._half_tables(k.counts)
        assert (tables is None) is (k.r ** (k.n - k.n // 2) > k.cardinality())
        for table in tables or ():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    @pytest.mark.parametrize("counts", [(1,), (3,), (2, 0), (0, 1, 1), (1, 1), (200,)], ids=str)
    def test_tiny_and_trivial_slices(self, counts):
        # N = 1 has an empty prefix; (2,0) and (0,1,1) have more suffixes than vertices
        k = Composition(counts)
        rows = np.repeat(core._vertex_array(counts), core.SEARCH_ROWS, axis=0)
        expected = np.repeat(np.arange(k.cardinality()), core.SEARCH_ROWS)
        assert np.array_equal(core._ranks(counts, rows), expected)


def test_package_root_exports_the_readme_tour():
    from multislice import (  # noqa: F401  the README's library tour, verbatim
        Composition,
        WalkConfig,
        certification_suite,
        gap_certificate,
        gap_eigenbasis,
        relaxation_estimate,
        simulate,
        spectral_gap,
        vertices,
    )

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"from multislice import \(([^)]*)\)", readme).group(1)
    names = {name.strip() for name in tour.split(",") if name.strip()}
    public = {
        name
        for name, obj in vars(multislice).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == names
