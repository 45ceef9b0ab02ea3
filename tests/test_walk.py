"""Random transposition walk: kernel checks, stationarity, relaxation."""

from __future__ import annotations

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from multislice import core
from multislice.core import BudgetError, Composition
from multislice.operators import transposition_pairs, transposition_table, vertex_array
from multislice.spectral import gap_eigenbasis
from multislice.walk import (
    N_BATCHES,
    WalkConfig,
    _walk_levels,
    chi_square_uniform,
    relaxation_estimate,
    simulate,
)
from oracles import family, transition_matrix, vertex_rank


def reference_levels(x0, draws) -> list[tuple[int, ...]]:
    """The serial oracle: one swap per draw, every visited state listed."""
    pairs = transposition_pairs(len(x0))
    x = [int(v) for v in x0]
    rows = [tuple(x)]
    for p in draws:
        i, j = pairs[p]
        x[i], x[j] = x[j], x[i]
        rows.append(tuple(x))
    return rows


def _levels(x0, draws) -> list[tuple[int, ...]]:
    x0 = np.asarray(x0, dtype=np.uint8)
    return [tuple(row) for row in _walk_levels(x0, np.asarray(draws, dtype=np.int64)).tolist()]


def _digest(counts) -> str:
    return hashlib.sha256(np.asarray(counts, dtype="<i8").tobytes()).hexdigest()[:16]


class TestStep:
    def test_two_vertices_always_move(self):
        # one position pair: every step swaps the two unequal entries
        assert _levels((0, 1), [0] * 11) == [(0, 1), (1, 0)] * 6

    def test_single_level_fixed(self):
        draws = np.random.default_rng(1).integers(0, 3, size=50)
        assert _levels((0, 0, 0), draws) == [(0, 0, 0)] * 51

    def test_needs_two_positions(self):
        # one position has no pair to swap: refused, and a zero-step walk stays put
        with pytest.raises(ValueError):
            simulate(WalkConfig(composition=Composition((1,)), steps=10, seed=2))
        assert _levels((0,), []) == [(0,)]


#: (9,9) has N = 18 and 153 position pairs.
WALK_SLICES = [(1, 1), (2, 1), (2, 2, 2), (1,) * 8, (3,) + (1,) * 7, (9, 9)]

#: Step counts around the block boundaries, width max(1, isqrt(T) // 4).  The
#: doubling scan's edges are a block count that is a power of two and one off
#: it: below 64 steps a block is one step, so 15, 16 and 17 steps are as many
#: blocks; 125, 128 and 129 steps are 63, 64 and 65 blocks of 2 (the last one
#: a single step on 125 and 129); 762, 768 and 769 steps are 127, 128 and 129
#: blocks of 6.  99 and 10,000 are neither.
WALK_LENGTHS = [1, 2, 3, 15, 16, 17, 99, 125, 128, 129, 762, 768, 769, 10_000]


class TestWalkLevels:
    """The blocked-scan stepper against the serial loop, row for row."""

    @pytest.mark.parametrize("counts", WALK_SLICES, ids=str)
    @pytest.mark.parametrize("steps", WALK_LENGTHS)
    def test_matches_reference(self, counts, steps):
        k = Composition(counts)
        x0 = core.vertex_unrank(0, k)
        rng = np.random.default_rng(steps * 31 + k.n)
        draws = rng.integers(0, math.comb(k.n, 2), size=steps)
        assert _levels(x0, draws) == reference_levels(x0, draws)

    def test_random_start_and_wide_levels(self):
        # any start, and levels past 255 keep their uint16 dtype
        x0 = np.array([301, 0, 300, 7, 301], dtype=np.uint16)
        draws = np.random.default_rng(3).integers(0, 10, size=1234)
        levels = _walk_levels(x0, draws)
        assert levels.dtype == np.uint16
        assert [tuple(r) for r in levels.tolist()] == reference_levels(x0, draws)

    def test_zero_steps(self):
        assert _levels((1, 0, 2), []) == [(1, 0, 2)]


class TestTransitionKernel:
    def test_matrix_three_vertices(self):
        # one equal-entry pair gives a 1/3 self-loop; the rest spread uniformly
        assert transition_matrix(Composition((2, 1))) == [[Fraction(1, 3)] * 3] * 3

    def test_doubly_stochastic(self):
        t = np.array(transition_matrix(Composition((2, 2))))
        assert (t.sum(axis=0) == 1).all() and (t.sum(axis=1) == 1).all()
        assert (t >= 0).all()

    def test_exact_contraction_of_gap_eigenfunction(self):
        # E[f(X_{t+1}) | X_t] = (1 - 2/(N-1)) f(X_t), exactly
        k = Composition((2, 2, 2))
        t = transition_matrix(k)
        scale = 1 - Fraction(2, k.n - 1)
        for f in family(gap_eigenbasis(k)):
            got = [sum(a * v for a, v in zip(row, f) if a) for row in t]
            assert got == [scale * v for v in f]

    def test_empirical_kernel_three_sigma(self):
        # row-by-row binomial check of the one-step law against the matrix
        k = Composition((2, 1))
        table = transposition_table(k).tolist()
        t = np.array(transition_matrix(k), dtype=np.float64)
        rng = np.random.default_rng(7)
        n_draws = 100_000
        for start in range(3):
            draws = rng.integers(0, len(table[start]), size=n_draws)
            lands = np.bincount([table[start][p] for p in draws], minlength=3)
            for target in range(3):
                p = t[start][target]
                sigma = np.sqrt(n_draws * p * (1 - p))
                assert abs(lands[target] - n_draws * p) <= 3 * sigma


class TestSimulate:
    def test_deterministic(self):
        cfg = WalkConfig(composition=Composition((2, 2)), steps=5000, seed=42)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.occupation, b.occupation)
        assert np.array_equal(a.autocorr, b.autocorr)
        assert a.ratio == b.ratio and a.ratio_stderr == b.ratio_stderr
        assert a.rng_id == "numpy:PCG64"

    def test_short_walks_do_not_warn(self):
        # under N_BATCHES values per batch the standard errors are skipped, not warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for steps in range(1, 40):
                cfg = WalkConfig(Composition((2, 2)), steps=steps, seed=0, dump_trajectory=True)
                stats = simulate(cfg)
                if not stats.degenerate and steps + 1 < 2 * N_BATCHES:  # steps + 1 values
                    assert stats.ratio_stderr is None and np.isnan(stats.autocorr_stderr).all()

    def test_occupation_accounting(self):
        cfg = WalkConfig(composition=Composition((2, 1)), steps=999, seed=0)
        stats = simulate(cfg)
        assert stats.occupation.sum() == 1000  # start state plus every step

    def test_burn_in_and_thin(self):
        cfg = WalkConfig(composition=Composition((2, 1)), steps=1000, seed=0, burn_in=100, thin=3)
        stats = simulate(cfg)
        assert stats.occupation.sum() == len(range(100, 1001, 3))

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            simulate(WalkConfig(composition=Composition((3,)), steps=10, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(composition=Composition((1, 1)), steps=5, seed=0, burn_in=5)

    def test_custom_observable(self):
        k = Composition((2, 1))
        cfg = WalkConfig(composition=k, steps=2000, seed=3, observable=[1.0, -1.0, 0.0])
        stats = simulate(cfg)
        assert stats.observable_label == "custom"
        assert not stats.degenerate

    def test_constant_observable_degenerate(self):
        k = Composition((2, 1))
        cfg = WalkConfig(composition=k, steps=500, seed=3, observable=[2.0, 2.0, 2.0])
        stats = simulate(cfg)
        assert stats.degenerate
        with pytest.raises(ValueError):
            relaxation_estimate(stats)

    def test_trajectory_dump(self):
        cfg = WalkConfig(composition=Composition((2, 1)), steps=50, seed=4, dump_trajectory=True)
        stats = simulate(cfg)
        assert stats.states is not None and len(stats.states) == 51
        assert stats.states[0] == 0
        occ = np.bincount(stats.states, minlength=3)
        assert np.array_equal(occ, stats.occupation)
        assert simulate(WalkConfig(composition=Composition((2, 1)), steps=50, seed=4)).states is None

    def test_trajectory_dump_size_gate(self):
        with pytest.raises(ValueError):
            WalkConfig(
                composition=Composition((2, 1)), steps=3_000_000, seed=0, dump_trajectory=True
            )

    def test_tuple_path_matches_table_path(self, monkeypatch):
        k = Composition((2, 2))
        cfg = WalkConfig(composition=k, steps=4000, seed=11)
        via_table = simulate(cfg)
        monkeypatch.setattr("multislice.walk.TABLE_ENTRY_CAP", 1)
        via_tuples = simulate(cfg)  # unranked: no occupation, the same walk
        assert via_tuples.occupation is None and via_table.occupation is not None
        assert via_tuples.final_state == via_table.final_state
        assert np.array_equal(via_table.autocorr, via_tuples.autocorr)
        assert via_table.ratio == via_tuples.ratio
        assert via_table.ratio_stderr == via_tuples.ratio_stderr

    def test_ranked_outputs_name_the_entry_cap(self, monkeypatch):
        # (2,2): 6 vertices times 6 position pairs
        monkeypatch.setattr("multislice.walk.TABLE_ENTRY_CAP", 35)
        k = Composition((2, 2))
        with pytest.raises(BudgetError, match=r"\|V\| C\(N,2\) = 36 is over TABLE_ENTRY_CAP = 35"):
            simulate(WalkConfig(composition=k, steps=100, seed=0, dump_trajectory=True))
        with pytest.raises(BudgetError, match="TABLE_ENTRY_CAP"):
            simulate(WalkConfig(composition=k, steps=100, seed=0, observable=np.zeros(6)))
        monkeypatch.setattr("multislice.walk.TABLE_ENTRY_CAP", 36)
        assert simulate(WalkConfig(composition=k, steps=100, seed=0, dump_trajectory=True)).states is not None

    def test_custom_observable_reads_ranks(self):
        # the gap eigenfunction given per vertex walks the same trajectory
        k = Composition((2, 2, 1))
        cfg = WalkConfig(composition=k, steps=3000, seed=5, burn_in=10)
        gvals = np.array([float(v) for v in gap_eigenbasis(k).generators[0]])
        custom = WalkConfig(
            composition=k, steps=3000, seed=5, burn_in=10, observable=gvals[vertex_array(k)[:, 0]]
        )
        a, b = simulate(cfg), simulate(custom)
        assert np.array_equal(a.autocorr, b.autocorr) and a.ratio == b.ratio
        assert np.array_equal(a.occupation, b.occupation) and a.final_state == b.final_state

    def test_no_transposition_table(self):
        before = core._swap_table.cache_info()
        stats = simulate(WalkConfig(composition=Composition((1,) * 8), steps=2000, seed=1))
        assert stats.occupation.sum() == 2001
        assert core._swap_table.cache_info() == before

    def test_long_ranked_walk_enumerates_no_vertices(self, monkeypatch):
        # SEARCH_ROWS visited states or more are ranked by counting
        def forbidden(counts):
            raise AssertionError("vertex array built for a counted walk")

        monkeypatch.setattr(core, "_vertex_array", forbidden)
        monkeypatch.setattr(core, "_vertex_keys", forbidden)
        k = Composition((1,) * 8)
        stats = simulate(WalkConfig(composition=k, steps=core.SEARCH_ROWS, seed=1, dump_trajectory=True))
        assert stats.occupation.sum() == core.SEARCH_ROWS + 1
        assert stats.states[-1] == vertex_rank(stats.final_state, k)


class TestGolden:
    """Outputs pinned from the serial steppers the blocked scan replaced.

    The ratio floats come from einsum's sums, not BLAS: they are the same at
    any BLAS thread count.
    """

    def test_eight_particles_burn_in_thin_dump(self):
        k = Composition((1,) * 8)
        cfg = WalkConfig(
            composition=k, steps=20_000, seed=2024, burn_in=1500, thin=7, dump_trajectory=True
        )
        stats = simulate(cfg)
        assert stats.final_state == (0, 5, 7, 4, 3, 2, 6, 1)
        assert stats.ratio == 0.69180168747558
        assert stats.ratio_stderr == 0.01822172110423969
        assert stats.occupation.sum() == 2643
        assert np.count_nonzero(stats.occupation) == 2547
        assert _digest(stats.occupation) == "6a7dc5ec1550dea8"
        assert stats.states[:5].tolist() == [0, 36153, 36177, 21105, 99]
        assert stats.states[-3:].tolist() == [28035, 2103, 3567]
        assert _digest(stats.states) == "4c79b0c9b4095e5b"

    def test_unranked_slice(self):
        k = Composition((3,) + (1,) * 7)
        stats = simulate(WalkConfig(composition=k, steps=20_000, seed=2025))
        assert stats.final_state == (1, 0, 5, 7, 0, 4, 0, 3, 6, 2)
        assert stats.occupation is None
        assert stats.ratio == 0.808647291567179
        assert stats.ratio_stderr == 0.016041455644730425


class TestRelaxation:
    def test_period_two_alternation(self):
        # two vertices: the chain flips every step; reported, not fitted
        cfg = WalkConfig(composition=Composition((1, 1)), steps=10_001, seed=5)
        stats = simulate(cfg)
        ratio, _ = relaxation_estimate(stats)
        assert stats.periodic
        assert ratio == pytest.approx(-1.0, abs=1e-3)

    def test_six_particles_decay(self):
        k = Composition((2, 2, 2))
        cfg = WalkConfig(composition=k, steps=200_000, seed=7)
        stats = simulate(cfg)
        ratio, stderr = relaxation_estimate(stats)
        target = 1 - 2 / (k.n - 1)  # 0.6
        assert stderr > 0
        assert abs(ratio - target) <= 3 * stderr

    def test_csv_rows(self):
        cfg = WalkConfig(composition=Composition((2, 2)), steps=5000, seed=1, lags=6)
        stats = simulate(cfg)
        rows = stats.csv_rows()
        assert len(rows) == 6
        assert rows[0][0] == 1

    def test_as_dict_jsonable(self):
        import json

        cfg = WalkConfig(composition=Composition((2, 1)), steps=100, seed=1, lags=3)
        doc = simulate(cfg).as_dict()
        json.dumps(doc)
        assert doc["composition"] == "2,1"
        assert doc["n_batches"] == 16


class TestStationarity:
    def test_chi_square_helper(self):
        stat, df = chi_square_uniform(np.array([100, 100, 100]))
        assert stat == 0.0 and df == 2

    def test_three_vertex_uniform(self):
        cfg = WalkConfig(composition=Composition((2, 1)), steps=100_000, seed=13)
        stats = simulate(cfg)
        stat, df = chi_square_uniform(stats.occupation)
        assert stat <= scipy.stats.chi2.ppf(0.99, df)

    def test_six_vertex_uniform_thinned(self):
        # thin by 5: the slowest mode decays by (1/3)^5 between samples
        cfg = WalkConfig(composition=Composition((2, 2)), steps=200_000, seed=17, thin=5)
        stats = simulate(cfg)
        stat, df = chi_square_uniform(stats.occupation)
        assert stat <= scipy.stats.chi2.ppf(0.99, df)
