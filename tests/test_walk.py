"""Random transposition walk: kernel checks, stationarity, relaxation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from multislice.core import Composition, vertex_unrank
from multislice.operators import transposition_table
from multislice.spectral import gap_eigenbasis
from multislice.walk import (
    WalkConfig,
    chi_square_uniform,
    relaxation_estimate,
    simulate,
    step,
    transition_expectation,
)


class TestStep:
    def test_two_vertices_always_move(self):
        rng = np.random.default_rng(0)
        x = (0, 1)
        for _ in range(10):
            x = step(x, rng)
        assert x in {(0, 1), (1, 0)}
        assert step((0, 1), rng) in {(1, 0),}

    def test_single_level_fixed(self):
        rng = np.random.default_rng(1)
        assert step((0, 0, 0), rng) == (0, 0, 0)

    def test_needs_two_positions(self):
        with pytest.raises(ValueError):
            step((0,), np.random.default_rng(2))


def transition_matrix(k: Composition) -> np.ndarray:
    """Dense one-step kernel, column j the expectation of the unit vector e_j."""
    return np.column_stack([transition_expectation(k, e) for e in np.eye(k.cardinality())])


class TestTransitionKernel:
    def test_matrix_three_vertices(self):
        # one equal-entry pair gives a 1/3 self-loop; the rest spread uniformly
        t = transition_matrix(Composition((2, 1)))
        assert np.allclose(t, np.full((3, 3), 1 / 3))

    def test_doubly_stochastic(self):
        t = transition_matrix(Composition((2, 2)))
        assert np.allclose(t.sum(axis=0), 1.0)
        assert np.allclose(t.sum(axis=1), 1.0)
        assert np.all(t >= 0)

    def test_exact_contraction_of_gap_eigenfunction(self):
        # E[f(X_{t+1}) | X_t] = (1 - 2/(N-1)) f(X_t), exactly
        k = Composition((2, 2, 2))
        for f in gap_eigenbasis(k).vectors():
            got = transition_expectation(k, f)
            scale = 1 - Fraction(2, k.n - 1)
            assert got == [scale * v for v in f]

    def test_empirical_kernel_three_sigma(self):
        # row-by-row binomial check of the one-step law against the matrix
        k = Composition((2, 1))
        table = transposition_table(k).tolist()
        t = transition_matrix(k)
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

    def test_occupation_accounting(self):
        cfg = WalkConfig(composition=Composition((2, 1)), steps=999, seed=0)
        stats = simulate(cfg)
        assert stats.occupation.sum() == 1000  # start state plus every step
        assert stats.empirical_distribution.sum() == pytest.approx(1.0)

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
        via_tuples = simulate(cfg)
        assert via_tuples.occupation is None
        assert np.allclose(via_table.autocorr, via_tuples.autocorr)
        assert via_table.ratio == pytest.approx(via_tuples.ratio)
        assert via_tuples.final_state == vertex_unrank(0, k) or len(via_tuples.final_state) == k.n


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
