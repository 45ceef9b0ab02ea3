"""Exact linear algebra kernels: Bareiss elimination and the exchangeable block rank."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multislice import exactla
from multislice.core import _vertex_array, reduced_compositions
from multislice.exactla import exact_nullity, exchangeable_rank, fraction_free_rank
from multislice.spectral import _level_pairs, gap_eigenbasis
from oracles import int_matrix


def gram(rows) -> np.ndarray:
    """The Gram matrix of integer rows, in Python ints."""
    rows = np.asarray(rows).astype(object)
    return rows @ rows.T


def known_rank_matrix(rng: random.Random, n: int, m: int, rank: int) -> list[list[int]]:
    """Construct an integer matrix of exactly the requested rank.

    Start from a diagonal with ``rank`` units, then apply unimodular row and
    column operations (which preserve rank exactly).
    """
    a = [[int(i == j and i < rank) for j in range(m)] for i in range(n)]
    for _ in range(3 * (n + m)):
        kind = rng.randrange(4)
        if kind == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif kind == 1 and m > 1:
            i, j = rng.sample(range(m), 2)
            c = rng.randint(-3, 3)
            for row in a:
                row[i] += c * row[j]
        elif kind == 2 and n > 1:
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], a[i]
        elif kind == 3 and m > 1:
            i, j = rng.sample(range(m), 2)
            for row in a:
                row[i], row[j] = row[j], row[i]
    return a


class TestBareiss:
    def test_known_ranks(self):
        rng = random.Random(0)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = rng.randint(1, 8)
            r = rng.randint(0, min(n, m))
            a = known_rank_matrix(rng, n, m, r)
            assert fraction_free_rank(a) == r

    def test_fraction_entries(self):
        a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
        assert fraction_free_rank(a) == 2
        b = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
        assert fraction_free_rank(b) == 1  # second row is 3x the first

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            fraction_free_rank([[1.5, 2.0]])

    def test_cap(self):
        big = [[1] * 10 for _ in range(10)]
        with pytest.raises(ValueError):
            fraction_free_rank(big, cap=5)

    def test_nullity_with_shift(self):
        # 2-vertex swap Laplacian: eigenvalues 0 and 2
        lap = [[1, -1], [-1, 1]]
        assert exact_nullity(lap, shift=0) == 1
        assert exact_nullity(lap, shift=2) == 1
        assert exact_nullity(lap, shift=1) == 0

    def test_nullity_fraction_shift(self):
        mat = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert exact_nullity(mat, shift=Fraction(1)) == 1
        assert exact_nullity(mat, shift=Fraction(-1)) == 1
        assert exact_nullity(mat, shift=Fraction(1, 2)) == 0

    def test_nullity_converts_its_rows_once(self, monkeypatch):
        # integer rows with no shift are copied as they are: no Fraction is made
        converted = []
        as_int_rows = exactla._as_int_rows

        def counted(matrix, shift=0):
            converted.append(shift)
            return as_int_rows(matrix, shift)

        def no_fraction(*args):
            raise AssertionError("made a Fraction")

        monkeypatch.setattr(exactla, "_as_int_rows", counted)
        assert exact_nullity([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], shift=3) == 2
        monkeypatch.setattr(exactla, "Fraction", no_fraction)
        assert exact_nullity(np.array([[1, -1], [-1, 1]]).tolist()) == 1
        assert converted == [3, 0]


class TestKernelRank:
    def test_full_rank_family(self):
        rng = random.Random(4)
        a = known_rank_matrix(rng, 5, 30, 5)
        assert fraction_free_rank(gram(a)) == 5

    def test_deficient_family(self):
        a = np.array([[1, 2, 3], [2, 4, 6]])
        assert fraction_free_rank(gram(a)) == 1

    def test_empty(self):
        assert fraction_free_rank(gram(np.zeros((0, 5), dtype=np.int64))) == 0

    def test_known_ranks(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = rng.randint(1, 12)
            r = rng.randint(0, min(n, m))
            a = np.array(known_rank_matrix(rng, n, m, r))
            assert fraction_free_rank(gram(a)) == r
            assert fraction_free_rank(gram(a * 2**31)) == r  # Gram entries past int64

    def test_gram_past_int64(self):
        # entries past int64 are ranked as Python ints: 2^64 wrapped to 0 would report rank 1
        assert fraction_free_rank(gram([[2**32, 0], [0, 1]])) == 2
        assert fraction_free_rank(gram([[2**70, 1, 0], [2**71, 2, 0], [0, 0, 1]])) == 2


@st.composite
def known_rank_families(draw):
    """``(a, r)``: an integer matrix of rank r over Q, at most 20 x 60.

    ``a = P L U Q`` with L an m x r unit lower trapezoid and U an r x n unit
    upper one, so an r x r minor equals 1; a power-of-two scale (up to 2^40)
    pushes the Gram matrix past int64 without changing the rank.
    """
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 60))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = np.tril(rng.integers(-3, 4, size=(m, r)), -1) + np.eye(m, r, dtype=np.int64)
    up = np.triu(rng.integers(-3, 4, size=(r, n)), 1) + np.eye(r, n, dtype=np.int64)
    a = (low @ up)[rng.permutation(m)][:, rng.permutation(n)]
    return a * 2 ** draw(st.sampled_from([0, 20, 40])), r


class TestKernelRankProperties:
    @settings(max_examples=150, deadline=None)
    @given(known_rank_families())
    def test_matches_known_rank(self, case):
        a, r = case
        assert fraction_free_rank(gram(a)) == r
        assert fraction_free_rank(gram(a.T)) == r


def exchangeable_family(counts, generators, m: int) -> np.ndarray:
    """Rows g(x_pos) on the slice ``counts``, by generator, then by position 0..m-1.

    Permuting positions maps the slice onto itself, so the Gram matrix has
    the block form A (x) I_m + B (x) (J_m - I_m) for any integer generators.
    """
    varr = _vertex_array(tuple(counts))
    return np.array([np.asarray(g, dtype=np.int64)[varr[:, pos]] for g in generators for pos in range(m)])


def position_blocks(gram_matrix: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A and B: the Gram matrix's first diagonal and first off-diagonal position
    blocks; with one position there is no B, and any B, here 0, gives the same rank."""
    blocks = gram_matrix.reshape(len(gram_matrix) // m, m, len(gram_matrix) // m, m)  # [g, pos, h, pos']
    a = blocks[:, 0, :, 0]
    return a, blocks[:, 0, :, 1] if m > 1 else 0 * a


@pytest.fixture
def bareiss_sizes(monkeypatch):
    """The sizes of the matrices that Bareiss ranks, in call order."""
    sizes = []

    def recorded(matrix, cap=exactla.BAREISS_CAP):
        sizes.append(len(matrix))
        return fraction_free_rank(matrix, cap)

    monkeypatch.setattr(exactla, "fraction_free_rank", recorded)
    return sizes


class TestBlockRank:
    """rank = rank(A + (m-1) B) + (m-1) rank(A - B) on exchangeable Gram matrices."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_exchangeable_families(self, seed, bareiss_sizes):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 3, size=rng.integers(2, 5))
        n, r = int(counts.sum()), len(counts)
        m = int(rng.integers(2, n + 1))
        generators = rng.integers(-3, 4, size=(int(rng.integers(1, r + 1)), r))
        family = exchangeable_family(counts, generators, m)
        assert exchangeable_rank(*position_blocks(gram(family), m), m) == fraction_free_rank(family)
        assert bareiss_sizes == [len(generators)] * 2

    @pytest.mark.parametrize("counts", [(2, 1, 1), (1, 1, 1, 1), (2, 2, 1)], ids=str)
    def test_singular_blocks(self, counts, bareiss_sizes):
        n, r = sum(counts), len(counts)
        # N times the nu-centered indicators of all levels but the last: over all N positions they sum to 0
        centered = [[n * int(a == b) - c for b, c in enumerate(counts)] for a in range(r - 1)]
        constant = [[1] * r]  # the same row at every position
        cases = [
            (centered, n, {"sum"}),
            (centered + constant, 3, {"difference"}),
            (constant + [[2] * r], 3, {"sum", "difference"}),
        ]
        for generators, m, singular in cases:
            family = exchangeable_family(counts, generators, m)
            g = len(generators)
            a, b = position_blocks(gram(family), m)
            short = {"sum": a + (m - 1) * b, "difference": a - b}
            assert {name for name, c in short.items() if fraction_free_rank(c.tolist()) < g} == singular
            bareiss_sizes.clear()
            assert exchangeable_rank(a, b, m) == fraction_free_rank(gram(family)) == fraction_free_rank(family)
            assert bareiss_sizes == [g] * 2

    def test_block_sums_past_int64(self):
        # an int64 Gram matrix (entries up to 2^62) whose A + 2B holds 2^63: wrapped to
        # -2^63, the block of two proportional generators would have rank 2, not 1
        c = 2**29
        family = exchangeable_family((1, 1, 1), [[c, c, 0], [2 * c, 2 * c, 0]], 3)
        int64_gram = family @ family.T
        assert int64_gram.dtype == np.int64
        a, b = position_blocks(int64_gram, 3)
        assert exchangeable_rank(a, b, 3) == fraction_free_rank(gram(family)) == fraction_free_rank(family) == 3

    def test_every_gap_family_up_to_seven(self, bareiss_sizes):
        # the blocks that gap_certificate reads, Gamma S Gamma^T and Gamma C Gamma^T on the
        # closed form, are the family's own Gram blocks scaled by N (N-1) / |V|
        for k in (k for n in range(2, 8) for k in reduced_compositions(n)):
            basis = gap_eigenbasis(k)
            family, m = int_matrix(basis), len(basis.positions)
            a, b = position_blocks(gram(family), m)
            gens = basis.scaled_generators().astype(object)
            counts, pairs = _level_pairs(k)
            scale, size = k.n * (k.n - 1), k.cardinality()
            assert np.array_equal(scale * a, size * (gens * ((k.n - 1) * counts) @ gens.T)), k
            if m > 1:
                assert np.array_equal(scale * b, size * (gens @ pairs @ gens.T)), k
            bareiss_sizes.clear()
            assert exchangeable_rank(a, b, m) == fraction_free_rank(gram(family)) == basis.dimension, k
            assert bareiss_sizes == [len(basis.generators)] * 2, k
