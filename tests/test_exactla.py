"""Exact linear algebra kernels: Bareiss elimination and modular rank."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multislice.exactla import (
    MODULAR_PRIMES,
    _chunk,
    exact_nullity,
    fraction_free_rank,
    kernel_rank_certified,
    nullity_mod_p,
    rank_mod_p,
)


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


class TestModularRank:
    def test_matches_bareiss_random(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randint(1, 10)
            m = rng.randint(1, 10)
            r = rng.randint(0, min(n, m))
            a = known_rank_matrix(rng, n, m, r)
            # tiny block size exercises panel boundaries
            assert rank_mod_p(np.array(a), block=3) == r
            assert rank_mod_p(np.array(a)) == r

    def test_all_primes_agree(self):
        rng = random.Random(2)
        a = np.array(known_rank_matrix(rng, 12, 9, 5))
        for p in MODULAR_PRIMES:
            assert rank_mod_p(a, p) == 5

    def test_block_boundary_sizes(self):
        rng = random.Random(3)
        for n in (4, 5, 7, 8, 9, 16):
            a = known_rank_matrix(rng, n, n, n - 1)
            assert rank_mod_p(np.array(a), block=4) == n - 1

    def test_nullity(self):
        a = np.array([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        assert nullity_mod_p(a) == 1

    def test_negative_entries(self):
        a = np.array([[-7, 14], [3, -6]])
        assert rank_mod_p(a) == 1

    def test_zero_matrix(self):
        assert rank_mod_p(np.zeros((4, 6), dtype=np.int64)) == 0

    def test_medium_laplacian_agrees_with_bareiss(self):
        # cross-engine consistency on a real certification matrix
        from multislice.core import Composition
        from multislice.operators import laplacian_dense

        k = Composition((2, 2, 1))
        lap = laplacian_dense(k)
        shifted = lap - k.n * np.eye(lap.shape[0], dtype=np.int64)
        want = exact_nullity(lap.tolist(), shift=k.n)
        assert nullity_mod_p(shifted.astype(np.int64)) == want == 8


class TestKernelRank:
    def test_full_rank_family(self):
        rng = random.Random(4)
        a = known_rank_matrix(rng, 5, 30, 5)
        assert kernel_rank_certified(np.array(a)) == 5

    def test_deficient_family(self):
        a = np.array([[1, 2, 3], [2, 4, 6]])
        assert kernel_rank_certified(a) == 1

    def test_empty(self):
        assert kernel_rank_certified(np.zeros((0, 5), dtype=np.int64)) == 0


# Primes near 2^25, 2^26 and 1.8e8: their chunk lengths K are 32, 8 and 1,
# so 40 x 40 inputs reach every delayed-reduction threshold of the modular
# kernel, and at 1.8e8 a product with an uncentred inverse would pass 2^53.
SMALL_CHUNK_PRIMES = (33554393, 67108859, 179999993)


@st.composite
def structured_matrices(draw):
    """``(a, a0, r, p, block)``: a0 and a have rank r over Q and GF(p) alike.

    ``a0 = P L U Q`` with L an m x r unit lower trapezoid and U an r x n unit
    upper one, so an r x r minor equals 1 whatever the prime.  ``a`` scales
    the rows and columns of a0 by random units mod p, which spreads the
    residues over all of GF(p), and adds multiples of p, which puts entries
    at and near +-p and its multiples.  Neither changes the rank over GF(p).
    """
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 40))
    r = draw(st.integers(0, min(m, n)))
    p = draw(st.sampled_from(MODULAR_PRIMES + SMALL_CHUNK_PRIMES))
    block = draw(st.integers(1, min(8, _chunk(p))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = np.tril(rng.integers(-3, 4, size=(m, r)), -1) + np.eye(m, r, dtype=np.int64)
    up = np.triu(rng.integers(-3, 4, size=(r, n)), 1) + np.eye(r, n, dtype=np.int64)
    a0 = (low @ up)[rng.permutation(m)][:, rng.permutation(n)]
    a = a0
    if draw(st.booleans()):
        rows, cols = rng.integers(1, p, size=(m, 1)), rng.integers(1, p, size=(1, n))
        a = (a % p) * rows % p * cols % p
    wraps = draw(st.sampled_from([0, 1, 3]))
    a = a + p * rng.integers(-wraps, wraps + 1, size=(m, n))
    return a, a0, r, p, block


class TestModularRankProperties:
    @settings(max_examples=200, deadline=None)
    @given(structured_matrices())
    def test_matches_bareiss(self, case):
        a, a0, r, p, block = case
        assert fraction_free_rank(a0.tolist(), cap=None) == r
        assert rank_mod_p(a, p, block=block) == r
        assert rank_mod_p(a.T, p, block=block) == r

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_transpose_invariant(self, m, n, seed, block):
        # a mix of small entries, entries near +-p and +-2p, and arbitrary
        # entries up to the float64 limit, on wide, tall and square shapes
        p = MODULAR_PRIMES[0]
        rng = np.random.default_rng(seed)
        small = rng.integers(-5, 6, size=(m, n))
        near_p = rng.choice([-2, -1, 1, 2], size=(m, n)) * p + rng.integers(-2, 3, size=(m, n))
        huge = rng.integers(-(2**53) + 1, 2**53, size=(m, n))
        a = np.choose(rng.integers(0, 3, size=(m, n)), [small, near_p, huge])
        assert rank_mod_p(a, p, block=block) == rank_mod_p(a.T, p, block=block)

    def test_entries_near_float64_limit(self):
        # For this prime the next multiple of p above 2^53 is odd and within
        # p/2 of 2^53 - 1, so p * rint(a / p) would round in float64; the
        # input must be reduced exactly before it is centred.
        p = 4194217
        a = 2**53 - 1
        singular = np.array([[a, 1], [1, pow(a, -1, p)]], dtype=np.int64)
        assert rank_mod_p(singular, p) == 1
        top = (2**53 - 1) // p * p  # a multiple of p just under 2^53
        assert rank_mod_p(np.array([[top, 0], [top - p, 0]], dtype=np.int64), p) == 0
        with pytest.raises(ValueError):
            rank_mod_p(np.array([[2**53]], dtype=np.int64))

    def test_block_wider_than_chunk(self):
        with pytest.raises(ValueError):
            rank_mod_p(np.eye(3, dtype=np.int64), SMALL_CHUNK_PRIMES[1], block=9)
        with pytest.raises(ValueError):
            rank_mod_p(np.eye(3, dtype=np.int64), 2**28 - 57, block=1)  # K = 0
        with pytest.raises(ValueError):
            rank_mod_p(np.eye(3, dtype=np.int64), block=0)
