"""Exact linear algebra kernels: Bareiss elimination and the Gram-matrix rank."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multislice.exactla import exact_nullity, fraction_free_rank, kernel_rank_certified


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

    def test_known_ranks(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 8)
            m = rng.randint(1, 12)
            r = rng.randint(0, min(n, m))
            a = np.array(known_rank_matrix(rng, n, m, r))
            assert kernel_rank_certified(a) == r
            assert kernel_rank_certified(a * 2**31) == r  # Gram entries past int64

    def test_gram_past_int64(self):
        # an int64 Gram would wrap 2^64 to 0 and report rank 1
        assert kernel_rank_certified(np.array([[2**32, 0], [0, 1]])) == 2
        assert kernel_rank_certified([[2**70, 1, 0], [2**71, 2, 0], [0, 0, 1]]) == 2


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
        assert kernel_rank_certified(a) == r
        assert kernel_rank_certified(a.T) == r
