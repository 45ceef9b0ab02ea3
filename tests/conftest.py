"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from multislice import coarsening, spectral


@pytest.fixture
def fresh_bounds():
    """Empty memos of recursion bounds, P's counts, certified slices and coarsening verdicts,
    so no injected fault outlives its test."""
    # the memos, whatever a test patches in
    memos = (spectral._gap_bound, spectral._p_counts, spectral._certified_slice, coarsening._equivariant)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
