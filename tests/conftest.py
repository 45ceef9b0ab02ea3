"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from multislice import spectral


@pytest.fixture
def fresh_bounds():
    """Empty memos of recursion bounds and attained gaps, so no injected fault outlives its test."""
    memos = (spectral._gap_bound, spectral._attains_gap)  # the memos, whatever a test patches in
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
