"""The check that a test replacing a memoized builder takes ``fresh_bounds``."""

from __future__ import annotations

import types

import pytest

import conftest
from multislice import core, spectral


def run_check(fixturenames: list[str], patch) -> None:
    """Run the check around a test body that calls ``patch``, as for a test requesting ``fixturenames``."""
    check = conftest.pytest_runtest_call(types.SimpleNamespace(fixturenames=fixturenames))
    next(check)
    patch()
    with pytest.raises(StopIteration):
        check.send(None)


def test_a_replaced_builder_needs_fresh_bounds(monkeypatch, fresh_bounds):
    with pytest.raises(pytest.fail.Exception, match=r"multislice\.core\._swap_table without requesting the fresh_bounds fixture"):
        run_check(["monkeypatch"], lambda: monkeypatch.setattr(core, "_swap_table", lambda counts: None))


def test_with_fresh_bounds_it_passes(monkeypatch, fresh_bounds):
    run_check(["monkeypatch", "fresh_bounds"], lambda: monkeypatch.setattr(spectral, "_scaled_generators", None))


def test_other_patches_pass(monkeypatch):
    run_check(["monkeypatch"], lambda: monkeypatch.setattr(core, "SEARCH_ROWS", 1))


def test_fresh_bounds_empties_the_enumeration_memos(fresh_bounds):
    memos = (core._vertex_array, core._vertex_keys, core._swap_table)
    core._swap_table((2, 1, 1))  # ranks the small table's rows among the vertex array's keys
    assert all(memo.cache_info().currsize for memo in memos)
    for _ in conftest.fresh_bounds.__wrapped__():
        assert [memo.cache_info().currsize for memo in memos] == [0, 0, 0]
