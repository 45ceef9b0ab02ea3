"""The check that a test replacing a memoized builder takes ``fresh_bounds``."""

from __future__ import annotations

import types

import numpy as np
import pytest

import conftest
from multislice import coarsening, core, operators, spectral
from multislice.core import Composition


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
    assert operators.identity_audit(Composition((2, 1, 1)), n_functions=1)["graph_ok"]  # builds and proves a table
    assert {"_vertex_array", "_swap_table"} <= core._MEMO[(2, 1, 1)][1].keys() and core._MEMO.held
    assert spectral.gap_certificate(Composition((2, 1, 1))).passed
    assert coarsening.spectrum_containment(coarsening.CoarseningMap((0, 1, 1)), Composition((2, 1, 1))).gap_monotone
    assert all(memo.cache_info().currsize for memo in conftest.SCALAR_MEMOS)
    for _ in conftest.fresh_bounds.__wrapped__():
        assert not core._MEMO and core._MEMO.held == 0
        assert [memo.cache_info().currsize for memo in conftest.SCALAR_MEMOS] == [0] * len(conftest.SCALAR_MEMOS)


def test_a_count_on_an_injected_array_does_not_outlive_fresh_bounds(monkeypatch, fresh_bounds):
    # G counted on (2,1,1) with row 1 duplicated is not the closed form; once the memos
    # that fresh_bounds clears are cleared, the true slice's certificate must not read it
    k = Composition((2, 1, 1))
    faulty = core._vertex_array(k.counts).copy()
    faulty[2] = faulty[1]
    real, expected = core._vertex_array, spectral._count_pairs.__wrapped__(k.counts)
    with monkeypatch.context() as patch:
        for module in (core, operators):
            patch.setattr(module, "_vertex_array", lambda counts: faulty if counts == k.counts else real(counts))
        assert not np.array_equal(spectral._count_pairs(k.counts), expected)
    for _ in conftest.fresh_bounds.__wrapped__():
        assert spectral.gap_certificate(k).passed
