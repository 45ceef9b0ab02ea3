"""Fixtures shared by the test modules, and the check that keeps injected faults out of the memos."""

from __future__ import annotations

import pytest

from multislice import cli, coarsening, core, operators, spectral, walk

#: Builders whose results are memoized, by the builder itself or by a memo that
#: reads it; a test that replaces one of them must take ``fresh_bounds``.
MEMOIZED_BUILDERS = ("_vertex_array", "_swap_table", "_cooccurrence", "_count_pairs", "_closed_form_ok", "_scaled_generators")

_BUILDERS = {
    (module, name): getattr(module, name)
    for module in (cli, coarsening, core, operators, spectral, walk)
    for name in MEMOIZED_BUILDERS
    if hasattr(module, name)
}


@pytest.fixture
def fresh_bounds():
    """Empty memos of vertex arrays, row keys, tables, recursion bounds, P's counts,
    certified slices and coarsening verdicts, so no injected fault outlives its test."""
    # the memos, whatever a test patches in
    memos = (
        core._vertex_array,
        core._vertex_keys,
        core._swap_table,
        spectral._gap_bound,
        spectral._p_counts,
        spectral._certified_slice,
        coarsening._equivariant,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test that has replaced a memoized builder on a package module without ``fresh_bounds``:
    a memo may keep what the replacement built for every later test."""
    result = yield
    replaced = sorted(f"{module.__name__}.{name}" for (module, name), builder in _BUILDERS.items() if getattr(module, name) is not builder)
    if replaced and "fresh_bounds" not in item.fixturenames:
        pytest.fail(f"replaces the memoized builders {', '.join(replaced)} without requesting the fresh_bounds fixture", pytrace=False)
    return result
