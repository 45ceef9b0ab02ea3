"""Fixtures shared by the test modules, and the check that keeps injected faults out of the memos."""

from __future__ import annotations

import functools

import pytest

from multislice import cli, coarsening, core, operators, spectral, walk

MODULES = (cli, coarsening, core, operators, spectral, walk)

#: Builders whose results are memoized, by the builder itself or by a memo that
#: reads it; a test that replaces one of them must take ``fresh_bounds``.
MEMOIZED_BUILDERS = ("_vertex_array", "_swap_table", "_cooccurrence", "_count_pairs", "_closed_form_ok", "_scaled_generators")

_BUILDERS = {
    (module, name): getattr(module, name)
    for module in MODULES
    for name in MEMOIZED_BUILDERS
    if hasattr(module, name)
}


#: The memos of scalars per counts, beside the one slice memo ``core._MEMO``.
SCALAR_MEMOS = (
    core._multinomial,
    spectral._children,
    spectral._gap_bound,
    spectral._p_counts,
    operators._swapped_positions,
    coarsening._equivariant,
)


def clear_memos() -> None:
    core._MEMO.clear()
    for memo in SCALAR_MEMOS:
        memo.cache_clear()


def count_builds(monkeypatch, name: str) -> tuple[list, list]:
    """Replace the slice-memo builder ``name`` wherever a package module binds it by the same builder,
    memoized in the same place of ``core._MEMO``; return the counts of every call and of every build.
    A test that uses it takes ``fresh_bounds``."""
    original = next(getattr(module, name) for module in MODULES if hasattr(module, name))
    calls, builds = [], []
    build = original.__wrapped__
    memoized = core._memo(functools.wraps(build)(lambda counts: builds.append(counts) or build(counts)))
    for module in MODULES:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, lambda counts: calls.append(counts) or memoized(counts))
    return calls, builds


@pytest.fixture
def fresh_bounds():
    """Empty the slice memo (vertex arrays, half tables, tables, certified slices, counted G) and the
    scalar memos (recursion bounds, P's counts, coarsening verdicts ...), so no injected fault outlives its test."""
    clear_memos()
    yield
    clear_memos()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test that has replaced a memoized builder on a package module without ``fresh_bounds``:
    a memo may keep what the replacement built for every later test."""
    result = yield
    replaced = sorted(f"{module.__name__}.{name}" for (module, name), builder in _BUILDERS.items() if getattr(module, name) is not builder)
    if replaced and "fresh_bounds" not in item.fixturenames:
        pytest.fail(f"replaces the memoized builders {', '.join(replaced)} without requesting the fresh_bounds fixture", pytrace=False)
    return result
