"""Independent exact references for the tests: Fractions and Python loops.

Nothing here reads the package's transposition table or vertex array.  Each
oracle lists the slice itself, as the sorted distinct permutations of its
levels (lexicographic order is the package's rank order), and applies the
swaps one pair at a time.  Slow, small and plainly right: the tests hold the
package's integer and numpy paths against them, on small slices only.  The
integer family and its Laplacian run on numpy arrays over the same listed
vertices, so they reach (1^8).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Any, Iterator, Sequence

import numpy as np

from multislice.core import Composition, Vertex


def all_compositions(n: int, r: int) -> Iterator[Composition]:
    """All weak compositions of ``n`` into ``r`` levels (zero counts allowed)."""

    def rec(left: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (left,)
            return
        for first in range(left + 1):
            for rest in rec(left - first, slots - 1):
                yield (first,) + rest

    for counts in rec(n, r):
        yield Composition(counts)


def slice_vertices(k: Composition) -> list[Vertex]:
    """Every vertex of ``k`` in rank order: the sorted distinct permutations of its levels."""
    return sorted(set(itertools.permutations(m for m, c in enumerate(k.counts) for _ in range(c))))


def composition_of(x: Sequence[int], r: int | None = None) -> Composition:
    """Composition realized by a level sequence (level count inferred or given)."""
    counts = [0] * ((max(x) + 1) if r is None else r)
    for v in x:
        counts[v] += 1
    return Composition(counts)


def vertex_rank(x: Sequence[int], k: Composition) -> int:
    """Position of ``x`` in the lexicographic order of its multislice, by counting completions."""
    x = tuple(x)
    if composition_of(x, k.r).counts != k.counts:
        raise ValueError(f"vertex {x} does not realize composition {k}")
    counts, remaining, card, rank = list(k.counts), k.n, k.cardinality(), 0
    for level in x:
        # completions that put a smaller level m here: card * counts[m] / remaining
        rank += sum(card * counts[m] // remaining for m in range(level))
        card = card * counts[level] // remaining
        counts[level] -= 1
        remaining -= 1
    return rank


def transpose(x: Sequence[int], i: int, j: int) -> Vertex:
    """Swap entries at positions ``i < j`` (0-based); an involution."""
    if not 0 <= i < j < len(x):
        raise ValueError(f"positions ({i}, {j}) invalid for length {len(x)}")
    y = list(x)
    y[i], y[j] = y[j], y[i]
    return tuple(y)


def neighbors(x: Sequence[int]) -> list[Vertex]:
    """All distinct vertices one swap away, in pair order (swaps of equal entries excluded)."""
    pairs = itertools.combinations(range(len(x)), 2)
    return [transpose(x, i, j) for i, j in pairs if x[i] != x[j]]


def laplacian_action(k: Composition, f: Sequence) -> list[Fraction]:
    """(L f)(x) = sum over the neighbors y of x of f(x) - f(y)."""
    verts = slice_vertices(k)
    index = {x: i for i, x in enumerate(verts)}
    f = [Fraction(v) for v in f]
    return [sum((f[i] - f[index[y]] for y in neighbors(x)), Fraction(0)) for i, x in enumerate(verts)]


def is_eigenpair(k: Composition, f: Sequence, value) -> bool:
    """L f = value f, exactly; a zero f proves nothing and is refused."""
    if not any(f):
        raise ValueError("zero function cannot be an eigenfunction")
    return laplacian_action(k, f) == [Fraction(value) * v for v in f]


def family(basis) -> list[list[Fraction]]:
    """The members f(x) = g(x_pos) of a gap basis, generator by generator, then by position."""
    verts = slice_vertices(basis.composition)
    return [[g[x[pos]] for x in verts] for g in basis.generators for pos in basis.positions]


def int_matrix(basis) -> np.ndarray:
    """The members of a gap basis scaled by N, one int64 row each, generator by generator, then by position."""
    k = basis.composition
    verts = np.array(slice_vertices(k), dtype=np.intp).reshape(-1, k.n)
    scaled = [np.array([int(v * k.n) for v in g], dtype=np.int64) for g in basis.generators]
    return np.array([g[verts[:, pos]] for g in scaled for pos in basis.positions]).reshape(-1, len(verts))


def laplacian_rows(k: Composition, rows: np.ndarray) -> np.ndarray:
    """L applied to each integer row, a function on the slice in rank order.

    (L f)(x) sums f(x) - f(swap x) over all C(N,2) pairs.  A listed vertex's
    base-r code is its lexicographic rank among the codes, so each swapped
    vertex is found by ``searchsorted``, and checked found.
    """
    verts = np.array(slice_vertices(k), dtype=np.int64).reshape(-1, k.n)
    weights = k.r ** np.arange(k.n - 1, -1, -1, dtype=np.int64)
    if k.r ** k.n >= 2**63:
        raise ValueError(f"base-{k.r} codes of {k} pass int64")
    codes = verts @ weights
    out = np.zeros_like(rows)
    for i, j in itertools.combinations(range(k.n), 2):
        swapped = verts.copy()
        swapped[:, [i, j]] = verts[:, [j, i]]
        index = np.searchsorted(codes, swapped @ weights)
        assert np.array_equal(verts[index], swapped)
        out += rows - rows[:, index]
    return out


def mu_inner(k: Composition, f: Sequence, h: Sequence) -> Fraction:
    """Inner product under the uniform vertex measure."""
    return sum((Fraction(a) * b for a, b in zip(f, h)), Fraction(0)) / k.cardinality()


def project_onto_coordinate(k: Composition, f: Sequence, pos: int) -> list[Fraction]:
    """P_pos f: at every x, the average of f over the block {y : y_pos = x_pos}."""
    verts = slice_vertices(k)
    sums, sizes = [Fraction(0)] * k.r, [0] * k.r
    for x, v in zip(verts, f):
        sums[x[pos]] += v
        sizes[x[pos]] += 1
    return [sums[x[pos]] / sizes[x[pos]] for x in verts]


def average_projection(k: Composition, f: Sequence) -> list[Fraction]:
    """P f, the average over positions of the coordinate projections."""
    projections = [project_onto_coordinate(k, f, pos) for pos in range(k.n)]
    return [sum(column, Fraction(0)) / k.n for column in zip(*projections)]


def _swap_squares(k: Composition, f: Sequence, pos: int | None = None, level: int | None = None) -> Fraction:
    """Sum of (f(swap x) - f(x))^2 over vertices x and pairs; given ``pos``, only
    the x with x_pos = ``level`` and the pairs avoiding pos."""
    verts = slice_vertices(k)
    index = {x: i for i, x in enumerate(verts)}
    f = [Fraction(v) for v in f]
    total = Fraction(0)
    for x, fx in zip(verts, f):
        if pos is not None and x[pos] != level:
            continue
        for i, j in itertools.combinations(range(k.n), 2):
            if pos not in (i, j):
                total += (f[index[transpose(x, i, j)]] - fx) ** 2
    return total


def dirichlet_graph(k: Composition, f: Sequence) -> Fraction:
    """<f, L f> under the uniform measure: every edge is counted from both ends."""
    return _swap_squares(k, f) / (2 * k.cardinality())


def dirichlet_scaled(k: Composition, f: Sequence) -> Fraction:
    """The Dirichlet form with each coordinate updated at unit rate."""
    return _swap_squares(k, f) / ((k.n - 1) * k.cardinality())


def dirichlet_restricted(k: Composition, f: Sequence, pos: int, level: int) -> Fraction:
    """The form on {x : x_pos = level}, swaps avoiding pos, over the child slice's uniform measure."""
    return _swap_squares(k, f, pos, level) / ((k.n - 2) * k.decremented(level).cardinality())


def correlation_form_bruteforce(k: Composition, g: Sequence, h: Sequence) -> Fraction:
    """E[g(x_first) h(x_last)] by direct summation over the slice."""
    verts = slice_vertices(k)
    return sum((Fraction(g[x[0]]) * h[x[-1]] for x in verts), Fraction(0)) / len(verts)


def transition_matrix(k: Composition) -> list[list[Fraction]]:
    """The walk's one-step kernel: T[x][y] is the share of the C(N,2) pairs whose swap takes x to y."""
    verts = slice_vertices(k)
    index = {x: i for i, x in enumerate(verts)}
    pairs = math.comb(k.n, 2)
    out = [[Fraction(0)] * len(verts) for _ in verts]
    for x, row in zip(verts, out):
        for i, j in itertools.combinations(range(k.n), 2):
            row[index[transpose(x, i, j)]] += Fraction(1, pairs)
    return out


def to_jsonable(obj: Any) -> Any:
    """The report's conversion as one ``isinstance`` chain, every value
    through every test: the reference for its exact-type fast path."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(key): to_jsonable(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)
