"""Multiset-permutation graphs: vertex sets, adjacency, enumeration, ranking.

A *multislice* is the set of length-N tuples over levels {0, ..., r-1} in
which level m occurs exactly ``counts[m]`` times.  Two distinct tuples are
adjacent when one is obtained from the other by swapping two entries.  The
connected components of the swap dynamics on level sequences are exactly
these multislices, so everything downstream (Laplacians, spectra, walks)
is parameterized by a :class:`Composition`.

Positions are 0-based everywhere: pair (i, j) swaps entries ``x[i]`` and
``x[j]`` with ``0 <= i < j < N``.  The canonical vertex order is
lexicographic on the level sequence; a vertex's *rank* is its index in that
order, and :func:`vertex_unrank` maps a rank back to its vertex.

Bulk ranking, :func:`_ranks`, has two branches.  A batch of
:data:`SEARCH_ROWS` rows or more adds up two entries per row, where the slice
has :func:`_half_tables`: the rows' halves, read as base-r numbers, index a
prefix and a suffix table that :func:`_count_ranks` fills once, without the
vertex array.  Any other batch turns each row into a big-endian byte string,
as wide as the largest level needs, whose byte order is the row's
lexicographic order, and finds it by ``np.searchsorted`` among the cached
strings of the vertex array.  The transposition table, the edge list, the
coarsening vertex maps and the walk all take their ranks from it; the table
makes one call per batch of pair columns, each column a copy of the vertex
array with the pair's two positions exchanged.

The vertex array, :func:`_vertex_array`, is the one enumeration: the slice's
blocks {x : x_0 = a} in rank order, built from its children's arrays in one
byte per level; :func:`vertices` reads its rows as tuples.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

Vertex = tuple[int, ...]

#: Default cap on the number of vertices any exhaustive operation may touch.
DEFAULT_BUDGET = 10**6

#: Cap on transposition-table entries (|V| * C(N,2)); tables above this would
#: dominate memory and the matrix-free paths should be used instead.
TABLE_ENTRY_CAP = 25_000_000

#: From this many rows on, bulk ranking looks ranks up in the half tables
#: of :func:`_half_tables`, where a slice has them, instead of searching.
SEARCH_ROWS = 4096

#: Bytes that one batch of pair columns may hold: a :func:`_swap_table`
#: batch's working set, a graph-proof gather's levels.
_CHUNK_BYTES = 2**22


class BudgetError(RuntimeError):
    """An exhaustive operation would exceed its vertex budget."""


@dataclass(frozen=True)
class Composition:
    """Level counts ``(k_0, ..., k_{r-1})`` identifying one multislice.

    ``n`` is the tuple length (number of particles), ``r`` the number of
    levels.  A composition is *trivial* when one level holds everything
    (single-vertex graph) and *reduced* when every count is positive.
    """

    counts: tuple[int, ...]

    def __init__(self, counts: Iterable[int]):
        counts = tuple(int(c) for c in counts)
        if not counts:
            raise ValueError("composition needs at least one level")
        if any(c < 0 for c in counts):
            raise ValueError(f"negative count in {counts}")
        if sum(counts) < 1:
            raise ValueError("composition must place at least one particle")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse a comma-separated count list such as ``"2,1,1"``."""
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad composition {text!r}: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(list(self.counts))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def r(self) -> int:
        return len(self.counts)

    @property
    def active_levels(self) -> tuple[int, ...]:
        return tuple(m for m, c in enumerate(self.counts) if c > 0)

    @property
    def r_active(self) -> int:
        """Number of levels that actually occur."""
        return sum(1 for c in self.counts if c > 0)

    @property
    def is_trivial(self) -> bool:
        """True when the multislice is a single vertex (no edges)."""
        return max(self.counts) == self.n

    @property
    def is_reduced(self) -> bool:
        return all(c > 0 for c in self.counts)

    def cardinality(self) -> int:
        """Number of vertices: the multinomial coefficient N!/(k_0! ... )."""
        return _multinomial(self.counts)

    def degree(self) -> int:
        """Common number of neighbors: sum of k_m * k_n over level pairs m < n."""
        total = self.n
        return (total * total - sum(c * c for c in self.counts)) // 2

    def decremented(self, level: int) -> "Composition":
        """Composition with one particle removed from ``level``."""
        if not 0 <= level < self.r:
            raise ValueError(f"level {level} out of range for {self}")
        if self.counts[level] < 1:
            raise ValueError(f"cannot decrement empty level {level} of {self}")
        if self.n == 1:
            raise ValueError("cannot remove the last particle")
        new = list(self.counts)
        new[level] -= 1
        return Composition(new)

    def reduce(self) -> tuple["Composition", dict[int, int]]:
        """Drop empty levels; return the reduced composition and old->new map.

        The induced relabeling of vertices is a graph isomorphism, so all
        spectral quantities are unchanged.
        """
        mapping: dict[int, int] = {}
        kept: list[int] = []
        for m, c in enumerate(self.counts):
            if c > 0:
                mapping[m] = len(kept)
                kept.append(c)
        return Composition(kept), mapping

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.counts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)


@lru_cache(maxsize=1024)
def _multinomial(counts: tuple[int, ...]) -> int:
    """N!/(k_0! ...), memoized per counts: budget checks ask for it on every build."""
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def _coerce(k: Composition | Sequence[int]) -> Composition:
    return k if isinstance(k, Composition) else Composition(k)


def check_budget(k: Composition, budget: int | None = DEFAULT_BUDGET) -> int:
    """Return cardinality(k), raising :class:`BudgetError` above ``budget``."""
    size = k.cardinality()
    if budget is not None and size > budget:
        raise BudgetError(
            f"multislice {k} has {size} vertices, exceeding budget {budget}"
        )
    return size


def vertices(
    k: Composition | Sequence[int], budget: int | None = DEFAULT_BUDGET
) -> Iterator[Vertex]:
    """Every vertex of the multislice once, in lexicographic order: the rows of
    :func:`_vertex_array` as tuples, 4096 at a time; refused above ``budget`` first."""
    k = _coerce(k)
    check_budget(k, budget)
    varr = _vertex_array(k.counts)
    return (tuple(x) for start in range(0, len(varr), 4096) for x in varr[start:start + 4096].tolist())


def vertex_unrank(index: int, k: Composition | Sequence[int]) -> Vertex:
    """The vertex of rank ``index``: the inverse of the bulk ranking :func:`_ranks`."""
    k = _coerce(k)
    size = k.cardinality()
    if not 0 <= index < size:
        raise ValueError(f"rank {index} out of range for {k} (0..{size - 1})")
    counts = list(k.counts)
    remaining = k.n
    card = size
    out = []
    for _ in range(k.n):
        for m in range(k.r):
            if not counts[m]:
                continue
            block = card * counts[m] // remaining
            if index < block:
                out.append(m)
                card = block
                counts[m] -= 1
                remaining -= 1
                break
            index -= block
    return tuple(out)


def reduced_compositions(n: int, min_levels: int = 2) -> list[Composition]:
    """All compositions of ``n`` into at least ``min_levels`` positive parts.

    With ``min_levels=2`` these are exactly the non-trivial reduced
    compositions of ``n``, every one a connected graph with at least one edge.
    """

    def rec(left: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        for first in range(1, left + 1):
            for rest in rec(left - first):
                yield (first,) + rest

    return [Composition(c) for c in rec(n) if len(c) >= min_levels]


#: Every vertex array of a reduced slice that something still holds, by counts:
#: a build descends only to the slices below it that have none.
_LIVE: "weakref.WeakValueDictionary[tuple[int, ...], np.ndarray]" = weakref.WeakValueDictionary()


def _child(counts: tuple[int, ...], a: int) -> tuple[int, ...]:
    """The reduced counts of k - e_a: the slice of the block {x : x_0 = a}, with x_0 dropped."""
    return tuple(c - (b == a) for b, c in enumerate(counts) if c - (b == a))


@lru_cache(maxsize=64)
def _vertex_array(counts: tuple[int, ...]) -> np.ndarray:
    """(|V|, N) read-only array of the vertices, row order = rank order, in ``np.min_scalar_type(r - 1)``.

    V(k) is the concatenation, over the occupied levels a in order, of a
    followed by V(k - e_a).  A slice with empty levels relabels its reduced
    slice's array.  A reduced slice first builds, through this memo and
    smallest N first, every reduced slice below it that no live array holds,
    so the stack never deepens with N and a sweep's slices share their
    sub-slices; it holds them until its own blocks are filled.
    """
    dtype = np.min_scalar_type(len(counts) - 1)
    if 0 in counts:
        arr = np.flatnonzero(counts).astype(dtype).take(_vertex_array(tuple(c for c in counts if c)))
        arr.setflags(write=False)
        return arr
    held = {(): np.zeros((1, 0), dtype=np.uint8)}  # the slice of no particles: one empty vertex
    layers, layer = [], {counts}
    while layer:
        below = {_child(key, a) for key in layer for a in range(len(key))}
        for key in below - held.keys():
            if (arr := _LIVE.get(key)) is not None:
                held[key] = arr
        layers.append(layer := below - held.keys())
    for layer in reversed(layers):
        for key in layer:
            held[key] = _vertex_array(key)
    arr = np.empty((_multinomial(counts), sum(counts)), dtype=dtype)
    start = 0
    for a, c in enumerate(counts):
        rows = held[_child(counts, a)]
        block = arr[start:start + len(rows)]
        block[:, 0] = a
        block[:, 1:] = rows if c > 1 else np.delete(np.arange(len(counts), dtype=dtype), a).take(rows)
        start += len(rows)
    arr.setflags(write=False)
    _LIVE[counts] = arr
    return arr


def _keys(rows: np.ndarray, r: int) -> np.ndarray:
    """One byte string per row, ordered as the rows are lexicographically.

    All keys have the same width, so the ``S`` dtype's NUL padding never reorders them.
    """
    dtype = np.min_scalar_type(r - 1).newbyteorder(">")
    rows = np.ascontiguousarray(rows, dtype=dtype)
    return rows.view(f"S{rows.shape[1] * dtype.itemsize}").ravel()


@lru_cache(maxsize=64)
def _vertex_keys(counts: tuple[int, ...]) -> np.ndarray:
    """The vertex array's row keys, sorted because the rows are in rank order."""
    keys = _keys(_vertex_array(counts), len(counts))
    keys.setflags(write=False)
    return keys


def _count_ranks(counts: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """The rank of every row, counted without the vertex array.

    rank(x) = sum_i M_{i+1} * below_i / equal_i, where M_{i+1} counts the
    arrangements of x[i+1:], below_i = #{j > i : x_j < x_i} and
    equal_i = #{j >= i : x_j = x_i}.  Every product and quotient is an integer
    at most |V| * N, so float64 is exact while that stays below 2**53.
    """
    k = Composition(counts)
    if k.cardinality() * k.n >= 2**53:
        raise OverflowError(f"ranks of {k} need |V| * N < 2**53 to be exact in float64")
    cols = np.ascontiguousarray(rows.T, dtype=np.min_scalar_type(k.r - 1))
    n, m = cols.shape
    rank, mult = np.zeros(m), np.ones(m)
    below = np.empty(m, dtype=np.min_scalar_type(n))
    equal = np.empty_like(below)
    hit = np.empty(m, dtype=bool)
    for i in range(n - 2, -1, -1):
        below[:], equal[:] = 0, 1
        for j in range(i + 1, n):
            below += np.less(cols[j], cols[i], out=hit)
            equal += np.equal(cols[j], cols[i], out=hit)
        rank += mult * below / equal
        mult *= n - i
        mult /= equal
    return rank.astype(np.int64)


def _codes(rows: np.ndarray, r: int) -> np.ndarray:
    """Each row read as a big-endian base-``r`` number, built column by column in intp."""
    code = np.zeros(len(rows), dtype=np.intp)
    for col in rows.T:
        code *= r
        code += col
    return code


@lru_cache(maxsize=64)
def _half_tables(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """Prefix and suffix tables with rank(x) = A[code(x[:h])] + B[code(x[h:])], h = N // 2.

    In :func:`_count_ranks`'s sum, a term at i >= h reads only x[i:], and one
    at i < h only x[:h] and the rest's multiset, which the counts fix.  So B
    holds the counted rank of every base-r suffix alone, and A that of every
    prefix the counts allow followed by its rest in ascending order, whose
    terms are 0.  None when B, the larger table, would outnumber the vertices.
    """
    k = Composition(counts)
    n, r, h = k.n, k.r, k.n // 2
    if r ** (n - h) > k.cardinality():
        return None

    def tuples(length: int) -> np.ndarray:  # all base-r tuples, in code order
        digits = np.arange(r**length)[:, None] // r ** np.arange(length - 1, -1, -1) % r
        return digits.astype(np.min_scalar_type(r - 1))

    prefixes = tuples(h)
    held = (prefixes[:, :, None] == np.arange(r)).sum(axis=1)
    allowed = (held <= counts).all(axis=1)
    rest = np.cumsum(np.subtract(counts, held[allowed]), axis=1)
    ascending = (rest[:, None, :] <= np.arange(n - h)[:, None]).sum(axis=2)
    prefix = np.zeros(len(prefixes), dtype=np.int64)
    prefix[allowed] = _count_ranks(counts, np.hstack([prefixes[allowed], ascending]))
    suffix = _count_ranks(counts, tuples(n - h))
    prefix.setflags(write=False)
    suffix.setflags(write=False)
    return prefix, suffix


def _ranks(counts: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """Ranks of many vertices of one multislice at once, one per row.

    Batches of :data:`SEARCH_ROWS` rows or more are two gathers and one add
    from :func:`_half_tables`, where the slice has them; the rest are searched
    among the cached vertex keys.
    """
    tables = _half_tables(counts) if len(rows) >= SEARCH_ROWS else None
    if tables is None:
        return np.searchsorted(_vertex_keys(counts), _keys(rows, len(counts)))
    h, (prefix, suffix) = rows.shape[1] // 2, tables
    ranks = prefix[_codes(rows[:, :h], len(counts))]
    ranks += suffix[_codes(rows[:, h:], len(counts))]
    return ranks


@lru_cache(maxsize=32)
def _swap_table(counts: tuple[int, ...]) -> np.ndarray:
    """Transposition table, one :func:`_ranks` call per batch of pair columns; refused above the cap.

    A batch is a (batch, |V|, N) block of copies of the levels, in the
    narrowest unsigned dtype, with each pair's two columns exchanged: one
    repeat and two assignments, no gather of whole rows.  A batch's working
    set, at least one pair, fits :data:`_CHUNK_BYTES`: per row, the levels
    twice (the block and a searched batch's keys) and five 8-byte values, a
    bound on a looked-up batch's codes, table entries and ranks.
    """
    k = Composition(counts)
    size = k.cardinality()
    n_pairs = math.comb(k.n, 2)
    if size * n_pairs > TABLE_ENTRY_CAP:
        raise BudgetError(
            f"transposition table for {k} needs {size * n_pairs} entries "
            f"(cap {TABLE_ENTRY_CAP}); use the matrix-free paths"
        )
    levels = _vertex_array(counts).astype(np.min_scalar_type(k.r - 1), copy=False)
    pairs = np.array(list(itertools.combinations(range(k.n), 2)), dtype=np.intp).reshape(-1, 2)
    table = np.empty((size, n_pairs), dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (size * (2 * levels.itemsize * k.n + 40)))
    for start in range(0, n_pairs, step):
        i, j = pairs[start:start + step].T
        batch = np.repeat(levels[None], len(i), axis=0)
        at = np.arange(len(i))
        batch[at, :, i], batch[at, :, j] = levels[:, j].T, levels[:, i].T
        table[:, start:start + len(i)] = _ranks(counts, batch.reshape(-1, k.n)).reshape(-1, size).T
    table.setflags(write=False)
    return table


def edges(
    k: Composition | Sequence[int], budget: int | None = DEFAULT_BUDGET
) -> Iterator[tuple[int, int]]:
    """Yield each edge once as a rank pair (u, v) with u < v, by u, then by pair.

    Read from the transposition table: slices over :data:`TABLE_ENTRY_CAP` raise BudgetError.
    """
    k = _coerce(k)
    check_budget(k, budget)
    table = _swap_table(k.counts)
    u, p = np.nonzero(table > np.arange(len(table))[:, None])
    yield from zip(u.tolist(), table[u, p].tolist())


def write_edge_list(
    k: Composition | Sequence[int],
    stream: IO[str],
    budget: int | None = DEFAULT_BUDGET,
) -> int:
    """Write "u v" lines (u < v); returns the number of edges written."""
    count = 0
    for u, v in edges(k, budget):
        stream.write(f"{u} {v}\n")
        count += 1
    return count


def to_dot(k: Composition | Sequence[int], budget: int | None = DEFAULT_BUDGET) -> str:
    """Graphviz DOT rendering with ranks as node ids and tuples as labels."""
    k = _coerce(k)
    # edges first: a slice over the budget or the table cap is refused before any listing
    edge_lines = [f"  {u} -- {v};" for u, v in edges(k, budget)]
    lines = [f'graph "multislice_{k}" {{']
    for i, x in enumerate(_vertex_array(k.counts).tolist()):
        label = "".join(str(v) for v in x)
        lines.append(f'  {i} [label="{label}"];')
    lines += edge_lines
    lines.append("}")
    return "\n".join(lines) + "\n"
