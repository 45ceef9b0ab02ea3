"""The slice's graph and its operators: vertex proof, table, graph proof, Laplacian, identities.

:func:`_vertices_ok` proves that the vertex array is the slice in rank
order, which is all that the certificates rest on.  The transposition table
is the graph: entry [v, p] is the rank of vertex v with pair p swapped, and
:func:`_graph_ok` proves it too, for :func:`identity_audit`, the one check
that reads a table.

The Laplacian matrix has one builder, :func:`laplacian`, which reads its
integer COO triple off the transposition table in numpy; the dense matrix
and the coordinate export are that triple scattered and written.

The Dirichlet identities are checked in integers by one kernel,
:func:`_identity_verdicts`, on a batch of integer vertex functions;
:func:`identity_audit` runs it on sampled functions.  On a graph that
:func:`_graph_ok` proves to be the slice they hold for every function.

Vertex functions are arrays indexed by vertex rank in the canonical
lexicographic order of :mod:`multislice.core`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import IO

import numpy as np

from .core import (  # TABLE_ENTRY_CAP stays importable from here
    DEFAULT_BUDGET,
    TABLE_ENTRY_CAP,
    _CHUNK_BYTES,
    Composition,
    _keys,
    _swap_table,
    _vertex_array,
    check_budget,
)
from .exactla import _exact_dtype


def transposition_pairs(n: int) -> list[tuple[int, int]]:
    """Canonical ordering of the C(n,2) position pairs (i, j), i < j."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def vertex_array(k: Composition, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """(|V|, N) array of level sequences, row order = canonical rank order."""
    check_budget(k, budget)
    return _vertex_array(k.counts)


def transposition_table(k: Composition, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """(|V|, C(N,2)) array; entry [v, p] is the rank of vertex v with pair p swapped.

    Swaps of equal entries map a vertex to itself, so each row lists every
    neighbor exactly once plus ``C(N,2) - degree`` self entries.
    """
    check_budget(k, budget)
    return _swap_table(k.counts)


@lru_cache(maxsize=None)
def _swapped_positions(n: int) -> np.ndarray:
    """(C(n,2), n) read-only array; row p is 0, ..., n-1 with the two positions of pair p swapped."""
    pairs = np.array(transposition_pairs(n), dtype=np.intp).reshape(-1, 2)
    perms = np.tile(np.arange(n), (len(pairs), 1))
    perms[np.arange(len(pairs))[:, None], pairs] = pairs[:, ::-1]
    perms.setflags(write=False)
    return perms


def _vertices_ok(k: Composition, varr: np.ndarray) -> bool:
    """Vertex proof: ``varr``, k's vertex array, is the slice k in rank order.

    One byte comparison on the levels, in the narrowest unsigned dtype: |V|
    rows, each of them sorted the slice's sorted levels, and strictly
    increasing row keys.  The verdict holds for this array only: a caller
    keeps it beside the array, as :class:`~multislice.spectral.CertifiedSlice` does.
    """
    levels = np.ascontiguousarray(varr, dtype=np.min_scalar_type(k.r - 1))  # no copy of a vertex array
    sorted_levels = np.repeat(np.arange(k.r, dtype=levels.dtype), k.counts)
    keys = _keys(levels, k.r)
    return bool(
        levels.shape == (k.cardinality(), k.n)
        and np.array_equal(np.sort(levels, axis=1), np.broadcast_to(sorted_levels, levels.shape))
        and (keys[1:] > keys[:-1]).all()
    )


def _graph_ok(k: Composition, varr: np.ndarray, table: np.ndarray) -> bool:
    """Graph proof: ``varr`` and ``table``, k's vertex array and transposition table, are the slice k.

    :func:`_vertices_ok`, then a byte comparison: ``varr[table[:, p]]`` is
    ``varr`` with the columns of pair p swapped, so column p is swap p.  Pair
    columns are gathered a chunk at a time, whole rows at once.
    """
    levels = np.ascontiguousarray(varr, dtype=np.min_scalar_type(k.r - 1))
    size, n = levels.shape
    if not (_vertices_ok(k, varr) and table.shape == (size, math.comb(n, 2))
            and (not table.size or 0 <= table.min() and table.max() < size)):
        return False
    perms = _swapped_positions(n)
    rows = levels.view(f"V{levels.itemsize * n}").ravel()  # one item per vertex
    step = max(1, _CHUNK_BYTES // levels.nbytes)
    for start in range(0, len(perms), step):
        gathered = rows.take(table[:, start:start + step]).view(levels.dtype).reshape(size, -1, n)
        if not np.array_equal(gathered, levels[:, perms[start:start + step]]):
            return False
    return True


def laplacian(
    k: Composition, budget: int | None = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Graph Laplacian (degree*I minus adjacency) as its integer COO triple
    (rows, cols, values), in row-major order, read off the transposition table."""
    table = transposition_table(k, budget)
    size = len(table)
    rows = np.arange(size)[:, None]
    # a swap of equal entries fixes the vertex; pushed past every real column
    # by the sentinel ``size``, while one appended column holds the diagonal
    cols = np.sort(np.hstack([np.where(table == rows, size, table), rows]), axis=1)
    keep = cols < size
    values = np.where(cols == rows, k.degree(), -1)
    return np.broadcast_to(rows, cols.shape)[keep], cols[keep], values[keep]


def laplacian_dense(k: Composition, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """Dense int64 Laplacian: :func:`laplacian`'s triple scattered; small slices only."""
    rows, cols, values = laplacian(k, budget)
    out = np.zeros((k.cardinality(), k.cardinality()), dtype=np.int64)
    out[rows, cols] = values
    return out


def _pairs_avoiding(n: int, pos: int) -> np.ndarray:
    pairs = transposition_pairs(n)
    return np.array([p for p, (i, j) in enumerate(pairs) if i != pos and j != pos], dtype=np.int64)


def _coordinate_blocks(vals: np.ndarray, varr: np.ndarray, pos: int, r: int):
    """Per vertex x, the size of its block {y : y_pos = x_pos} and the sum of ``vals`` over it.

    Sums run along the last axis of ``vals`` in its dtype; P_pos f = sums / sizes.
    """
    levels = varr[:, pos]
    sums = np.zeros((r,) + vals.shape[:-1], dtype=vals.dtype)
    np.add.at(sums, levels, vals.T)
    return np.bincount(levels, minlength=r)[levels], sums[levels].T


def measure_decomposition_check(k: Composition) -> bool:
    """Verify mu_{N,k} = sum_m (k_m/N) mu_{N-1,k^(m)} on each insertion block.

    Pointwise this is 1/|V| = (k_m/N) / |V^(m)| for every occupied level m,
    checked cross-multiplied: N |V^(m)| == k_m |V|.
    """
    if k.n < 2:
        raise ValueError("needs at least two particles")
    size = k.cardinality()
    return all(
        k.n * k.decremented(m).cardinality() == c * size for m, c in enumerate(k.counts) if c
    )


def _identity_verdicts(g: np.ndarray, table: np.ndarray, varr: np.ndarray, r: int):
    """Exact verdicts of the three Dirichlet identities on a batch of integer functions.

    ``g`` is (F, |V|), F functions on a slice with N >= 3 particles and r levels,
    ``table`` and ``varr`` its transposition table and vertex array.  Q_u(pos, m)
    sums (u(pi x) - u(x))^2 over the block {x : x_pos = m}, of size s_m, and the
    swaps avoiding pos, which never leave the block; h = s_m (g - P_pos g).
    Cross-multiplied, with sq = (g(pi x) - g(x))^2 and lcm that of the s_m^2:

    - averaging, per function: N C(N-1,2) sum(sq) == C(N,2) sum_pos
      sum_{swaps avoiding pos}(sq) at every vertex;
    - shift, per function and block: Q_h == s_m^2 Q_g;
    - decomposition, per function: (N-2) lcm sum(sq) == sum over blocks of
      (lcm / s_m^2) Q_h, the k_m / (N (N-1)) weights cleared by k_m / N = s_m / |V|.

    Averaging cannot fail: each swap avoids N-2 positions, so the sum over pos
    is (N-2) sum(sq) for any table and function, and N C(N-1,2) = (N-2) C(N,2).
    It is no check on the table; shift and decomposition are.

    Each sum takes its dtype from its bound: int64 while it fits, Python ints
    beyond.  Returns boolean arrays of shapes (F,), (F, N, r) and (F,).
    """
    n_funcs, size = g.shape
    n = varr.shape[1]
    all_pairs, sub_pairs = table.shape[1], math.comb(n - 1, 2)
    sizes = np.bincount(varr[:, 0], minlength=r)  # the block sizes, the same at every pos
    lcm = math.lcm(*(s * s for s in sizes.tolist() if s))
    g_max = max(-int(g.min()), int(g.max()))
    # |g(pi x) - g(x)| <= 2 g_max; on a block of size s, |h| <= 2 g_max s, and
    # (lcm / s^2) Q_h sums s C(N-1,2) terms of at most lcm (4 g_max)^2
    g = g.astype(_exact_dtype(2 * g_max, n * all_pairs * sub_pairs))
    h_type = _exact_dtype(4 * g_max * int(sizes.max()), sub_pairs)
    block_type = _exact_dtype(4 * g_max, lcm * n * size * sub_pairs)

    sq = g[:, table]
    sq -= g[:, :, None]
    sq *= sq
    avoiding = np.zeros_like(g)
    q_g = np.zeros((n, r, n_funcs), dtype=block_type)
    q_h = np.zeros_like(q_g)
    g_h = g.astype(h_type)
    for pos in range(n):
        swaps = _pairs_avoiding(n, pos)
        levels = varr[:, pos]
        part = sq[:, :, swaps].sum(axis=2)
        avoiding += part
        np.add.at(q_g[pos], levels, part.T.astype(block_type))
        block, sums = _coordinate_blocks(g_h, varr, pos, r)
        h = block * g_h - sums
        d = h[:, table[:, swaps]] - h[:, :, None]
        np.add.at(q_h[pos], levels, (d * d).sum(axis=2).T.astype(block_type))

    per_vertex = sq.sum(axis=2)
    averaging = np.all(per_vertex * (n * sub_pairs) == avoiding * all_pairs, axis=1)
    squares = (sizes * sizes).astype(block_type)[:, None]
    shift = q_h == squares * q_g
    lhs = (n - 2) * lcm * per_vertex.astype(block_type).sum(axis=1)
    decomposition = lhs == (lcm // np.maximum(squares, 1) * q_h).sum(axis=(0, 1))
    return averaging, shift.transpose(2, 0, 1), decomposition


#: Functions per kernel call in :func:`identity_audit` are capped so that one
#: (functions, |V|, C(N,2)) int64 array stays near 8 MB.
_AUDIT_BATCH_ENTRIES = 2**20


def identity_audit(
    k: Composition,
    n_functions: int = 100,
    seed: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> dict:
    """Exact residual audit of the averaging/shift/decomposition identities.

    Draws random rational vertex functions (integer numerators over small
    denominators; a constant draw, which proves nothing, is drawn again),
    clears denominators, and checks all three identities with the integer
    kernel :func:`_identity_verdicts`.  Every comparison is
    exact; the returned report counts functions with zero residual on each
    identity.  ``graph_ok`` is the graph proof :func:`_graph_ok` of the same
    vertex array and table that the sampled functions are checked on; where
    it holds, the three identities hold for every function, not just these.
    """
    n = k.n
    if n < 2:
        raise ValueError("audit needs at least two particles")
    size = check_budget(k, budget)
    table, varr = transposition_table(k, budget), vertex_array(k, None)
    report = {
        "composition": str(k),
        "functions": n_functions,
        "measure_decomposition_ok": measure_decomposition_check(k),
        "averaging_ok": 0,
        "shift_ok": 0,
        "decomposition_ok": 0,
        "applicable": n >= 3,
        "graph_ok": _graph_ok(k, varr, table),
    }
    if n < 3:
        return report

    rng = np.random.default_rng(seed)
    denoms = np.array([1, 2, 3, 4, 5], dtype=np.int64)

    def draw():
        num = rng.integers(-20, 21, size=size)
        den = denoms[rng.integers(0, len(denoms), size=size)]
        return num * (60 // den)  # numerators over lcm(1..5) = 60

    step = max(1, _AUDIT_BATCH_ENTRIES // table.size)
    for start in range(0, n_functions, step):
        batch = []
        for _ in range(min(step, n_functions - start)):
            g = draw()
            while size > 1 and np.all(g == g[0]):  # a constant passes every identity
                g = draw()
            batch.append(g)
        averaging, shift, decomposition = _identity_verdicts(np.array(batch), table, varr, k.r)
        report["averaging_ok"] += int(averaging.sum())
        report["shift_ok"] += int(shift.all(axis=(1, 2)).sum())
        report["decomposition_ok"] += int(decomposition.sum())
    return report


def write_coo(coo: tuple[np.ndarray, np.ndarray, np.ndarray], stream: IO[str]) -> int:
    """Write a (rows, cols, values) triple, as :func:`laplacian` returns it,
    one "row col value" line per entry; returns the line count."""
    rows, cols, values = coo
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        stream.write(f"{r} {c} {v}\n")
    return len(rows)
