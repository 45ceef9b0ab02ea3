"""Operators on multislice functions: Laplacian, Dirichlet forms, projections.

Each operator has one numpy body.  The arithmetic it runs in is decided
once, by :func:`_values`: a numpy float array is computed on in floats;
anything else (ints, Fractions, int arrays) is converted to an object array
of Fractions, so the same body is exact, which is how the identity
certificates are produced.  Results come back in the input's arithmetic: a
float array gives a float array (or a Python float), exact input gives a
list of Fractions (or one Fraction).

Vertex functions are sequences indexed by vertex rank in the canonical
lexicographic order of :mod:`multislice.core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

import numpy as np
import scipy.sparse as sp

from .core import (  # TABLE_ENTRY_CAP stays importable from here
    DEFAULT_BUDGET,
    TABLE_ENTRY_CAP,
    Composition,
    Vertex,
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


def laplacian(k: Composition, budget: int | None = DEFAULT_BUDGET) -> sp.csr_matrix:
    """Graph Laplacian as a sparse integer matrix (degree*I minus adjacency)."""
    size = check_budget(k, budget)
    table = transposition_table(k, budget)
    n_pairs = table.shape[1]
    rows = np.repeat(np.arange(size, dtype=np.int64), n_pairs)
    cols = table.ravel()
    keep = rows != cols
    diag = np.arange(size, dtype=np.int64)
    all_rows = np.concatenate([rows[keep], diag])
    all_cols = np.concatenate([cols[keep], diag])
    data = np.concatenate(
        [
            np.full(int(keep.sum()), -1, dtype=np.int64),
            np.full(size, k.degree(), dtype=np.int64),
        ]
    )
    return sp.coo_matrix((data, (all_rows, all_cols)), shape=(size, size)).tocsr()


def laplacian_dense(k: Composition, budget: int | None = DEFAULT_BUDGET) -> np.ndarray:
    """Dense int64 Laplacian; prefer :func:`laplacian` above a few thousand vertices."""
    return laplacian(k, budget).toarray()


def _values(k: Composition, f: Sequence) -> np.ndarray:
    """A vertex function as the numpy array every operator computes on.

    This is where the arithmetic is chosen: a float array passes through
    unchanged, anything else (ints, Fractions, int arrays) becomes an
    object array of Fractions, on which numpy's sums, products and
    divisions stay exact.
    """
    size = k.cardinality()
    if len(f) != size:
        raise ValueError(f"function has length {len(f)}, slice {k} has {size} vertices")
    if isinstance(f, np.ndarray):
        if np.issubdtype(f.dtype, np.floating):
            return f
        f = f.tolist()
    return np.array([Fraction(v) for v in f], dtype=object)


def _result(out):
    """Hand a result back in the arithmetic of its input.

    Exact results come back as Fractions (a list for a vertex function),
    float results as a float array or a Python float.
    """
    out = np.asarray(out)
    if out.dtype == object:
        return out.tolist()
    return out if out.ndim else float(out)


def _laplacian_action(table: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(Lf)(x) = C(N,2) f(x) - sum_p f(pi_p x) along the last axis of ``f`` (rows: a batch).

    Swaps of equal entries contribute f(x) - f(x) = 0, so all pairs may be summed.
    """
    return table.shape[1] * f - f[..., table].sum(axis=-1)


def apply_laplacian(k: Composition, f: Sequence, budget: int | None = DEFAULT_BUDGET):
    """Matrix-free Laplacian application; exact for rational input."""
    vals = _values(k, f)
    return _result(_laplacian_action(transposition_table(k, budget), vals))


def _square_sum(vals: np.ndarray, rows, swaps: np.ndarray):
    """Sum over the given vertices and their swap images of (f(pi x) - f(x))^2."""
    diffs = vals[swaps] - vals[rows][:, None]
    # starting from 0 * f(0) keeps the empty sum of N = 1 in the input's arithmetic
    return (diffs * diffs).sum(initial=0 * vals[0])


def dirichlet_graph(k: Composition, f: Sequence, budget: int | None = DEFAULT_BUDGET):
    """Dirichlet form of the Laplacian under the uniform measure.

    Equals <f, Lf> in L^2(mu); zero exactly on the constants (connected graph).
    """
    vals = _values(k, f)
    total = _square_sum(vals, slice(None), transposition_table(k, budget))
    return _result(total / (2 * len(vals)))


def dirichlet_scaled(k: Composition, f: Sequence, budget: int | None = DEFAULT_BUDGET):
    """Dirichlet form rescaled so each coordinate updates at unit rate.

    Equals (2/(N-1)) times :func:`dirichlet_graph`; its gap on a non-trivial
    slice is 2N/(N-1).
    """
    if k.n < 2:
        raise ValueError("need at least two particles")
    vals = _values(k, f)
    total = _square_sum(vals, slice(None), transposition_table(k, budget))
    return _result(total / ((k.n - 1) * len(vals)))


def _pairs_avoiding(n: int, pos: int) -> np.ndarray:
    pairs = transposition_pairs(n)
    return np.array([p for p, (i, j) in enumerate(pairs) if i != pos and j != pos], dtype=np.int64)


def dirichlet_restricted(
    k: Composition,
    f: Sequence,
    pos: int,
    level: int,
    budget: int | None = DEFAULT_BUDGET,
):
    """Dirichlet form restricted to {x : x_pos = level}, swaps fixing pos.

    Normalized by the uniform measure of the one-particle-smaller slice
    obtained by deleting position pos, which makes the decomposition
    identity over (pos, level) exact.
    """
    n = k.n
    if n < 3:
        raise ValueError("restricted form needs at least three particles")
    if not 0 <= pos < n:
        raise ValueError(f"position {pos} out of range")
    if not 0 <= level < k.r or k.counts[level] < 1:
        raise ValueError(f"level {level} is empty in {k}")
    vals = _values(k, f)
    child_size = k.decremented(level).cardinality()
    varr = vertex_array(k, budget)
    table = transposition_table(k, budget)
    members = np.nonzero(varr[:, pos] == level)[0]
    sub = table[np.ix_(members, _pairs_avoiding(n, pos))]
    return _result(_square_sum(vals, members, sub) / ((n - 2) * child_size))


def _block_means(vals: np.ndarray, levels: np.ndarray, r: int) -> np.ndarray:
    """Each vertex's value replaced by the mean over vertices of its level."""
    sums = np.zeros(r, dtype=vals.dtype)
    np.add.at(sums, levels, vals)
    sizes = np.bincount(levels, minlength=r)
    return (sums / np.maximum(sizes, 1))[levels]


def project_onto_coordinate(
    k: Composition, f: Sequence, pos: int, budget: int | None = DEFAULT_BUDGET
):
    """Conditional expectation given the level at one position.

    Orthogonal projection in L^2(mu) onto functions of x_pos alone:
    each vertex gets the average of f over the block sharing its level at
    ``pos``.  Idempotent and self-adjoint.
    """
    if not 0 <= pos < k.n:
        raise ValueError(f"position {pos} out of range")
    vals = _values(k, f)
    return _result(_block_means(vals, vertex_array(k, budget)[:, pos], k.r))


def average_projection(k: Composition, f: Sequence, budget: int | None = DEFAULT_BUDGET):
    """Average over positions of the coordinate projections; spectrum in [0, 1]."""
    vals = _values(k, f)
    varr = vertex_array(k, budget)
    projections = [_block_means(vals, varr[:, pos], k.r) for pos in range(k.n)]
    return _result(np.sum(projections, axis=0) / k.n)


def average_projection_matrix(
    k: Composition, budget: int | None = DEFAULT_BUDGET
) -> np.ndarray:
    """Dense float matrix of :func:`average_projection`."""
    size = check_budget(k, budget)
    varr = vertex_array(k, budget)
    mat = np.zeros((size, size))
    for pos in range(k.n):
        for m in range(k.r):
            members = np.nonzero(varr[:, pos] == m)[0]
            if members.size:
                mat[np.ix_(members, members)] += 1.0 / (k.n * members.size)
    return mat


@dataclass(frozen=True)
class Measures:
    """Uniform vertex weight mu and the level marginal nu(m) = k_m / N."""

    mu: Fraction
    nu: tuple[Fraction, ...]


def measures(k: Composition) -> Measures:
    return Measures(
        mu=Fraction(1, k.cardinality()),
        nu=tuple(Fraction(c, k.n) for c in k.counts),
    )


def mu_inner(k: Composition, f: Sequence, h: Sequence):
    """Inner product under the uniform vertex measure."""
    vals = _values(k, f)
    return _result((vals * _values(k, h)).sum() / len(vals))


def nu_inner(k: Composition, g: Sequence, h: Sequence):
    """Inner product of level functions under nu(m) = k_m / N."""
    if len(g) != k.r or len(h) != k.r:
        raise ValueError("level functions must have one value per level")
    return sum(
        (Fraction(c, k.n) * a * b for c, a, b in zip(k.counts, g, h)),
        Fraction(0),
    )


def level_correlation_matrix(k: Composition) -> list[list[Fraction]]:
    """Two-coordinate correlation operator on level functions.

    The r x r matrix whose nu-weighted quadratic form equals the expectation
    of g(first entry) h(last entry) under the uniform vertex measure:
    (N-1) K[m][n] = k_n - delta_mn.  Constants are fixed; nu-centered level
    functions are scaled by -1/(N-1).
    """
    if k.n < 2:
        raise ValueError("correlation operator needs at least two particles")
    n = k.n
    return [
        [Fraction(c - (m == col), n - 1) for col, c in enumerate(k.counts)]
        for m in range(k.r)
    ]


def apply_level_correlation(k: Composition, g: Sequence) -> list[Fraction]:
    mat = level_correlation_matrix(k)
    if len(g) != k.r:
        raise ValueError("level function length must equal the level count")
    return [sum((row[m] * g[m] for m in range(k.r)), Fraction(0)) for row in mat]


def correlation_form_bruteforce(
    k: Composition, g: Sequence, h: Sequence, budget: int | None = DEFAULT_BUDGET
) -> Fraction:
    """E[g(x_first) h(x_last)] by direct summation over the slice.

    Independent check of :func:`level_correlation_matrix`: for all g, h this
    equals the nu-weighted form <g, K h>.
    """
    if k.n < 2:
        raise ValueError("needs at least two particles")
    size = check_budget(k, budget)
    varr = vertex_array(k, budget)
    counts = np.zeros((k.r, k.r), dtype=np.int64)
    np.add.at(counts, (varr[:, 0], varr[:, -1]), 1)
    total = Fraction(0)
    for a in range(k.r):
        for b in range(k.r):
            c = int(counts[a, b])
            if c:
                total += c * g[a] * h[b]
    return Fraction(1, size) * total


def insert_at(x: Sequence[int], pos: int, level: int) -> Vertex:
    """Insert ``level`` at position ``pos``, shifting later entries right.

    Ranging over insertion levels, this realizes the standard bijection
    between a slice and the disjoint union of its one-particle-smaller
    children; the image for a fixed level is exactly {y : y_pos = level}.
    """
    if not 0 <= pos <= len(x):
        raise ValueError(f"insert position {pos} out of range")
    if level < 0:
        raise ValueError("negative level")
    return tuple(x[:pos]) + (level,) + tuple(x[pos:])


def delete_at(x: Sequence[int], pos: int) -> tuple[Vertex, int]:
    """Remove the entry at ``pos``; returns the shorter vertex and the level."""
    if not 0 <= pos < len(x):
        raise ValueError(f"delete position {pos} out of range")
    return tuple(x[:pos]) + tuple(x[pos + 1:]), x[pos]


def measure_decomposition_check(k: Composition) -> bool:
    """Verify mu_{N,k} = sum_m (k_m/N) mu_{N-1,k^(m)} on each insertion block.

    Pointwise this is 1/|V| = (k_m/N) / |V^(m)| for every occupied level m,
    an exact rational identity.
    """
    if k.n < 2:
        raise ValueError("needs at least two particles")
    mu = Fraction(1, k.cardinality())
    for m, c in enumerate(k.counts):
        if c == 0:
            continue
        child = k.decremented(m)
        if mu != Fraction(c, k.n) * Fraction(1, child.cardinality()):
            return False
    return True


def _rational_values(k: Composition, f: Sequence, what: str) -> np.ndarray:
    """:func:`_values` for the exact identities, which refuse float input."""
    vals = _values(k, f)
    if vals.dtype != object:
        raise TypeError(f"{what} is an exact identity; pass int or Fraction values")
    return vals


def averaging_identity_ok(
    k: Composition, f: Sequence, budget: int | None = DEFAULT_BUDGET
) -> bool:
    """Per-vertex identity tying the all-pairs square sum to its leave-one-out averages.

    For every vertex: the average over all C(N,2) swaps of (f(pi x)-f(x))^2
    equals the average over positions of the same average restricted to
    swaps fixing that position.  Checked exactly by cross-multiplication.
    """
    n = k.n
    if n < 3:
        raise ValueError("identity needs at least three particles")
    vals = _rational_values(k, f, "averaging identity")
    table = transposition_table(k, budget)
    diffs = vals[table] - vals[:, None]
    sq = diffs * diffs
    lhs = sq.sum(axis=1)
    rhs = sum(sq[:, _pairs_avoiding(n, pos)].sum(axis=1) for pos in range(n))
    return bool(np.all(lhs * (n * math.comb(n - 1, 2)) == rhs * table.shape[1]))


def shift_identity_ok(
    k: Composition,
    f: Sequence,
    pos: int,
    level: int,
    budget: int | None = DEFAULT_BUDGET,
) -> bool:
    """Restricted Dirichlet form is unchanged by subtracting the coordinate projection."""
    vals = _rational_values(k, f, "projection shift identity")
    shifted = vals - project_onto_coordinate(k, vals, pos, budget)
    lhs = dirichlet_restricted(k, vals, pos, level, budget)
    rhs = dirichlet_restricted(k, shifted, pos, level, budget)
    return lhs == rhs


def dirichlet_decomposition_ok(
    k: Composition, f: Sequence, budget: int | None = DEFAULT_BUDGET
) -> bool:
    """Exact decomposition of the scaled form over (position, level) blocks.

    D(f,f) = (1/N) sum_pos (N/(N-1)) sum_m D^{pos,m}(f - P_pos f) * k_m/N.
    """
    n = k.n
    if n < 3:
        raise ValueError("decomposition needs at least three particles")
    vals = _rational_values(k, f, "Dirichlet decomposition")
    lhs = dirichlet_scaled(k, vals, budget)
    rhs = Fraction(0)
    for pos in range(n):
        shifted = vals - project_onto_coordinate(k, vals, pos, budget)
        for m, c in enumerate(k.counts):
            if c == 0:
                continue
            term = dirichlet_restricted(k, shifted, pos, m, budget)
            rhs += Fraction(c, n * (n - 1)) * term
    return lhs == rhs


def _sum_of_squares(d: np.ndarray, bound: int) -> int:
    """Exact sum of ``d * d`` for integers at most ``bound`` in magnitude."""
    d = d.astype(_exact_dtype(bound, d.size), copy=False)
    return int(np.sum(d * d))


def identity_audit(
    k: Composition,
    n_functions: int = 100,
    seed: int = 0,
    budget: int | None = DEFAULT_BUDGET,
) -> dict:
    """Exact residual audit of the averaging/shift/decomposition identities.

    Draws random rational vertex functions (integer numerators over small
    denominators), clears denominators, and runs all three identities in
    integer arithmetic on vectorized aggregates.  Every comparison is exact;
    the returned report counts functions with zero residual on each identity.
    """
    n = k.n
    if n < 2:
        raise ValueError("audit needs at least two particles")
    size = check_budget(k, budget)
    report = {
        "composition": str(k),
        "functions": n_functions,
        "measure_decomposition_ok": measure_decomposition_check(k),
        "averaging_ok": 0,
        "shift_ok": 0,
        "decomposition_ok": 0,
        "applicable": n >= 3,
    }
    if n < 3:
        return report

    rng = np.random.default_rng(seed)
    varr = vertex_array(k, budget)
    table = transposition_table(k, budget)
    all_pairs = table.shape[1]
    sub_pairs = math.comb(n - 1, 2)
    masks = [_pairs_avoiding(n, pos) for pos in range(n)]
    cols = np.arange(n)
    sizes = np.zeros((n, k.r), dtype=np.int64)  # block sizes by (position, level)
    np.add.at(sizes, (cols, varr), 1)
    # localized tables per (position, level): swaps fixing pos stay in the block
    blocks: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    for pos in range(n):
        local = np.full(size, -1, dtype=np.int64)
        for m, c in enumerate(k.counts):
            if c == 0:
                continue
            members = np.nonzero(varr[:, pos] == m)[0]
            local[members] = np.arange(members.size)
            sub = local[table[np.ix_(members, masks[pos])]]
            assert sub.min() >= 0
            blocks.append((pos, m, members, sub))

    denoms = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    lcm_all = 60  # lcm(1..5)
    g_max = 20 * lcm_all  # bound on |g| for numerators in [-20, 20]
    for _ in range(n_functions):
        num = rng.integers(-20, 21, size=size)
        den = denoms[rng.integers(0, len(denoms), size=size)]
        g = num * (lcm_all // den)  # integer numerators over the common denominator
        sq = g[table] - g[:, None]
        np.multiply(sq, sq, out=sq)
        per_vertex = sq.sum(axis=1)
        # averaging identity, cross-multiplied to integers
        rhs = np.zeros(size, dtype=np.int64)
        for mask in masks:
            rhs += sq[:, mask].sum(axis=1)
        if np.array_equal(per_vertex * (n * sub_pairs), rhs * all_pairs):
            report["averaging_ok"] += 1

        # column pos of h is s * (g - P_pos g) on the whole slice, s the size of
        # each vertex's block at pos, so a wrong projection shows in the shift
        sums = np.zeros((n, k.r), dtype=np.int64)
        np.add.at(sums, (cols, varr), g[:, None])
        h_all = sizes[cols, varr] * g[:, None] - sums[cols, varr]

        shift_all = True
        decomposition_rhs = Fraction(0)
        for pos, m, members, sub in blocks:
            g_loc = g[members]
            h = h_all[members, pos]
            s = members.size
            # |d_f| <= 2 g_max and |h| <= 2 g_max s; the sum of squares of d_h
            # can pass 2^63 from N = 8, so each sum takes its dtype from its bound
            d_f = g_loc[sub] - g_loc[:, None]
            d_h = h[sub] - h[:, None]
            s_f = _sum_of_squares(d_f, 2 * g_max)
            s_h = _sum_of_squares(d_h, 4 * g_max * s)
            # shift identity: forms of f and f - P_pos f agree on the block
            if Fraction(s_h, s * s) != Fraction(s_f):
                shift_all = False
            child_size = s  # block size equals the child slice cardinality
            term = Fraction(s_h, (n - 2) * child_size) * Fraction(1, (s * lcm_all) ** 2)
            decomposition_rhs += Fraction(k.counts[m], n * (n - 1)) * term
        if shift_all:
            report["shift_ok"] += 1
        lhs = Fraction(int(sq.sum()), (n - 1) * size * lcm_all**2)
        if lhs == decomposition_rhs:
            report["decomposition_ok"] += 1
    return report


def write_coo(matrix, stream: IO[str]) -> int:
    """Write a matrix in coordinate format, one "row col value" line per nonzero."""
    if sp.issparse(matrix):
        coo = matrix.tocoo()
        entries = zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
    else:
        arr = np.asarray(matrix)
        rows, cols = np.nonzero(arr)
        entries = zip(rows.tolist(), cols.tolist(), arr[rows, cols].tolist())
    count = 0
    for r, c, v in sorted(entries):
        stream.write(f"{r} {c} {v}\n")
        count += 1
    return count
