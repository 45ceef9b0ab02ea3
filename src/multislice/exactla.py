"""Exact linear algebra kernels for the certification paths.

One engine: fraction-free (Bareiss) row reduction over arbitrary-precision
integers.  Exact and self-contained, but intermediate entries are k x k
minors whose bit length grows linearly with the elimination step, so it is
only viable for small matrices (the default cap is a few hundred rows).  It
serves the r x r level-correlation spectrum, ``multislice spectrum --exact``
and the rank of the gap eigenbasis, from its Gram matrix.

That Gram matrix is exchangeable: the family f(x) = g(x_pos) has one row per
generator and position, and permuting positions maps the slice onto itself.
When its m position blocks have the form A (x) I_m + B (x) (J_m - I_m),
checked exactly, the rank is rank(A + (m-1) B) + (m-1) rank(A - B), two
Bareiss runs on one block each; otherwise Bareiss runs on the whole matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

#: Default cap for integer-exact (Bareiss) elimination.
BAREISS_CAP = 300


def _as_int_rows(matrix, shift: Fraction | int = 0) -> list[list[int]]:
    """Copy ``matrix - shift*I`` into integer rows, clearing denominators.

    Accepts nested sequences or numpy arrays with int/Fraction entries.
    Scaling the whole matrix by the common denominator leaves rank and
    nullity unchanged.
    """
    rows = [list(row) for row in matrix]
    shift = Fraction(shift)
    if shift:
        for i, row in enumerate(rows):
            if i >= len(row):
                break
            row[i] = Fraction(row[i]) - shift
    denom = 1
    for row in rows:
        for v in row:
            if isinstance(v, Fraction):
                denom = denom * v.denominator // math.gcd(denom, v.denominator)
            elif isinstance(v, float):
                raise TypeError("exact elimination needs int or Fraction entries")
    out = []
    for row in rows:
        out.append([int(v * denom) if isinstance(v, Fraction) else int(v) * denom for v in row])
    return out


def fraction_free_rank(matrix, cap: int | None = BAREISS_CAP) -> int:
    """Exact rank over Q via Bareiss single-step fraction-free elimination.

    Every division is exact (by the previous pivot), so the computation stays
    in the integers.  ``cap`` guards against the superlinear bit growth of
    the intermediate minors.
    """
    a = _as_int_rows(matrix)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if cap is not None and min(nrows, ncols) > cap:
        raise ValueError(
            f"matrix of shape ({nrows}, {ncols}) exceeds exact elimination cap {cap}"
        )
    prev = 1
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        arc = a[rank][c]
        for i in range(rank + 1, nrows):
            aic = a[i][c]
            ai = a[i]
            ar = a[rank]
            for j in range(c + 1, ncols):
                ai[j] = (ai[j] * arc - aic * ar[j]) // prev
            ai[c] = 0
        prev = arc
        rank += 1
        if rank == nrows:
            break
    return rank


def exact_nullity(matrix, shift: Fraction | int = 0, cap: int | None = BAREISS_CAP) -> int:
    """Exact dimension of ker(matrix - shift*I) over Q (Bareiss engine)."""
    rows = _as_int_rows(matrix, shift)
    ncols = len(rows[0]) if rows else 0
    return ncols - fraction_free_rank(rows, cap)


def _exact_dtype(bound: int, count: int) -> type:
    """int64 if ``count`` squares of integers at most ``bound`` sum below 2^63, else object."""
    return np.int64 if bound * bound * count < 2**63 else object


def kernel_rank_certified(gram: Sequence[Sequence[int]] | np.ndarray, positions: int = 1) -> int:
    """Exact rank over Q of an integer Gram matrix, which is the rank of its family.

    ``positions`` is m when the rows are ordered by generator, then by one of
    m positions.  If every diagonal position block equals the first one, A,
    and every off-diagonal block equals the first, B, the matrix is
    A (x) I_m + B (x) (J_m - I_m).  J_m - I_m has rational eigenvectors, with
    eigenvalue m - 1 once and -1 m - 1 times, so over Q the rank is
    rank(A + (m-1) B) + (m-1) rank(A - B): Bareiss on two blocks, in Python
    ints.  Any other matrix, and the default m = 1, is ranked whole, so the
    result is the exact rank of any input.
    """
    gram = np.asarray(gram)
    if gram.size == 0:
        return 0
    m = positions
    if m > 1 and len(gram) % m == 0:
        blocks = gram.reshape(len(gram) // m, m, len(gram) // m, m)  # [g, pos, h, pos']
        a, b = blocks[:, 0, :, 0], blocks[:, 0, :, 1]
        diagonal = np.eye(m, dtype=bool)[None, :, None, :]
        if np.array_equal(blocks, np.where(diagonal, a[:, None, :, None], b[:, None, :, None])):
            a, b = a.astype(object), b.astype(object)  # a + (m-1) b may pass int64
            ones, rest = (fraction_free_rank(c.tolist(), cap=None) for c in (a + (m - 1) * b, a - b))
            return ones + (m - 1) * rest
    return fraction_free_rank(gram.tolist(), cap=None)
