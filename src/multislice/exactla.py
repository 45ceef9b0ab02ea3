"""Exact linear algebra kernels for the certification paths.

One engine: fraction-free (Bareiss) row reduction over arbitrary-precision
integers.  Exact and self-contained, but intermediate entries are k x k
minors whose bit length grows linearly with the elimination step, so it is
only viable for small matrices (the default cap is a few hundred rows).  It
serves the r x r level-correlation spectrum, ``multislice spectrum --exact``
and the rank of the gap eigenbasis, whose Gram matrix over m positions is
A (x) I_m + B (x) (J_m - I_m): two Bareiss runs on one block each
(:func:`exchangeable_rank`).
"""

from __future__ import annotations

import math
from fractions import Fraction

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
    if shift:
        shift = Fraction(shift)
        for i, row in enumerate(rows):
            if i >= len(row):
                break
            row[i] = Fraction(row[i]) - shift
    elif all(type(v) is int for row in rows for v in row):
        return rows
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
    return _bareiss_rank(_as_int_rows(matrix), cap)


def _bareiss_rank(a: list[list[int]], cap: int | None) -> int:
    """:func:`fraction_free_rank` of integer rows ``a``, eliminated in place."""
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
    return ncols - _bareiss_rank(rows, cap)


def _exact_dtype(bound: int, count: int) -> type:
    """int64 if ``count`` squares of integers at most ``bound`` sum below 2^63, else object."""
    return np.int64 if bound * bound * count < 2**63 else object


def exchangeable_rank(a: np.ndarray, b: np.ndarray, m: int) -> int:
    """Exact rank over Q of A (x) I_m + B (x) (J_m - I_m) for square integer blocks A and B.

    J_m - I_m has rational eigenvectors, with eigenvalue m - 1 once and -1
    m - 1 times, so the rank is rank(A + (m-1) B) + (m-1) rank(A - B):
    Bareiss on two blocks, in Python ints.
    """
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    ones, rest = (fraction_free_rank(c.tolist(), cap=None) for c in (a + (m - 1) * b, a - b))
    return ones + (m - 1) * rest
