"""Exact linear algebra kernels for the certification paths.

Two engines, used by size:

* Fraction-free (Bareiss) row reduction over arbitrary-precision integers.
  Exact and self-contained, but intermediate entries are k x k minors whose
  bit length grows linearly with the elimination step, so it is only viable
  for small matrices (the default cap is a few hundred rows).

* Rank over GF(p) by recursive rank-revealing LU on float64 residues, in
  the manner of FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS 35(3), 2008)
  on Toledo's column recursion (SIAM J. Matrix Anal. Appl. 18(4), 1997):
  nearly all the work is BLAS float64 GEMM.  Ranks over GF(p) never exceed
  ranks over Q, so a modular rank is an exact *lower* bound on the rational
  rank (equivalently an upper bound on the nullity).  Combined with
  explicitly verified kernel vectors this yields exact nullity certificates
  far past the Bareiss cap.

Exactness of the modular engine: residues are kept centred, reduced in one
pass as ``a -= p * rint(a / p)``, so they are at most p/2 + 1 in magnitude
and exactly 0 when p divides ``a``.  Reduction is delayed: a GEMM's inner
dimension is cut into chunks of at most K, with K * (p/2 + 1)^2 + p < 2^53,
and an entry is re-centred only before it would exceed K accumulated
products.  Every float64 value is then an integer below 2^53, and every sum
is exact in any order of accumulation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

#: Default cap for integer-exact (Bareiss) elimination.
BAREISS_CAP = 300

#: Primes below 2^22: centred residues are at most 2^21 in magnitude, so
#: sums of up to K = 2047 of their products stay exact in float64 (``_chunk``).
MODULAR_PRIMES = (4194301, 4194287, 3999971)

#: Default width of the base panels that ``rank_mod_p`` factors column by column.
_BASE_PANEL = 32


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


def _chunk(p: int) -> int:
    """Largest inner length K with K * (p/2 + 1)^2 + p < 2^53.

    A sum of K products of centred residues, added to one more residue,
    then stays an exact integer in float64.  ``p // 2 + 2`` bounds
    ``p/2 + 1`` from above.
    """
    return (2**53 - 1 - p) // (p // 2 + 2) ** 2


def _centre(a: np.ndarray, p: int) -> np.ndarray:
    """In place ``a -= p * rint(a / p)`` for float64 integers with |a| < 2^53.

    The result is congruent to ``a``, at most p/2 + 1 in magnitude (the
    quotient is rounded once), and exactly 0 when p divides ``a``.
    """
    q = np.divide(a, p)
    np.rint(q, out=q)
    q *= p
    a -= q
    return a


def _gemm_sub(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int, d: int) -> int:
    """``c -= a @ b`` in place, for centred ``a``, ``b`` and ``c`` of bound ``d``.

    A bound ``d`` means every entry is at most ``d`` products of centred
    residues plus one residue in magnitude.  ``c`` is centred only when the
    next chunk of the inner dimension would push it past :func:`_chunk`
    products.  Returns the bound of ``c`` afterwards.
    """
    step = _chunk(p)
    for s in range(0, a.shape[1], step):
        k = min(step, a.shape[1] - s)
        if d + k > step:
            _centre(c, p)
            d = 0
        c -= a[:, s: s + k] @ b[s: s + k]
        d += k
    return d


def _trsm(low: np.ndarray, b: np.ndarray, p: int, invs: list[np.ndarray], d: int) -> None:
    """``b = low^-1 @ b`` mod p in place; ``b`` enters with bound ``d``, leaves centred.

    ``low`` is unit lower triangular, and only its strictly lower part is
    read.  ``invs`` are the centred inverses of its diagonal blocks, one per
    base panel, which :func:`_panel` builds as it goes.  Halves the block
    list recursively, so the work lands in :func:`_gemm_sub`.
    """
    if len(invs) == 1:
        if d:
            _centre(b, p)
        b[:] = _centre(invs[0] @ b, p)
        return
    half = len(invs) // 2
    h = sum(len(inv) for inv in invs[:half])
    _trsm(low[:h, :h], b[:h], p, invs[:half], d)
    d = _gemm_sub(b[h:], low[h:, :h], b[:h], p, d)
    _trsm(low[h:, h:], b[h:], p, invs[half:], d)


def _permute_rows(a: np.ndarray, perm: np.ndarray) -> None:
    """``a[:] = a[perm]`` in place, copying only the rows that move."""
    moved = np.flatnonzero(perm != np.arange(perm.size))
    a[moved] = a[perm[moved]]


def _panel(a: np.ndarray, p: int, d: int) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """Rank-revealing LU of a narrow panel of bound ``d``; see :func:`_lu`.

    Left-looking on a transposed contiguous copy ``t``, so each column is a
    stride-1 row: column j gets the updates of all earlier pivots at once,
    ``t[j, r:] -= u @ t[:r, r:]`` with ``u = L11^-1 t[j, :r]``, and is centred
    before its pivot search.  The L columns are compacted into ``t[:r]``,
    and the inverse of L11 grows by one row per pivot.
    """
    m, width = a.shape
    t = np.ascontiguousarray(a.T)
    if d:
        _centre(t, p)
    perm = np.arange(m)
    linv = np.zeros((min(m, width), min(m, width)))
    r = 0
    for j in range(width):
        x = t[j]
        if r:
            u = _centre(linv[:r, :r] @ x[:r], p)
            x[r:] -= u @ t[:r, r:]
        if not _centre(x[r:], p)[0]:
            nz = x[r:].nonzero()[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            t[:, [r, i]] = t[:, [i, r]]
            perm[[r, i]] = perm[[i, r]]
        inv = pow(int(x[r]), -1, p)
        x[r + 1:] *= inv if 2 * inv < p else inv - p
        _centre(x[r + 1:], p)
        if r:
            np.negative(_centre(t[:r, r] @ linv[:r, :r], p), out=linv[r, :r])
        linv[r, r] = 1.0
        if r < j:
            t[r] = x
        r += 1
        if r == m:
            break
    a[:, :r] = t[:r].T
    return r, perm, [linv[:r, :r]] if r else []


def _lu(a: np.ndarray, p: int, block: int, d: int) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """Rank-revealing recursive LU over GF(p), in place, of a matrix of bound ``d``.

    Returns the rank r, a row order ``perm`` with ``A[perm] = L @ U``, and
    the centred inverses of the diagonal blocks of L's top r x r part, one
    per base panel.  L is m x r and unit lower trapezoidal, and on return its
    strictly lower part sits in ``a[:, :r]``, centred.  The other entries of
    ``a`` are left undefined.  Splits the columns in half (Toledo's recursion): factor the
    left half, solve ``U12 = L11^-1 A12``, update ``A22 -= L21 @ U12``, and
    factor A22 below the pivots.  Stops as soon as every row has a pivot.
    """
    m, n = a.shape
    if n <= block:
        return _panel(a, p, d)
    h = n // 2
    r1, perm, invs = _lu(a[:, :h], p, block, d)
    if r1 == m:
        return r1, perm, invs
    right = a[:, h:]
    if r1:
        _permute_rows(right, perm)
        _trsm(a[:r1, :r1], right[:r1], p, invs, d)
        d = _gemm_sub(right[r1:], a[r1:, :r1], right[:r1], p, d)
    r2, perm2, invs2 = _lu(right[r1:], p, block, d)
    if r2:
        _permute_rows(a[r1:, :r1], perm2)
        perm[r1:] = perm[r1:][perm2]
        a[r1:, r1: r1 + r2] = right[r1:, :r2]
    return r1 + r2, perm, invs + invs2


def rank_mod_p(matrix, p: int = MODULAR_PRIMES[0], block: int = _BASE_PANEL) -> int:
    """Rank of an integer matrix over GF(p).

    Recursive rank-revealing LU (:func:`_lu`) on centred float64 residues:
    nearly all the work is float64 GEMM with delayed reduction.  ``block``
    is the width of the base panels, which are factored one column at a
    time.
    """
    if block < 1 or block > _chunk(p):
        raise ValueError(f"block {block} too wide for prime {p}")
    m = np.array(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("need a 2-d matrix")
    if m.size == 0:
        return 0
    big = max(m.max(), -m.min())
    if big >= 2**53:
        raise ValueError("entries too large for exact float64 storage")
    if big > p // 2:
        # fmod is exact for any float64; _centre alone could round p*rint(a/p) near 2^53
        _centre(np.fmod(m, p, out=m), p)
    return _lu(m, p, block, 0)[0]


def nullity_mod_p(matrix, p: int = MODULAR_PRIMES[0]) -> int:
    """Nullity over GF(p); an exact upper bound on the nullity over Q."""
    m = np.asarray(matrix)
    return m.shape[1] - rank_mod_p(m, p)


def kernel_rank_certified(vectors: Sequence[Sequence[int]] | np.ndarray) -> int:
    """Certified rank over Q of a small family of integer row vectors.

    Modular rank is a lower bound for the rational rank, so when it equals
    the row count the family is certified independent.  Otherwise fall back
    to the exact Bareiss engine (families here are small).
    """
    arr = np.asarray(vectors, dtype=np.int64)
    if arr.size == 0:
        return 0
    for p in MODULAR_PRIMES:
        if rank_mod_p(arr, p) == arr.shape[0]:
            return arr.shape[0]
    return fraction_free_rank(arr.tolist(), cap=None)
